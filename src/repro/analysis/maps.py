"""Figures 2-4: geographic coverage and load maps.

Aggregates VPs, blocks, or load into the paper's two-degree geographic
bins (each a pie of anycast sites) and renders an ASCII world map where
each populated cell shows the dominant site's symbol.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.anycast.catchment import CatchmentMap
from repro.atlas.platform import AtlasMeasurement
from repro.geo.geodb import GeoDatabase
from repro.geo.grid import GeoGrid
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN


def catchment_grid(
    catchment: CatchmentMap, geodb: GeoDatabase, cell_degrees: float = 2.0
) -> GeoGrid:
    """Figure 2b/3b: one unit of weight per mapped /24 block."""
    grid = GeoGrid(cell_degrees)
    for block, site in catchment.items():
        record = geodb.locate(block)
        if record is None:
            continue  # the paper discards unlocatable blocks (678 of 3.8M)
        grid.add(record.latitude, record.longitude, site)
    return grid


def atlas_grid(
    measurement: AtlasMeasurement, cell_degrees: float = 2.0
) -> GeoGrid:
    """Figure 2a/3a: one unit of weight per responding Atlas VP."""
    grid = GeoGrid(cell_degrees)
    for result in measurement.responding:
        grid.add(result.vp.latitude, result.vp.longitude, result.site_code)
    return grid


def load_grid(
    catchment: CatchmentMap,
    estimate: LoadEstimate,
    geodb: GeoDatabase,
    cell_degrees: float = 2.0,
) -> GeoGrid:
    """Figure 4a: load-weighted map; unmapped-but-loaded blocks are UNK."""
    grid = GeoGrid(cell_degrees)
    daily = estimate.daily_column()
    for row, block in enumerate(estimate.blocks):
        volume = float(daily[row])
        if volume <= 0:
            continue
        record = geodb.locate(int(block))
        if record is None:
            continue
        site = catchment.site_of(int(block)) or UNKNOWN
        grid.add(record.latitude, record.longitude, site, weight=volume)
    return grid


def server_load_grid(
    estimate: LoadEstimate,
    geodb: GeoDatabase,
    server_of_block,
    cell_degrees: float = 2.0,
) -> GeoGrid:
    """Figure 4b: load map keyed by an arbitrary block->server function."""
    grid = GeoGrid(cell_degrees)
    daily = estimate.daily_column()
    for row, block in enumerate(estimate.blocks):
        volume = float(daily[row])
        if volume <= 0:
            continue
        record = geodb.locate(int(block))
        if record is None:
            continue
        grid.add(record.latitude, record.longitude, server_of_block(int(block)), volume)
    return grid


def render_ascii_map(
    grid: GeoGrid,
    site_symbols: Optional[Dict[str, str]] = None,
    lat_range: Tuple[float, float] = (-60.0, 72.0),
    lon_range: Tuple[float, float] = (-180.0, 180.0),
) -> str:
    """Render the dominant site per cell as an ASCII world map.

    Empty cells are spaces; the legend maps symbols to sites.  This is
    the text analogue of the paper's pie-map figures.
    """
    symbols = dict(site_symbols or {})
    cells = list(grid.cells())
    sites_in_grid = sorted({cell.dominant_site() for cell in cells})
    default_symbols = "LMXABCDEFGHIJKNOPQRSTUVWYZ123456789"
    for index, site in enumerate(sites_in_grid):
        symbols.setdefault(site, default_symbols[index % len(default_symbols)])
    degrees = grid.cell_degrees
    lat_lo = int((lat_range[0] + 90.0) // degrees)
    lat_hi = int((lat_range[1] + 90.0) // degrees)
    lon_lo = int((lon_range[0] + 180.0) // degrees)
    lon_hi = int((lon_range[1] + 180.0) // degrees)
    painted: Dict[Tuple[int, int], str] = {
        (cell.lat_index, cell.lon_index): symbols[cell.dominant_site()]
        for cell in cells
    }
    lines = []
    for lat_index in range(lat_hi, lat_lo - 1, -1):
        line = "".join(
            painted.get((lat_index, lon_index), " ")
            for lon_index in range(lon_lo, lon_hi + 1)
        )
        lines.append(line.rstrip())
    legend = "  ".join(f"{symbols[site]}={site}" for site in sites_in_grid)
    return "\n".join([*lines, "", f"legend: {legend}"])


def grid_site_summary(grid: GeoGrid) -> Dict[str, float]:
    """Total weight per site (sanity totals printed next to the maps)."""
    return grid.site_totals()
