#!/usr/bin/env python3
"""Golden sha256 digests of seeded topologies and scan rounds.

Prints one ``name digest`` line per item:

- ``topology/<scenario>/<scale>/s<seed>``: the block table (blocks,
  ASNs, PoP ids) and the sorted relationship edges of a built
  scenario, for ``broot_like`` and ``tangled_like`` at ``tiny`` and
  ``small``, two seeds each;
- ``rounds/<rate>pps-<cutoff>s/{full,sharded}``: three rounds of
  ``tangled_like(small)`` — catchment site indices, RTT blocks and
  values, round duration and stats — once from
  ``FastScanEngine.run_series`` and once 3-sharded through
  ``run_sharded_series(workers=0)``, under three prober rate / late
  cut-off configurations, one of which leaves rows open at the cut-off.

Any change to a random stream, the cleaning rules or the merge shows
up as a changed line.  Run it on two checkouts and ``diff`` the output
to check that a change is bit-identical (``make digests``;
``--scale medium`` or ``--scale large`` for bigger rounds);
``tests/test_golden_digests.py`` pins the values.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from typing import Dict, Iterable

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.collector.cleaning import CleaningConfig  # noqa: E402
from repro.core.fastscan import FastScanEngine  # noqa: E402
from repro.core.scenarios import broot_like, tangled_like  # noqa: E402
from repro.core.sharding import run_sharded_series  # noqa: E402
from repro.core.tables import TableStore  # noqa: E402
from repro.core.verfploeter import ScanResult, Verfploeter  # noqa: E402
from repro.probing.prober import ProberConfig  # noqa: E402

TOPOLOGY_SCENARIOS = {"broot_like": broot_like, "tangled_like": tangled_like}
TOPOLOGY_SCALES = ("tiny", "small")
TOPOLOGY_SEEDS = (7, 29)

ROUND_SCALE = "small"
ROUND_SEED = 1337
ROUNDS = 3
SHARDS = 3
#: (probes per second, late cut-off in seconds).  The default rate
#: settles every row; at 20 pps and 300 s, and at 37 pps and 61 s, the
#: schedule outlasts the cut-off and some rows stay open.
ROUND_CONFIGS = ((10_000.0, 900.0), (20.0, 300.0), (37.0, 61.0))


def _sha(parts: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def topology_digest(scenario) -> str:
    """The block table (blocks, ASNs, PoPs) and relationship edges."""
    internet = scenario.internet
    blocks, asns, pops = internet.block_table()
    edges = sorted(internet.graph.edges())
    return _sha(
        [
            np.ascontiguousarray(blocks, dtype=np.int64).tobytes(),
            np.ascontiguousarray(asns, dtype=np.int64).tobytes(),
            np.ascontiguousarray(pops, dtype=np.int64).tobytes(),
            repr(edges).encode(),
        ]
    )


def rounds_digest(results: Iterable[ScanResult]) -> str:
    """Catchment sites, RTT blocks and values, durations and stats."""
    parts = []
    for result in results:
        catchment = result.catchment
        parts += [
            repr((result.round_id, catchment.site_codes)).encode(),
            np.ascontiguousarray(catchment.universe).tobytes(),
            np.ascontiguousarray(catchment.site_index_array).tobytes(),
            np.ascontiguousarray(result.rtts.block_array()).tobytes(),
            np.ascontiguousarray(result.rtts.value_array()).tobytes(),
            float(result.duration_seconds).hex().encode(),
            repr(result.stats).encode(),
        ]
    return _sha(parts)


def topology_digests() -> Dict[str, str]:
    """Digest of every topology scenario, scale and seed, by name."""
    out = {}
    for name, factory in TOPOLOGY_SCENARIOS.items():
        for scale in TOPOLOGY_SCALES:
            for seed in TOPOLOGY_SEEDS:
                key = f"topology/{name}/{scale}/s{seed}"
                out[key] = topology_digest(factory(scale=scale, seed=seed))
    return out


def _engine(scenario, rate_pps: float, late_cutoff: float) -> FastScanEngine:
    verfploeter = Verfploeter(
        scenario.internet,
        scenario.service,
        prober_config=ProberConfig(
            source_address=scenario.service.measurement_address,
            rate_pps=rate_pps,
        ),
        cleaning=CleaningConfig(late_cutoff_seconds=late_cutoff),
    )
    return FastScanEngine(verfploeter)


def round_digests(scale: str = ROUND_SCALE) -> Dict[str, str]:
    """Digests of full and sharded rounds at ``scale`` per configuration."""
    scenario = tangled_like(scale=scale, seed=ROUND_SEED)
    out = {}
    for rate_pps, late_cutoff in ROUND_CONFIGS:
        engine = _engine(scenario, rate_pps, late_cutoff)
        key = f"rounds/{rate_pps:g}pps-{late_cutoff:g}s"
        out[f"{key}/full"] = rounds_digest(engine.run_series(ROUNDS))
        with tempfile.TemporaryDirectory() as root:
            sharded = run_sharded_series(
                engine, rounds=ROUNDS, shards=SHARDS, workers=0,
                store=TableStore(root=root),
            )
        out[f"{key}/sharded"] = rounds_digest(sharded)
    return out


def main(argv=None) -> int:
    """Print every digest as ``name digest``, one per line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default=ROUND_SCALE,
        help="scale of the scan rounds (topologies are always tiny and small)",
    )
    args = parser.parse_args(argv)
    for name, digest in {**topology_digests(), **round_digests(args.scale)}.items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
