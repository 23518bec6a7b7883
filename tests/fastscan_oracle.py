"""Reference implementations the vectorised engine is checked against.

The engine only ever runs the *inverse* Feistel walk, and only for the
rows whose send offset can change their cleaning outcome; and it takes
each per-round draw only on the rows whose outcome the draw can change.
These oracles keep the eager originals: all six draws over every row,
the forward permutation over the whole domain, the full schedule
scattered from it, and the cleaning expression applied to every row's
real offset.  They share no round code with the engine.
"""

from __future__ import annotations

import numpy as np

from typing import Tuple

from repro.bgp import instability as _instability
from repro.core import fastscan
from repro.core.fastscan import RoundArrays, RoundState, _VectorPermutation
from repro.core.sharding import assert_buffers_equal
from repro.core.verfploeter import ScanStats
from repro.icmp import latency as _latency
from repro.probing.order import round_order_seed
from repro.rng import uniform_from_prefix_np
from repro.topology import hosts as _hosts


def forward_permutation(perm: _VectorPermutation) -> np.ndarray:
    """``result[p]`` = hitlist index probed at schedule position ``p``.

    Encrypts every position and cycle-walks forward while the value
    lands outside ``[0, n)``, as :class:`PseudorandomOrder` does.
    """
    shift = np.uint64(perm._half_bits)
    mask = np.uint64(perm._half_mask)

    def feistel(values: np.ndarray) -> np.ndarray:
        left = values >> shift
        right = values & mask
        for round_index in range(fastscan._ROUNDS):
            left, right = right, left ^ perm._round_function(right, round_index)
        return (left << shift) | right

    values = feistel(np.arange(perm._n, dtype=np.uint64))
    out_of_range = values >= perm._n
    while out_of_range.any():
        values[out_of_range] = feistel(values[out_of_range])
        out_of_range = values >= perm._n
    return values.astype(np.int64)


def eager_send_offsets(state: RoundState, round_id: int) -> np.ndarray:
    """Every row's send offset, scattered from the whole forward schedule."""
    perm = _VectorPermutation(
        state.n_total, round_order_seed(state.order_parent_seed, round_id)
    )
    offsets = np.empty(state.n_total, dtype=np.float64)
    offsets[forward_permutation(perm)] = (
        np.arange(state.n_total, dtype=np.float64) * state.interval
    )
    return offsets[state.row_start:state.row_start + state.rows]


def _round_draw(state: RoundState, salt: int, round_id: int) -> np.ndarray:
    """One per-block uniform draw for this round (prefix finished)."""
    return uniform_from_prefix_np(state.prefixes[salt], round_id)


def eager_round_replies(
    state: RoundState, round_id: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round's replies before cleaning, as per-row columns.

    Returns the replying site (int16, -1 = unrouted), the first reply's
    delay in milliseconds, and the reply count (0 where nothing was
    delivered).
    """
    cfg = state.host_config
    n = state.rows
    responds = state.stable & (
        _round_draw(state, _hosts._CHURN_SALT, round_id) >= cfg.churn_probability
    )

    # Site selection with per-round flips.
    flip_draw = _round_draw(state, _instability._FLIP_SALT, round_id)
    has_alternate = state.alternate >= 0
    flips = has_alternate & (
        (state.participates & (flip_draw < state.flip_config.flipper_flip_probability))
        | (~state.flipper & (flip_draw < state.flip_config.background_flip_probability))
    )
    site = np.where(flips, state.alternate, state.base)
    delivered = responds & (site >= 0)

    # Reply counts (duplicates).
    tail = _round_draw(state, _hosts._DUPN_SALT, round_id)
    heavy = tail < cfg.heavy_duplicate_fraction
    counts = np.ones(n, dtype=np.int64)
    counts[state.duplicator & ~heavy] = 2
    heaviness = tail / cfg.heavy_duplicate_fraction
    heavy_counts = 3 + ((cfg.max_duplicates - 3) * heaviness).astype(np.int64)
    counts = np.where(state.duplicator & heavy, heavy_counts, counts)
    counts = np.where(delivered, counts, 0)

    # First-reply delay (milliseconds), mirroring the dataplane.
    latency_draw = _round_draw(state, _hosts._LATENCY_SALT, round_id)
    late_replier = (
        _round_draw(state, _hosts._LATE_SALT, round_id) < cfg.late_fraction
    )
    host_delay = np.where(
        late_replier,
        cfg.late_threshold_ms * (1.0 + 4.0 * latency_draw),
        10.0 + 390.0 * latency_draw,
    )
    jitter = state.jitter_scale * _round_draw(state, _latency._JITTER_SALT, round_id)
    site_clamped = np.clip(site, 0, len(state.site_codes) - 1)
    path_delay = (
        state.site_rtt[site_clamped, np.arange(n)] + state.access + jitter
    )
    use_path = state.lat_ok & ~late_replier & (site >= 0)
    delay = np.where(use_path, path_delay, host_delay)
    return site, delay, counts


def eager_evaluate_round(state: RoundState, round_id: int) -> RoundArrays:
    """``evaluate_round`` with every draw on every row, every row's
    offset, and no settled-row shortcut."""
    site, delay, counts = eager_round_replies(state, round_id)
    delivered = counts > 0

    offsets = eager_send_offsets(state, round_id)
    first_rel = offsets + delay / 1000.0
    dup_gap = 0.1 / 1000.0  # duplicates trail by 0.1 ms
    within = np.floor((state.late_cutoff - first_rel) / dup_gap) + 1
    within = np.clip(within, 0, counts).astype(np.int64)
    within = np.where(first_rel <= state.late_cutoff, within, 0)
    within = np.where(delivered, within, 0)

    countable = delivered & ~state.off_address
    kept_mask = countable & (within >= 1)
    stats = ScanStats(
        probes_sent=state.rows,
        replies_received=int(counts.sum()),
        wrong_round=0,
        unsolicited=int(counts[delivered & state.off_address].sum()),
        late=int((counts[countable] - within[countable]).sum()),
        duplicates=int((within[kept_mask] - 1).sum()),
        kept=int(kept_mask.sum()),
    )
    rows = np.flatnonzero(kept_mask)
    return RoundArrays(rows=rows, site=site[rows], delay=delay[rows], stats=stats)


def assert_rounds_identical(actual: RoundArrays, expected: RoundArrays) -> None:
    """Kept rows, their sites and delays, and the stats, bit for bit."""
    assert actual.stats == expected.stats
    assert_buffers_equal(actual.rows, expected.rows, "rows")
    assert_buffers_equal(actual.site, expected.site, "site")
    assert_buffers_equal(actual.delay, expected.delay, "delay")
