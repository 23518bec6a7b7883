"""Reference implementations the vectorised engine is checked against.

The engine only ever runs the *inverse* Feistel walk, and only for the
rows whose send offset can change their cleaning outcome.  These
oracles keep the eager originals: the forward permutation over the
whole domain, the full schedule scattered from it, and the cleaning
expression applied to every row's real offset.
"""

from __future__ import annotations

import numpy as np

from repro.core import fastscan
from repro.core.fastscan import RoundArrays, RoundState, _VectorPermutation
from repro.core.verfploeter import ScanStats
from repro.probing.order import round_order_seed


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


def eager_evaluate_round(state: RoundState, round_id: int) -> RoundArrays:
    """``evaluate_round`` with every row's offset and no settled-row shortcut."""
    site, delay, counts = fastscan._round_replies(state, round_id)
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
    return RoundArrays(site=site, delay=delay, kept_mask=kept_mask, stats=stats)
