"""Responder-first rounds: ``evaluate_round`` against the eager oracle.

``evaluate_round`` takes each per-round draw only on the rows whose
outcome it can change: churn on stable rows, flips on responders that
can flip, duplicate tails on delivered duplicators, late/jitter/latency
draws and cleaning on delivered on-address rows.  These tests compare it
bit for bit with the oracle that draws everything for every row, over
random host and flip models and round states perturbed so that every
branch is taken, full and sharded; and they check that a default round
never hashes a row that cannot respond.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.instability import FlipModelConfig
from repro.core import fastscan
from repro.core.fastscan import evaluate_round
from repro.rng import uniform_unit_np
from tests.fastscan_oracle import assert_rounds_identical, eager_evaluate_round

#: Salt of the perturbation masks (any value outside the model's salts).
_PERTURB_SALT = 0x7E57


def _mask(state, seed: int, column: int, fraction: float) -> np.ndarray:
    """A deterministic ``fraction`` of the state's rows."""
    draw = uniform_unit_np(seed, _PERTURB_SALT, column, state.blocks)
    return draw < fraction


unit = st.floats(min_value=0.0, max_value=1.0)
small_fraction = st.sampled_from([0.0, 0.02, 0.3, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    scale=st.sampled_from(["tiny", "small"]),
    churn_probability=unit,
    late_fraction=unit,
    heavy_duplicate_fraction=st.floats(min_value=1e-3, max_value=1.0),
    max_duplicates=st.integers(min_value=3, max_value=40),
    flipper_flip_probability=unit,
    background_flip_probability=unit,
    rate_pps=st.sampled_from([20.0, 10_000.0]),
    late_cutoff=st.sampled_from([5.0, 300.0, 900.0]),
    perturb_seed=st.integers(min_value=0, max_value=2**32),
    unrouted=small_fraction,
    unlocated=small_fraction,
    participating=small_fraction,
    flipping=small_fraction,
    off_address=small_fraction,
    duplicating=small_fraction,
    round_id=st.integers(min_value=0, max_value=500),
    bounds=st.tuples(unit, unit),
    sharded=st.booleans(),
)
def test_responder_first_equals_eager_draws(
    round_states, scale, churn_probability, late_fraction, heavy_duplicate_fraction,
    max_duplicates, flipper_flip_probability, background_flip_probability,
    rate_pps, late_cutoff, perturb_seed, unrouted, unlocated, participating,
    flipping, off_address, duplicating, round_id, bounds, sharded,
):
    base = round_states[scale]
    unrouted_rows = _mask(base, perturb_seed, 0, unrouted)
    state = replace(
        base,
        host_config=replace(
            base.host_config,
            churn_probability=churn_probability,
            late_fraction=late_fraction,
            heavy_duplicate_fraction=heavy_duplicate_fraction,
            max_duplicates=max_duplicates,
        ),
        flip_config=FlipModelConfig(
            flipper_flip_probability=flipper_flip_probability,
            background_flip_probability=background_flip_probability,
        ),
        rate_pps=rate_pps,
        late_cutoff=late_cutoff,
        # Unrouted rows keep their alternate: a flip can still route them.
        base=np.where(unrouted_rows, np.int16(-1), base.base).astype(np.int16),
        lat_ok=base.lat_ok & ~_mask(base, perturb_seed, 1, unlocated),
        participates=base.participates
        | _mask(base, perturb_seed, 2, participating),
        flipper=base.flipper ^ _mask(base, perturb_seed, 3, flipping),
        off_address=base.off_address
        | _mask(base, perturb_seed, 4, off_address),
        duplicator=base.duplicator | _mask(base, perturb_seed, 5, duplicating),
    )
    if sharded:
        low, high = sorted(int(bound * state.rows) for bound in bounds)
        start = min(low, state.rows - 1)
        state = state.shard(start, max(high, start + 1))
    assert_rounds_identical(
        evaluate_round(state, round_id), eager_evaluate_round(state, round_id)
    )


def test_unrouted_rows_reached_by_a_flip_are_kept(round_states):
    """An unrouted row with an alternate is delivered when it flips."""
    base = round_states["small"]
    state = replace(
        base,
        base=np.full(base.rows, -1, dtype=np.int16),
        flip_config=FlipModelConfig(background_flip_probability=1.0),
    )
    actual = evaluate_round(state, 3)
    assert actual.stats.kept > 0
    assert (state.alternate[actual.rows] == actual.site).all()
    assert_rounds_identical(actual, eager_evaluate_round(state, 3))


def test_default_round_hashes_only_stable_rows(round_states, monkeypatch):
    """A default round never hashes a row that cannot respond, and takes
    far fewer than the eager six draws per row."""
    state = round_states["small"]
    hashed = []
    original = fastscan.uniform_from_prefix_np

    def recording(prefix, *components):
        hashed.append(np.array(prefix, copy=True))
        return original(prefix, *components)

    monkeypatch.setattr(fastscan, "uniform_from_prefix_np", recording)
    evaluate_round(state, 7)
    drawn = np.concatenate(hashed)
    stable = state.stable
    never_responds = np.concatenate(
        [prefix[~stable] for prefix in state.prefixes.values()]
    )
    assert not np.isin(drawn, never_responds).any()
    churn = state.prefixes[fastscan._hosts._CHURN_SALT]
    assert np.array_equal(hashed[0], churn[stable])
    assert drawn.size < 3 * state.rows
