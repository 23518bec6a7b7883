"""Lazy send offsets: ``evaluate_round`` against the eager full schedule.

``evaluate_round`` computes schedule positions only for the rows whose
cleaning outcome can depend on their send offset.  These tests compare
it bit for bit with the eager oracle (every row's offset, from the whole
forward permutation) across rates, cut-offs, duplicate caps and shard
bounds, including configurations where the schedule outlasts the
cut-off and the shortcut cannot settle every row.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.cleaning import CleaningConfig
from repro.core import fastscan
from repro.core.fastscan import FastScanEngine, evaluate_round
from repro.core.sharding import run_sharded_series
from repro.core.tables import TableStore
from repro.core.verfploeter import Verfploeter
from repro.probing.hitlist import Hitlist
from repro.probing.prober import ProberConfig
from tests.fastscan_oracle import assert_rounds_identical, eager_evaluate_round


def _verfploeter(scenario, rate_pps, late_cutoff, hitlist=None) -> Verfploeter:
    return Verfploeter(
        scenario.internet,
        scenario.service,
        prober_config=ProberConfig(
            source_address=scenario.service.measurement_address,
            rate_pps=rate_pps,
        ),
        cleaning=CleaningConfig(late_cutoff_seconds=late_cutoff),
        hitlist=hitlist,
    )


def _recording_send_offsets(monkeypatch):
    """Wrap ``fastscan.send_offsets``; returns the row counts it is asked for."""
    asked = []
    original = fastscan.send_offsets

    def recording(state, round_id, rows):
        asked.append(rows.size)
        return original(state, round_id, rows)

    monkeypatch.setattr(fastscan, "send_offsets", recording)
    return asked


@settings(max_examples=80, deadline=None)
@given(
    scale=st.sampled_from(["tiny", "small"]),
    rate_pps=st.one_of(
        st.floats(min_value=10.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=20_000.0),
    ),
    late_cutoff=st.floats(min_value=0.05, max_value=1000.0),
    max_duplicates=st.integers(min_value=3, max_value=40),
    round_id=st.integers(min_value=0, max_value=500),
    bounds=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    sharded=st.booleans(),
)
def test_lazy_offsets_equal_the_eager_schedule(
    round_states, scale, rate_pps, late_cutoff, max_duplicates, round_id, bounds,
    sharded,
):
    base = round_states[scale]
    state = replace(
        base,
        rate_pps=rate_pps,
        late_cutoff=late_cutoff,
        host_config=replace(base.host_config, max_duplicates=max_duplicates),
    )
    if sharded:
        low, high = sorted(int(bound * state.rows) for bound in bounds)
        start = min(low, state.rows - 1)
        state = state.shard(start, max(high, start + 1))
    assert_rounds_identical(
        evaluate_round(state, round_id), eager_evaluate_round(state, round_id)
    )


def test_binding_schedule_opens_rows(round_states, monkeypatch):
    """At 20 pps the small round's schedule spans ~400 s, past a 300 s
    cut-off: some rows stay open, and they alone are scheduled."""
    state = replace(round_states["small"], rate_pps=20.0, late_cutoff=300.0)
    asked = _recording_send_offsets(monkeypatch)
    for round_id in range(3):
        assert_rounds_identical(
            evaluate_round(state, round_id),
            eager_evaluate_round(state, round_id),
        )
    assert all(0 < count < state.rows for count in asked)
    assert len(asked) == 3


def test_default_config_schedules_nothing(round_states, monkeypatch):
    """At 10k pps and a 900 s cut-off no offset can matter."""
    asked = _recording_send_offsets(monkeypatch)
    evaluate_round(round_states["small"], 1)
    assert asked == [0]


def test_binding_rate_matches_packet_level(broot_tiny):
    """The lazy engine equals the packet-level pipeline when replies
    straddle the cut-off."""
    verfploeter = _verfploeter(broot_tiny, rate_pps=20.0, late_cutoff=40.0)
    routing = verfploeter.routing_for()
    engine = FastScanEngine(verfploeter, routing)
    scalar = verfploeter.run_scan(routing=routing, round_id=2, wire_level=False)
    fast = engine.run_scan(round_id=2)
    assert scalar.stats.late > 0
    assert fast.stats == scalar.stats
    assert dict(fast.catchment.items()) == dict(scalar.catchment.items())
    assert set(fast.rtts) == set(scalar.rtts)
    for block, rtt in scalar.rtts.items():
        assert math.isclose(fast.rtts[block], rtt, rel_tol=1e-9)
    assert fast.duration_seconds == scalar.duration_seconds


def test_duration_is_the_probers_expression(broot_tiny, broot_verfploeter, tmp_path):
    """``n * (1 / rate)`` and ``n / rate`` differ in the last bit for
    some hitlist sizes; every engine path must use the prober's."""
    rate = 10_000.0
    entries = list(broot_verfploeter.hitlist)
    size = next(
        k for k in range(len(entries), 0, -1) if k * (1.0 / rate) != k / rate
    )
    verfploeter = _verfploeter(
        broot_tiny, rate, 900.0, hitlist=Hitlist(entries[:size])
    )
    expected = verfploeter._prober.schedule_round(round_id=0).duration_seconds
    assert expected == size / rate
    engine = FastScanEngine(verfploeter)
    assert engine.run_scan(round_id=0).duration_seconds == expected
    reference = FastScanEngine(verfploeter, columnar=False)
    assert reference.run_scan(round_id=0).duration_seconds == expected
    sharded = run_sharded_series(
        engine, rounds=1, shards=2, workers=0,
        store=TableStore(root=str(tmp_path)),
    )
    assert sharded[0].duration_seconds == expected

