"""The planned load join must equal the dict-backed reference bit for bit.

``weight_catchment`` on an array-backed catchment reuses the estimate's
cached join plan (traffic-row positions in the catchment's universe).
These tests pin three things: the planned join equals
``_weight_reference`` on arbitrary inputs, the plan cache is keyed on
the universe's content (never served stale), and every catchment of
one hitlist shares a single read-only universe, so the plan hits by
identity across rounds and playbook candidates.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anycast.catchment import ArrayCatchmentMap
from repro.core.fastscan import FastScanEngine
from repro.core.playbook import PlaybookPlanner
from repro.core.sharding import sharded_weight_catchment
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import (
    UNKNOWN,
    _weight_columnar,
    _weight_reference,
    weight_catchment,
)
from repro.rng import uniform_unit_np
from repro.traffic.logs import HOURS, DayLoad, LoadKind

SITES = ["LAX", "MIA", "ARI", "AMS"]


def uniforms(seed, salt, *shape):
    """Seeded uniforms in [0, 1) of the given shape."""
    count = int(np.prod(shape))
    return uniform_unit_np(seed, salt, np.arange(count, dtype=np.int64)).reshape(shape)


def site_indices(seed, count):
    """Seeded site indices in [-1, len(SITES)), ``-1`` = unmapped."""
    draws = uniforms(seed, 3, count) * (len(SITES) + 1)
    return np.floor(draws).astype(np.int16) - 1


def assert_bitwise(actual, expected):
    assert actual.site_codes == expected.site_codes
    for code in (*expected.site_codes, UNKNOWN):
        assert (
            np.float64(actual.daily_of(code)).tobytes()
            == np.float64(expected.daily_of(code)).tobytes()
        ), code
        assert (
            actual.hourly_of(code).tobytes() == expected.hourly_of(code).tobytes()
        ), code


def day_of(blocks, seed):
    """A day over ``blocks`` with heavy-tailed, order-sensitive floats."""
    n = len(blocks)
    pareto = (1.0 - uniforms(seed, 0, n, HOURS)) ** (-1 / 1.2) - 1.0
    queries = pareto * (1.0 + 1e6 * uniforms(seed, 1, n, 1))
    fractions = uniforms(seed, 2, 2, n)
    return DayLoad(
        "svc",
        "day",
        np.asarray(blocks, dtype=np.int64),
        queries,
        fractions[0],
        fractions[1],
    )


@st.composite
def join_inputs(draw):
    span = draw(st.integers(min_value=1, max_value=400))
    universe = draw(
        st.lists(st.integers(0, span), unique=True, max_size=120).map(sorted)
    )
    # Traffic blocks: some inside the universe, some outside it.
    traffic = draw(
        st.lists(st.integers(0, span + 50), unique=True, min_size=1, max_size=150)
        .map(sorted)
    )
    site_seed = draw(st.integers(0, 2**32 - 1))
    catchment = ArrayCatchmentMap(
        SITES,
        np.asarray(universe, dtype=np.uint64),
        site_indices(site_seed, len(universe)),
    )
    return catchment, day_of(traffic, site_seed)


class TestPlannedJoinEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(inputs=join_inputs(), hourly=st.booleans())
    def test_every_kind(self, inputs, hourly):
        catchment, day = inputs
        for kind in LoadKind.ALL:
            estimate = LoadEstimate(day, kind)
            expected = _weight_reference(catchment, estimate, hourly)
            # Twice: once planning, once on the cached plan.
            assert_bitwise(_weight_columnar(catchment, estimate, hourly), expected)
            assert_bitwise(_weight_columnar(catchment, estimate, hourly), expected)

    def test_empty_universe_sends_everything_to_unknown(self):
        catchment = ArrayCatchmentMap(
            SITES, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int16)
        )
        estimate = LoadEstimate(day_of([3, 9, 27], seed=1))
        load = weight_catchment(catchment, estimate)
        assert_bitwise(load, _weight_reference(catchment, estimate, True))
        assert load.unknown_fraction() == 1.0

    def test_unmapped_and_outside_rows_are_unknown(self):
        universe = np.array([10, 20, 30], dtype=np.uint64)
        sites = np.array([0, -1, 1], dtype=np.int16)
        catchment = ArrayCatchmentMap(SITES, universe, sites)
        # 5 and 40 fall outside the universe, 20 is unmapped.
        estimate = LoadEstimate(day_of([5, 10, 20, 30, 40], seed=2))
        daily = estimate.daily_column()
        load = weight_catchment(catchment, estimate)
        assert load.daily_of("LAX") == daily[1]
        assert load.daily_of("MIA") == daily[3]
        assert load.daily_of(UNKNOWN) == (0.0 + daily[0]) + daily[2] + daily[4]
        assert_bitwise(load, _weight_reference(catchment, estimate, True))


def _catchment(universe, seed=0):
    return ArrayCatchmentMap(SITES, universe, site_indices(seed, universe.size))


class TestPlanCacheKeying:
    def test_sequence_of_universes_matches_fresh_estimates(self):
        day = day_of(list(range(0, 300, 3)), seed=5)
        universe_a = np.arange(0, 200, 2, dtype=np.uint64)
        universe_a.flags.writeable = False
        equal_copy = universe_a.copy()
        different = np.arange(1, 201, 2, dtype=np.uint64)
        assert different.shape == universe_a.shape
        estimate = LoadEstimate(day)
        for universe in (universe_a, equal_copy, different, universe_a):
            catchment = _catchment(universe)
            assert_bitwise(
                weight_catchment(catchment, estimate),
                weight_catchment(catchment, LoadEstimate(day)),
            )

    def test_read_only_universe_hits_by_identity(self):
        estimate = LoadEstimate(day_of([1, 2, 3], seed=6))
        universe = np.array([1, 3, 5], dtype=np.uint64)
        universe.flags.writeable = False
        plan = estimate.join_plan(universe)
        assert plan.key is universe
        assert estimate.join_plan(universe) is plan

    def test_unchanged_writeable_universe_reuses_its_plan(self):
        estimate = LoadEstimate(day_of([1, 2, 3], seed=6))
        universe = np.array([1, 3, 5], dtype=np.uint64)
        plan = estimate.join_plan(universe)
        assert plan.key is not universe
        assert estimate.join_plan(universe) is plan
        assert estimate.join_plan(universe.copy()) is plan

    def test_universe_made_writeable_again_is_replanned(self):
        day = day_of(list(range(0, 60, 2)), seed=7)
        universe = np.arange(0, 40, 2, dtype=np.uint64)
        universe.flags.writeable = False
        catchment = _catchment(universe, seed=3)
        estimate = LoadEstimate(day)
        weight_catchment(catchment, estimate)
        universe.flags.writeable = True
        universe += np.uint64(1)
        assert_bitwise(
            weight_catchment(catchment, estimate),
            weight_catchment(catchment, LoadEstimate(day)),
        )

    def test_writeable_universe_mutated_in_place_is_replanned(self):
        day = day_of(list(range(0, 60, 2)), seed=7)
        universe = np.arange(0, 40, 2, dtype=np.uint64)
        catchment = _catchment(universe, seed=3)
        estimate = LoadEstimate(day)
        before = weight_catchment(catchment, estimate)
        universe += np.uint64(1)  # still ascending, now all odd: no matches
        after = weight_catchment(catchment, estimate)
        assert_bitwise(after, weight_catchment(catchment, LoadEstimate(day)))
        assert after.unknown_fraction() == 1.0
        assert before.unknown_fraction() < 1.0

    def test_read_only_view_of_writeable_base_is_not_trusted(self):
        day = day_of(list(range(0, 60, 2)), seed=8)
        base = np.arange(0, 40, 2, dtype=np.uint64)
        view = base.view()
        view.flags.writeable = False
        catchment = _catchment(view, seed=4)
        estimate = LoadEstimate(day)
        weight_catchment(catchment, estimate)
        base += np.uint64(1)
        assert_bitwise(
            weight_catchment(catchment, estimate),
            weight_catchment(catchment, LoadEstimate(day)),
        )

    def test_plan_is_not_pickled(self):
        day = day_of([1, 2, 3], seed=9)
        estimate = LoadEstimate(day)
        catchment = _catchment(np.array([1, 2], dtype=np.uint64))
        expected = weight_catchment(catchment, estimate)
        clone = pickle.loads(pickle.dumps(estimate))
        assert clone._plan is None
        assert_bitwise(weight_catchment(catchment, clone), expected)


class TestConcurrentJoins:
    def test_threads_alternating_universes_never_see_a_foreign_plan(self):
        day = day_of(list(range(0, 900, 3)), seed=10)
        catchments = [
            _catchment(np.arange(start, 700, 2, dtype=np.uint64), seed=start)
            for start in (0, 1)
        ]
        expected = [weight_catchment(c, LoadEstimate(day)) for c in catchments]
        estimate = LoadEstimate(day)
        failures = []

        def worker(offset):
            try:
                for i in range(60):
                    which = (i + offset) % 2
                    assert_bitwise(
                        weight_catchment(catchments[which], estimate),
                        expected[which],
                    )
            except AssertionError as error:
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


class TestOneUniversePerHitlist:
    def test_rounds_and_candidates_share_the_hitlist_array(self, tangled_tiny):
        verfploeter = Verfploeter(tangled_tiny.internet, tangled_tiny.service)
        shared = verfploeter.hitlist.block_array
        assert not shared.flags.writeable
        first = FastScanEngine(verfploeter).run_scan(round_id=0).catchment
        second = FastScanEngine(verfploeter).run_scan(round_id=1).catchment
        assert first.universe is shared and second.universe is shared

        planner = PlaybookPlanner(verfploeter)
        service = tangled_tiny.service
        prepended = service.policy(prepends={service.site_codes[0]: 2})
        for candidate in (service.default_policy(), prepended):
            assert planner.catchment_for(candidate).universe is shared

        estimate = LoadEstimate(tangled_tiny.day_load("plan-day"))
        weight_catchment(first, estimate)
        plan = estimate._plan
        weight_catchment(second, estimate)
        assert estimate._plan is plan

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_join_matches_planned_join(self, tangled_tiny, shards):
        verfploeter = Verfploeter(tangled_tiny.internet, tangled_tiny.service)
        catchment = FastScanEngine(verfploeter).run_scan(round_id=0).catchment
        estimate = LoadEstimate(tangled_tiny.day_load("plan-day"))
        for hourly in (True, False):
            assert_bitwise(
                sharded_weight_catchment(
                    catchment, estimate, shards=shards, workers=0, hourly=hourly
                ),
                weight_catchment(catchment, estimate, hourly=hourly),
            )
