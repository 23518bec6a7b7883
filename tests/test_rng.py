"""Tests for the deterministic RNG utilities."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.rng import (
    derive_rng,
    derive_seed,
    hash_prefix_np,
    mix64,
    mix64_np,
    splitmix64,
    uniform_from_prefix_np,
    uniform_unit,
    uniform_unit_np,
)

uint64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
uint64_arrays = st.lists(uint64, min_size=1, max_size=40).map(
    lambda values: np.array(values, dtype=np.uint64)
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_label_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_64_bit_range(self):
        for label in ("a", "b", "c"):
            assert 0 <= derive_seed(123, label) < (1 << 64)

    def test_derive_rng_streams_independent(self):
        a = derive_rng(5, "alpha")
        b = derive_rng(5, "beta")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_derive_rng_reproducible(self):
        assert derive_rng(5, "s").random() == derive_rng(5, "s").random()


class TestSplitmix:
    def test_stream_reproducible(self):
        first = [value for value, _ in zip(splitmix64(42), range(10))]
        second = [value for value, _ in zip(splitmix64(42), range(10))]
        assert first == second

    def test_values_64_bit(self):
        for value, _ in zip(splitmix64(7), range(100)):
            assert 0 <= value < (1 << 64)

    def test_mix64_deterministic(self):
        assert mix64(12345) == mix64(12345)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_mix64_in_range(self, value):
        assert 0 <= mix64(value) < (1 << 64)

    def test_mix64_avalanche(self):
        # Flipping one input bit should flip many output bits.
        base = mix64(0x1234)
        flipped = mix64(0x1235)
        assert bin(base ^ flipped).count("1") > 16


class TestUniformUnit:
    def test_range(self):
        for block in range(200):
            value = uniform_unit(1, block)
            assert 0.0 <= value < 1.0

    def test_deterministic(self):
        assert uniform_unit(9, 1, 2) == uniform_unit(9, 1, 2)

    def test_component_sensitivity(self):
        assert uniform_unit(9, 1, 2) != uniform_unit(9, 2, 1)

    def test_roughly_uniform(self):
        values = [uniform_unit(3, i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        low = sum(1 for v in values if v < 0.1) / len(values)
        assert 0.05 < low < 0.15


class TestVectorisedEqualsScalar:
    """The numpy draws are the scalar draws, value for value."""

    @given(uint64_arrays)
    def test_mix64_np(self, values):
        mixed = mix64_np(values)
        assert mixed.dtype == np.uint64
        assert [int(v) for v in mixed] == [mix64(int(v)) for v in values]

    def test_mix64_np_extremes(self):
        values = np.array([0, (1 << 64) - 1, 1, 1 << 63], dtype=np.uint64)
        assert [int(v) for v in mix64_np(values)] == [mix64(int(v)) for v in values]

    @given(uint64_arrays)
    def test_mix64_np_leaves_input_alone(self, values):
        before = values.copy()
        mix64_np(values)
        assert np.array_equal(values, before)

    @given(uint64, st.integers(min_value=0, max_value=1000), uint64_arrays)
    def test_uniform_unit_np(self, seed, salt, blocks):
        vector = uniform_unit_np(seed, salt, blocks)
        assert vector.tolist() == [uniform_unit(seed, salt, int(b)) for b in blocks]

    @given(
        uint64,
        st.integers(min_value=0, max_value=1000),
        uint64_arrays,
        st.integers(min_value=0, max_value=10_000),
        st.data(),
    )
    def test_gathered_prefix_equals_full_draw(self, seed, salt, blocks, round_id, data):
        """Finishing a gathered prefix gives those rows' full draws: the
        identity that lets a round draw only the rows that matter."""
        rows = np.array(
            data.draw(st.lists(st.integers(0, blocks.size - 1), max_size=blocks.size)),
            dtype=np.int64,
        )
        gathered = uniform_from_prefix_np(
            hash_prefix_np(seed, salt, blocks)[rows], round_id
        )
        full = uniform_unit_np(seed, salt, blocks, round_id)
        assert gathered.tobytes() == full[rows].tobytes()
