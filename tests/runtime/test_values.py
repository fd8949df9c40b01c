"""Unit tests for runtime values: bound evaluation and window arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.ps.parser import parse_expression
from repro.ps.types import IntType, RealType
from repro.runtime.values import RuntimeArray, eval_bound


class TestEvalBound:
    def test_literal(self):
        assert eval_bound(parse_expression("5"), {}) == 5

    def test_name(self):
        assert eval_bound(parse_expression("M"), {"M": 8}) == 8

    def test_arithmetic(self):
        assert eval_bound(parse_expression("2 * maxK + 2 * M + 2"), {"maxK": 10, "M": 4}) == 30

    def test_div_mod(self):
        assert eval_bound(parse_expression("n div 3"), {"n": 10}) == 3
        assert eval_bound(parse_expression("n mod 3"), {"n": 10}) == 1

    def test_unary_minus(self):
        assert eval_bound(parse_expression("-M"), {"M": 4}) == -4

    def test_unbound_name(self):
        with pytest.raises(ExecutionError, match="unbound"):
            eval_bound(parse_expression("Q"), {})

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_matches_python(self, a, b):
        env = {"a": a, "b": b}
        assert eval_bound(parse_expression("a + b * 2 - 3"), env) == a + b * 2 - 3


class TestRuntimeArrayBasics:
    def test_origin_shift(self):
        arr = RuntimeArray.allocate("A", RealType, [(2, 5)])
        arr.set([2], 1.5)
        arr.set([5], 2.5)
        assert arr.get([2]) == 1.5
        assert arr.get([5]) == 2.5
        assert arr.storage.shape == (4,)

    def test_out_of_range_read(self):
        arr = RuntimeArray.allocate("A", RealType, [(0, 3)])
        with pytest.raises(ExecutionError, match="out of range"):
            arr.get([4])
        with pytest.raises(ExecutionError, match="out of range"):
            arr.get([-1])

    def test_out_of_range_write(self):
        arr = RuntimeArray.allocate("A", RealType, [(0, 3)])
        with pytest.raises(ExecutionError, match="out of range"):
            arr.set([9], 1.0)

    def test_clip_mode(self):
        arr = RuntimeArray.allocate("A", RealType, [(0, 3)])
        arr.set([0], 7.0)
        assert arr.get([-5], clip=True) == 7.0  # clamped to index 0

    def test_vector_indexing(self):
        arr = RuntimeArray.allocate("A", RealType, [(1, 4)])
        idx = np.array([1, 2, 3, 4])
        arr.set([idx], np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(arr.get([idx]), [1, 2, 3, 4])

    def test_from_numpy_shape_check(self):
        with pytest.raises(ExecutionError, match="shape"):
            RuntimeArray.from_numpy("A", np.zeros((3, 3)), [(0, 3), (0, 3)])

    def test_to_numpy_of_windowed_rejected(self):
        arr = RuntimeArray.allocate("A", RealType, [(1, 10)], windows={0: 2})
        with pytest.raises(ExecutionError, match="window"):
            arr.to_numpy()

    def test_int_dtype(self):
        arr = RuntimeArray.allocate("A", IntType, [(0, 2)])
        assert arr.storage.dtype == np.int64

    def test_negative_extent_rejected(self):
        with pytest.raises(ExecutionError, match="negative"):
            RuntimeArray.allocate("A", RealType, [(5, 2)])


class TestWindows:
    def test_window_aliasing(self):
        arr = RuntimeArray.allocate("A", RealType, [(1, 10)], windows={0: 2})
        assert arr.storage.shape == (2,)
        arr.set([1], 1.0)
        arr.set([2], 2.0)
        assert arr.get([1]) == 1.0
        assert arr.get([2]) == 2.0
        arr.set([3], 3.0)  # overwrites the slot of 1
        assert arr.get([3]) == 3.0
        assert arr.get([2]) == 2.0

    def test_window_larger_than_extent_clamped(self):
        arr = RuntimeArray.allocate("A", RealType, [(1, 2)], windows={0: 5})
        assert arr.storage.shape == (2,)

    def test_debug_tags_catch_stale_read(self):
        arr = RuntimeArray.allocate(
            "A", RealType, [(1, 10)], windows={0: 2}, debug=True
        )
        arr.set([1], 1.0)
        arr.set([2], 2.0)
        arr.set([3], 3.0)  # evicts plane 1
        with pytest.raises(ExecutionError, match="window violation"):
            arr.get([1])

    def test_debug_tags_read_a_never_written_element_as_its_fill(self):
        """``tallskinny`` reads its never-defined row 0 at every plane: zero,
        as in full storage — while a plane a store rotated out still
        faults."""
        arr = RuntimeArray.allocate(
            "A", RealType, [(0, 5), (0, 3)], windows={0: 2}, debug=True
        )
        for k in range(1, 4):
            arr.set([k, 1], float(k))
            assert arr.get([k - 1, 0]) == 0.0  # row 0: never written
        with pytest.raises(ExecutionError, match="window violation"):
            arr.get([1, 1])  # plane 1's slot now holds plane 3

    def test_debug_tags_allow_fresh_reads(self):
        arr = RuntimeArray.allocate(
            "A", RealType, [(1, 10)], windows={0: 3}, debug=True
        )
        for k in range(1, 11):
            arr.set([k], float(k))
            if k >= 3:
                assert arr.get([k - 2]) == float(k - 2)

    def test_multidim_window(self):
        arr = RuntimeArray.allocate(
            "A", RealType, [(1, 100), (0, 4)], windows={0: 2}
        )
        assert arr.storage.shape == (2, 5)
        arr.set([1, np.arange(5)], np.arange(5.0))
        np.testing.assert_allclose(arr.get([1, np.arange(5)]), np.arange(5.0))

    def test_allocated_elements(self):
        arr = RuntimeArray.allocate(
            "A", RealType, [(1, 100), (0, 9)], windows={0: 3}
        )
        assert arr.allocated_elements == 30

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=10, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_window_equals_full_when_reads_within_window(self, w, n):
        """Writing planes in order and reading at most w-1 back gives the
        same values as a full array."""
        full = RuntimeArray.allocate("F", RealType, [(0, n)])
        win = RuntimeArray.allocate("W", RealType, [(0, n)], windows={0: w}, debug=True)
        rng = np.random.default_rng(n * w)
        for k in range(n + 1):
            v = float(rng.random())
            full.set([k], v)
            win.set([k], v)
            back = min(k, w - 1)
            for d in range(back + 1):
                assert win.get([k - d]) == full.get([k - d])
