"""Unit tests for the expression evaluator (scalar and vector modes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.ps.parser import parse_expression
from repro.ps.types import RealType
from repro.runtime.evaluator import Evaluator
from repro.runtime.values import RuntimeArray, SelectedLaneClipped


def ev(data=None, **kwargs):
    return Evaluator(data or {}, **kwargs)


class TestScalarMode:
    def test_arithmetic(self):
        e = ev()
        env = {"x": 3, "y": 4}
        assert e.eval(parse_expression("x * y + 1"), env) == 13

    def test_division(self):
        assert ev().eval(parse_expression("x / 4"), {"x": 1}) == 0.25

    def test_div_mod(self):
        assert ev().eval(parse_expression("x div 4"), {"x": 9}) == 2
        assert ev().eval(parse_expression("x mod 4"), {"x": 9}) == 1

    @pytest.mark.parametrize("op", ["div", "mod"])
    def test_div_mod_of_numpy_integers_by_zero_raise(self, op):
        """An array element is a NumPy integer: a zero divisor raises the C
        tier's error, not NumPy's 0."""
        env = {"x": np.int64(9), "y": np.int64(0)}
        with pytest.raises(ZeroDivisionError, match="integer division or modulo"):
            ev().eval(parse_expression(f"x {op} y"), env)

    def test_comparisons(self):
        e = ev()
        assert e.eval(parse_expression("x < 5"), {"x": 3}) is True
        assert e.eval(parse_expression("x >= 5"), {"x": 3}) is False
        assert e.eval(parse_expression("x <> 3"), {"x": 3}) is False

    def test_short_circuit_and(self):
        # Lazy: the right side (division by zero) is never evaluated.
        e = ev()
        result = e.eval(parse_expression("false and (1 div 0 = 0)"), {})
        assert result is False

    def test_short_circuit_or(self):
        e = ev()
        assert e.eval(parse_expression("true or (1 div 0 = 0)"), {}) is True

    def test_lazy_if_skips_untaken_branch(self):
        arr = RuntimeArray.allocate("A", RealType, [(0, 3)])
        e = ev({"A": arr})
        # A[-1] is out of range but the condition guards it.
        value = e.eval(parse_expression("if x > 0 then A[x-1] else 0.0"), {"x": 0})
        assert value == 0.0

    def test_unbound_name(self):
        with pytest.raises(ExecutionError, match="unbound"):
            ev().eval(parse_expression("nothing"), {})

    def test_builtins(self):
        e = ev()
        assert e.eval(parse_expression("max(min(5, 3), 1)"), {}) == 3
        assert e.eval(parse_expression("sqrt(16.0)"), {}) == pytest.approx(4.0)
        assert e.eval(parse_expression("floor(2.9)"), {}) == 2

    def test_not(self):
        assert ev().eval(parse_expression("not (1 = 2)"), {}) is True

    def test_enum_members(self):
        e = ev(enums={"red": 0, "blue": 2})
        assert e.eval(parse_expression("blue"), {}) == 2

    def test_record_field_dotted(self):
        e = ev({"p.x": 1.5})
        assert e.eval(parse_expression("p.x * 2"), {}) == 3.0

    def test_record_field_nested_dict(self):
        e = ev({"p": {"x": 2.0}})
        assert e.eval(parse_expression("p.x"), {}) == 2.0


class TestVectorMode:
    def test_broadcast_arithmetic(self):
        e = ev()
        env = {"I": np.arange(4)}
        out = e.eval(parse_expression("I * 2 + 1"), env, vector=True)
        np.testing.assert_array_equal(out, [1, 3, 5, 7])

    def test_where_if(self):
        e = ev()
        env = {"I": np.arange(6)}
        out = e.eval(
            parse_expression("if I < 3 then 0 else 1"), env, vector=True
        )
        np.testing.assert_array_equal(out, [0, 0, 0, 1, 1, 1])

    def test_clipped_array_reads(self):
        arr = RuntimeArray.allocate("A", RealType, [(0, 3)])
        arr.set([np.arange(4)], np.array([10.0, 11.0, 12.0, 13.0]))
        e = ev({"A": arr})
        env = {"I": np.arange(4)}
        # A[I-1] at I=0 would be out of range; vector mode clips (the lane
        # is discarded by the guarding where in real programs).
        out = e.eval(
            parse_expression("if I > 0 then A[I-1] else 0.0"), env, vector=True
        )
        np.testing.assert_allclose(out, [0.0, 10.0, 11.0, 12.0])

    def test_unguarded_array_reads_are_range_checked(self):
        """A read outside any ``if`` branch is live on every lane: it
        raises the scalar walk's error; the lazy operand of ``and`` clips."""
        arr = RuntimeArray.allocate("A", RealType, [(0, 3)])
        arr.set([np.arange(4)], np.array([10.0, 11.0, 12.0, 13.0]))
        e = ev({"A": arr})
        env = {"I": np.arange(4)}
        with pytest.raises(ExecutionError, match=r"index -1 out of range \[0, 3\]"):
            e.eval(parse_expression("A[I-1] * 2.0"), env, vector=True)
        with pytest.raises(ExecutionError, match="index -1 out of range"):
            e.eval(parse_expression("if A[I-1] > 0.0 then 1 else 0"), env, vector=True)
        out = e.eval(parse_expression("I > 0 and A[I-1] > 10.5"), env, vector=True)
        np.testing.assert_array_equal(out, [False, False, True, True])

    @pytest.mark.parametrize("text, raises", [
        ("if I > 0 then A[I+1] else 0.0", True),
        ("I > 2 and A[I+1] > 0.0", True),
        ("I < 3 or A[I+1] > 0.0", True),
        ("if I > 0 then (if I > 2 then A[I+1] else 0.0) else 0.0", True),
        ("if I < 3 then A[I+1] else 0.0", False),
        ("I < 3 and A[I+1] > 10.5", False),
        ("I > 2 or A[I+1] > 11.5", False),
        ("if I > 0 then (if I < 3 then A[I+1] else 0.0) else A[I+1]", False),
    ])
    def test_clipped_lanes_raise_only_where_selected(self, text, raises):
        """A branch (or lazy operand) clips its reads on every lane. A
        clipped lane it selects — ``I = 3`` reading ``A[4]`` — is an
        out-of-range read on the scalar walk, so the vector read says so
        and the caller reruns the span there; a clipped lane it discards
        is harmless, and the lanes equal the scalar walk's."""
        arr = RuntimeArray.allocate("A", RealType, [(0, 3)])
        arr.set([np.arange(4)], np.array([10.0, 11.0, 12.0, 13.0]))
        e = ev({"A": arr})
        expr = parse_expression(text)
        if raises:
            with pytest.raises(SelectedLaneClipped):
                e.eval(expr, {"I": np.arange(4)}, vector=True)
            with pytest.raises(ExecutionError, match="index 4 out of range"):
                for i in range(4):
                    e.eval(expr, {"I": i})
        else:
            out = e.eval(expr, {"I": np.arange(4)}, vector=True)
            assert list(out) == [e.eval(expr, {"I": i}) for i in range(4)]

    def test_two_axis_broadcast(self):
        e = ev()
        env = {"I": np.arange(3)[:, None], "J": np.arange(4)}
        out = e.eval(parse_expression("I * 10 + J"), env, vector=True)
        assert out.shape == (3, 4)
        assert out[2, 3] == 23

    def test_logical_ops_vectorised(self):
        e = ev()
        env = {"I": np.arange(5)}
        out = e.eval(
            parse_expression("(I = 0) or (I = 4)"), env, vector=True
        )
        np.testing.assert_array_equal(out, [True, False, False, False, True])

    def test_scalar_vector_agreement_random(self):
        rng = np.random.default_rng(0)
        arr = RuntimeArray.allocate("A", RealType, [(0, 9)])
        arr.set([np.arange(10)], rng.random(10))
        e = ev({"A": arr, "M": 9})
        expr = parse_expression(
            "if (I = 0) or (I = M) then A[I] else (A[I-1] + A[I+1]) / 2"
        )
        vec = e.eval(expr, {"I": np.arange(10)}, vector=True)
        for i in range(10):
            assert vec[i] == pytest.approx(e.eval(expr, {"I": i}))


class TestAgainstPython:
    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_matches_python(self, x, y, z):
        e = ev()
        env = {"x": x, "y": y, "z": z}
        got = e.eval(parse_expression("(x + y) * z - x"), env)
        assert got == (x + y) * z - x

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_conditional_matches_python(self, x):
        e = ev()
        got = e.eval(parse_expression("if x mod 2 = 0 then x div 2 else 3 * x + 1"), {"x": x})
        assert got == (x // 2 if x % 2 == 0 else 3 * x + 1)
