"""Unit tests for the symbolic expression helpers used by the rewrite."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hyperplane.exprutil import (
    add,
    conjoin,
    linear_combination,
    mul,
    offset,
    sub,
)
from repro.ps.ast import BinOp, IntLit, Name
from repro.ps.parser import parse_expression
from repro.ps.printer import format_expression
from repro.runtime.values import eval_bound


class TestFolding:
    def test_add_constants(self):
        assert format_expression(add(IntLit(2), IntLit(3))) == "5"

    def test_add_zero(self):
        assert format_expression(add(Name("x"), IntLit(0))) == "x"
        assert format_expression(add(IntLit(0), Name("x"))) == "x"

    def test_add_negative_becomes_subtraction(self):
        assert format_expression(add(Name("x"), IntLit(-2))) == "x - 2"

    def test_sub_zero(self):
        assert format_expression(sub(Name("x"), IntLit(0))) == "x"

    def test_mul_identities(self):
        assert format_expression(mul(1, Name("x"))) == "x"
        assert format_expression(mul(0, Name("x"))) == "0"
        assert format_expression(mul(-1, Name("x"))) == "-x"
        assert format_expression(mul(3, Name("x"))) == "3 * x"

    def test_offset(self):
        assert format_expression(offset("K", 0)) == "K"
        assert format_expression(offset("K", -2)) == "K - 2"
        assert format_expression(offset("K", 1)) == "K + 1"


class TestLinearCombination:
    def test_paper_inverse_row(self):
        # J = K' - 2I' - J'
        e = linear_combination([1, -2, -1], [Name("Kp"), Name("Ip"), Name("Jp")])
        assert format_expression(e) == "Kp - 2 * Ip - Jp"

    def test_time_row(self):
        e = linear_combination([2, 1, 1], [Name("K"), Name("I"), Name("J")])
        assert format_expression(e) == "2 * K + I + J"

    def test_zero_row(self):
        e = linear_combination([0, 0], [Name("a"), Name("b")])
        assert format_expression(e) == "0"

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_evaluates_correctly(self, coeffs, values):
        n = min(len(coeffs), len(values))
        coeffs, values = coeffs[:n], values[:n]
        names = [f"v{i}" for i in range(n)]
        e = linear_combination(coeffs, [Name(nm) for nm in names], constant=7)
        env = dict(zip(names, values))
        expected = sum(c * v for c, v in zip(coeffs, values)) + 7
        assert eval_bound(e, env) == expected


class TestConjoin:
    def test_empty(self):
        assert conjoin([]) is None

    def test_single(self):
        c = parse_expression("a = 0")
        assert conjoin([c]) is c

    def test_multiple(self):
        cs = [parse_expression("a = 0"), parse_expression("b = 1"), parse_expression("c = 2")]
        out = conjoin(cs)
        assert isinstance(out, BinOp) and out.op == "and"
        assert format_expression(out) == "a = 0 and b = 1 and c = 2"
