"""Unit tests for semantic analysis: types, dimensions, normalisation."""

import pytest

from repro.errors import CoverageError, SemanticError
from repro.ps.ast import Index, IntLit
from repro.ps.parser import parse_module, parse_program
from repro.ps.printer import format_expression
from repro.ps.semantics import INLINE_MAX_NODES, analyze_module, analyze_program
from repro.ps.types import ArrayType, BoolType, RealType


def analyze(src: str):
    return analyze_module(parse_module(src))


class TestFigure1Analysis:
    @pytest.fixture(scope="class")
    def mod(self):
        from repro.core.paper import RELAXATION_JACOBI_SOURCE

        return analyze(RELAXATION_JACOBI_SOURCE)

    def test_symbols(self, mod):
        assert set(mod.table.symbols) == {"InitialA", "M", "maxK", "newA", "A"}

    def test_array_type_flattened(self, mod):
        # A: array[1..maxK] of array[I,J] of real has three dimensions
        # ("dimensionality which is the sum of subscripts and superscripts").
        a = mod.symbol("A").type
        assert isinstance(a, ArrayType)
        assert a.rank == 3
        assert a.element == RealType

    def test_eq1_dims_are_implicit_I_J(self, mod):
        eq1 = mod.equations[0]
        assert [d.index for d in eq1.dims] == ["I", "J"]
        assert all(d.implicit for d in eq1.dims)

    def test_eq1_target_normalised(self, mod):
        eq1 = mod.equations[0]
        t = eq1.targets[0]
        assert t.name == "A"
        assert len(t.subscripts) == 3
        assert isinstance(t.subscripts[0], IntLit)
        assert [s.ident for s in t.subscripts[1:]] == ["I", "J"]

    def test_eq1_rhs_normalised_to_indexed_reference(self, mod):
        eq1 = mod.equations[0]
        assert isinstance(eq1.rhs, Index)
        assert eq1.rhs.base.ident == "InitialA"
        assert [s.ident for s in eq1.rhs.subscripts] == ["I", "J"]

    def test_eq2_dims(self, mod):
        eq2 = mod.equations[1]
        assert [d.index for d in eq2.dims] == ["I", "J"]

    def test_eq2_ref_has_maxk_then_identity(self, mod):
        eq2 = mod.equations[1]
        ref = [r for r in eq2.refs if r.name == "A"][0]
        assert len(ref.subscripts) == 3
        assert ref.subscripts[0].ident == "maxK"

    def test_eq3_dims_explicit(self, mod):
        eq3 = mod.equations[2]
        assert [d.index for d in eq3.dims] == ["K", "I", "J"]
        assert not any(d.implicit for d in eq3.dims)

    def test_eq3_refs(self, mod):
        eq3 = mod.equations[2]
        a_refs = [r for r in eq3.refs if r.name == "A"]
        assert len(a_refs) == 5  # then-branch + four stencil neighbours
        m_refs = [r for r in eq3.refs if r.name == "M"]
        assert len(m_refs) == 2  # I = M+1 and J = M+1

    def test_eq3_bound_uses(self, mod):
        eq3 = mod.equations[2]
        assert "maxK" in eq3.bound_uses  # K = 2 .. maxK
        assert "M" in eq3.bound_uses  # I, J = 0 .. M+1

    def test_rhs_type_real(self, mod):
        assert mod.equations[2].rhs_type == RealType


class TestTypeChecking:
    def test_bool_condition_required(self):
        with pytest.raises(SemanticError, match="condition"):
            analyze("T: module (x: int): [y: int];\ndefine y = if x then 1 else 2;\nend T;")

    def test_arithmetic_on_bool_rejected(self):
        with pytest.raises(SemanticError):
            analyze("T: module (x: int): [y: int];\ndefine y = true + 1;\nend T;")

    def test_branch_type_mismatch(self):
        with pytest.raises(SemanticError, match="branches"):
            analyze(
                "T: module (x: int): [y: int];\n"
                "define y = if x > 0 then 1 else true;\nend T;"
            )

    def test_branch_numeric_unification(self):
        m = analyze(
            "T: module (x: int): [y: real];\n"
            "define y = if x > 0 then 1 else 2.5;\nend T;"
        )
        assert m.equations[0].rhs_type == RealType

    def test_int_to_real_widening_allowed(self):
        analyze("T: module (x: int): [y: real];\ndefine y = x;\nend T;")

    def test_real_to_int_rejected(self):
        with pytest.raises(SemanticError, match="mismatch"):
            analyze("T: module (x: real): [y: int];\ndefine y = x;\nend T;")

    def test_division_yields_real(self):
        m = analyze("T: module (x: int): [y: real];\ndefine y = x / 2;\nend T;")
        assert m.equations[0].rhs_type == RealType

    def test_div_requires_int(self):
        with pytest.raises(SemanticError):
            analyze("T: module (x: real): [y: int];\ndefine y = x div 2;\nend T;")

    def test_undeclared_name(self):
        with pytest.raises(SemanticError, match="undeclared"):
            analyze("T: module (x: int): [y: int];\ndefine y = z;\nend T;")

    def test_subscript_must_be_integral(self):
        with pytest.raises(SemanticError, match="integral"):
            analyze(
                "T: module (A: array[I] of real): [y: real];\n"
                "type I = 0 .. 9;\ndefine y = A[1.5];\nend T;"
            )

    def test_too_many_subscripts(self):
        with pytest.raises(SemanticError, match="too many"):
            analyze(
                "T: module (A: array[I] of real): [y: real];\n"
                "type I = 0 .. 9;\ndefine y = A[1, 2];\nend T;"
            )

    def test_scalar_cannot_be_subscripted(self):
        with pytest.raises(SemanticError):
            analyze("T: module (x: int): [y: int];\ndefine y = x[1];\nend T;")

    def test_builtin_arity_checked(self):
        with pytest.raises(SemanticError, match="argument"):
            analyze("T: module (x: real): [y: real];\ndefine y = sqrt(x, x);\nend T;")

    def test_builtin_sqrt_is_real(self):
        m = analyze("T: module (x: int): [y: real];\ndefine y = sqrt(x);\nend T;")
        assert m.equations[0].rhs_type == RealType

    def test_record_field_access(self):
        m = analyze(
            "T: module (p: record x: real; y: real end): [d: real];\n"
            "define d = p.x * p.x + p.y * p.y;\nend T;"
        )
        refs = m.equations[0].refs
        assert all(r.name == "p" for r in refs)
        assert {r.fieldpath for r in refs} == {("x",), ("y",)}

    def test_missing_record_field(self):
        with pytest.raises(SemanticError, match="no field"):
            analyze(
                "T: module (p: record x: real end): [d: real];\n"
                "define d = p.z;\nend T;"
            )

    def test_enum_member_usable(self):
        m = analyze(
            "T: module (c: Color): [y: bool];\n"
            "type Color = (red, green, blue);\n"
            "define y = c = red;\nend T;"
        )
        assert m.equations[0].rhs_type == BoolType


class TestSingleAssignment:
    def test_param_cannot_be_defined(self):
        with pytest.raises(SemanticError, match="single"):
            analyze("T: module (x: int): [y: int];\ndefine x = 1; y = x;\nend T;")

    def test_scalar_double_definition(self):
        with pytest.raises(CoverageError):
            analyze("T: module (x: int): [y: int];\ndefine y = 1; y = 2;\nend T;")

    def test_same_constant_slice_twice(self):
        with pytest.raises(CoverageError, match="overlap"):
            analyze(
                "T: module (M: int): [y: real];\n"
                "type I = 0 .. M;\n"
                "var A: array [1 .. 5] of real;\n"
                "define A[1] = 0.0; A[1] = 1.0; y = A[5];\nend T;"
            )

    def test_disjoint_constant_slices_ok(self):
        analyze(
            "T: module (M: int): [y: real];\n"
            "var A: array [1 .. 2] of real;\n"
            "define A[1] = 0.0; A[2] = 1.0; y = A[2];\nend T;"
        )

    def test_constant_vs_literal_range_overlap(self):
        with pytest.raises(CoverageError, match="overlap"):
            analyze(
                "T: module (x: int): [y: real];\n"
                "type I = 1 .. 5;\n"
                "var A: array [1 .. 5] of real;\n"
                "define A[1] = 0.0; A[I] = 1.0; y = A[5];\nend T;"
            )

    def test_figure1_disjointness_decided(self):
        # A[1] vs A[K,...] with K = 2..maxK: lo bound 2 is a literal, so the
        # checker can prove disjointness even though maxK is symbolic.
        from repro.core.paper import RELAXATION_JACOBI_SOURCE

        mod = analyze(RELAXATION_JACOBI_SOURCE)
        assert not any("cannot prove" in w for w in mod.warnings)

    def test_undefined_result_rejected(self):
        with pytest.raises(CoverageError, match="no defining"):
            analyze("T: module (x: int): [y: int; z: int];\ndefine y = x;\nend T;")

    def test_undefined_local_rejected(self):
        with pytest.raises(CoverageError, match="no defining"):
            analyze(
                "T: module (x: int): [y: int];\nvar t: int;\ndefine y = x;\nend T;"
            )


class TestIndexVariables:
    def test_unbound_index_var_rejected(self):
        with pytest.raises(SemanticError, match="not bound"):
            analyze(
                "T: module (A: array[I] of real): [y: real];\n"
                "type I = 0 .. 9;\ndefine y = A[I];\nend T;"
            )

    def test_index_var_twice_on_lhs_rejected(self):
        with pytest.raises(SemanticError, match="twice"):
            analyze(
                "T: module (M: int): [y: real];\n"
                "type I = 0 .. M;\n"
                "var A: array[I, I] of real;\n"
                "define A[I, I] = 1.0; y = A[0, 0];\nend T;"
            )

    def test_elementwise_whole_array_equation(self):
        m = analyze(
            "T: module (X: array[I] of real): [y: array[I] of real];\n"
            "type I = 0 .. 9;\n"
            "define y = X;\nend T;"
        )
        eq = m.equations[0]
        assert [d.index for d in eq.dims] == ["I"]
        assert isinstance(eq.rhs, Index)

    def test_elementwise_array_arithmetic(self):
        m = analyze(
            "T: module (X: array[I] of real; Y: array[I] of real):\n"
            "   [s: array[I] of real];\n"
            "type I = 0 .. 9;\n"
            "define s = X + Y;\nend T;"
        )
        eq = m.equations[0]
        # Both operands normalised to X[I] + Y[I].
        assert isinstance(eq.rhs.left, Index)
        assert isinstance(eq.rhs.right, Index)

    def test_mixed_explicit_implicit_dims(self):
        m = analyze(
            "T: module (X: array[I,J] of real; n: int): [y: real];\n"
            "type I = 0 .. 9; J = 0 .. 9; K = 1 .. n;\n"
            "var B: array[K] of array[I,J] of real;\n"
            "define B[1] = X; B[K, I, J] = if K > 1 then B[K-1, I, J] else 0.0;\n"
            "y = B[n, 0, 0];\nend T;"
        )
        eq1 = m.equations[0]
        assert [d.index for d in eq1.dims] == ["I", "J"]
        assert len(eq1.targets[0].subscripts) == 3


#: a callee with a loop of its own, which the front end does not inline
LOOP_INC = (
    "Inc: module (x: int): [y: int]; type K = 1 .. 1;\n"
    "var P: array [1 .. 1] of int; define P[K] = x + 1; y = P[1]; end Inc;\n"
)


class TestPrograms:
    def test_module_call(self):
        src = LOOP_INC + (
            "Use: module (x: int): [y: int]; define y = Inc(Inc(x)); end Use;"
        )
        p = analyze_program(parse_program(src))
        assert p["Use"].equations[0].calls == ["Inc", "Inc"]


    def test_forward_call_rejected(self):
        src = (
            "Use: module (x: int): [y: int]; define y = Inc(x); end Use;\n"
            "Inc: module (x: int): [y: int]; define y = x + 1; end Inc;"
        )
        with pytest.raises(SemanticError, match="unknown"):
            analyze_program(parse_program(src))

    def test_call_arity_checked(self):
        src = (
            "Inc: module (x: int): [y: int]; define y = x + 1; end Inc;\n"
            "Use: module (x: int): [y: int]; define y = Inc(x, x); end Use;"
        )
        with pytest.raises(SemanticError, match="argument"):
            analyze_program(parse_program(src))

    def test_multi_result_call(self):
        src = (
            "DivMod: module (a: int; b: int): [q: int; r: int];\n"
            "define q = a div b; r = a mod b; end DivMod;\n"
            "Use: module (x: int): [s: int];\n"
            "var q: int; r: int;\n"
            "define q, r = DivMod(x, 3); s = q + r; end Use;"
        )
        p = analyze_program(parse_program(src))
        eq = p["Use"].equations[0]
        assert eq.atomic
        assert [t.name for t in eq.targets] == ["q", "r"]

    def test_multi_target_arity_mismatch(self):
        src = (
            "DivMod: module (a: int; b: int): [q: int; r: int];\n"
            "define q = a div b; r = a mod b; end DivMod;\n"
            "Use: module (x: int): [s: int];\n"
            "var q: int; r: int; t: int;\n"
            "define q, r, t = DivMod(x, 3); s = q; end Use;"
        )
        with pytest.raises(SemanticError, match="targets"):
            analyze_program(parse_program(src))

    def test_duplicate_module_rejected(self):
        src = (
            "A: module (x: int): [y: int]; define y = x; end A;\n"
            "A: module (x: int): [y: int]; define y = x; end A;"
        )
        with pytest.raises(SemanticError, match="duplicate"):
            analyze_program(parse_program(src))


def _use(callee: str, rhs: str, params: str = "A: array[1 .. n] of real; n: int"):
    """``Use`` computing ``B[I] = rhs`` after ``callee``: (its equation's
    right-hand side as text, the modules it still calls)."""
    src = callee + "\n" + (
        f"Use: module ({params}): [B: array[1 .. n] of real];\n"
        f"type I = 1 .. n; define B[I] = {rhs}; end Use;"
    )
    (eq,) = analyze_program(parse_program(src))["Use"].equations
    return format_expression(eq.rhs), eq.calls


#: callees the inline pass refuses, each for one reason
REFUSED = {
    "own-loop": "Inc: module (x: real; k: int): [y: real]; type K = 1 .. 1;\n"
    "var P: array [1 .. 1] of real; define P[K] = x + k; y = P[1]; end Inc;",
    "array-parameter": "Inc: module (x: real; V: array[1 .. 2] of real): [y: real];\n"
    "define y = x + V[1]; end Inc;",
    "parameter-only-in-a-branch": "Inc: module (x: real; k: int): [y: real];\n"
    "define y = if k > 0 then x else 0.0; end Inc;",
    "parameter-only-short-circuited": "Inc: module (x: real; k: int): [y: real];\n"
    "define y = if k > 0 and x > 0.0 then 1.0 else 0.0; end Inc;",
    "two-results": "Inc: module (x: real; k: int): [y: real; z: real];\n"
    "define y = x; z = x + k; end Inc;",
    "local-never-read": "Inc: module (x: real; k: int): [y: real]; var t: real;\n"
    "define t = x / k; y = x + k; end Inc;",
    "too-big": "Inc: module (x: real; k: int): [y: real];\n"
    "var t0, t1, t2, t3, t4, t5, t6, t7: real;\n"
    "define t0 = x + k; "
    + " ".join(f"t{i} = t{i - 1} * t{i - 1};" for i in range(1, 8))
    + " y = t7; end Inc;",
}


class TestInlining:
    """A call of a loop-free scalar module is replaced by the callee's
    result before the caller is analysed."""

    def test_a_call_becomes_the_callees_result(self):
        callee = "Scale: module (x: real): [y: real]; define y = x * 2.0; end Scale;\n"
        assert _use(callee, "Scale(A[I]) + 1.0") == ("A[I] * 2.0 + 1.0", [])

    def test_locals_and_nested_calls_are_substituted(self):
        callee = (
            "Sq: module (x: real): [y: real]; define y = x * x; end Sq;\n"
            "Poly: module (x: real; k: int): [y: real]; var t: real;\n"
            "define t = Sq(x) + k; y = if t > 0.0 then t else -t; end Poly;\n"
        )
        assert _use(callee, "Poly(A[I], I)") == (
            "if A[I] * A[I] + I > 0.0 then A[I] * A[I] + I "
            "else -(A[I] * A[I] + I)",
            [],
        )

    @pytest.mark.parametrize("callee", REFUSED.values(), ids=REFUSED.keys())
    def test_a_refused_callee_is_not_inlined(self, callee):
        assert analyze_program(parse_program(callee)).inline["Inc"] is None

    def test_a_refused_callee_keeps_its_call(self):
        assert _use(REFUSED["own-loop"], "Inc(A[I], I)") == ("Inc(A[I], I)", ["Inc"])

    def test_a_deep_nest_of_calls_stays_linear(self):
        """``Sq`` reads ``x`` twice, so each level of inlining would double
        the expression: past ``INLINE_MAX_NODES`` the outer calls stay."""
        callee = "Sq: module (x: real): [y: real]; define y = x * x; end Sq;\n"
        depth = 40
        text, calls = _use(callee, "Sq(" * depth + "A[I]" + ")" * depth)
        assert set(calls) == {"Sq"}
        assert text.count("Sq(") < depth
        assert len(text) < depth * INLINE_MAX_NODES

    def test_a_kept_call_is_not_pasted_twice(self):
        """An argument holding a call that stays would run once per read of
        ``Sq``'s parameter: ``Sq`` keeps its call, and ``Scale``, which
        reads its parameter once, is inlined around the kept call."""
        callee = REFUSED["own-loop"] + (
            "Sq: module (x: real): [y: real]; define y = x * x; end Sq;\n"
            "Scale: module (x: real): [y: real]; define y = x * 2.0; end Scale;\n"
        )
        assert _use(callee, "Sq(Inc(A[I], I))") == ("Sq(Inc(A[I], I))", ["Inc", "Sq"])
        assert _use(callee, "Scale(Inc(A[I], I))") == ("Inc(A[I], I) * 2.0", ["Inc"])
        assert _use(callee, "Sq(abs(A[I]))") == ("abs(A[I]) * abs(A[I])", [])

    def test_types_are_checked_as_written(self):
        # Half's result is declared real: ``div`` refuses it, even though
        # the inlined expression would be an int
        src = (
            "Half: module (x: int): [y: real]; define y = x; end Half;\n"
            "Use: module (n: int): [B: array[1 .. n] of int];\n"
            "type I = 1 .. n; define B[I] = Half(I) div 2; end Use;"
        )
        with pytest.raises(SemanticError, match="div"):
            analyze_program(parse_program(src))

    def test_analyze_module_inlines_through_its_program(self):
        program = analyze_program(parse_program(
            "Scale: module (x: real): [y: real]; define y = x * 2.0; end Scale;"
        ))
        use = analyze_module(parse_module(
            "Use: module (A: array[1 .. n] of real; n: int): [B: array[1 .. n] of real];\n"
            "type I = 1 .. n; define B[I] = Scale(A[I]); end Use;"
        ), program)
        assert format_expression(use.equations[0].rhs) == "A[I] * 2.0"
        assert program.inline["Scale"] is not None
