"""Source-level module rewriting for the hyperplane transformation.

Given a module, its recursive array ``X`` and the coordinate change
``y = T x`` (first row = the time vector), this produces a *new PS module*
in which:

* ``X`` is replaced by a transformed array ``Xp`` declared over the new
  coordinates (time extent ``[pi . lo, pi . hi]`` over the declared box);
* all defining equations of ``X`` are merged into one equation over the new
  index variables, guarded by (a) a padding test for lattice points outside
  the image of the original box and (b) each original equation's definition
  domain mapped through the inverse transformation;
* every self-reference ``X[x + delta]`` becomes ``Xp[y + T delta]`` — the
  paper's "replace each reference to A'[K',I',J'] by A[I',J',K'-2I'-J']"
  carried out in the opposite (preferable) direction: the program works
  entirely in the transformed array;
* references to ``X`` from *other* equations are rewritten through ``T``
  (``A[maxK,I,J]`` becomes ``Ap[2*maxK+I+J, maxK, I]``) — the rotate-out;
  when ``X`` is a result, the equation ``X[x] = Xp[T x]`` keeps it defined.

The rewrite requires the non-time rows of ``T`` to be standard basis vectors
(the paper's construction guarantees this for its example; the greedy
completion produces such rows whenever possible) and a non-negative time
vector, so subrange bounds stay symbolic without needing min/max.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransformError
from repro.graph.labels import _probe
from repro.hyperplane.dependences import DependenceSet
from repro.hyperplane.exprutil import add, conjoin, linear_combination, offset
from repro.hyperplane.unimodular import Matrix, integer_inverse
from repro.ps.ast import (
    ArrayTypeExpr,
    BinOp,
    BoolLit,
    Equation,
    Expr,
    IfExpr,
    Index,
    IntLit,
    LhsItem,
    Module,
    Name,
    NamedTypeExpr,
    RangeTypeExpr,
    RealLit,
    TypeDecl,
    VarDecl,
    expr_equal,
    map_children,
    names_in,
)
from repro.ps.coverage import definition_boxes
from repro.ps.printer import format_expression
from repro.ps.semantics import AnalyzedModule
from repro.ps.types import ArrayType, RealType


@dataclass
class RewritePlan:
    array: str
    new_array: str
    new_names: list[str]  # transformed index variables (Kp, Ip, Jp)
    T: Matrix
    orig_exprs: list[Expr]  # original coords as expressions in new indices


def _zero_for(element_type) -> Expr:
    if element_type == RealType:
        return RealLit(0.0)
    if getattr(element_type, "kind", None) == "bool":
        return BoolLit(False)
    return IntLit(0)


def rewrite_module(
    analyzed: AnalyzedModule,
    deps: DependenceSet,
    T: Matrix,
    new_module_name: str | None = None,
) -> tuple[Module, str, list[str]]:
    """The transformed PS module, the name of its transformed array and
    that array's index variables (the time index first)."""
    module = analyzed.module
    array = deps.array
    sym = analyzed.table.symbol(array)
    if sym is None or not isinstance(sym.type, ArrayType):
        raise TransformError(f"{array!r} is not an array of the module")
    arr_type: ArrayType = sym.type
    n = arr_type.rank
    pi = tuple(T[0])
    if any(p < 0 for p in pi):
        raise TransformError(
            "source-level rewrite requires a non-negative time vector "
            f"(got {pi}); use the numeric wavefront executor instead"
        )
    # Non-time rows must be standard basis vectors for symbolic bounds.
    selected: list[int] = []
    for row in T[1:]:
        ones = [i for i, v in enumerate(row) if v == 1]
        if len(ones) != 1 or any(v not in (0, 1) for v in row) or sum(row) != 1:
            raise TransformError(
                "source-level rewrite requires basis-vector completion rows; "
                f"got {row}"
            )
        selected.append(ones[0])
    Tinv = integer_inverse(T)

    taken = set(analyzed.table.symbols) | set(analyzed.table.subranges) | set(
        analyzed.table.enums
    )
    typedecls = list(module.typedecls)

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name += "p"
        taken.add(name)
        return name

    def declare(base: str, lo: Expr, hi: Expr) -> str:
        """A fresh subrange ``lo .. hi`` declared under a name like ``base``."""
        name = fresh(base)
        typedecls.append(TypeDecl([name], RangeTypeExpr(lo, hi)))
        return name

    # ---- the transformed array over new subranges ----------------------------
    new_array = fresh(array + "p")
    decl_los = [d.lo for d in arr_type.dims]
    decl_his = [d.hi for d in arr_type.dims]
    ranges = [(linear_combination(list(pi), decl_los), linear_combination(list(pi), decl_his))]
    ranges += [(decl_los[i], decl_his[i]) for i in selected]
    new_names = [
        declare(deps.dim_names[j] + "p", lo, hi) for j, (lo, hi) in enumerate(ranges)
    ]

    # Original coordinates as expressions of the new indices: x = Tinv y.
    new_name_exprs: list[Expr] = [Name(nm) for nm in new_names]
    orig_exprs = [
        linear_combination(list(Tinv[i]), new_name_exprs) for i in range(n)
    ]
    plan = RewritePlan(array, new_array, new_names, T, orig_exprs)

    elem_te = _element_typeexpr(arr_type)
    new_dims_te = [NamedTypeExpr(nm) for nm in new_names]
    new_vardecls: list[VarDecl] = []
    for decl in module.vardecls:
        names = [nm for nm in decl.names if nm != array]
        if names:
            new_vardecls.append(VarDecl(names, decl.typeexpr))
    new_vardecls.append(VarDecl([new_array], ArrayTypeExpr(new_dims_te, elem_te)))

    # ---- equations -------------------------------------------------------------
    defining = [eq for eq in module.equations if any(l.name == array for l in eq.lhs)]
    merged = [_merge_defining_equations(analyzed, defining, arr_type, plan)]
    if any(p.name == array for p in module.results):
        merged.append(_rotate_out(arr_type, plan, declare))

    # Foreign equations are rewritten from their *normalised* forms so that
    # partial references like A[maxK] appear with full subscripts.
    analyzed_by_label = {aeq.label: aeq for aeq in analyzed.equations}
    declared = set(analyzed.table.subranges)
    new_equations: list[Equation] = []
    for eq in module.equations:
        if any(l.name == array for l in eq.lhs):
            new_equations += merged
            merged = []
            continue
        new_equations.append(
            _rewrite_foreign_equation(
                analyzed_by_label[eq.label], arr_type, plan, declared, declare
            )
        )
    for label, eq in enumerate(new_equations, 1):
        eq.label = f"eq.{label}"

    return Module(
        name=new_module_name or module.name + "Hyper",
        params=list(module.params),
        results=list(module.results),
        typedecls=typedecls,
        vardecls=new_vardecls,
        equations=new_equations,
    ), new_array, new_names


def _element_typeexpr(arr_type: ArrayType):
    if arr_type.element == RealType:
        return NamedTypeExpr("real")
    kind = getattr(arr_type.element, "kind", None)
    if kind in ("int", "bool"):
        return NamedTypeExpr(kind)
    raise TransformError(
        f"unsupported element type {arr_type.element} for the rewrite"
    )


def _merge_defining_equations(
    analyzed: AnalyzedModule,
    defining: list[Equation],
    arr_type: ArrayType,
    plan: RewritePlan,
) -> Equation:
    """One equation over the new coordinates, with padding + domain guards."""
    n = arr_type.rank
    zero = _zero_for(arr_type.element)

    # Padding guard: original coordinates produced by non-trivial inverse
    # rows must lie inside the declared box. An original coordinate i is
    # trivially in range when some non-time row j of T is the basis vector
    # e_i — then the new dimension j *is* x_i and was declared with exactly
    # x_i's bounds.
    pad_conds: list[Expr] = []
    for i in range(n):
        covered = any(
            sum(abs(v) for v in plan.T[j]) == 1 and plan.T[j][i] == 1
            for j in range(1, n)
        )
        if covered:
            continue
        expr = plan.orig_exprs[i]
        sub = arr_type.dims[i]
        pad_conds.append(BinOp("<", expr, sub.lo))
        pad_conds.append(BinOp(">", expr, sub.hi))
    padding: Expr | None = None
    for c in pad_conds:
        padding = c if padding is None else BinOp("or", padding, c)

    # Branches, one per defining equation, in source order.
    analyzed_by_label = {eq.label: eq for eq in analyzed.equations}
    branches = [
        _transform_defining(analyzed_by_label[eq.label], arr_type, plan)
        for eq in defining
    ]

    # Assemble the if-cascade, innermost first. When the definition domains
    # tile the declared box, the final else is the last branch's body and no
    # guard is wasted; otherwise the elements no equation defines read as
    # zero, as they do in the untransformed module's zero-filled storage.
    guard, result = branches[-1]
    declared = [(d.lo, d.hi) for d in arr_type.dims]
    if guard is not None and not _tiles(
        definition_boxes(analyzed).get(plan.array, []), declared
    ):
        result = IfExpr(guard, result, zero)
    for guard, body in reversed(branches[:-1]):
        assert guard is not None, "only the last branch may be unguarded"
        result = IfExpr(guard, body, result)
    if padding is not None:
        result = IfExpr(padding, zero, result)

    lhs = LhsItem(plan.new_array, [Name(nm) for nm in plan.new_names])
    return Equation([lhs], result)


def _tiles(boxes: list, declared: list[tuple[Expr, Expr]]) -> bool:
    """Whether the definition ``boxes`` (one ``(lo, hi)`` per dimension)
    provably tile the ``declared`` box: some dimension cuts them into slabs
    that follow one another from its lower to its upper bound, and inside
    each slab the boxes tile the other dimensions."""
    if not declared:
        return len(boxes) == 1
    for d, (lo, hi) in enumerate(declared):
        slabs: dict[str, tuple[Expr, list]] = {}  # by lower bound
        for box in boxes:
            (box_lo, box_hi), rest = box[d], box[:d] + box[d + 1 :]
            slab_hi, members = slabs.setdefault(format_expression(box_lo), (box_hi, []))
            if not expr_equal(slab_hi, box_hi):
                break
            members.append(rest)
        else:
            at, chained = lo, 0
            while chained < len(slabs) and format_expression(at) in slabs:
                at = add(slabs[format_expression(at)][0], IntLit(1))
                chained += 1
            others = declared[:d] + declared[d + 1 :]
            if (
                chained == len(slabs)
                and expr_equal(at, add(hi, IntLit(1)))
                and all(_tiles(inner, others) for _, inner in slabs.values())
            ):
                return True
    return False


def _rotate_out(arr_type: ArrayType, plan: RewritePlan, declare) -> Equation:
    """``X[x] = Xp[T x]`` over the declared dimensions of ``X``: a result
    the rewrite moved into the transformed array keeps its definition."""
    names: list[str] = []
    for pos, dim in enumerate(arr_type.dims):
        if dim.anonymous or dim.name in names:
            names.append(declare(f"i{pos}", dim.lo, dim.hi))
        else:
            names.append(dim.name)
    x: list[Expr] = [Name(nm) for nm in names]
    return Equation([LhsItem(plan.array, x)], _transformed_ref(plan, x))


def _transformed_ref(plan: RewritePlan, subs: list[Expr]) -> Index:
    """``Xp[T e]`` for the original coordinates ``e``."""
    return Index(
        Name(plan.new_array),
        [linear_combination(list(row), subs) for row in plan.T],
    )


def _rewrite_expr(expr: Expr, array: str, mapping: dict[str, Expr], on_ref) -> Expr:
    """``expr`` with names replaced by ``mapping`` and every reference
    ``array[...]`` by ``on_ref(reference)``."""
    if isinstance(expr, Index) and isinstance(expr.base, Name) and expr.base.ident == array:
        return on_ref(expr)
    if isinstance(expr, Name):
        if expr.ident == array:
            raise TransformError(
                f"whole-array reference to {array!r} cannot be rewritten"
            )
        return mapping.get(expr.ident, expr)
    return map_children(expr, lambda e: _rewrite_expr(e, array, mapping, on_ref))


def _transform_defining(
    aeq, arr_type: ArrayType, plan: RewritePlan
) -> tuple[Expr | None, Expr]:
    """Guard + transformed body for one defining equation of the array."""
    target = next(t for t in aeq.targets if t.name == plan.array)

    # Substitution of the equation's index variables by inverse expressions.
    mapping: dict[str, Expr] = {}
    conds: list[Expr] = []
    for i, sub_expr in enumerate(target.subscripts):
        if isinstance(sub_expr, Name) and any(
            d.index == sub_expr.ident for d in aeq.dims
        ):
            v = sub_expr.ident
            mapping[v] = plan.orig_exprs[i]
            dim = next(d for d in aeq.dims if d.index == v)
            # In-range guard where the equation's subrange is narrower than
            # the declared dimension (e.g. K = 2..maxK inside 1..maxK).
            if not expr_equal(dim.subrange.lo, arr_type.dims[i].lo):
                conds.append(BinOp(">=", plan.orig_exprs[i], dim.subrange.lo))
            if not expr_equal(dim.subrange.hi, arr_type.dims[i].hi):
                conds.append(BinOp("<=", plan.orig_exprs[i], dim.subrange.hi))
        else:
            # Constant slice, e.g. A[1] = ... -> guard orig_expr == 1.
            conds.append(BinOp("=", plan.orig_exprs[i], sub_expr))

    def shift(ref: Index) -> Index:
        """``X[x + delta]`` -> ``Xp[y + T delta]``: each subscript is its
        position's index variable plus a constant (``extract_dependences``
        guarantees it)."""
        deltas = [_uniform_delta(s) for s in ref.subscripts]
        if None in deltas:
            raise TransformError(
                f"self-reference subscript at position {deltas.index(None)} "
                "is not uniform"
            )
        return Index(
            Name(plan.new_array),
            [
                offset(name, sum(t * d for t, d in zip(row, deltas)))
                for name, row in zip(plan.new_names, plan.T)
            ],
        )

    body = _rewrite_expr(aeq.rhs, plan.array, mapping, shift)
    return conjoin(conds), body


def _uniform_delta(sub: Expr) -> int | None:
    """Delta of a uniform subscript ``v + delta`` (slope 1 in its single
    index variable), or None when the subscript is not of that form."""
    candidates = names_in(sub)
    if len(candidates) != 1:
        return None
    index = next(iter(candidates))
    f0 = _probe(sub, index, 0)
    f1 = _probe(sub, index, 1)
    if f0 is None or f1 is None or f1 - f0 != 1:
        return None
    return f0


def _rewrite_foreign_equation(
    aeq, arr_type: ArrayType, plan: RewritePlan, declared: set[str], declare
) -> Equation:
    """Rewrite references to X in a non-defining (analyzed, normalised)
    equation: X[e] -> Xp[T e]. An implicit dimension the analyser named
    itself (``_i0``, over an anonymous range) gets a declared name."""
    mapping: dict[str, Expr] = {
        d.index: Name(declare(d.index.lstrip("_"), d.subrange.lo, d.subrange.hi))
        for d in aeq.dims
        if d.index not in declared
    }

    def rotate(ref: Index) -> Index:
        if len(ref.subscripts) != arr_type.rank:
            raise TransformError(
                f"partial reference to {plan.array!r} outside its "
                f"defining component cannot be rewritten"
            )
        return _transformed_ref(plan, [rewrite(s) for s in ref.subscripts])

    def rewrite(expr: Expr) -> Expr:
        return _rewrite_expr(expr, plan.array, mapping, rotate)

    lhs = [LhsItem(t.name, [rewrite(s) for s in t.subscripts]) for t in aeq.targets]
    return Equation(lhs, rewrite(aeq.rhs))
