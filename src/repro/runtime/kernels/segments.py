"""Segmented leaf loops: an innermost loop's index guards decided once per
segment instead of once per element.

The paper's relaxation carries its boundary with ``if I = 0 or J = 0 or I
= M+1 or J = M+1``; the §4 rewrite adds a padding test ``Kp - 2*Ip - Jp <
0 or ... > M+1`` and the boundary tests in skewed form. Over the innermost
loop's index ``X`` each such test is true on one run of indices and false
on the next, so the loop splits into **segments** on which every test
keeps its truth value, and on each segment the body is the same
straight-line code with the tests folded away. This module is the pure
analysis behind that; :class:`repro.runtime.kernels.native._NativeKernel`
prints it.

* An **affine guard** (:class:`Atom`) is a comparison (``= <> < <= > >=``)
  in a condition — an ``if`` condition, or an operand of ``and`` / ``or`` /
  ``not`` there — whose sides are linear in the indices with integer
  literal coefficients, the rest in the ``bound()`` language (the linear
  forms the range proof reads, :meth:`RangeProof.linear
  <repro.runtime.kernels.ranges.RangeProof.linear>`), one side ``±X + e``
  and the other free of ``X``: as ``X`` steps, that side steps by one,
  so the test's truth turns at most twice before ``int64`` would wrap the
  side. Or its sides do not mention ``X`` at all (``I = 0`` inside the
  ``J`` loop): decided once per segment, with no breakpoint. Anything else (``I mod 2 = 0``,
  array reads, ``2 * X``, ``X`` on both sides) stays a per-element test.
* A **leaf** is one way of lowering the loop body: which guards the
  lowering consults and what they come out as (:func:`plan_segments`
  traces the lowering's decisions, so two outcomes that print the same
  body share a leaf — Jacobi's four boundary tests give two leaves, the §4
  relaxation four; :func:`merge_leaves` then makes one of the leaves that
  print the same text, so the §4 alignment kernel has three).
* The **tree** picks a segment's leaf from its guards' truth values.

Guard sides are in the ``bound()`` language — integer ``+ - *`` over
parameters and indices — so deciding them at the top of a segment, before
the element that used to evaluate them lazily, can neither trap nor load.
A side is printed from its linear form: the same value modulo 2**64 as
the expression the per-element test evaluates, so with ``-fwrapv`` the
same ``int64``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.codegen.clower import fold
from repro.ps.ast import BinOp, Call, Expr, IfExpr, Index, UnOp
from repro.runtime.kernels.ranges import _MIRRORED

#: the most leaves one loop is printed with; a loop with more keeps one
#: body with every test in it (every corpus shape needs at most 4)
MAX_LEAVES = 8

#: the most guard outcomes the tracing walks before it gives up
MAX_PATHS = 64

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


#: one side of a guard as :meth:`RangeProof.linear
#: <repro.runtime.kernels.ranges.RangeProof.linear>` reads it:
#: ``((index, coefficient), ...)`` sorted, and the index-free rest as C
#: text in the ``bound()`` language (``"0"`` for none)
Side = tuple[tuple[tuple[str, int], ...], str]


@dataclass(frozen=True)
class Atom:
    """An affine guard ``left op right``, the side that mentions the loop
    index on the left (mirrored if need be); ``x`` is the index's
    coefficient there (±1), or 0 when neither side mentions it."""

    left: Side
    op: str
    right: Side
    x: int


@dataclass
class SegmentPlan:
    """How one leaf loop is printed: its guards in first-met order, one
    decided map (guard node id -> truth) per leaf, and the tree that picks
    a segment's leaf (an ``int`` leaf, or ``(atom, if_true, if_false)``)."""

    atoms: list[Atom]
    leaves: list[dict[int, bool]]
    tree: object


def affine_atom(cond: Expr, index: str, linear: Callable) -> Atom | None:
    """``cond`` as an affine guard over the loop index ``index``, or None;
    ``linear(expr)`` is ``(coefficients, offset)`` or None."""
    if not (isinstance(cond, BinOp) and cond.op in _COMPARISONS):
        return None
    sides = linear(cond.left), linear(cond.right)
    if None in sides:
        return None
    (lc, lo), (rc, ro) = sides
    left, right = (tuple(sorted(lc.items())), lo), (tuple(sorted(rc.items())), ro)
    xl, xr = lc.get(index, 0), rc.get(index, 0)
    if xl and not xr and xl in (1, -1):
        return Atom(left, cond.op, right, xl)
    if xr and not xl and xr in (1, -1):
        return Atom(right, _MIRRORED[cond.op], left, xr)
    return None if xl or xr else Atom(left, cond.op, right, 0)


def _guards(expr: Expr, out: list[Expr]) -> None:
    """The comparisons in condition position anywhere in ``expr``."""

    def condition(e: Expr) -> None:
        if isinstance(e, BinOp) and e.op in ("and", "or"):
            condition(e.left)
            condition(e.right)
        elif isinstance(e, UnOp) and e.op == "not":
            condition(e.operand)
        elif isinstance(e, BinOp) and e.op in _COMPARISONS:
            out.append(e)

    if isinstance(expr, IfExpr):
        condition(expr.cond)
    elif isinstance(expr, BinOp) and expr.op in ("and", "or"):
        condition(expr)
    for child in _children(expr):
        _guards(child, out)


def _children(expr: Expr) -> list[Expr]:
    """What the C lowering lowers below ``expr``."""
    if isinstance(expr, BinOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnOp):
        return [expr.operand]
    if isinstance(expr, IfExpr):
        return [expr.cond, expr.then, expr.orelse]
    if isinstance(expr, Index):
        return list(expr.subscripts)
    if isinstance(expr, Call):
        return list(expr.args)
    return []


class _Need(Exception):
    """The trace reached a guard the outcome does not decide yet."""

    def __init__(self, atom: Atom):
        self.atom = atom


def _trace(expr: Expr, value: Callable[[Expr], bool | None], out: list) -> None:
    """Append to ``out`` every decision the C lowering takes on ``expr``
    (``CExprLowerer.lower`` / ``lower_binop_logical`` / ``lower_if`` under
    a decided map), in the order it takes them: the same ``out`` means the
    same printed body."""
    v = value(expr)
    if v is not None:
        out.append(v)
        return
    if isinstance(expr, BinOp) and expr.op in ("and", "or"):
        whole = fold(expr, value)
        out.append(whole)
        if whole is not None:
            return
        left = fold(expr.left, value)
        out.append(left)
        if left is not None:
            _trace(expr.right, value, out)
            return
        _trace(expr.left, value, out)
        right = fold(expr.right, value)
        out.append(right)
        if right is None:
            _trace(expr.right, value, out)
        return
    if isinstance(expr, IfExpr):
        cond = fold(expr.cond, value)
        out.append(cond)
        if cond is not None:
            _trace(expr.then if cond else expr.orelse, value, out)
            return
    for child in _children(expr):
        _trace(child, value, out)


def plan_segments(
    exprs: list[Expr], index: str, linear: Callable
) -> SegmentPlan | None:
    """How the leaf loop over ``index`` whose body lowers ``exprs`` (in
    lowering order) splits, or None when it keeps one body: no affine
    guard, more than :data:`MAX_LEAVES` leaves, or more than
    :data:`MAX_PATHS` guard outcomes to tell apart."""
    found: list[Expr] = []
    for e in exprs:
        _guards(e, found)
    nodes: dict[int, Atom] = {}
    for node in found:
        atom = affine_atom(node, index, linear)
        if atom is not None:
            nodes[id(node)] = atom
    if not nodes:
        return None
    paths = 0
    signatures: dict[tuple, int] = {}
    leaves: list[dict[int, bool]] = []
    order: dict[Atom, None] = {}

    def walk(assign: dict[Atom, bool]):
        """The tree below ``assign``: tracing until a guard is needed."""
        nonlocal paths

        def value(node: Expr) -> bool | None:
            atom = nodes.get(id(node))
            if atom is None:
                return None
            if atom not in assign:
                raise _Need(atom)
            return assign[atom]

        out: list = []
        try:
            for e in exprs:
                _trace(e, value, out)
        except _Need as need:
            atom = need.atom
            order.setdefault(atom)
            yes = walk({**assign, atom: True})
            no = None if yes is None else walk({**assign, atom: False})
            if no is None:
                return None
            return yes if yes == no else (atom, yes, no)
        paths += 1
        if paths > MAX_PATHS:
            return None
        leaf = signatures.get(tuple(out))
        if leaf is None:
            leaf = signatures[tuple(out)] = len(leaves)
            leaves.append(
                {key: assign[a] for key, a in nodes.items() if a in assign}
            )
        return leaf

    tree = walk({})
    if tree is None or isinstance(tree, int) or len(leaves) > MAX_LEAVES:
        return None
    return SegmentPlan(_used(order, tree), leaves, tree)


def _used(atoms, tree) -> list[Atom]:
    """The atoms ``tree`` consults, in the order of ``atoms``."""
    used: set[Atom] = set()
    stack = [tree]
    while stack:
        t = stack.pop()
        if not isinstance(t, int):
            used.add(t[0])
            stack.extend(t[1:])
    return [a for a in atoms if a in used]


def merge_leaves(plan: SegmentPlan, bodies: list[str]) -> SegmentPlan | None:
    """``plan`` with the leaves whose printed ``bodies`` are equal made one
    (the first of them kept), the tree pruned where both outcomes of a
    guard now pick the same leaf; None when no two bodies are equal. Two
    decision traces may print one body: the §4 padding test and ``Jp =
    0`` both store ``0.0``."""
    first: dict[str, int] = {}
    keep = [first.setdefault(body, k) for k, body in enumerate(bodies)]
    if len(first) == len(bodies):
        return None
    number = {leaf: n for n, leaf in enumerate(sorted(first.values()))}

    def remap(t):
        if isinstance(t, int):
            return number[keep[t]]
        atom, yes, no = t
        yes, no = remap(yes), remap(no)
        return yes if yes == no else (atom, yes, no)

    tree = remap(plan.tree)
    leaves = [plan.leaves[leaf] for leaf in sorted(first.values())]
    return SegmentPlan(_used(plan.atoms, tree), leaves, tree)
