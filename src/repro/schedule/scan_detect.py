"""Scan/reduction recognition over sequential ``DO`` loops — recognition
only: no plan strategy, kernel or backend acts on a verdict of this module.

The paper's scheduler stops at the DO/DOALL split: a carried dependence
makes the loop iterative, and every loop recognised here runs as the
compiled sequential ``DO`` (the ``nest`` strategy over a ``DO`` root). A
blocked three-phase scan over such loops did at least twice the arithmetic
of that one compiled pass and measured 0.08-0.14x its speed at two
workers (2-core host, warm runs, n = 2e5 and 2e6), so it was removed. This module stays because the end-to-end
benchmark counts recognised loops (``schedule.scan_loops``); it goes when
that counter does. Farzan's divide-and-conquer synthesis (arXiv
1904.01031) would recover parallelism for the two shapes counted:

* **associative scans** ``x[i] = x[i-1] OP b_i`` for ``OP`` in
  ``+ * min max`` (a reduction is the same loop where only the last
  element is consumed — the execution is identical, so both classify as
  ``kind == "scan"``);
* **first-order linear recurrences** ``x[i] = a_i * x[i-1] + b_i`` with
  loop-varying coefficients: the ``(a, b)`` pairs compose associatively
  (``(a2, b2) . (a1, b1) = (a2*a1, a2*b1 + b2)``), so block summaries
  parallelize the same way.

Recognition is all-or-nothing: one carried equation, carry distance
exactly 1, no module calls, no windowed storage in play. Verdicts are
computed per window mode on first request and memoized on the flowchart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ps.ast import (
    BinOp,
    Call,
    Expr,
    Index,
    IntLit,
    Name,
    UnOp,
    expr_equal,
    names_in,
    walk_expr,
)
from repro.ps.types import ArrayType
from repro.schedule.flowchart import Flowchart, LoopDescriptor, NodeDescriptor

#: associative operators recognised
SCAN_OPS = ("+", "*", "min", "max")


@dataclass(frozen=True)
class ScanInfo:
    """The classification of one recognized ``DO`` loop.

    ``kind == "scan"``: ``target[i] = target[i-1] OP b_expr``.
    ``kind == "linrec"``: ``target[i] = a_expr * target[i-1] + b_expr``.
    ``b_expr``/``a_expr`` never mention ``target``; both may reference the
    loop index. ``is_float`` flags element type ``real`` — a parallel
    float ``+``/``*`` scan would reassociate rounding (min/max stay exact).
    """

    kind: str
    op: str | None
    target: str
    label: str
    is_float: bool
    b_expr: Expr
    a_expr: Expr | None = None


def _classify(analyzed, flowchart: Flowchart, desc: LoopDescriptor,
              use_windows: bool) -> ScanInfo | None:
    if desc.parallel or len(desc.body) != 1:
        return None
    body = desc.body[0]
    if not isinstance(body, NodeDescriptor) or not body.node.is_equation:
        return None
    eq = body.node.equation
    if eq.atomic or len(eq.targets) != 1:
        return None
    if eq.index_names != [desc.index]:
        return None
    target = eq.targets[0]
    try:
        sym = analyzed.symbol(target.name)
    except KeyError:
        return None
    if not isinstance(sym.type, ArrayType) or sym.type.rank != 1:
        return None
    from repro.codegen.clower import kind_of_type

    try:
        elem_kind = kind_of_type(sym.type)
    except ValueError:
        return None
    if elem_kind not in ("int", "real"):
        return None
    subs = target.subscripts
    if len(subs) != 1 or not isinstance(subs[0], Name) or subs[0].ident != desc.index:
        return None
    # Module calls anywhere in the body poison the loop: a blocked scan
    # could not re-enter the interpreter mid-block.
    from repro.ps.semantics import is_builtin

    for node in walk_expr(eq.rhs):
        if isinstance(node, Call) and not is_builtin(node.func):
            return None
    if use_windows:
        referenced = {target.name} | names_in(eq.rhs)
        for name in referenced:
            if flowchart.window_of(name):
                return None

    carry = Index(Name(target.name), [BinOp("-", Name(desc.index), IntLit(1))])
    is_float = elem_kind == "real"

    def is_carry(e: Expr) -> bool:
        return expr_equal(e, carry)

    def target_free(e: Expr) -> bool:
        return target.name not in names_in(e)

    def info(kind: str, op: str | None, b: Expr, a: Expr | None = None) -> ScanInfo:
        return ScanInfo(kind, op, target.name, eq.label, is_float, b, a)

    rhs = eq.rhs
    if isinstance(rhs, Call) and rhs.func in ("min", "max") and len(rhs.args) == 2:
        x, y = rhs.args
        if is_carry(x) and target_free(y):
            return info("scan", rhs.func, y)
        if is_carry(y) and target_free(x):
            return info("scan", rhs.func, x)
        return None
    if not isinstance(rhs, BinOp):
        return None
    if rhs.op in ("+", "*"):
        for c, other in ((rhs.left, rhs.right), (rhs.right, rhs.left)):
            if is_carry(c) and target_free(other):
                return info("scan", rhs.op, other)
        if rhs.op == "+":
            # x[i-1] buried one level down inside a product: linear recurrence.
            for mul, other in ((rhs.left, rhs.right), (rhs.right, rhs.left)):
                if (isinstance(mul, BinOp) and mul.op == "*"
                        and target_free(other)):
                    for c, coeff in ((mul.left, mul.right), (mul.right, mul.left)):
                        if is_carry(c) and target_free(coeff):
                            return info("linrec", None, other, coeff)
        return None
    if rhs.op == "-" and is_carry(rhs.left) and target_free(rhs.right):
        # x - b is x + (-b): an additive scan.
        return info("scan", "+", UnOp("-", rhs.right))
    return None


def scan_loops(analyzed, flowchart: Flowchart,
               use_windows: bool) -> dict[tuple[int, ...], ScanInfo]:
    """Every recognized ``DO`` loop keyed by its descriptor path, memoized
    per window mode on the flowchart (same discipline as
    ``pipeline_groups``)."""
    memo = getattr(flowchart, "_scan_loops", None)
    if memo is None:
        memo = {}
        flowchart._scan_loops = memo
    key = bool(use_windows)
    if key in memo:
        return memo[key]
    found: dict[tuple[int, ...], ScanInfo] = {}
    for desc in flowchart.loops():
        if desc.parallel:
            continue
        info = _classify(analyzed, flowchart, desc, key)
        if info is not None:
            path = flowchart.path_of(desc)
            if path is not None:
                found[path] = info
    # Fission replicas: a split can leave a lone recurrence in its own
    # replica loop. Replicas key by their marker paths (lazy import:
    # fission also rides the dependence-graph machinery).
    from repro.schedule.fission import fission_splits

    for lpath, split in fission_splits(analyzed, flowchart).items():
        if not split.usable(key):
            continue
        for k, piece in enumerate(split.pieces):
            if piece.parallel:
                continue
            info = _classify(analyzed, flowchart, piece, key)
            if info is not None:
                found[lpath + (-1, k)] = info
    memo[key] = found
    return found


def scan_info(analyzed, flowchart: Flowchart, desc: LoopDescriptor,
              use_windows: bool) -> ScanInfo | None:
    """The :class:`ScanInfo` for one loop, or ``None`` if unrecognized."""
    path = flowchart.path_of(desc)
    if path is None:
        return None
    return scan_loops(analyzed, flowchart, use_windows).get(path)
