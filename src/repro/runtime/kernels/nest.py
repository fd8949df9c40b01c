"""The one nest lowering: legality asked once, emission done once.

Every compiled kernel in this package is the same walk over a scheduled
loop nest — the paper's code generator printing ``DO``/``DOALL`` headers
around equation bodies — seen through three parameters:

* **slice** — which iterations one call executes: the root subrange
  ``[lo, hi]`` with inner loops at their declared bounds (shape
  ``"full"``), or an inclusive range of *flat* offsets into the collapsed
  perfect DOALL chain (shape ``"flat"``);
* **projection** — how much of the body one kernel holds: all of it, or
  only the loops enclosing one equation (shape ``"span"``: one kernel per
  equation, the per-equation distribution chunk dispatch runs). A
  per-equation kernel is the same projection with no loops left
  (:func:`lower_equation`);
* **dialect** — what the text looks like: Python over ints, Python over
  NumPy row vectors (:mod:`repro.runtime.kernels.emit`), or C
  (:mod:`repro.runtime.kernels.native`, which also follows the walk with
  the loop box its entry range proof is stated over —
  :mod:`repro.runtime.kernels.ranges`). A dialect object is one kernel
  under construction; it supplies ``open_loop`` / ``open_flat`` /
  ``close_loop`` / ``store`` / ``array_windows`` / ``assemble`` and
  nothing else differs between tiers.

The ``"full"`` shape does not care whether its root is a ``DOALL`` or a
``DO``: the body runs in strict iteration order either way, so handing a
sequential root's subrange to it block by block (what pipeline sequential
stages do) is bit-exact by construction. Whether a ``DO`` *may* take it is
the caller's decision. The other two shapes reorder iterations and demand
a parallel root.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ReproError
from repro.ps.ast import (
    BinOp,
    Call,
    Expr,
    FieldRef,
    IfExpr,
    Index,
    Name,
    UnOp,
    names_in,
)
from repro.ps.semantics import AnalyzedEquation, AnalyzedModule, is_builtin
from repro.ps.symbols import SymbolKind
from repro.ps.types import ArrayType
from repro.schedule.flowchart import (
    Descriptor,
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
    collapse_chain,
)


class KernelError(ReproError):
    """The equation or nest cannot be lowered to a specialized kernel."""


#: single-kernel nest shapes: ``"full"`` executes the root subrange
#: ``[lo, hi]`` (chunkable on the root index only); ``"flat"`` executes the
#: inclusive *flat* range ``[flo, fhi]`` of the collapsed perfect DOALL
#: chain, delinearizing each flat offset back to the chain indices in-loop
NEST_VARIANTS = ("full", "flat")

#: every nest shape; ``"span"`` is ``"full"`` projected onto each equation
#: in turn — one kernel per equation
NEST_SHAPES = (*NEST_VARIANTS, "span")


def static_windows(
    name: str, analyzed: AnalyzedModule, flowchart: Flowchart, use_windows: bool
) -> dict[int, int]:
    """The window dimensions ``RuntimeArray.allocate`` will give ``name`` —
    the emitter mirrors the allocation rule in the backends exactly."""
    sym = analyzed.symbol(name)
    if not use_windows or sym.kind is not SymbolKind.VAR:
        return {}
    return dict(flowchart.window_of(name))


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


def kernelizable(eq: AnalyzedEquation, analyzed: AnalyzedModule) -> bool:
    """Static check: can this equation be compiled at all?

    Rejected: atomic equations (multi-target wholesale rebinds),
    *index-dependent* module calls (each element would recurse into the
    interpreter with different arguments), record fields, partial-rank
    array indexing and bare array names (whole-array values), and unknown
    names. Index-*independent* module calls compile: the kernel invokes
    the execution's ``call_fn`` through the cache's call box (see
    :meth:`repro.runtime.kernels.cache.KernelCache.bind_call_fn`), exactly
    as the evaluator would. Everything rejected here falls back to the
    evaluator.
    """
    return kernelizable_reason(eq, analyzed) is None


def kernelizable_reason(
    eq: AnalyzedEquation, analyzed: AnalyzedModule
) -> str | None:
    """Why :func:`kernelizable` rejects this equation — ``None`` when it
    compiles. The single source of truth for the check itself, and the
    reason string ``plan.explain()`` prints for evaluator-bound nests."""
    if eq.atomic:
        return "atomic equation"
    if len(eq.targets) != 1:
        return "multi-target equation"
    exprs: list[Expr] = [eq.rhs]
    exprs.extend(eq.targets[0].subscripts)
    found: list[str] = []

    def fail(why: str) -> bool:
        found.append(why)
        return False

    def scan(expr: Expr) -> bool:
        if isinstance(expr, FieldRef):
            return fail("record-field access")
        if isinstance(expr, Call):
            if not is_builtin(expr.func):
                # An index-independent module call evaluates to one value
                # per kernel invocation — bindable through the call box. An
                # index-dependent one stays on the evaluator.
                index_names = set(eq.index_names)
                for a in expr.args:
                    if names_in(a) & index_names:
                        return fail(
                            f"calls module {expr.func} with "
                            f"index-dependent arguments"
                        )
            return all(scan(a) for a in expr.args)
        if isinstance(expr, Index):
            if not isinstance(expr.base, Name):
                return fail("computed array base")
            sym = analyzed.table.symbol(expr.base.ident)
            if sym is None or not isinstance(sym.type, ArrayType):
                return fail(f"subscripted non-array {expr.base.ident}")
            if len(expr.subscripts) != sym.type.rank:
                return fail(f"partial-rank indexing of {expr.base.ident}")
            return all(scan(s) for s in expr.subscripts)
        if isinstance(expr, Name):
            ident = expr.ident
            if ident in eq.index_names:
                return True
            sym = analyzed.table.symbol(ident)
            if sym is not None:
                # A bare array name is a whole-array value — evaluator only.
                if isinstance(sym.type, ArrayType):
                    return fail(f"whole-array value {ident}")
                return True
            if ident in analyzed.table.enum_members:
                return True
            return fail(f"unknown name {ident}")
        for child in _children(expr):
            if not scan(child):
                return False
        return True

    if all(scan(e) for e in exprs):
        return None
    return found[0]


def _children(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnOp):
        return [expr.operand]
    if isinstance(expr, IfExpr):
        return [expr.cond, expr.then, expr.orelse]
    return []


def nest_unfusable_reason(
    desc: LoopDescriptor, analyzed: AnalyzedModule
) -> str | None:
    """Why the nest rooted at ``desc`` cannot be lowered into one kernel —
    ``None`` when it can.

    Required: a nest of loops and equations only (no data declarations);
    every equation kernelizable with a full-rank *array* target. A scalar
    target is rejected because the nest kernel hoists scalar reads once —
    a write inside the nest would be invisible to a later read, unlike the
    per-element walk. The root may be a ``DO``: the kernel runs it in
    order (see the module docstring).
    """
    saw_equation = False
    for d in desc.nested_descriptors():
        if isinstance(d, LoopDescriptor):
            continue
        assert isinstance(d, NodeDescriptor)
        if not d.node.is_equation:
            return f"data declaration {d.node.id} inside the nest"
        eq = d.node.equation
        why = kernelizable_reason(eq, analyzed)
        if why is not None:
            return f"{eq.label} not kernelizable: {why}"
        target = eq.targets[0]
        sym = analyzed.symbol(target.name)
        if not isinstance(sym.type, ArrayType):
            return f"{eq.label} assigns the scalar {target.name}"
        if len(target.subscripts) != sym.type.rank:
            return f"{eq.label} writes {target.name} at partial rank"
        saw_equation = True
    return None if saw_equation else "no equation in the nest"


def nest_fusable(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
) -> bool:
    """Static check: can this nest be lowered into one kernel? (See
    :func:`nest_unfusable_reason` for the rules and the refusal.)"""
    return nest_unfusable_reason(desc, analyzed) is None


def _rectangular_chain(
    desc: LoopDescriptor,
) -> tuple[list[LoopDescriptor], list[Descriptor]]:
    """The collapsed chain of a ``"flat"`` kernel and the body below it;
    raises unless it is a perfect, rectangular nest of two or more loops."""
    chain, body = collapse_chain(desc)
    if len(chain) < 2:
        # One loop alone is plain chunking — the full shape already covers
        # it, and the row/divmod delinearization needs an inner dimension.
        raise KernelError(
            f"DOALL {desc.index} is not a perfect nest; nothing to collapse"
        )
    chain_indices = {loop.index for loop in chain}
    for loop in chain:
        for bound in (loop.subrange.lo, loop.subrange.hi):
            if names_in(bound) & chain_indices:
                raise KernelError(
                    f"non-rectangular nest: bound of {loop.index} "
                    f"references a collapsed index"
                )
    return chain, body


def _check_distributable(desc: LoopDescriptor) -> None:
    """``"span"`` runs each equation over the whole subrange before the
    next one starts — exactly ``exec_vector_span``'s per-equation
    distribution, and exactly as there it is only order-preserving when
    every loop in the subtree is DOALL (a sequential inner ``DO`` carries
    cross-iteration dependences that per-equation reordering would
    break)."""
    for loop in desc.nested_loops():
        if not loop.parallel:
            raise KernelError(
                f"sequential loop {loop.index} inside span: per-equation "
                "distribution would reorder its cross-iteration dependences"
            )


def span_is_full(desc: LoopDescriptor) -> bool:
    """Whether the ``"span"`` kernels of ``desc`` are its ``"full"``
    kernel: a legal span (every loop a ``DOALL``) of a nest holding one
    equation projects onto all of its loops, so the two emissions are the
    same text and a dialect that memoizes may lower it once."""
    return (
        desc.parallel
        and all(loop.parallel for loop in desc.nested_loops())
        and len(desc.nested_equations()) == 1
    )


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


def _walk(
    d: Descriptor, out, only: AnalyzedEquation | None, root: bool = False
) -> None:
    """Emit ``d`` into the kernel ``out`` — THE recursion over descriptor
    bodies. ``only`` projects the nest onto one equation: loops that do not
    enclose it and its sibling equations are skipped."""
    if isinstance(d, NodeDescriptor):
        if only is None or d.node.equation is only:
            out.store(d.node.equation)
        return
    assert isinstance(d, LoopDescriptor)
    if only is not None and not any(eq is only for eq in d.nested_equations()):
        return
    out.open_loop(d, root)
    for child in d.body:
        _walk(child, out, only)
    out.close_loop()


def _finish(out, analyzed: AnalyzedModule):
    # An atomic equation elsewhere may rebind an array wholesale, dropping
    # its window mapping; a kernel that baked the mapping in would then
    # address stale planes. Such kernels stay on the evaluator.
    atomic_names = {
        t.name for eq in analyzed.equations if eq.atomic for t in eq.targets
    }
    for name, wins in out.array_windows():
        if wins and name in atomic_names:
            raise KernelError(
                f"windowed array {name!r} is rebound by an atomic equation"
            )
    return out.assemble()


def lower_equation(out, eq: AnalyzedEquation, analyzed: AnalyzedModule):
    """Lower one equation, no loops, into the kernel ``out`` and return
    what its dialect assembles. Raises :class:`KernelError` when the
    equation cannot be specialized."""
    why = kernelizable_reason(eq, analyzed)
    if why is not None:
        raise KernelError(f"{eq.label}: {why}")
    out.store(eq)
    return _finish(out, analyzed)


def lower_nest(
    new_kernel: Callable[[], object],
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    shape: str = "full",
) -> list:
    """Lower the nest rooted at ``desc`` in ``shape``; ``new_kernel()``
    makes one empty kernel of the wanted dialect. Returns what the dialect
    assembles, one per kernel: a single entry for ``"full"`` / ``"flat"``,
    one per equation (emission order) for ``"span"`` — all-or-nothing.
    Raises :class:`KernelError` when the nest, the shape, or the dialect
    refuses."""
    if shape not in NEST_SHAPES:
        raise KernelError(f"unknown nest-kernel variant {shape!r}")
    if not nest_fusable(desc, analyzed, flowchart, use_windows):
        raise KernelError(f"{desc.index} nest is not fusable")
    if shape != "full" and not desc.parallel:
        raise KernelError(f"loop {desc.index} is not DOALL")
    projections: list[AnalyzedEquation | None] = [None]
    if shape == "flat":
        chain, chain_body = _rectangular_chain(desc)
    elif shape == "span":
        _check_distributable(desc)
        projections = desc.nested_equations()
    kernels = []
    for only in projections:
        out = new_kernel()
        if shape == "flat":
            out.open_flat(chain)
            for child in chain_body:
                _walk(child, out, None)
            out.close_loop()
        else:
            _walk(desc, out, only, root=True)
        kernels.append(_finish(out, analyzed))
    return kernels
