"""The one nest lowering: legality asked once, emission done once.

Every compiled kernel in this package is the same walk over a scheduled
loop nest — the paper's code generator printing ``DO``/``DOALL`` headers
around equation bodies — seen through three parameters:

* **slice** — which iterations one call executes: the root subrange
  ``[lo, hi]`` with inner loops at their declared bounds (shape
  ``"full"``); a per-equation kernel is the walk of one equation with no
  loops at all (:func:`lower_equation`);
* **dialect** — what the text looks like: Python over ints or over NumPy
  vectors (:mod:`repro.runtime.kernels.emit`; a nest kernel is always the
  former), or C (:mod:`repro.runtime.kernels.native`, which also follows
  the walk with the loop box its entry range proof is stated over —
  :mod:`repro.runtime.kernels.ranges`). A dialect object is one kernel
  under construction; it supplies ``open_loop`` / ``close_loop`` /
  ``store`` / ``array_windows`` / ``assemble`` and nothing else differs
  between tiers;
* **team** — whether one call runs on one thread or on a team of them
  (shape ``"team"``: the ``"full"`` slice, every thread walking the
  sequential loops and the first ``DOALL`` on each path divided among
  them, the rest of the body on one thread, a barrier after each body
  unit; a ``DOALL`` root is itself that first ``DOALL``, one ``omp for``
  over the root subrange). Only the C dialect prints it (``open_region`` /
  ``share`` / ``open_single`` / ``close_single``).

The ``"full"`` shape does not care whether its root is a ``DOALL`` or a
``DO``: the body runs in strict iteration order either way, so running a
sequential root's subrange through it (the compiled ``DO`` of the ``nest``
strategy) is bit-exact by construction. Whether a ``DO`` *may* take it is
the caller's decision. ``"team"`` keeps the ``"full"`` order wherever it
matters: a ``DOALL``'s elements are independent, each is stored by exactly
one thread, and the barrier ends every unit before the next one starts.

The C dialect may print a *leaf* loop — one whose body is all equations —
as a **segmented loop** (:mod:`repro.runtime.kernels.segments`): where its
equations branch on affine index guards (Jacobi's ``J = 0 or J = M+1``,
the §4 padding test), ``open_loop`` prints a loop over segments whose
header decides those guards once per segment, ``store`` holds the
equations back, and ``close_loop`` lowers them once per outcome with the
guards folded away. The walk is the same; every element is still stored
once, by its own expression, in iteration order.
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
)


class KernelError(ReproError):
    """The equation or nest cannot be lowered to a specialized kernel."""


#: every nest shape: ``"full"`` executes the root subrange ``[lo, hi]``;
#: ``"team"`` is ``"full"`` on a team of threads
NEST_SHAPES = ("full", "team")


def static_windows(
    name: str, analyzed: AnalyzedModule, flowchart: Flowchart, use_windows: bool
) -> dict[int, int]:
    """The window dimensions ``RuntimeArray.allocate`` will give ``name`` —
    the emitter mirrors the engine's allocation rule exactly."""
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


def holds_doall(d: Descriptor) -> bool:
    """Whether ``d`` is a ``DOALL`` or a loop with one inside — what a team
    can divide."""
    return isinstance(d, LoopDescriptor) and (
        d.parallel or any(loop.parallel for loop in d.nested_loops())
    )


def team_unfit_reason(desc: LoopDescriptor) -> str | None:
    """Why the nest rooted at ``desc`` has no ``"team"`` shape by its
    structure alone — ``None`` when it has one: a ``DOALL`` root, or a
    ``DO`` root whose body holds a ``DOALL``. (The C dialect adds its own
    refusals: a team kernel may not exit inside the region, and a
    ``DOALL`` root's iterations must be chunk-safe.)"""
    if not holds_doall(desc):
        return f"no DOALL inside DO {desc.index}"
    return None


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


def _walk(d: Descriptor, out, root: bool = False, team: bool = False) -> None:
    """Emit ``d`` into the kernel ``out`` — THE recursion over descriptor
    bodies. ``team``: every thread of a team meets ``d`` — a ``DOALL`` is
    divided among them, a ``DO`` holding one is walked by all of them,
    anything else runs on one."""
    if team and not holds_doall(d):
        out.open_single()
        _walk(d, out)
        out.close_single()
        return
    if isinstance(d, NodeDescriptor):
        out.store(d.node.equation)
        return
    assert isinstance(d, LoopDescriptor)
    if team and d.parallel:
        out.share()
    out.open_loop(d, root)
    for child in d.body:
        _walk(child, out, team=team and not d.parallel)
    out.close_loop()


def finish(out, analyzed: AnalyzedModule):
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
    return finish(out, analyzed)


def lower_nest(
    new_kernel: Callable[[], object],
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    shape: str = "full",
):
    """Lower the nest rooted at ``desc`` in ``shape`` into ``new_kernel()``
    — one empty kernel of the wanted dialect — and return what the dialect
    assembles. Raises :class:`KernelError` when the nest, the shape, or the
    dialect refuses."""
    if shape not in NEST_SHAPES:
        raise KernelError(f"unknown nest-kernel variant {shape!r}")
    why = nest_unfusable_reason(desc, analyzed)
    if why is not None:
        raise KernelError(f"{desc.index} nest is not fusable: {why}")
    if shape == "team":
        why = team_unfit_reason(desc)
        if why is not None:
            raise KernelError(why)
    out = new_kernel()
    if shape == "team":
        if not hasattr(out, "open_region"):
            raise KernelError("only the C dialect runs a team")
        out.open_region()
        _walk(desc, out, root=True, team=True)
    else:
        _walk(desc, out, root=True)
    return finish(out, analyzed)
