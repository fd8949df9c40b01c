"""Cost model for the simulated MIMD machine and the execution planner.

Costs are in abstract cycles. The *structural* defaults (``op_cost`` …
``call_cost``) are loosely calibrated to a 1980s shared-memory
multiprocessor (cheap scalar ops, noticeable fork/barrier overhead) — the
regime the paper targets, where loop-level parallelism pays only when the
loop body times the iteration count dominates the synchronisation cost.

The *execution-mode* fields are calibrated against this repo's own runtime:
the same equation costs wildly different numbers of cycles depending on
whether it runs on the tree-walking evaluator, a per-equation compiled
kernel, a fused nest kernel, a NumPy vector span or compiled C. One cycle
is anchored at roughly 50 ns of the calibration machine; only ratios matter
to the planner. ``MachineModel.from_kernel_bench`` re-derives the
interpreter overheads from ``BENCH_kernels.json``;
``MachineModel.from_native_bench`` re-derives the two compiled per-element
factors — ``native_element_factor`` and ``vector_element_factor``, whose
*ratio* is what ``auto`` decides a C nest against a NumPy span on — from
one row of ``BENCH_native.json``, so that ratio is a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ps.ast import (
    BinOp,
    BoolLit,
    Call,
    Expr,
    FieldRef,
    IfExpr,
    Index,
    IntLit,
    Name,
    RealLit,
    UnOp,
)

#: execution modes the model distinguishes (see :func:`element_cost`);
#: "gather" is the vector path off the affine fast path (fancy indexing)
EXECUTION_MODES = (
    "abstract", "evaluator", "kernel", "nest", "collapse", "vector",
    "gather", "native",
)


@dataclass(frozen=True)
class MachineModel:
    """Parameters of the simulated machine."""

    processors: int = 1
    op_cost: int = 1  # one arithmetic/logical operation
    memory_cost: int = 2  # one array element read or write
    loop_overhead: int = 2  # per-iteration loop bookkeeping
    doall_fork: int = 20  # spawning a concurrent loop
    doall_barrier: int = 20  # joining it
    call_cost: int = 50  # module invocation overhead

    # -- execution-mode costs, calibrated against BENCH_kernels.json --------
    #: per-element tax of the tree-walking reference evaluator
    eval_element_overhead: float = 3300.0
    #: per-element tax of a per-equation compiled scalar kernel (one Python
    #: call + prologue hoisting per element)
    kernel_element_overhead: float = 95.0
    #: per-element tax inside a fused nest kernel (hoisting amortised over
    #: the whole nest; only the compiled loop body remains)
    nest_element_overhead: float = 12.0
    #: per-row bookkeeping of a *flat* (collapse-chunked) nest kernel: one
    #: divmod cascade, one arange, and the row-segment clipping — elements
    #: inside a row run as NumPy spans and price like ``vector``
    collapse_row_overhead: float = 60.0
    #: fraction of the structural equation cost one element costs inside a
    #: cffi-compiled native nest kernel: real machine code with its range
    #: checks proven at entry, about a third of the NumPy vector factor
    #: (both fitted from one serial Jacobi row of BENCH_native.json)
    native_element_factor: float = 0.004
    #: per-invocation cost of one native kernel call (the cffi wrapper
    #: marshals array pointers, geometry, and scalars)
    native_call_overhead: float = 400.0
    #: one-time cost of building one more native kernel function (≈ 15 ms
    #: of ``cc`` per function inside a shared translation unit; a unit's
    #: fixed ≈ 45 ms is shared by the whole plan). Priced like
    #: ``process_spinup`` — a one-time term, not amortised: a sequential
    #: loop whose whole predicted walk costs less than this is not worth a
    #: compiler run and takes the exec-compiled Python dialect instead
    native_build: float = 300000.0
    #: fraction of the scalar equation cost a NumPy vector op pays per
    #: element once the span is large enough to amortise dispatch
    vector_element_factor: float = 0.012
    #: the same fraction for a vector equation whose array references miss
    #: the slice-based affine fast path: clipped *fancy indexing* gathers
    #: build broadcast index arrays and touch every element through a
    #: take-style C loop — an order of magnitude over the slice path (the
    #: hyperplane-transformed workloads live here, and pricing them like
    #: cheap spans made the planner blind to the native serial tier
    #: beating them)
    vector_gather_factor: float = 0.12
    #: per-equation launch cost of one NumPy vector span
    vector_setup: float = 250.0
    #: submitting + collecting one chunk on the thread pool
    chunk_dispatch: float = 3500.0
    #: one-time cost of standing up one pipeline stage worker (thread-pool
    #: submit + the stage's frontier bookkeeping setup)
    pipeline_stage_spinup: float = 3500.0
    #: per-block cost of one hand-off across a pipeline stage boundary
    #: (frontier publish + consumer wake-up under the shared condition)
    pipeline_link_overhead: float = 900.0
    #: per-element factor on the scan strategy's phase-1 block sweep
    #: relative to the native streaming walk of the same equation (local
    #: scan does the same FMA/compare chain plus, for linear recurrences,
    #: the running coefficient product)
    scan_reduce_factor: float = 1.15
    #: per-element factor on the scan strategy's phase-3 fix-up sweep
    #: (one combine against a block-constant carry — cheaper than the
    #: full recurrence body)
    scan_fixup_factor: float = 0.4
    #: joining one full wave of scan block tasks (two such barriers per
    #: scan: after the block sweep and after the fix-up sweep)
    scan_phase_barrier: float = 2500.0
    #: submitting + collecting one chunk task on the persistent process pool
    process_dispatch: float = 40000.0
    #: one-time cost of forking the persistent process pool
    process_spinup: float = 120000.0

    def with_processors(self, p: int) -> MachineModel:
        return replace(self, processors=p)

    def element_overhead(self, mode: str) -> float:
        """The per-element execution-mode tax added to the structural
        equation cost (``"abstract"``: the paper-era machine, no tax;
        ``"collapse"`` rows are NumPy spans, taxed per row not per
        element)."""
        if mode in ("abstract", "vector", "collapse", "gather", "native"):
            return 0.0
        if mode == "evaluator":
            return self.eval_element_overhead
        if mode == "kernel":
            return self.kernel_element_overhead
        if mode == "nest":
            return self.nest_element_overhead
        raise ValueError(f"unknown execution mode {mode!r}")

    def element_cost(self, eq, mode: str = "abstract") -> float:
        """Cycles for one element of ``eq`` under an execution mode.
        ``"abstract"`` stays integral — the paper-era simulator artifacts
        print whole cycle counts."""
        base = equation_cost(eq, self)
        if mode in ("vector", "collapse"):
            return base * self.vector_element_factor
        if mode == "gather":
            return base * self.vector_gather_factor
        if mode == "native":
            return base * self.native_element_factor
        overhead = self.element_overhead(mode)
        return base + overhead if overhead else base

    @classmethod
    def from_kernel_bench(
        cls, bench: dict, base: MachineModel | None = None
    ) -> MachineModel:
        """Recalibrate the evaluator overhead from a ``BENCH_kernels.json``
        payload (see ``benchmarks/bench_kernels.py``).

        The largest serial Jacobi row times the tree-walking evaluator and
        the per-equation compiled scalar kernel over the same elements. The
        kernel row anchors the cycle length (its overhead is held at the
        default); the evaluator overhead is solved from the measured ratio.
        (The NumPy vector factor is fitted by :meth:`from_native_bench`,
        beside the native one it is compared with.)
        """
        from repro.core.paper import jacobi_analyzed

        base = base or cls()
        analyzed = jacobi_analyzed()
        eq3 = next(eq for eq in analyzed.equations if eq.label == "eq.3")
        eqc = equation_cost(eq3, base)

        rows = [
            r
            for r in bench.get("rows", [])
            if r["workload"] == "jacobi" and r["backend"] == "serial"
        ]
        if not rows:
            raise ValueError("no jacobi/serial rows in bench payload")
        row = max(rows, key=lambda r: r["grid"])
        cycles_per_kernel_second = (
            eqc + base.kernel_element_overhead
        ) / row["kernel_seconds"]
        return replace(
            base,
            eval_element_overhead=max(
                0.0, row["evaluator_seconds"] * cycles_per_kernel_second - eqc
            ),
        )

    @classmethod
    def from_native_bench(
        cls, bench: dict, base: MachineModel | None = None
    ) -> MachineModel:
        """Recalibrate ``native_element_factor`` and
        ``vector_element_factor`` from a ``BENCH_native.json`` payload (see
        ``benchmarks/bench_native.py``).

        The serial Jacobi row times the Python nest kernel, the native
        kernel and — when it carries ``span_seconds`` — the NumPy spans of
        the vectorized backend on the same grid. Each compiled factor is
        that row's measured ratio to the Python nest kernel, scaled by the
        nest overhead the model already carries: pure ratios, so they
        transfer between machines like the other mode constants, and the
        ratio *between* the two factors — what ``auto`` decides a compiled
        nest against a NumPy span on — is measured on one machine, one
        grid, one run.

        When the payload additionally carries a **threaded** Jacobi row
        (the threaded-native gate: native span kernels dispatched on the
        thread pool, with ``workers``), ``chunk_dispatch`` is recalibrated
        too. The serial nest row anchors seconds-per-cycle; the threaded
        row's wall clock is then modelled as native span work (overlapping
        across ``workers``) plus one dispatch per chunk, approximating the
        dispatch count as ``maxk * workers`` (one chunked wavefront per
        sweep). The residual over the compute term, divided by that count,
        is the measured per-dispatch cost — clamped positive, and left
        untouched when the residual is noise (measured <= modelled
        compute)."""
        from repro.core.paper import jacobi_analyzed

        base = base or cls()
        rows = [
            r
            for r in bench.get("rows", [])
            if r["workload"] == "jacobi" and r["backend"] == "serial"
            and r.get("nest_seconds") and r.get("native_seconds")
        ]
        if not rows:
            raise ValueError("no jacobi/serial rows in native bench payload")
        row = max(rows, key=lambda r: r["grid"])
        analyzed = jacobi_analyzed()
        eq3 = next(eq for eq in analyzed.equations if eq.label == "eq.3")
        eqc = equation_cost(eq3, base)
        nest_per_element = eqc + base.nest_element_overhead
        def factor(seconds: float) -> float:
            return max(1e-6, seconds / row["nest_seconds"] * nest_per_element / eqc)

        model = replace(base, native_element_factor=factor(row["native_seconds"]))
        if row.get("span_seconds"):
            model = replace(
                model, vector_element_factor=factor(row["span_seconds"])
            )

        threaded = [
            r
            for r in bench.get("rows", [])
            if r["workload"] == "jacobi" and r["backend"] == "threaded"
            and r.get("native_seconds") and r.get("workers")
        ]
        if threaded:
            trow = max(threaded, key=lambda r: r["grid"])
            maxk = trow.get("maxk", 8)
            workers = max(1, int(trow["workers"]))
            elements = (maxk + 1) * (trow["grid"] + 2) ** 2
            # seconds per cycle, anchored on the serial nest row
            cycle = row["nest_seconds"] / (
                (row.get("maxk", 8) + 1)
                * (row["grid"] + 2) ** 2
                * nest_per_element
            )
            compute_cycles = (
                elements * eqc * model.native_element_factor / workers
            )
            dispatches = max(1, maxk * workers)
            residual = trow["native_seconds"] / cycle - compute_cycles
            if residual > 0:
                model = replace(
                    model, chunk_dispatch=max(1.0, residual / dispatches)
                )
        return model


def expression_cost(expr: Expr, model: MachineModel) -> int:
    """Worst-case cycles to evaluate a (normalised, element-wise)
    expression on one processor. ``if`` costs its condition plus the wider
    branch — MIMD processors take one side, and the simulator charges the
    worst case."""
    if isinstance(expr, (IntLit, RealLit, BoolLit)):
        return 0
    if isinstance(expr, Name):
        return 0  # scalar/index access folded into the op cost
    if isinstance(expr, Index):
        subs = sum(expression_cost(s, model) for s in expr.subscripts)
        base = 0 if isinstance(expr.base, Name) else expression_cost(expr.base, model)
        return base + subs + model.memory_cost
    if isinstance(expr, FieldRef):
        return model.memory_cost
    if isinstance(expr, BinOp):
        return (
            model.op_cost
            + expression_cost(expr.left, model)
            + expression_cost(expr.right, model)
        )
    if isinstance(expr, UnOp):
        return model.op_cost + expression_cost(expr.operand, model)
    if isinstance(expr, IfExpr):
        return expression_cost(expr.cond, model) + max(
            expression_cost(expr.then, model), expression_cost(expr.orelse, model)
        )
    if isinstance(expr, Call):
        args = sum(expression_cost(a, model) for a in expr.args)
        from repro.ps.semantics import is_builtin

        overhead = model.op_cost * 4 if is_builtin(expr.func) else model.call_cost
        return args + overhead
    raise TypeError(f"no cost rule for {type(expr).__name__}")


def equation_cost(eq, model: MachineModel) -> int:
    """Cycles for one element-wise execution of an equation: evaluate the
    right-hand side, then store (subscript arithmetic is part of op flow)."""
    rhs = expression_cost(eq.rhs, model)
    store = model.memory_cost * len(eq.targets)
    return rhs + store
