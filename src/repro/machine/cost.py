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
one row of ``BENCH_native.json``, so that ratio is a measurement, and the
two costs of a team kernel (``team_fork``, ``team_barrier``) from its team
rows.
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
    "abstract", "evaluator", "kernel", "nest", "vector", "gather", "native",
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
    #: fraction of the structural equation cost one element costs inside a
    #: cffi-compiled native nest kernel: real machine code with its range
    #: checks proven at entry, about a third of the NumPy vector factor
    #: (both fitted from one serial Jacobi row of BENCH_native.json)
    native_element_factor: float = 0.004
    #: per-invocation cost of one native kernel call (the cffi wrapper
    #: marshals array pointers, geometry, and scalars). A loop the module
    #: entry calls through a C function pointer does not pay it: a served
    #: plan run as one ``run_<module>`` call pays it once for all of them
    #: (``_Planner.price_entry``)
    native_call_overhead: float = 400.0
    #: one-time cost of building one more native kernel function (≈ 15 ms
    #: of ``cc`` per function inside a shared translation unit; a unit's
    #: fixed ≈ 45 ms is shared by the whole plan). Charged in full to a
    #: one-shot plan (``compile_source``, ``repro run``): a sequential loop
    #: whose whole predicted walk costs less than this is not worth a
    #: compiler run there and takes the exec-compiled Python dialect
    #: instead. A served plan sinks it: a ``Session`` replans a key that
    #: runs a second time with the build at zero and compiles the new
    #: plan's kernels in the background (``explain()`` says which pricing
    #: a plan used)
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
    #: per-equation launch cost of one NumPy vector span. A span is never
    #: inside the module entry: a plan with one at its top level walks, so
    #: a served plan weighs its spans against the same loops as nests
    #: inside one entry call
    vector_setup: float = 250.0
    #: submitting + collecting one chunk on the thread pool
    chunk_dispatch: float = 3500.0
    #: entering one OpenMP parallel region of a team kernel (waking the
    #: pool's threads), once per native call — fitted with ``team_barrier``
    #: from the team rows of BENCH_native.json (≈ 12 µs on a 2-core VM)
    team_fork: float = 440.0
    #: one barrier of a team kernel: the join at the end of each body unit
    #: (a ``DOALL`` shared among the team, or one thread's ``single``),
    #: including the wait for the slower thread — fitted from the
    #: hyperplane Gauss-Seidel team row, whose thin, sliding planes pay
    #: ≈ 60 cycles (3.5 µs on a 2-core VM) where the Jacobi rows fit 16
    team_barrier: float = 60.0

    def with_processors(self, p: int) -> MachineModel:
        return replace(self, processors=p)

    def element_overhead(self, mode: str) -> float:
        """The per-element execution-mode tax added to the structural
        equation cost (``"abstract"``: the paper-era machine, no tax)."""
        if mode in ("abstract", "vector", "gather", "native"):
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
        if mode == "vector":
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
        (the threaded-native gate: native chunk kernels dispatched on the
        thread pool, with ``workers``), ``chunk_dispatch`` is recalibrated
        too. The serial nest row anchors seconds-per-cycle; the threaded
        row's wall clock is then modelled as native chunk work (overlapping
        across ``workers``) plus one dispatch per chunk, approximating the
        dispatch count as ``maxk * workers`` (one chunked wavefront per
        sweep). The residual over the compute term, divided by that count,
        is the measured per-dispatch cost — clamped positive, and left
        untouched when the residual is noise (measured <= modelled
        compute).

        **Team** rows time the compiled ``DO K`` on one thread
        (``native_seconds``) and on a team of ``workers`` threads
        (``team_seconds``) at two ``maxk`` of one grid. Across them, one
        more sweep costs one thread's sweep divided among the team plus
        one barrier — the slope difference is ``team_barrier`` — and what
        the team adds to a call with no sweep at all — the intercept
        difference — is ``team_fork``. Each is kept only when positive.
        A hyperplane Gauss-Seidel team row (``gs_hyper``, with its
        ``planes``) raises ``team_barrier`` to what one of its planes costs
        the team beyond one thread's share divided among it, fork
        deducted: a thin plane whose live part slides across the shared
        ``DOALL`` keeps a thread waiting, which Jacobi's full planes never
        show."""
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

        # seconds per cycle, anchored on the serial nest row
        cycle = row["nest_seconds"] / (
            (row.get("maxk", 8) + 1) * (row["grid"] + 2) ** 2 * nest_per_element
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
            compute_cycles = (
                elements * eqc * model.native_element_factor / workers
            )
            dispatches = max(1, maxk * workers)
            residual = trow["native_seconds"] / cycle - compute_cycles
            if residual > 0:
                model = replace(
                    model, chunk_dispatch=max(1.0, residual / dispatches)
                )

        team = [
            r
            for r in bench.get("rows", [])
            if r["workload"] == "jacobi" and r["backend"] == "team"
            and r.get("native_seconds") and r.get("team_seconds")
        ]
        grid = min(
            (g for g in {r["grid"] for r in team}
             if len({r["maxk"] for r in team if r["grid"] == g}) > 1),
            default=None,
        )
        if grid is not None:
            at = sorted((r for r in team if r["grid"] == grid),
                        key=lambda r: r["maxk"])
            lo, hi = at[0], at[-1]
            workers = max(1, int(hi["workers"]))
            sweeps = hi["maxk"] - lo["maxk"]
            one = (hi["native_seconds"] - lo["native_seconds"]) / sweeps
            many = (hi["team_seconds"] - lo["team_seconds"]) / sweeps
            barrier = many - one / workers
            fork = (lo["team_seconds"] - lo["maxk"] * many) - (
                lo["native_seconds"] - lo["maxk"] * one
            )
            if barrier > 0:
                model = replace(model, team_barrier=barrier / cycle)
            if fork > 0:
                model = replace(model, team_fork=fork / cycle)

        hyper = [
            r
            for r in bench.get("rows", [])
            if r["workload"] == "gs_hyper" and r["backend"] == "team"
            and r.get("native_seconds") and r.get("team_seconds")
        ]
        for r in hyper:
            workers = max(1, int(r["workers"]))
            excess = (
                r["team_seconds"] - r["native_seconds"] / workers
            ) / cycle - model.team_fork
            model = replace(
                model,
                team_barrier=max(model.team_barrier, excess / r["planes"]),
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
