"""The cost-driven planner: annotated flowchart -> ExecutionPlan.

The planner makes every decision the backends used to re-derive at loop
entry, exactly once per (module, options, scalar bindings):

* which backend executes the module — ``backend="auto"`` compares the
  calibrated cost of a serial, vectorized, threaded, and process execution
  at the *effective* parallelism ``min(workers, cpu_count)`` and picks the
  cheapest; an explicit backend pins the plan;
* how each DOALL runs on that backend — scalar walk, fused nest kernel,
  vector span, or chunked across workers;
* how each sequential ``DO`` runs — as one compiled in-order nest kernel
  (C when the walk it replaces costs more than a compiler run, the
  exec-compiled Python dialect below that), as a pipeline stage or
  fission split when those beat the compiled loop at the plan's worker
  count, or on the reference walk when its nest does not lower;
* where the workers go in a nest — a DOALL whose trip count is below the
  worker count hands the team to a chunk-safe inner DOALL instead of
  leaving workers idle (``iterate`` + inner ``chunk``);
* which kernel variant each equation uses (scalar, vector, fused nest, or
  the reference evaluator for non-kernelizable equations).

Safety verdicts (chunk-safety, vector-safety, nest fusability) come from
the flowchart annotations and the kernel emitter's static checks; the plan
only ever narrows execution strategy, never semantics — any plan must stay
bit-exact against the serial reference evaluator.
"""

from __future__ import annotations

import os
from math import ceil
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.machine.cost import MachineModel
from repro.plan.ir import (
    VALID_STRATEGIES,
    EquationPlan,
    ExecutionPlan,
    LoopPlan,
    PlanEntry,
    PlanError,
    StagePlan,
)
from repro.plan.strategy import NEST
from repro.ps.coverage import definition_boxes
from repro.ps.symbols import SymbolKind
from repro.runtime.kernels.emit import equation_affine_fast_path
from repro.runtime.kernels.native import native_emittable, native_specs
from repro.runtime.kernels.nest import (
    kernelizable,
    kernelizable_reason,
    nest_fusable,
)
from repro.runtime.values import RECYCLE_MIN_BYTES, array_bounds, dtype_for, eval_bound
from repro.schedule.flowchart import (
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
    collapse_chain,
    equation_vector_safe,
    loop_chunk_safe,
    loop_collapse_safe,
)

#: backends that split DOALL subranges into worker chunks
CHUNKED_BACKENDS = ("threaded", "process")

#: backends whose pools run the decoupled pipeline engine — the planner
#: only *prices* pipeline groups for these (shared-memory threads; the
#: process pool copies, and stage hand-offs flow through the module arrays).
#: A forced pipeline still plans on any backend: the base inline engine
#: executes groups stage by stage, correct everywhere, concurrent here.
PIPELINE_BACKENDS = ("threaded",)

#: every backend a plan may target (the registry of
#: ``repro.runtime.backends``; a test keeps the two sets equal)
KNOWN_BACKENDS = ("serial", "vectorized") + CHUNKED_BACKENDS

#: the candidate set ``backend="auto"`` chooses from
AUTO_CANDIDATES = ("serial", "vectorized", "threaded", "process")

#: assumed trip count when subrange bounds are not statically evaluable
DEFAULT_TRIP = 16

#: strategies that only a DOALL can take
DOALL_ONLY = ("vector", "chunk", "iterate", "collapse")

#: ``auto`` treats candidates predicted within this fraction of the cheapest
#: as tied — well inside the model's error (``plan.pred_spread``) — and a
#: tie goes to the plan that builds the fewest native functions: equal run
#: time is not worth a longer cold start. This is what keeps one-shot copies
#: (``eq.1`` / ``eq.2`` of Jacobi) on NumPy spans beside a compiled sweep,
#: instead of a serial plan that compiles all three for a 1 % edge.
AUTO_TIE = 0.05

#: a chunk-safe inner DOALL takes the team only when its own trip count
#: keeps every worker busy at least this many chunks deep
INNER_CHUNK_FACTOR = 2


def _default_options() -> Any:
    return SimpleNamespace(
        use_windows=False,
        debug_windows=False,
        backend="auto",
        workers=None,
        use_kernels=True,
        use_collapse=True,
        use_fission=True,
        kernel_tier="native",
    )


def host_cpu_count() -> int:
    """The planner's one read of the host (``tests/plan`` forbids it)."""
    return os.cpu_count() or 1


def build_plan(
    analyzed,
    flowchart: Flowchart,
    options: Any | None = None,
    scalar_env: dict[str, int] | None = None,
    model: MachineModel | None = None,
    cpu_count: int | None = None,
    backend: str | None = None,
    candidates: tuple[str, ...] | None = None,
    calibration: Any | None = None,
) -> ExecutionPlan:
    """Plan one module execution.

    ``options`` duck-types :class:`repro.runtime.executor.ExecutionOptions`;
    ``scalar_env`` supplies integer parameter values for trip counts (loops
    whose bounds cannot be evaluated get a conservative default);
    ``cpu_count`` stands in for the machine's real core count (read only
    when this is None): it bounds the parallelism the cost model believes
    in — a worker count above it buys nothing, which is exactly what
    ``auto`` must know — and is the worker count when ``options.workers``
    is unset, so a plan built with it never depends on the host; ``backend``
    overrides ``options.backend`` (a backend walking a hand-built state
    pins the plan to itself); ``candidates`` narrows what ``auto`` may
    choose from (module calls restrict callees to the in-process backends
    — nested pools inside worker chunks would oversubscribe or crash);
    ``calibration`` is an optional
    :class:`repro.plan.calibration.PlanCalibration` store of measured wall
    clock per (module, sizes, backend) — when it has measurements for this
    configuration, ``auto`` ranks candidates by measured seconds instead of
    trusting predicted cycles alone (online recalibration).
    """
    options = options or _default_options()
    scalar_env = scalar_env or {}
    model = model or MachineModel()
    soft_strategy = getattr(options, "strategy", None)
    if soft_strategy is not None and soft_strategy not in VALID_STRATEGIES:
        raise ExecutionError(
            f"unknown strategy {soft_strategy!r}; "
            f"available: {', '.join(VALID_STRATEGIES)}"
        )
    # Resolve the machine's core count exactly once: a worker count and an
    # effective-parallelism bound read under two different affinity
    # settings would silently disagree.
    ncpu = cpu_count if cpu_count is not None else host_cpu_count()
    workers = max(1, options.workers if options.workers is not None else ncpu)
    effective = max(1, min(workers, ncpu))
    use_kernels = bool(options.use_kernels) and not options.debug_windows
    use_collapse = bool(getattr(options, "use_collapse", True))
    use_fission = bool(getattr(options, "use_fission", True))
    tier = getattr(options, "kernel_tier", "native")
    if tier == "evaluator":
        use_kernels = False

    requested = backend if backend is not None else getattr(options, "backend", "auto")
    if requested != "auto" and requested not in KNOWN_BACKENDS:
        raise ExecutionError(
            f"unknown execution backend {requested!r}; "
            f"available: {', '.join(KNOWN_BACKENDS)}"
        )
    if requested == "process":
        # Pinning the process backend on a spawn-only platform (macOS's
        # default, Windows) must fail up front with the platform named —
        # not degrade silently, not AttributeError later in the pool.
        # require_fork is a no-op when fork exists and consults the same
        # probe the backends do, so one monkeypatch covers both layers.
        from repro.runtime.backends.process import require_fork

        require_fork(requested)
    if requested == "auto":
        from repro.runtime.backends.process import _fork_available

        if soft_strategy == "pipeline" and candidates is None:
            # The decoupled engine lives on the thread pool; auto honours
            # the preference by choosing among backends running it.
            candidates = PIPELINE_BACKENDS
        pool = list(candidates or AUTO_CANDIDATES)
        excluded: list[tuple[str, str]] = []
        if not _fork_available():
            # Without fork the process backend cannot run at all (its
            # constructor raises), so auto never offers it.
            excluded = [
                (c, "fork start method unavailable on this platform")
                for c in pool
                if c == "process"
            ]
            pool = [c for c in pool if c != "process"]
        planners: list[_Planner] = []
        for candidate in pool:
            p = _Planner(
                analyzed, flowchart, candidate, workers, effective,
                scalar_env, model, use_kernels, bool(options.use_windows),
                use_collapse=use_collapse, use_fission=use_fission,
                tier=tier,
                force_default=soft_strategy, force_soft=True,
            )
            p.plan_module()
            planners.append(p)
        totals = [p.total for p in planners]
        measured: dict[str, float] = {}
        if calibration is not None:
            totals = calibration.adjusted_costs(
                analyzed.name, scalar_env,
                [(p.backend, p.total) for p in planners],
                workers=workers,
            )
            for p in planners:
                rec = calibration.measured(
                    analyzed.name, scalar_env, p.backend, workers=workers
                )
                if rec is not None:
                    measured[p.backend] = rec.seconds
        tied = (1.0 + AUTO_TIE) * min(totals)
        best = min(
            (pair for pair in zip(totals, planners) if pair[0] <= tied),
            key=lambda pair: (pair[1].native_functions(), pair[0]),
        )[1]
        if totals[planners.index(best)] > min(totals):
            reason = (
                f"within {AUTO_TIE:.0%} of the cheapest candidate, and it "
                f"builds the fewest native functions"
            )
        elif measured:
            reason = (
                "lowest measured/anchored seconds for these sizes "
                "(online calibration)"
            )
        else:
            reason = (
                "lowest predicted cycles (no calibration record for these "
                "sizes)"
            )
        plan = best.finish(analyzed.name, requested="auto", pinned=False)
        plan.provenance = {
            "pipeline_groups": best.pipeline_notes,
            "fission_loops": best.fission_notes,
            "do_loops": best.do_notes,
            "native_nests": best.native_notes(),
            "slow_loops": best.slow_notes(),
            "mode": "auto",
            "workers": workers,
            "calibrated": bool(measured),
            "candidates": [
                {
                    "backend": p.backend,
                    "predicted_cycles": p.total,
                    "adjusted_cost": adj,
                    "measured_seconds": measured.get(p.backend),
                    "native_functions": p.native_functions(),
                    "winner": p is best,
                }
                for p, adj in zip(planners, totals)
            ],
            "excluded": excluded,
            "reason": reason,
        }
        return plan

    planner = _Planner(
        analyzed, flowchart, requested, workers, effective,
        scalar_env, model, use_kernels, bool(options.use_windows),
        use_collapse=use_collapse, use_fission=use_fission, tier=tier,
        force_default=soft_strategy, force_soft=True,
    )
    planner.plan_module()
    plan = planner.finish(analyzed.name, requested=requested, pinned=True)
    plan.provenance = {
        "pipeline_groups": planner.pipeline_notes,
        "fission_loops": planner.fission_notes,
        "do_loops": planner.do_notes,
        "native_nests": planner.native_notes(),
        "slow_loops": planner.slow_notes(),
        "mode": "pinned",
        "workers": workers,
        "calibrated": False,
        "candidates": [
            {
                "backend": planner.backend,
                "predicted_cycles": planner.total,
                "adjusted_cost": planner.total,
                "measured_seconds": None,
                "winner": True,
            }
        ],
        "excluded": [],
        "reason": f"backend {requested!r} pinned by the caller",
    }
    return plan


def forced_plan(
    analyzed,
    flowchart: Flowchart,
    backend: str,
    options: Any | None = None,
    scalar_env: dict[str, int] | None = None,
    default: str | None = None,
    overrides: dict[tuple[int, ...], str] | None = None,
    model: MachineModel | None = None,
    cpu_count: int | None = None,
) -> ExecutionPlan:
    """A hand-forced plan: every parallel loop takes ``default`` (when
    given), individual loops take ``overrides[path]``. Strategies are
    validated — forcing ``chunk`` on a chunk-unsafe loop or ``nest`` on an
    unfusable one raises :class:`PlanError` rather than risking semantics.
    A sequential ``DO`` honours ``serial`` (the reference walk) and
    ``nest`` (the compiled in-order nest; :class:`PlanError` when its nest
    does not lower); under a default naming a DOALL-only strategy it stays
    on the walk, so the forced loops inside it are the ones that run.
    ``cpu_count`` stands in for the host's core count when
    ``options.workers`` is unset, exactly as in :func:`build_plan`.
    """
    for name in (default, *(overrides or {}).values()):
        if name is not None and name not in VALID_STRATEGIES:
            raise PlanError(
                f"unknown forced strategy {name!r}; "
                f"available: {', '.join(VALID_STRATEGIES)}"
            )
    options = options or _default_options()
    tier = getattr(options, "kernel_tier", "native")
    use_kernels = bool(options.use_kernels) and not options.debug_windows
    if tier == "evaluator":
        use_kernels = False
    planner = _Planner(
        analyzed,
        flowchart,
        backend,
        max(1, options.workers or cpu_count or host_cpu_count()),
        1,
        scalar_env or {},
        model or MachineModel(),
        use_kernels,
        bool(options.use_windows),
        use_collapse=bool(getattr(options, "use_collapse", True)),
        use_fission=bool(getattr(options, "use_fission", True)),
        tier=tier,
        force_default=default,
        force_overrides=overrides or {},
    )
    planner.plan_module()
    return planner.finish(analyzed.name, requested=backend, pinned=True)


def valid_strategies(
    analyzed, flowchart: Flowchart, desc: LoopDescriptor, use_windows: bool = False
) -> list[str]:
    """The strategies a loop may be forced to (property tests draw from
    this set)."""
    from repro.schedule.fission import fission_split

    if not desc.parallel:
        out = ["serial"]
        if nest_fusable(desc, analyzed, flowchart, use_windows):
            out.append("nest")
        if fission_split(analyzed, flowchart, desc, use_windows) is not None:
            out.append("fission")
        return out
    out = ["serial", "vector", "iterate"]
    if nest_fusable(desc, analyzed, flowchart, use_windows):
        out.append("nest")
    if loop_chunk_safe(desc, analyzed, flowchart.windows, use_windows):
        out.append("chunk")
    if loop_collapse_safe(desc, analyzed, flowchart.windows, use_windows):
        out.append("collapse")
    if fission_split(analyzed, flowchart, desc, use_windows) is not None:
        out.append("fission")
    return out


class _Planner:
    """One backend-pinned planning pass (auto runs one per candidate)."""

    def __init__(
        self,
        analyzed,
        flowchart: Flowchart,
        backend: str,
        workers: int,
        parallelism: int,
        scalar_env: dict[str, int],
        model: MachineModel,
        use_kernels: bool,
        use_windows: bool,
        use_collapse: bool = True,
        use_fission: bool = True,
        tier: str = "native",
        force_default: str | None = None,
        force_overrides: dict[tuple[int, ...], str] | None = None,
        force_soft: bool = False,
    ):
        self.analyzed = analyzed
        self.flowchart = flowchart
        self.backend = backend
        self.workers = workers
        self.parallelism = parallelism
        self.scalar_env = scalar_env
        self.model = model
        self.use_kernels = use_kernels
        self.use_windows = use_windows
        self.use_collapse = use_collapse
        self.use_fission = use_fission
        self.tier = tier
        self.force_default = force_default
        self.force_overrides = force_overrides or {}
        self.force_soft = force_soft
        self.entries: list[PlanEntry] = []
        #: one provenance note per pipeline group considered (chosen or not)
        self.pipeline_notes: list[dict] = []
        #: one provenance note per fission-considered loop (split or not)
        self.fission_notes: list[dict] = []
        #: one provenance note per sequential DO planned on its own: the
        #: compiled nest against the walk, and why the loser lost
        self.do_notes: list[dict] = []
        #: True while planning the body of a pipeline sequential stage that
        #: cannot fuse — inner DOALLs must stay off the pool (the stage
        #: already runs *on* a pool worker)
        self._in_stage = False
        self.loops: dict[tuple[int, ...], LoopPlan] = {}
        self.equations: dict[str, EquationPlan] = {}
        self.total = 0.0
        self._chunked_somewhere = False
        self._trips: dict[int, int | None] = {}
        #: (id(desc), in stage) -> (strategy, parts, cycles, why, chunk index)
        self._choices: dict[tuple[int, bool], tuple] = {}
        #: id(desc) -> (strategy, NestPrice | None, cycles, why) per DO
        self._do_choices: dict[int, tuple] = {}
        #: (id(desc), variant) -> machine-independent native emittability
        self._native: dict[tuple[int, str], bool] = {}
        #: True while emitting the body of a natively executing nest
        self._native_root = False
        #: :meth:`native_notes`, once the plan is complete
        self._native_notes: list[dict] | None = None

    # -- shared verdicts ---------------------------------------------------

    def trip(self, desc: LoopDescriptor) -> int | None:
        t = self._trips.get(id(desc))
        if id(desc) not in self._trips:
            try:
                lo = eval_bound(desc.subrange.lo, self.scalar_env)
                hi = eval_bound(desc.subrange.hi, self.scalar_env)
                t = max(0, hi - lo + 1)
            except ExecutionError:
                t = None
            self._trips[id(desc)] = t
        return t

    def _trip_est(self, desc: LoopDescriptor) -> int:
        t = self.trip(desc)
        return DEFAULT_TRIP if t is None else t

    def _chunk_safe(self, desc: LoopDescriptor) -> bool:
        return loop_chunk_safe(
            desc, self.analyzed, self.flowchart.windows, self.use_windows
        )

    def _collapse_safe(self, desc: LoopDescriptor) -> bool:
        return loop_collapse_safe(
            desc, self.analyzed, self.flowchart.windows, self.use_windows
        )

    def _fusable(self, desc: LoopDescriptor) -> bool:
        return self.use_kernels and nest_fusable(
            desc, self.analyzed, self.flowchart, self.use_windows
        )

    def _native_ok(self, desc: LoopDescriptor, variant: str) -> bool:
        """Whether this nest *plans* as native: the tier allows it and the
        nest lowers to bit-exact C. Deliberately machine-independent (no
        compiler probe) so plans — and the golden texts pinning them — are
        identical everywhere; a compiler-less machine degrades to the NumPy
        kernels at run time."""
        if self.tier != "native" or not self.use_kernels:
            return False
        key = (id(desc), variant)
        ok = self._native.get(key)
        if ok is None:
            ok = native_emittable(
                desc, self.analyzed, self.flowchart, self.use_windows, variant
            )
            self._native[key] = ok
        return ok

    def _flat_trips(self, desc: LoopDescriptor) -> tuple[int, int | None]:
        """(estimated, exact-or-None) flattened trip count of the collapse
        chain rooted at ``desc``."""
        est, exact = 1, 1
        for loop in collapse_chain(desc)[0]:
            est *= max(1, self._trip_est(loop))
            t = self.trip(loop)
            exact = None if exact is None or t is None else exact * t
        return est, exact

    def _eq_mode(self, eq, ctx: str) -> str:
        """Which execution path an equation takes under ``ctx``; one of the
        cost model's modes ("evaluator" | "kernel" | "vector" | "nest" |
        "collapse" | "native")."""
        if ctx in ("nest", "collapse", "native"):
            return ctx
        if not (self.use_kernels and kernelizable(eq, self.analyzed)):
            return "evaluator"
        if ctx == "vector":
            return "vector" if equation_vector_safe(eq) else "kernel"
        return "kernel"

    # -- costing -----------------------------------------------------------

    def _vector_mode(self, eq) -> str:
        """"vector" for spans riding the slice-based affine fast path,
        "gather" for spans that fall back to clipped fancy indexing —
        an order-of-magnitude per-element difference the backend ranking
        must see (hyperplane-transformed subscripts and windowed
        dimensions live off the path)."""
        if equation_affine_fast_path(
            eq, self.analyzed, self.flowchart, self.use_windows
        ):
            return "vector"
        return "gather"

    def _eq_vector_costs(self, eq, span: float) -> tuple[float, float]:
        """(GIL-releasing, GIL-bound) cycles for one span of ``eq`` on the
        vector path. NumPy spans release the GIL; the per-element scalar
        fallback (vector-unsafe or non-kernelizable equations) holds it —
        the distinction the chunk-cost model needs to price the threaded
        backend honestly."""
        mode = self._eq_mode(eq, "vector")
        m = self.model
        if mode == "vector":
            per_el = m.element_cost(eq, self._vector_mode(eq))
            return (m.vector_setup + span * per_el, 0.0)
        if mode == "evaluator" and equation_vector_safe(eq):
            # vector-safe but non-kernelizable: the vector *evaluator* runs
            # it — one tree walk per span, NumPy per element
            return (
                4 * m.vector_setup
                + 2 * span * m.element_cost(eq, self._vector_mode(eq)),
                0.0,
            )
        # per-element scalar fallback inside the span
        return (0.0, span * m.element_cost(eq, mode))

    def _eq_cost(self, eq, ctx: str, span: float) -> float:
        if ctx == "vector":
            released, bound = self._eq_vector_costs(eq, span)
            return released + bound
        mode = self._eq_mode(eq, ctx)
        if mode == "collapse" and self._vector_mode(eq) == "gather":
            # flat-kernel rows run the same vector lowering per row — off
            # the fast path they pay the gather tax too
            mode = "gather"
        return span * self.model.element_cost(eq, mode)

    def _cost(self, desc, ctx: str, span: float) -> float:
        """Cycles to execute ``desc`` once in context ``ctx`` with ``span``
        elements per vectorised lane (1 on the scalar walk)."""
        if isinstance(desc, NodeDescriptor):
            if not desc.node.is_equation:
                return 0.0
            return self._eq_cost(desc.node.equation, ctx, span)
        assert isinstance(desc, LoopDescriptor)
        t = self._trip_est(desc)
        if ctx in ("nest", "collapse", "native"):
            return sum(self._cost(d, ctx, span * t) for d in desc.body)
        if ctx == "vector":
            released, bound = self._vector_costs(desc, span)
            return released + bound
        # ctx == "walk"
        if not desc.parallel:
            return self._do_choice(desc)[2]
        return self._choose(desc)[2]

    def _cost_interpreted(self, desc) -> float:
        """Cycles of walking ``desc`` element by element — every loop a
        Python ``for``, every equation one kernel (or evaluator) call per
        element: what a loop costs before any strategy touches it, on any
        backend. The one-time native build of a ``DO`` is weighed against
        this (see :meth:`NestStrategy.price`)."""
        if isinstance(desc, NodeDescriptor):
            if not desc.node.is_equation:
                return 0.0
            eq = desc.node.equation
            return self.model.element_cost(eq, self._eq_mode(eq, "walk"))
        return self._trip_est(desc) * (
            self.model.loop_overhead
            + sum(self._cost_interpreted(d) for d in desc.body)
        )

    def _cost_serial_root(self, desc: LoopDescriptor) -> float:
        t = self._trip_est(desc)
        return t * (
            self.model.loop_overhead
            + sum(self._cost(d, "walk", 1) for d in desc.body)
        )

    def _cost_vector_root(self, desc: LoopDescriptor) -> float:
        t = self._trip_est(desc)
        return sum(self._cost(d, "vector", t) for d in desc.body)

    def _dispatch_cost(self) -> float:
        if self.backend == "process":
            return self.model.process_dispatch
        return self.model.chunk_dispatch

    def _vector_costs(self, desc, span: float) -> tuple[float, float]:
        """(GIL-releasing, GIL-bound) cycles to run ``desc`` once inside a
        vector span of ``span`` elements per lane."""
        if isinstance(desc, NodeDescriptor):
            if not desc.node.is_equation:
                return (0.0, 0.0)
            return self._eq_vector_costs(desc.node.equation, span)
        assert isinstance(desc, LoopDescriptor)
        t = self._trip_est(desc)
        if desc.parallel:
            pairs = [self._vector_costs(d, span * t) for d in desc.body]
            return (sum(r for r, _ in pairs), sum(b for _, b in pairs))
        pairs = [self._vector_costs(d, span) for d in desc.body]
        released = t * sum(r for r, _ in pairs)
        bound = t * (self.model.loop_overhead + sum(b for _, b in pairs))
        return (released, bound)

    def _cost_chunk_root(self, desc: LoopDescriptor, parts: int) -> float:
        t = self._trip_est(desc)
        per_chunk = ceil(t / parts) if parts else t
        if self._native_ok(desc, "span"):
            # Each chunk runs as native span kernels: one C call per
            # equation over the subrange, all behind a released GIL (cffi
            # drops it for the call), so chunks overlap fully on every
            # parallel backend — no GIL-bound residue, which is what lets
            # threads outprice process dispatch whenever the span lowers.
            m = self.model
            neq = len(desc.nested_equations())
            released = neq * m.native_call_overhead + sum(
                self._cost(d, "native", per_chunk) for d in desc.body
            )
            waves = ceil(parts / self.parallelism)
            return (
                m.doall_fork
                + m.doall_barrier
                + parts * self._dispatch_cost()
                + waves * released
            )
        pairs = [self._vector_costs(d, per_chunk) for d in desc.body]
        released = sum(r for r, _ in pairs)
        bound = sum(b for _, b in pairs)
        waves = ceil(parts / self.parallelism)
        # NumPy chunk work overlaps across threads (the GIL is released);
        # scalar-fallback work serializes on the threaded backend but runs
        # truly concurrently in forked processes.
        if self.backend == "threaded":
            bound_total = parts * bound
        else:
            bound_total = waves * bound
        m = self.model
        return (
            m.doall_fork
            + m.doall_barrier
            + parts * self._dispatch_cost()
            + waves * released
            + bound_total
        )

    def _cost_iterate_root(self, desc: LoopDescriptor) -> float:
        t = self._trip_est(desc)
        return t * (
            self.model.loop_overhead
            + sum(self._cost(d, "walk", 1) for d in desc.body)
        )

    def _cost_collapse_root(self, desc: LoopDescriptor, parts: int) -> float:
        """Cycles for the collapsed chain: the flat space splits into
        ``parts`` chunks, each one fused flat-kernel invocation walking the
        chunk row by row — NumPy spans (GIL-releasing, overlapping across
        workers) plus per-row Python bookkeeping (GIL-bound, serialized on
        the threaded backend). One dispatch wave total, against ``chunk``'s
        idle workers when the outer trip is small and ``iterate``'s one
        wave per outer iteration."""
        chain, chain_body = collapse_chain(desc)
        flat, _exact = self._flat_trips(desc)
        inner_trip = max(1, self._trip_est(chain[-1]))
        parts = max(1, min(parts, flat))
        per_chunk_span = ceil(flat / parts)
        if self._native_ok(desc, "flat"):
            # One native C call per chunk: the whole chunk is compiled
            # machine code behind a released GIL (cffi drops it for the
            # call), so chunks overlap fully on every parallel backend and
            # the per-row Python bookkeeping of the NumPy flat kernel
            # disappears.
            released = self.model.native_call_overhead + sum(
                self._cost(d, "native", per_chunk_span) for d in chain_body
            )
            waves = ceil(parts / self.parallelism)
            m = self.model
            return (
                m.doall_fork
                + m.doall_barrier
                + parts * self._dispatch_cost()
                + waves * released
            )
        rows = ceil(per_chunk_span / inner_trip)
        pairs = [
            self._vector_costs(d, min(per_chunk_span, inner_trip))
            for d in chain_body
        ]
        released = rows * sum(r for r, _ in pairs)
        bound = rows * (
            self.model.collapse_row_overhead + sum(b for _, b in pairs)
        )
        waves = ceil(parts / self.parallelism)
        if self.backend == "threaded":
            bound_total = parts * bound
        else:
            bound_total = waves * bound
        m = self.model
        return (
            m.doall_fork
            + m.doall_barrier
            + parts * self._dispatch_cost()
            + waves * released
            + bound_total
        )

    # -- strategy choice ---------------------------------------------------

    def _inner_chunk_candidate(self, desc: LoopDescriptor) -> LoopDescriptor | None:
        """A chunk-safe parallel loop directly in ``desc``'s body whose trip
        count can keep the whole team busy."""
        for d in desc.body:
            if not isinstance(d, LoopDescriptor) or not d.parallel:
                continue
            if not self._chunk_safe(d):
                continue
            it = self.trip(d)
            if it is None or it >= INNER_CHUNK_FACTOR * self.workers:
                return d
        return None

    def _choose(self, desc: LoopDescriptor):
        """(strategy, parts, cycles, reason, chunk_index) for a parallel
        loop met on the scalar walk. Memoized per descriptor and stage
        context: a loop priced outside a pipeline stage may chunk, the same
        loop walked inside one must not re-enter the pool."""
        key = id(desc), self._in_stage
        cached = self._choices.get(key)
        if cached is not None:
            return cached
        choice = self._choose_uncached(desc)
        if choice[0] not in VALID_STRATEGIES:
            raise PlanError(f"planner produced unknown strategy {choice[0]!r}")
        self._choices[key] = choice
        return choice

    def _forced_for(self, desc: LoopDescriptor) -> str | None:
        path = self.flowchart.path_of(desc)
        forced = self.force_overrides.get(path, self.force_default)
        if forced is None:
            return None
        if forced == "pipeline":
            # Pipeline is a *group* decision made at the sibling-list walk
            # (see _emit_siblings); a loop met individually — outside any
            # partitionable run — plans normally.
            if path in self.force_overrides:
                raise PlanError(
                    "'pipeline' is a group-level strategy; force it as the "
                    "default, not per loop"
                )
            return None
        if forced == "fission":
            # Fission is decided before _choose ever runs (_fission_decision
            # in the walk emission, which also raises on an invalid hard
            # per-path pin). Reaching here means the loop was not split —
            # either it has no legal split under a soft default, or it is a
            # replica/inner loop below a split — so it plans normally.
            return None

        def invalid(why: str) -> str | None:
            if self.force_soft:
                return None
            raise PlanError(why)

        if forced == "chunk" and not self._chunk_safe(desc):
            return invalid(
                f"cannot force 'chunk' on DOALL {desc.index}: not chunk-safe"
            )
        if forced == "nest" and not self._fusable(desc):
            return invalid(
                f"cannot force 'nest' on DOALL {desc.index}: not fusable"
            )
        if forced == "collapse" and not self._collapse_safe(desc):
            return invalid(
                f"cannot force 'collapse' on DOALL {desc.index}: "
                f"not a collapse-safe perfect DOALL chain"
            )
        return forced

    def _choose_uncached(self, desc: LoopDescriptor):
        if self._in_stage:
            # Inside a pipeline sequential stage the walk already runs on a
            # pool worker: never chunk/collapse (pool re-entry deadlocks),
            # pick the best in-worker strategy instead.
            best = ("serial", None, self._cost_serial_root(desc),
                    "inside pipeline stage", None)
            if self._fusable(desc):
                c_nest = NEST.price(self, desc).cycles
                if c_nest < best[2]:
                    best = ("nest", None, c_nest, "inside pipeline stage", None)
            c_vec = self._cost_vector_root(desc)
            if c_vec < best[2]:
                best = ("vector", None, c_vec, "inside pipeline stage", None)
            return best
        forced = self._forced_for(desc)
        if forced is not None:
            if forced == "chunk":
                parts = min(self.workers, self._trip_est(desc) or 1)
                c = self._cost_chunk_root(desc, parts)
            elif forced == "collapse":
                parts = min(self.workers, self._flat_trips(desc)[0])
                c = self._cost_collapse_root(desc, parts)
            else:
                parts = None
                cost = {
                    "serial": self._cost_serial_root,
                    "nest": lambda d: NEST.price(self, d).cycles,
                    "vector": self._cost_vector_root,
                    "iterate": self._cost_iterate_root,
                }[forced]
                c = cost(desc)
            return (forced, parts, c, "forced", None)

        if self.backend == "serial":
            c_serial = self._cost_serial_root(desc)
            if self._fusable(desc):
                c_nest = NEST.price(self, desc).cycles
                if c_nest < c_serial:
                    return ("nest", None, c_nest, "fused nest kernel", None)
            return ("serial", None, c_serial, "", None)

        if self.backend == "vectorized":
            return ("vector", None, self._cost_vector_root(desc), "", None)

        if self.backend in CHUNKED_BACKENDS:
            t = self.trip(desc)
            te = self._trip_est(desc)
            if not self._chunk_safe(desc):
                return (
                    "vector", None, self._cost_vector_root(desc),
                    "not chunk-safe", None,
                )
            if self.workers < 2 or te < 2:
                return (
                    "vector", None, self._cost_vector_root(desc),
                    "nothing to chunk", None,
                )
            # A collapse-safe, fusable chain may flatten: one linearized
            # iteration space chunked over the team, each chunk one fused
            # flat kernel. Priced against the classic alternatives below.
            collapse = None
            if self.use_collapse and self._collapse_safe(desc) and self._fusable(desc):
                flat_est, _ = self._flat_trips(desc)
                cparts = min(self.workers, flat_est)
                collapse = (
                    cparts, self._cost_collapse_root(desc, cparts)
                )
            if t is not None and t < self.workers:
                # Utilization rule, deliberately not a cost comparison: an
                # outer chunk with trip < workers idles (workers - trip)
                # workers for the whole wavefront, and the dispatch
                # constants — calibrated on whatever machine produced the
                # baseline, possibly a 1-core CI box where thread dispatch
                # is pathologically expensive — would veto the inner
                # chunking that real multicore hardware rewards. The
                # INNER_CHUNK_FACTOR guard keeps the extra dispatches
                # amortised over a genuinely wide inner loop. A collapsed
                # flat space serves the same utilization end with one
                # dispatch wave instead of one per outer iteration, so when
                # both apply the cheaper one wins.
                inner = self._inner_chunk_candidate(desc)
                if inner is not None:
                    c_iter = self._cost_iterate_root(desc)
                    if collapse is not None and collapse[1] < c_iter:
                        return (
                            "collapse", collapse[0], collapse[1],
                            f"trip {t} < {self.workers} workers", None,
                        )
                    return (
                        "iterate", None, c_iter,
                        f"trip {t} < {self.workers} workers", inner.index,
                    )
            parts = min(self.workers, te)
            c_chunk = self._cost_chunk_root(desc, parts)
            if collapse is not None and collapse[1] < c_chunk:
                return ("collapse", collapse[0], collapse[1], "", None)
            return ("chunk", parts, c_chunk, "", None)

        raise PlanError(f"unknown execution backend {self.backend!r}")

    def _hard_pin(self, path) -> bool:
        """Whether ``path`` carries a hard per-path override: the pinned
        strategy is then honoured or raises — no merit decision (fission,
        a pipeline group) may take the loop first."""
        return not self.force_soft and path in self.force_overrides

    def _do_choice(self, desc: LoopDescriptor):
        """(strategy, NestPrice | None, cycles, why) for a sequential
        ``DO`` met on the scalar walk: the compiled in-order nest against
        the reference walk. Its cycles are the price every other ``DO``
        strategy (pipeline, fission) has to beat — compiled
        sequential code, not the interpreter. Memoized per descriptor."""
        cached = self._do_choices.get(id(desc))
        if cached is not None:
            return cached
        walk = self._cost_serial_root(desc)
        path = self.flowchart.path_of(desc)
        forced = self.force_overrides.get(path, self.force_default)
        hard = forced is not None and not self.force_soft
        refusal = NEST.recognise(self, desc)
        if refusal is None and not self.force_soft and any(
            len(p) > len(path) and p[: len(path)] == path
            for p in self.force_overrides
        ):
            refusal = "a loop inside it is pinned to its own strategy"
        if refusal is not None:
            if forced == "nest" and hard:
                raise PlanError(
                    f"cannot force 'nest' on DO {desc.index}: {refusal}"
                )
            choice = ("serial", None, walk, refusal)
        elif forced == "serial" or (hard and forced in DOALL_ONLY):
            # a hard default naming a DOALL-only strategy is a complete
            # specification: the loops it names must be the ones that run
            choice = ("serial", None, walk, "forced")
        else:
            interpreted = self._cost_interpreted(desc)
            priced = NEST.price(self, desc, interpreted)
            if forced == "nest":
                choice = ("nest", priced, priced.cycles, "forced")
            elif priced.cycles < walk:
                choice = ("nest", priced, priced.cycles, "compiled in order")
            elif priced.dialect == "python" and self._native_ok(desc, "full"):
                choice = (
                    "serial", None, walk,
                    f"walked element by element it costs "
                    f"~{interpreted:.0f} cycles, less than one native build "
                    f"(~{self.model.native_build:.0f}), and the "
                    f"Python-dialect nest (~{priced.cycles:.0f}) loses to "
                    f"the walk",
                )
            else:
                choice = (
                    "serial", None, walk,
                    f"the walk is cheaper than the {priced.dialect}-dialect "
                    f"nest (~{priced.cycles:.0f} cycles)",
                )
        self._do_choices[id(desc)] = choice
        return choice

    # -- pipeline groups ---------------------------------------------------

    def _pipeline_group_at(self, container: tuple[int, ...], offset: int):
        """The partitionable sibling run starting here, when this planning
        pass may consider one at all: the thread backends price groups on
        merit, any backend honours a forced default (the base inline engine
        executes them correctly everywhere), and a single worker has
        nothing to decouple over."""
        if self._in_stage:
            return None
        if (
            self.force_default != "pipeline"
            and self.backend not in PIPELINE_BACKENDS
        ):
            return None
        if self.workers < 2:
            return None
        from repro.schedule.pipeline_stages import group_starting_at

        group = group_starting_at(
            self.analyzed, self.flowchart, container, offset, self.use_windows
        )
        if group is not None and any(
            self._hard_pin(container + (offset + j,))
            for j in range(group.size)
        ):
            # A hard per-path pin outranks the group: the member plans on
            # its own, where the pin is honoured or raises PlanError.
            return None
        return group

    # -- fission -----------------------------------------------------------

    def _fission_decision(self, desc: LoopDescriptor, path) -> dict | None:
        """Decide one multi-unit loop met on the walk: a dict for
        :meth:`_emit_fission` when splitting wins (or is forced), None to
        fall through to the unfissioned plan. Every loop with a legal split
        — and every multi-unit loop whose split was *rejected* — leaves a
        provenance note, so ``repro plan`` can explain both verdicts."""
        if self._in_stage or not self.use_fission:
            return None
        from repro.schedule.fission import fission_reject, fission_split

        forced_name = self.force_overrides.get(path, self.force_default)
        forced = forced_name == "fission"
        hard = forced and not self.force_soft
        if self._hard_pin(path) and not forced:
            return None
        split = fission_split(
            self.analyzed, self.flowchart, desc, self.use_windows
        )
        if split is None:
            why = fission_reject(
                self.analyzed, self.flowchart, desc, self.use_windows
            )
            if why is not None:
                self.fission_notes.append({
                    "index": str(path), "keyword": desc.keyword,
                    "loop_index": desc.index, "parts": None,
                    "trip": self._trip_est(desc), "pieces": [],
                    "fission_cycles": None, "unfissioned_cycles": None,
                    "chosen": False, "why": why,
                })
            if hard and path in self.force_overrides:
                raise PlanError(
                    f"cannot force 'fission' on {desc.keyword} {desc.index}: "
                    + (why or "the body is a single dependence unit")
                )
            return None
        note = {
            "index": str(path), "keyword": desc.keyword,
            "loop_index": desc.index, "parts": split.parts,
            "trip": self._trip_est(desc), "pieces": split.describe(),
            "fission_cycles": None, "unfissioned_cycles": None,
            "chosen": False, "why": "",
        }
        self.fission_notes.append(note)
        fissioned = self._price_fission(split, path)
        unfissioned = self._cost(desc, "walk", 1)
        note["fission_cycles"] = fissioned
        note["unfissioned_cycles"] = unfissioned
        if not forced and fissioned >= unfissioned:
            note["why"] = "unfissioned plan is cheaper"
            if not desc.parallel and self._do_choice(desc)[0] == "nest":
                note["why"] += (
                    f": {split.parts} passes over memory > one compiled DO"
                )
            return None
        note["chosen"] = True
        note["why"] = "forced" if forced else "split pieces are cheaper"
        return {"split": split, "cycles": fissioned, "forced": forced}

    def _price_fission(self, split, path) -> float:
        """The cost of the replica run exactly as :meth:`_emit_fission`
        will emit it — including pipeline groups over the replicas (a
        recurrence piece feeding DOALL pieces is the DSWP shape), priced
        here without emitting their provenance notes."""
        container = path + (-1,)
        pieces = list(split.pieces)
        total = 0.0
        i = 0
        while i < len(pieces):
            group = self._pipeline_group_at(container, i)
            if group is not None:
                priced = self._price_pipeline(group)
                if priced is not None and (
                    self.force_default == "pipeline"
                    or priced["cycles"] < priced["serial_cycles"]
                ):
                    total += priced["cycles"]
                    i += group.size
                    continue
            total += self._cost(pieces[i], "walk", 1)
            i += 1
        return total

    def _emit_fission(self, desc: LoopDescriptor, path, depth, decision) -> float:
        """Emit one taken split: the original loop's LoopPlan carries the
        ``fission`` strategy and the piece count, the replicas plan as an
        ordinary sibling list at the marker container ``path + (-1,)`` —
        each equation lands in exactly one replica over the full subrange,
        so evaluation counts match the unfissioned walk exactly."""
        split = decision["split"]
        lp = LoopPlan(
            path, desc.index, desc.keyword, "fission",
            parts=split.parts, trip=self.trip(desc),
            reason=(
                "forced dependence split" if decision["forced"]
                else "dependence split"
            ),
        )
        self._register(lp, depth)
        cost = self._emit_siblings(
            list(split.pieces), path + (-1,), depth + 1, "walk", 1.0
        )
        lp.cycles = cost
        return cost

    def native_notes(self) -> list[dict]:
        """One provenance note per loop the plan runs on a native kernel:
        what its entry range proof settles statically — how many of the
        kernel's subscript checks are discharged once per call and which
        stay in the loop text, with the first such reference and why."""
        if self._native_notes is not None:
            return self._native_notes
        notes = self._native_notes = []
        for path, lp in self.loops.items():
            if lp.dialect != "native":
                continue
            specs = native_specs(
                self.flowchart.descriptor_at(path), self.analyzed,
                self.flowchart, self.use_windows, lp.kernel_shape(),
            )
            inline = [pair for spec in specs for pair in spec.inline]
            notes.append({
                "index": str(path), "loop_index": lp.index,
                "keyword": lp.keyword, "shape": lp.kernel_shape(),
                "functions": sorted({spec.fn_name for spec in specs}),
                "checks": sum(spec.checks for spec in specs),
                "proven": sum(spec.proven for spec in specs),
                "inline": inline[0] if inline else None,
            })
        return notes

    def native_functions(self) -> int:
        """How many distinct C functions this plan builds."""
        return len({
            fn for note in self.native_notes() for fn in note["functions"]
        })

    def slow_notes(self) -> list[dict]:
        """Per-loop why-not provenance for nests left on the slow path: the
        first non-kernelizable equation (with the emitter's reason) and the
        fission verdict for its loop. Outermost loop wins when an equation
        sits under several; replicas defer to their original loop."""
        from repro.schedule.fission import fission_reject

        notes: list[dict] = []
        if not self.use_kernels:
            return notes
        seen: set[str] = set()
        for lp in self.loops.values():
            if -1 in lp.path:
                continue
            try:
                desc = self.flowchart.descriptor_at(lp.path)
            except (LookupError, IndexError):
                continue
            if not isinstance(desc, LoopDescriptor):
                continue
            label = why = None
            for eq in desc.nested_equations():
                r = kernelizable_reason(eq, self.analyzed)
                if r is not None:
                    label, why = eq.label, r
                    break
            if label is None or label in seen:
                continue
            seen.add(label)
            fission = None
            if lp.strategy == "fission":
                fission = "split: the offender runs in its own loop"
            else:
                r = fission_reject(
                    self.analyzed, self.flowchart, desc, self.use_windows
                )
                if r is not None:
                    fission = f"fission rejected: {r}"
            notes.append({
                "index": str(lp.path),
                "keyword": lp.keyword,
                "loop_index": lp.index,
                "label": label,
                "reason": why,
                "fission": fission,
            })
        return notes

    def _price_pipeline(self, group) -> dict | None:
        """Price the decoupled execution of ``group``. None when the team
        cannot host one *running* task per stage — the engine's
        no-deadlock requirement (every stage must make progress for the
        frontier hand-offs to drain). Otherwise a dict the emitter and the
        provenance notes consume.

        The model: one fork/barrier for the group, one spin-up per stage
        worker, the bottleneck stage's time (sequential stages run their
        whole subrange through block-wise sequential nest kernels; a
        replicated stage divides its span work over its workers) plus one
        block of it per further stage to fill and drain the pipe, bounded
        below by total work over the machine's effective parallelism, plus
        one link hand-off per block per stage boundary."""
        m = self.model
        stages = group.stages
        n_stages = len(stages)
        if self.workers < n_stages:
            return None
        t = self._trip_est(group.loops[0])
        blocks = max(1, min(t, 4 * self.workers))
        block = ceil(t / blocks)
        blocks = ceil(t / block)

        works: list[float] = []
        for s in stages:
            if s.kind == "sequential":
                loop = group.loops[s.members[0]]
                if self._native_ok(loop, "full"):
                    work = blocks * m.native_call_overhead + sum(
                        self._cost(d, "native", t) for d in loop.body
                    )
                elif self._fusable(loop):
                    work = blocks * m.vector_setup + sum(
                        self._cost(d, "nest", t) for d in loop.body
                    )
                else:
                    work = t * (
                        m.loop_overhead
                        + sum(self._cost(d, "walk", 1) for d in loop.body)
                    )
            else:
                work = 0.0
                for mem in s.members:
                    loop = group.loops[mem]
                    if self._native_ok(loop, "span"):
                        neq = len(loop.nested_equations())
                        work += blocks * neq * m.native_call_overhead + sum(
                            self._cost(d, "native", t) for d in loop.body
                        )
                    else:
                        pairs = [
                            self._vector_costs(d, block) for d in loop.body
                        ]
                        work += blocks * (
                            sum(r for r, _ in pairs)
                            + sum(b for _, b in pairs)
                        )
            works.append(work)

        # Worker assignment: each sequential stage pins one worker;
        # replicated stages split what is left.
        n_seq = sum(1 for s in stages if s.kind == "sequential")
        n_rep = n_stages - n_seq
        avail = self.workers - n_seq
        stage_workers: list[int] = []
        rep_seen = 0
        for s in stages:
            if s.kind == "sequential":
                stage_workers.append(1)
            else:
                w = avail // n_rep + (1 if rep_seen < avail % n_rep else 0)
                stage_workers.append(max(1, w))
                rep_seen += 1
        workers_used = sum(stage_workers)

        # Stage k starts its first block only when stage k-1 has finished
        # one: the bottleneck runs for its whole time and every other stage
        # adds one block of fill (or drain).
        bottleneck = max(
            work / max(1, w) if s.kind == "replicated" else work
            for s, work, w in zip(stages, works, stage_workers)
        )
        compute = max(
            bottleneck + (n_stages - 1) * bottleneck / blocks,
            sum(works) / max(1, self.parallelism),
        )
        cycles = (
            m.doall_fork
            + m.doall_barrier
            + workers_used * m.pipeline_stage_spinup
            + compute
            + blocks * (n_stages - 1) * m.pipeline_link_overhead
        )
        undecoupled = sum(
            self._cost(loop, "walk", 1) for loop in group.loops
        )
        stage_plans = [
            StagePlan(s.kind, s.members, s.labels, workers=w)
            for s, w in zip(stages, stage_workers)
        ]
        return {
            "cycles": cycles,
            "serial_cycles": undecoupled,
            "stage_plans": stage_plans,
            "workers_used": max(1, workers_used),
            "block": block,
            "trip": t,
        }

    def _emit_pipeline_maybe(
        self, group, container: tuple[int, ...], depth: int
    ) -> float | None:
        """Decide one pipeline group; emit it and return its cost when
        taken, None to leave the siblings to plan individually. Every
        considered group leaves a provenance note either way — ``repro
        plan`` must be able to say why pipeline won or was rejected."""
        forced = self.force_default == "pipeline"
        priced = self._price_pipeline(group)
        note = {
            "index": str(container + (group.start,)),
            "kinds": group.kinds(),
            "stage_count": len(group.stages),
            "trip": self._trip_est(group.loops[0]),
            "pipeline_cycles": priced["cycles"] if priced else None,
            "serial_cycles": priced["serial_cycles"] if priced else None,
            "chosen": False,
            "why": "",
        }
        self.pipeline_notes.append(note)
        if priced is None:
            note["why"] = (
                f"needs one worker per stage: {len(group.stages)} stages "
                f"> {self.workers} workers"
            )
            return None
        if not forced and priced["cycles"] >= priced["serial_cycles"]:
            note["why"] = "undecoupled plan is cheaper"
            if any(
                not loop.parallel and self._do_choice(loop)[0] == "nest"
                for loop in group.loops
            ):
                note["why"] += (
                    ": stage spin-up + block hand-offs > compiled DO members"
                )
            return None
        note["chosen"] = True
        note["why"] = "forced" if forced else "decoupling is cheaper"
        return self._emit_pipeline(group, container, depth, priced, forced)

    def _emit_pipeline(
        self, group, container: tuple[int, ...], depth: int, priced: dict,
        forced: bool,
    ) -> float:
        """Emit the LoopPlans of one taken pipeline group: the head loop
        carries the stage partition, worker assignment, and hand-off block
        size; member loops carry their stage membership. Sequential-stage
        bodies plan as (sequential) fused nests where the nest lowers and
        as a pool-safe in-worker walk otherwise; replicated-stage bodies
        plan exactly like chunk spans."""
        stages = priced["stage_plans"]
        n_stages = len(stages)
        stage_of = {
            mdx: k for k, s in enumerate(stages) for mdx in s.members
        }
        for j, loop in enumerate(group.loops):
            path = container + (group.start + j,)
            k = stage_of[j]
            stage = stages[k]
            head = j == 0
            seq_fuse = stage.kind == "sequential" and self._fusable(loop)
            lp = LoopPlan(
                path, loop.index, loop.keyword, "pipeline",
                parts=priced["workers_used"] if head else None,
                trip=self.trip(loop),
                fuse=seq_fuse,
                stages=stages if head else None,
                group_size=group.size if head else None,
                queue_depth=priced["block"] if head else None,
                cycles=priced["cycles"] if head else None,
                reason=(
                    ("forced" if forced else "decoupled sibling run")
                    if head
                    else f"stage {k + 1}/{n_stages}"
                ),
            )
            self._register(lp, depth)
            te = self._trip_est(loop)
            if stage.kind == "sequential":
                if seq_fuse:
                    native = self._native_ok(loop, "full")
                    lp.dialect = "native" if native else "python"
                    self._emit_body(
                        loop, path, depth, "nest", float(te), native
                    )
                else:
                    self._in_stage = True
                    try:
                        for i, d in enumerate(loop.body):
                            self._emit(d, path + (i,), depth + 1, "walk", 1.0)
                    finally:
                        self._in_stage = False
            else:
                native = self._native_ok(loop, "span")
                lp.dialect = "native" if native else "python"
                self._emit_body(
                    loop, path, depth, "vector", float(priced["block"]),
                    native,
                )
        return priced["cycles"]

    # -- emission ----------------------------------------------------------

    def plan_module(self) -> None:
        total = self._emit_siblings(
            self.flowchart.descriptors, (), 0, "walk", 1.0
        )
        if self.backend == "process" and self._chunked_somewhere:
            total += self.model.process_spinup
        self.total = total

    def _emit_siblings(
        self, descs, container: tuple[int, ...], depth, ctx, span
    ) -> float:
        """Emit one sibling list, consuming pipeline groups where they
        start. Groups only exist for the always-sequential containers
        (:func:`repro.schedule.pipeline_stages.pipeline_groups` scans the
        top level and ``DO`` bodies), so other contexts fall straight
        through to the per-descriptor emission."""
        total = 0.0
        i = 0
        n = len(descs)
        while i < n:
            if ctx == "walk":
                group = self._pipeline_group_at(container, i)
                if group is not None:
                    cost = self._emit_pipeline_maybe(group, container, depth)
                    if cost is not None:
                        total += cost
                        i += group.size
                        continue
            total += self._emit(descs[i], container + (i,), depth, ctx, span)
            i += 1
        return total

    def _emit_equation(self, desc: NodeDescriptor, path, depth, ctx, span) -> float:
        if not desc.node.is_equation:
            self.entries.append(PlanEntry(depth, label=desc.node.id))
            return 0.0
        eq = desc.node.equation
        mode = self._eq_mode(eq, ctx)
        if mode in ("nest", "collapse", "vector", "kernel") and self._native_root:
            # The enclosing nest/span lowers to the native C tier — the
            # equation's per-element cost and kernel label follow.
            mode = "native"
        # Inside a collapsed chain the equation runs in the fused (flat)
        # nest kernel — "collapse" is a costing mode, not a kernel variant.
        kernel, reason = ("nest" if mode == "collapse" else mode), ""
        if mode == "evaluator":
            if not self.use_kernels:
                reason = "kernels off"
            elif not kernelizable(eq, self.analyzed):
                reason = "not kernelizable"
        elif mode == "kernel":
            kernel = "scalar"
            if ctx == "vector" and not equation_vector_safe(eq):
                reason = "vector-unsafe: per-element fallback"
        ep = EquationPlan(eq.label, path, kernel=kernel, reason=reason)
        self.equations[eq.label] = ep
        self.entries.append(PlanEntry(depth, equation=ep))
        return self._eq_cost(eq, "native" if mode == "native" else ctx, span)

    def _emit(self, desc, path, depth, ctx, span) -> float:
        if isinstance(desc, NodeDescriptor):
            return self._emit_equation(desc, path, depth, ctx, span)
        assert isinstance(desc, LoopDescriptor)
        t = self.trip(desc)
        te = self._trip_est(desc)

        if ctx in ("nest", "collapse"):
            lp = LoopPlan(
                path, desc.index, desc.keyword, ctx, trip=t, fuse=True,
                reason="fused" if ctx == "nest" else "collapsed",
            )
            self._register(lp, depth)
            cost = sum(
                self._emit(d, path + (i,), depth + 1, ctx, span * te)
                for i, d in enumerate(desc.body)
            )
            lp.cycles = cost
            return cost

        if ctx == "vector":
            span_reason = ""
            if desc.parallel:
                span_reason = (
                    "nested in native span" if self._native_root
                    else "nested in span"
                )
            lp = LoopPlan(
                path, desc.index, desc.keyword,
                "vector" if desc.parallel else "serial",
                trip=t, reason=span_reason,
            )
            self._register(lp, depth)
            if desc.parallel:
                cost = sum(
                    self._emit(d, path + (i,), depth + 1, "vector", span * te)
                    for i, d in enumerate(desc.body)
                )
            else:
                cost = te * (
                    self.model.loop_overhead
                    + sum(
                        self._emit(d, path + (i,), depth + 1, "vector", span)
                        for i, d in enumerate(desc.body)
                    )
                )
            lp.cycles = cost
            return cost

        # ctx == "walk"
        fis = self._fission_decision(desc, path)
        if fis is not None:
            return self._emit_fission(desc, path, depth, fis)
        if not desc.parallel:
            strategy, priced, cost, why = self._do_choice(desc)
            self.do_notes.append({
                "index": str(path), "loop_index": desc.index,
                "strategy": strategy, "trip": te,
                "dialect": priced.dialect if priced else None,
                "cycles": cost,
                "walk_cycles": self._cost_serial_root(desc),
                "why": why,
            })
            if strategy == NEST.name:
                return NEST.emit(self, desc, path, depth, priced, why)
            lp = LoopPlan(path, desc.index, desc.keyword, "serial", trip=t)
            self._register(lp, depth)
            body = self._emit_siblings(desc.body, path, depth + 1, "walk", 1.0)
            lp.cycles = te * (self.model.loop_overhead + body)
            return lp.cycles

        strategy, parts, cost, reason, chunk_index = self._choose(desc)
        if strategy == NEST.name:
            return NEST.emit(
                self, desc, path, depth, NEST.price(self, desc), reason
            )
        collapse_depth = flat_exact = None
        if strategy == "collapse":
            collapse_depth = len(collapse_chain(desc)[0])
            flat_exact = self._flat_trips(desc)[1]
        lp = LoopPlan(
            path, desc.index, desc.keyword, strategy,
            parts=parts, trip=t,
            fuse=strategy == "collapse" and self._fusable(desc),
            chunk_index=chunk_index if strategy == "iterate" else (
                desc.index if strategy == "chunk" else None
            ),
            collapse_depth=collapse_depth, flat_trip=flat_exact,
            cycles=cost, reason=reason,
        )
        self._register(lp, depth)
        if strategy in ("chunk", "collapse"):
            self._chunked_somewhere = True
        body_ctx = {
            "serial": "walk",
            "iterate": "walk",
            "vector": "vector",
            "chunk": "vector",
            "collapse": "collapse",
        }[strategy]
        if strategy == "collapse":
            # Chain loops below multiply the span by their own trips (the
            # shared nest emission), so the root contributes its trip
            # divided by the chunk count — equations then see roughly the
            # per-chunk element count.
            body_span = te / max(1, parts or 1)
        else:
            body_span = {
                "serial": 1.0,
                "iterate": 1.0,
                "vector": float(te),
                "chunk": float(ceil(te / parts)) if parts else float(te),
            }[strategy]
        shape = lp.kernel_shape()
        native = shape is not None and self._native_ok(desc, shape)
        if shape is not None and (native or self._fusable(desc)):
            lp.dialect = "native" if native else "python"
        self._emit_body(desc, path, depth, body_ctx, body_span, native)
        return cost

    def _emit_body(
        self, desc: LoopDescriptor, path, depth, ctx, span, native: bool
    ) -> None:
        """Emit ``desc``'s body one level down under ``ctx``; ``native``
        says whether the enclosing kernel-dispatching loop runs the C
        dialect (equation kernels and per-element costs follow it)."""
        prev_native = self._native_root
        self._native_root = native
        try:
            for i, d in enumerate(desc.body):
                self._emit(d, path + (i,), depth + 1, ctx, span)
        finally:
            self._native_root = prev_native

    def _register(self, lp: LoopPlan, depth: int) -> None:
        self.loops[lp.path] = lp
        self.entries.append(PlanEntry(depth, loop=lp))

    def finish(self, module: str, requested: str, pinned: bool) -> ExecutionPlan:
        storage = self._storage()
        plan = ExecutionPlan(
            module=module,
            backend=self.backend,
            requested=requested,
            workers=self.workers,
            use_windows=self.use_windows,
            use_kernels=self.use_kernels,
            pinned=pinned,
            kernel_tier=self.tier if self.tier in ("native", "numpy") else "numpy",
            entries=self.entries,
            loops=self.loops,
            equations=self.equations,
            cycles=self.total,
            storage=storage,
            reuse={name: self._reuse(name) for name in storage},
            sizes=dict(self.scalar_env),
        )
        return plan.bind(self.flowchart)

    def _reuse(self, name: str) -> str:
        """``ExecutionPlan.reuse``: where a warm run's storage for ``name``
        comes from, by the bytes it allocates at the plan's sizes (a window
        dimension at its window size)."""
        if self.backend == "process":
            return "a new shared-memory segment every run"
        sym = self.analyzed.symbol(name)
        windows = {}
        if self.use_windows and sym.kind is SymbolKind.VAR:
            windows = self.flowchart.window_of(name)
        try:
            nbytes = np.dtype(dtype_for(sym.type.element)).itemsize
            for d, (lo, hi) in enumerate(array_bounds(sym.type, self.scalar_env)):
                nbytes *= max(0, min(hi - lo + 1, windows.get(d, hi - lo + 1)))
        except ExecutionError:
            return "size unknown until the run"
        if nbytes < RECYCLE_MIN_BYTES:
            return "below 128 KiB: left to malloc"
        return "recycled between runs"

    def _storage(self) -> dict:
        """``ExecutionPlan.storage``. An array keeps its definition boxes —
        the run decides, at its sizes, whether they cover it — unless the
        plan rules a skipped zero-fill out: only lazily evaluating code
        (native kernels, the scalar walk) reads exactly the elements the
        equations ask for; a vector-tier equation also gathers the lanes its
        ``if`` discards, so it may read the array only once every definition
        has run — from a later top-level descriptor than the last of them,
        and not as a stage of a pipeline group."""
        plans = [(self.equations[eq.label], eq) for eq in self.analyzed.equations]
        piped = {p[0] for p, lp in self.loops.items() if lp.strategy == "pipeline"}
        out: dict = {}
        for name, boxes in definition_boxes(self.analyzed).items():
            sym = self.analyzed.symbol(name)
            last = max(
                ep.path[0] for ep, eq in plans if any(t.name == name for t in eq.targets)
            )
            early = [
                ep for ep, eq in plans
                if ep.kernel not in ("native", "scalar")
                and any(ref.name == name for ref in eq.refs)
                and (ep.path[0] <= last or ep.path[0] in piped)
            ]
            if not self.use_kernels or self.tier != "native":
                out[name] = "the plan dispatches no native kernels"
            elif (
                self.use_windows and sym.kind is SymbolKind.VAR
                and self.flowchart.window_of(name)
            ):
                out[name] = "it has a window dimension"
            elif early:
                out[name] = (
                    f"{early[0].label} [kernel={early[0].kernel}] may read it "
                    f"before every definition has run"
                )
            else:
                out[name] = (sym.type, boxes)
        return out
