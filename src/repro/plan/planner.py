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
  exec-compiled Python dialect below that), as a fission split when that
  beats the compiled loop at the plan's worker count, or on the reference
  walk when its nest does not lower — and, for a ``DO`` over ``DOALL`` s
  on a host with OpenMP, whether its C kernel runs on a team of threads;
* where the workers go in a nest — a DOALL whose trip count is below the
  worker count flattens with its inner DOALLs (``collapse``) or runs
  ``serial`` and hands the team to a chunk-safe inner DOALL instead of
  leaving workers idle;
* which kernel variant each equation uses (scalar, vector, fused nest, or
  the reference evaluator for non-kernelizable equations).

Safety verdicts (chunk-safety, vector-safety, nest fusability) come from
the flowchart annotations and the kernel emitter's static checks; the plan
only ever narrows execution strategy, never semantics — any plan must stay
bit-exact against the serial reference evaluator.
"""

from __future__ import annotations

import os
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
)
from repro.plan.strategy import CHUNK, COLLAPSE, LOOP_STRATEGIES, NEST
from repro.ps.coverage import definition_boxes
from repro.ps.symbols import SymbolKind
from repro.runtime.kernels.emit import equation_affine_fast_path
from repro.runtime.kernels.native import native_refusal, native_spec
from repro.runtime.kernels.nest import kernelizable, kernelizable_reason, nest_fusable
from repro.runtime.values import RECYCLE_MIN_BYTES, array_bounds, dtype_for, eval_bound
from repro.schedule.flowchart import (
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
    equation_vector_safe,
)

#: backends that split DOALL subranges into worker chunks
CHUNKED_BACKENDS = ("threaded", "process")

#: every backend a plan may target (the registry of
#: ``repro.runtime.backends``; a test keeps the two sets equal)
KNOWN_BACKENDS = ("serial", "vectorized") + CHUNKED_BACKENDS

#: the candidate set ``backend="auto"`` chooses from
AUTO_CANDIDATES = ("serial", "vectorized", "threaded", "process")

#: assumed trip count when subrange bounds are not statically evaluable
DEFAULT_TRIP = 16

#: strategies that only a DOALL can take
DOALL_ONLY = ("vector", "chunk", "collapse")

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
                use_fission=use_fission, tier=tier,
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
        use_fission=use_fission, tier=tier,
        force_default=soft_strategy, force_soft=True,
    )
    planner.plan_module()
    plan = planner.finish(analyzed.name, requested=requested, pinned=True)
    plan.provenance = {
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
    this set): the walk, a ``DOALL``'s vector span, every registered
    strategy that recognises the loop, and its fission split."""
    from repro.schedule.fission import fission_split

    ctx = SimpleNamespace(
        analyzed=analyzed, flowchart=flowchart, use_windows=use_windows,
        use_kernels=True,
    )
    out = ["serial", "vector"] if desc.parallel else ["serial"]
    out += [
        name for name, strategy in LOOP_STRATEGIES.items()
        if strategy.recognise(ctx, desc) is None
    ]
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
        self.use_fission = use_fission
        self.tier = tier
        self.force_default = force_default
        self.force_overrides = force_overrides or {}
        self.force_soft = force_soft
        self.entries: list[PlanEntry] = []
        #: one provenance note per fission-considered loop (split or not)
        self.fission_notes: list[dict] = []
        #: one provenance note per sequential DO planned on its own: the
        #: compiled nest against the walk, and why the loser lost
        self.do_notes: list[dict] = []
        self.loops: dict[tuple[int, ...], LoopPlan] = {}
        self.equations: dict[str, EquationPlan] = {}
        self.total = 0.0
        self._chunked_somewhere = False
        self._trips: dict[int, int | None] = {}
        #: id(desc) -> (strategy, parts, cycles, why)
        self._choices: dict[int, tuple] = {}
        #: id(desc) -> (strategy, NestPrice | None, cycles, why) per DO
        self._do_choices: dict[int, tuple] = {}
        #: (id(desc), variant) -> why the nest does not lower to C in that
        #: shape (None: it does) — machine-independent
        self._native: dict[tuple[int, str], str | None] = {}
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

    def _fusable(self, desc: LoopDescriptor) -> bool:
        return self.use_kernels and nest_fusable(
            desc, self.analyzed, self.flowchart, self.use_windows
        )

    def _native_ok(self, desc: LoopDescriptor, variant: str) -> bool:
        """Whether this nest *plans* as native: the tier allows it and the
        nest lowers to bit-exact C. Deliberately machine-independent (no
        compiler probe) so plans — and the golden texts pinning them — are
        identical everywhere; a compiler-less machine degrades to the NumPy
        kernels at run time. (A team is the one exception: it is offered
        only where ``openmp_supported()`` — see ``NestStrategy``.)"""
        return self._native_why(desc, variant) is None

    def _native_why(self, desc: LoopDescriptor, variant: str) -> str | None:
        """Why :meth:`_native_ok` says no — None when it says yes."""
        if self.tier != "native" or not self.use_kernels:
            return "the native tier is off"
        key = (id(desc), variant)
        if key not in self._native:
            self._native[key] = native_refusal(
                desc, self.analyzed, self.flowchart, self.use_windows, variant
            )
        return self._native[key]

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

    # -- strategy choice ---------------------------------------------------

    def _inner_chunk_candidate(self, desc: LoopDescriptor) -> LoopDescriptor | None:
        """A chunk-safe parallel loop directly in ``desc``'s body whose trip
        count can keep the whole team busy."""
        for d in desc.body:
            if not isinstance(d, LoopDescriptor) or not d.parallel:
                continue
            if CHUNK.recognise(self, d) is not None:
                continue
            it = self.trip(d)
            if it is None or it >= INNER_CHUNK_FACTOR * self.workers:
                return d
        return None

    def _choose(self, desc: LoopDescriptor):
        """(strategy, parts, cycles, reason) for a parallel loop met on the
        scalar walk. Memoized per descriptor."""
        cached = self._choices.get(id(desc))
        if cached is not None:
            return cached
        choice = self._choose_uncached(desc)
        if choice[0] not in VALID_STRATEGIES:
            raise PlanError(f"planner produced unknown strategy {choice[0]!r}")
        self._choices[id(desc)] = choice
        return choice

    def _forced_for(self, desc: LoopDescriptor) -> str | None:
        path = self.flowchart.path_of(desc)
        forced = self.force_overrides.get(path, self.force_default)
        if forced is None:
            return None
        if forced == "fission":
            # Fission is decided before _choose ever runs (_fission_decision
            # in the walk emission, which also raises on an invalid hard
            # per-path pin). Reaching here means the loop was not split —
            # either it has no legal split under a soft default, or it is a
            # replica/inner loop below a split — so it plans normally.
            return None
        if forced == "nest":
            why = None if self._fusable(desc) else "not fusable"
        elif forced in (CHUNK.name, COLLAPSE.name):
            why = LOOP_STRATEGIES[forced].recognise(self, desc)
        else:
            why = None
        if why is None:
            return forced
        if self.force_soft:
            return None
        raise PlanError(f"cannot force {forced!r} on DOALL {desc.index}: {why}")

    def _choose_uncached(self, desc: LoopDescriptor):
        forced = self._forced_for(desc)
        if forced in (CHUNK.name, COLLAPSE.name):
            return (forced, *LOOP_STRATEGIES[forced].price(self, desc), "forced")
        if forced is not None:
            cost = {
                "serial": self._cost_serial_root,
                "nest": lambda d: NEST.price(self, d).cycles,
                "vector": self._cost_vector_root,
            }[forced]
            return (forced, None, cost(desc), "forced")

        if self.backend == "serial":
            c_serial = self._cost_serial_root(desc)
            if self._fusable(desc):
                c_nest = NEST.price(self, desc).cycles
                if c_nest < c_serial:
                    return ("nest", None, c_nest, "fused nest kernel")
            return ("serial", None, c_serial, "")

        if self.backend == "vectorized":
            return ("vector", None, self._cost_vector_root(desc), "")

        if self.backend in CHUNKED_BACKENDS:
            t = self.trip(desc)
            te = self._trip_est(desc)
            why = CHUNK.recognise(self, desc)
            if why is not None:
                return ("vector", None, self._cost_vector_root(desc), why)
            if self.workers < 2 or te < 2:
                return (
                    "vector", None, self._cost_vector_root(desc),
                    "nothing to chunk",
                )
            # A collapse-safe, fusable chain may flatten: one linearized
            # iteration space chunked over the team, each chunk one fused
            # flat kernel. Priced against the classic alternatives below.
            collapse = None
            if COLLAPSE.recognise(self, desc) is None and self._fusable(desc):
                collapse = COLLAPSE.price(self, desc)
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
                    c_serial = self._cost_serial_root(desc)
                    why = f"trip {t} < {self.workers} workers"
                    if collapse is not None and collapse[1] < c_serial:
                        return ("collapse", *collapse, why)
                    return (
                        "serial", None, c_serial,
                        f"{why}: DOALL {inner.index} takes them",
                    )
            chunk = CHUNK.price(self, desc)
            if collapse is not None and collapse[1] < chunk[1]:
                return ("collapse", *collapse, "")
            return ("chunk", *chunk, "")

        raise PlanError(f"unknown execution backend {self.backend!r}")

    def _hard_pin(self, path) -> bool:
        """Whether ``path`` carries a hard per-path override: the pinned
        strategy is then honoured or raises — no merit decision (fission)
        may take the loop first."""
        return not self.force_soft and path in self.force_overrides

    def _do_choice(self, desc: LoopDescriptor):
        """(strategy, NestPrice | None, cycles, why) for a sequential
        ``DO`` met on the scalar walk: the compiled in-order nest against
        the reference walk. Its cycles are the price every other ``DO``
        strategy (fission) has to beat — compiled
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

    # -- fission -----------------------------------------------------------

    def _fission_decision(self, desc: LoopDescriptor, path) -> dict | None:
        """Decide one multi-unit loop met on the walk: a dict for
        :meth:`_emit_fission` when splitting wins (or is forced), None to
        fall through to the unfissioned plan. Every loop with a legal split
        — and every multi-unit loop whose split was *rejected* — leaves a
        provenance note, so ``repro plan`` can explain both verdicts."""
        if not self.use_fission:
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
        fissioned = sum(self._cost(piece, "walk", 1) for piece in split.pieces)
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
        cost = sum(
            self._emit(piece, path + (-1, k), depth + 1, "walk", 1.0)
            for k, piece in enumerate(split.pieces)
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
            spec = native_spec(
                self.flowchart.descriptor_at(path), self.analyzed,
                self.flowchart, self.use_windows, lp.kernel_shape(),
            )
            notes.append({
                "index": str(path), "loop_index": lp.index,
                "keyword": lp.keyword, "shape": lp.kernel_shape(),
                "function": spec.fn_name,
                "checks": spec.checks,
                "proven": spec.proven,
                "inline": spec.inline[0] if spec.inline else None,
            })
        return notes

    def native_functions(self) -> int:
        """How many distinct C functions this plan builds."""
        return len({note["function"] for note in self.native_notes()})

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

    # -- emission ----------------------------------------------------------

    def plan_module(self) -> None:
        total = sum(
            self._emit(d, (i,), 0, "walk", 1.0)
            for i, d in enumerate(self.flowchart.descriptors)
        )
        if self.backend == "process" and self._chunked_somewhere:
            total += self.model.process_spinup
        self.total = total

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
                "team": priced.team if priced else None,
                "team_note": priced.note if priced else "",
                "cycles": cost,
                "walk_cycles": self._cost_serial_root(desc),
                "why": why,
            })
            if strategy == NEST.name:
                return NEST.emit(self, desc, path, depth, priced, why)
            lp = LoopPlan(path, desc.index, desc.keyword, "serial", trip=t)
            self._register(lp, depth)
            body = sum(
                self._emit(d, path + (i,), depth + 1, "walk", 1.0)
                for i, d in enumerate(desc.body)
            )
            lp.cycles = te * (self.model.loop_overhead + body)
            return lp.cycles

        strategy, parts, cost, reason = self._choose(desc)
        if strategy == NEST.name:
            return NEST.emit(
                self, desc, path, depth, NEST.price(self, desc), reason
            )
        if strategy in (CHUNK.name, COLLAPSE.name):
            return LOOP_STRATEGIES[strategy].emit(
                self, desc, path, depth, parts, cost, reason
            )
        lp = LoopPlan(
            path, desc.index, desc.keyword, strategy, trip=t, cycles=cost,
            reason=reason,
        )
        self._register(lp, depth)
        if strategy == "vector":
            self._emit_body(desc, path, depth, "vector", float(te), False)
        else:
            self._emit_body(desc, path, depth, "walk", 1.0, False)
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
            window_refusals=(
                dict(self.flowchart.window_refusals) if self.use_windows else {}
            ),
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
        has run — from a later top-level descriptor than the last of them."""
        plans = [(self.equations[eq.label], eq) for eq in self.analyzed.equations]
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
                and ep.path[0] <= last
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
