"""The cost-driven planner: annotated flowchart -> ExecutionPlan.

The planner makes every decision the execution engine acts on at loop
entry, exactly once per (module, options, scalar bindings):

* how each loop met on the walk runs — one walk over the flowchart, and
  per loop one walk over :data:`repro.plan.strategy.LOOP_STRATEGIES`
  (``_Planner._decide``): a forced name asks that one strategy; otherwise
  every strategy that recognises the loop is priced at the *effective*
  parallelism ``min(workers, cpu_count)`` and the cheapest wins. Under
  ``backend="auto"`` every strategy is on offer (:data:`AUTO_TIE` settles
  a ``DOALL``'s near-ties); a label pins the plan to the strategies it
  offers a ``DOALL`` (``_Planner._pin_refusal``, the one label rule). So a
  ``DO`` compiles in order (``nest``) when that beats the walk, and a
  ``DOALL`` takes a vector span or a fused nest — either nest on a team of
  OpenMP threads where that is cheaper than one thread. Every plan names
  loops of the flowchart's own tree;
* which kernel variant each equation uses (scalar, vector, fused nest, or
  the reference evaluator for non-kernelizable equations).

Safety verdicts (team-safety, vector-safety, nest fusability) come from
the flowchart annotations and the kernel emitter's static checks; the plan
only ever narrows execution strategy, never semantics — any plan must stay
bit-exact against the serial reference evaluator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.machine.cost import MachineModel
from repro.plan.ir import (
    KNOWN_BACKENDS,
    EquationPlan,
    ExecutionPlan,
    LoopPlan,
    PlanEntry,
    PlanError,
)
from repro.plan.strategy import (
    LOOP_STRATEGIES,
    NEST,
    SERIAL,
    VECTOR,
    Price,
)
from repro.ps.coverage import definition_boxes
from repro.ps.symbols import SymbolKind
from repro.runtime.executor import KERNEL_TIERS, ExecutionOptions
from repro.runtime.kernels.emit import equation_affine_fast_path
from repro.runtime.kernels.native import entry_refusal, native_refusal, native_spec
from repro.runtime.kernels.nest import kernelizable, kernelizable_reason
from repro.runtime.values import RECYCLE_MIN_BYTES, array_bounds, dtype_for, eval_bound
from repro.schedule.flowchart import (
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
    equation_vector_safe,
)

#: assumed trip count when subrange bounds are not statically evaluable
DEFAULT_TRIP = 16

#: ``auto`` treats a ``DOALL``'s strategies predicted within this fraction
#: of its cheapest as tied — well inside the model's error (``plan.pred_spread``)
#: — and a tie goes to one that builds no native function of its own: equal
#: run time is not worth a longer cold start. This is what keeps small
#: one-shot copies (``eq.1`` / ``eq.2`` of Jacobi) on NumPy spans beside a
#: compiled sweep, instead of compiling all three for a few percent. A ``DO``
#: and a pin take the cheapest.
AUTO_TIE = 0.05


@dataclass(frozen=True)
class Choice:
    """How one loop met on the walk runs: the planner's walk over
    :data:`LOOP_STRATEGIES`, with what it saw on the way."""

    strategy: Any
    price: Price
    #: strategy name -> its refusal or its price, for every one asked
    verdicts: dict
    #: why the tie rule took this strategy over a cheaper one ("" when it
    #: did not decide)
    tie: str = ""
    #: why :meth:`_Planner.price_entry` moved the loop to ``nest`` ("" when
    #: it did not)
    entry: str = ""


def host_cpu_count() -> int:
    """The planner's one read of the host (``tests/plan`` forbids it)."""
    return os.cpu_count() or 1


def _kernel_tier(options: ExecutionOptions, error: type[Exception]) -> str:
    """``options.kernel_tier``, or ``error`` naming every tier a plan may
    be built for."""
    if options.kernel_tier not in KERNEL_TIERS:
        raise error(
            f"unknown kernel tier {options.kernel_tier!r}; "
            f"available: {', '.join(KERNEL_TIERS)}"
        )
    return options.kernel_tier


def _backend(label: str, error: type[Exception]) -> str:
    """``label`` — ``auto`` or a pin — or ``error`` naming every label a
    plan may be pinned to."""
    if label != "auto" and label not in KNOWN_BACKENDS:
        raise error(
            f"unknown execution backend {label!r}; "
            f"available: {', '.join(KNOWN_BACKENDS)}"
        )
    return label


def _workers(options: ExecutionOptions, error: type[Exception]) -> int | None:
    """``options.workers``, or ``error`` unless it is None (the caller
    picks a count) or a positive ``int``."""
    workers = options.workers
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, int) or workers < 1
    ):
        raise error(f"workers must be a positive integer; got {workers!r}")
    return workers


def build_plan(
    analyzed,
    flowchart: Flowchart,
    options: Any | None = None,
    scalar_env: dict[str, int] | None = None,
    model: MachineModel | None = None,
    cpu_count: int | None = None,
    served: bool = False,
) -> ExecutionPlan:
    """Plan one module execution.

    ``options`` is a :class:`repro.runtime.executor.ExecutionOptions`;
    ``scalar_env`` supplies integer parameter values for trip counts (loops
    whose bounds cannot be evaluated get a conservative default);
    ``cpu_count`` stands in for the machine's real core count (read only
    when this is None): it bounds the parallelism the cost model believes
    in — a worker count above it buys nothing, which is exactly what
    ``auto`` must know — and is the worker count when ``options.workers``
    is unset, so a plan built with it never depends on the host;
    ``served`` prices the plan for a server that runs it again and again:
    the one-time native build is sunk (``MachineModel.native_build`` is
    charged to a one-shot plan only) — a :class:`repro.serve.Session`
    replans with it once a plan key runs a second time.
    """
    options = options or ExecutionOptions()
    scalar_env = scalar_env or {}
    model = model or MachineModel()
    soft_strategy = options.strategy
    if soft_strategy is not None and soft_strategy not in LOOP_STRATEGIES:
        raise ExecutionError(
            f"unknown strategy {soft_strategy!r}; "
            f"available: {', '.join(LOOP_STRATEGIES)}"
        )
    tier = _kernel_tier(options, ExecutionError)
    workers = _workers(options, ExecutionError)
    # Resolve the machine's core count exactly once: a worker count and an
    # effective-parallelism bound read under two different affinity
    # settings would silently disagree.
    ncpu = cpu_count if cpu_count is not None else host_cpu_count()
    workers = workers or max(1, ncpu)
    effective = max(1, min(workers, ncpu))
    requested = _backend(options.backend, ExecutionError)
    planner = _Planner(
        analyzed, flowchart, requested, workers, effective,
        scalar_env, model, options.runs_kernels(), bool(options.use_windows),
        tier=tier, force_default=soft_strategy, force_soft=True,
        served=served,
    )
    planner.plan_module()
    planner.price_entry()
    plan = planner.finish(analyzed.name)
    plan.provenance = {
        "do_loops": planner.do_notes,
        "doall_loops": planner.doall_notes,
        "native_nests": planner.native_notes(),
        "slow_loops": planner.slow_notes(),
        "mode": "auto" if requested == "auto" else "pinned",
        "workers": workers,
        "served": served,
    }
    if planner.entry_cycles is not None:
        plan.provenance["entry_cycles"] = planner.entry_cycles
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
    """A hand-forced plan: every loop met on the walk takes ``default``
    (when given), individual loops take ``overrides[path]``. A strategy
    that refuses a loop it is pinned to by path — ``nest`` on an unfusable
    loop, any ``DOALL``-only strategy on a ``DO`` — raises
    :class:`PlanError` naming the loop and the refusal, rather than
    risking semantics or dropping the pin. A loop
    that refuses the ``default`` stays on the walk (``serial``), so the
    forced loops inside it are the ones that run — a ``DO`` under a
    ``DOALL``-only default, say. ``backend`` is a label as in
    :func:`build_plan`: the loops left to the planner plan under it.
    ``cpu_count`` stands in for the host's core count when
    ``options.workers`` is unset, exactly as in :func:`build_plan`.
    """
    for name in (default, *(overrides or {}).values()):
        if name is not None and name not in LOOP_STRATEGIES:
            raise PlanError(
                f"unknown forced strategy {name!r}; "
                f"available: {', '.join(LOOP_STRATEGIES)}"
            )
    backend = _backend(backend, PlanError)
    options = options or ExecutionOptions()
    tier = _kernel_tier(options, PlanError)
    workers = _workers(options, PlanError) or max(1, cpu_count or host_cpu_count())
    planner = _Planner(
        analyzed,
        flowchart,
        backend,
        workers,
        1,
        scalar_env or {},
        model or MachineModel(),
        options.runs_kernels(),
        bool(options.use_windows),
        tier=tier,
        force_default=default,
        force_overrides=overrides or {},
    )
    planner.plan_module()
    return planner.finish(analyzed.name)


def valid_strategies(
    analyzed, flowchart: Flowchart, desc: LoopDescriptor, use_windows: bool = False
) -> list[str]:
    """The strategies a loop may be forced to (property tests draw from
    this set): every registered strategy whose :meth:`recognise` accepts
    the loop as a force, kernels on."""
    ctx = _Planner(
        analyzed, flowchart, "serial", 1, 1, {}, MachineModel(), True,
        bool(use_windows),
    )
    return [
        name for name, strategy in LOOP_STRATEGIES.items()
        if strategy.recognise(ctx, desc, forced=True) is None
    ]


class _Planner:
    """One planning pass: a walk over the flowchart that decides every
    loop met on it, under ``auto`` or a pinned backend label."""

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
        tier: str = "native",
        force_default: str | None = None,
        force_overrides: dict[tuple[int, ...], str] | None = None,
        force_soft: bool = False,
        served: bool = False,
    ):
        self.analyzed = analyzed
        self.flowchart = flowchart
        #: ``auto`` or the pinned label — read here, never by a strategy
        self.backend = backend
        self.workers = workers
        self.parallelism = parallelism
        self.scalar_env = scalar_env
        self.model = model
        self.served = served
        #: what one native build costs this plan: nothing once it is
        #: sunk in a served plan
        self.native_build = 0.0 if served else model.native_build
        #: (the plan run as one call of its module entry, walked) cycles,
        #: where :meth:`price_entry` priced both
        self.entry_cycles: tuple[float, float] | None = None
        self.use_kernels = use_kernels
        self.use_windows = use_windows
        self.tier = tier
        self.force_default = force_default
        self.force_overrides = force_overrides or {}
        self.force_soft = force_soft
        self.entries: list[PlanEntry] = []
        #: one provenance note per sequential DO planned on its own: the
        #: compiled nest against the walk, and why the loser lost
        self.do_notes: list[dict] = []
        #: one provenance note per DOALL decided on the walk: every
        #: strategy's price or refusal, and the winner
        self.doall_notes: list[dict] = []
        self.loops: dict[tuple[int, ...], LoopPlan] = {}
        self.equations: dict[str, EquationPlan] = {}
        self.total = 0.0
        self._trips: dict[int, int | None] = {}
        #: id(desc) -> the Choice for a loop met on the walk
        self._choices: dict[int, Choice] = {}
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
        "native")."""
        if ctx in ("nest", "native"):
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

    def _eq_cost(self, eq, ctx: str, span: float) -> float:
        mode = self._eq_mode(eq, ctx)
        m = self.model
        if mode == "vector":
            return m.vector_setup + span * m.element_cost(eq, self._vector_mode(eq))
        if ctx == "vector" and mode == "evaluator" and equation_vector_safe(eq):
            # vector-safe but non-kernelizable: the vector *evaluator* runs
            # it — one tree walk per span, NumPy per element
            return (
                4 * m.vector_setup
                + 2 * span * m.element_cost(eq, self._vector_mode(eq))
            )
        # inside a span, the per-element scalar fallback
        return span * m.element_cost(eq, mode)

    def _cost(self, desc, ctx: str, span: float) -> float:
        """Cycles to execute ``desc`` once in context ``ctx`` with ``span``
        elements per vectorised lane (1 on the scalar walk)."""
        if isinstance(desc, NodeDescriptor):
            if not desc.node.is_equation:
                return 0.0
            return self._eq_cost(desc.node.equation, ctx, span)
        assert isinstance(desc, LoopDescriptor)
        t = self._trip_est(desc)
        if ctx in ("nest", "native") or (ctx == "vector" and desc.parallel):
            # a DOALL inside a span broadcasts
            return sum(self._cost(d, ctx, span * t) for d in desc.body)
        if ctx == "vector":
            # a DO inside a span keeps its own loop
            return t * (
                self.model.loop_overhead
                + sum(self._cost(d, ctx, span) for d in desc.body)
            )
        # ctx == "walk"
        return self._decide(desc).price.cycles

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

    # -- strategy choice ---------------------------------------------------

    def _pinned_inside(self, desc: LoopDescriptor) -> bool:
        """Whether a per-path pin names a loop strictly inside ``desc`` —
        compiling ``desc`` whole would swallow it."""
        if self.force_soft or not self.force_overrides:
            return False
        path = self.flowchart.path_of(desc)
        return any(
            len(p) > len(path) and p[: len(path)] == path
            for p in self.force_overrides
        )

    def _forced(self, desc: LoopDescriptor):
        """(the strategy forced on ``desc``, the plan's rationale for it) —
        ``(None, "")`` when the loop is the planner's to choose. A strategy
        that refuses a pin raises; one that refuses a soft preference
        leaves the choice to the planner; one that refuses a hard
        ``default`` leaves the loop on the walk, so the loops inside it
        take the default."""
        if self.force_default is None and not self.force_overrides:
            return None, ""
        path = self.flowchart.path_of(desc)
        name = self.force_overrides.get(path, self.force_default)
        if name is None:
            return None, ""
        strategy = LOOP_STRATEGIES[name]
        why = strategy.recognise(self, desc, forced=True)
        if why is None:
            return strategy, "forced"
        if not self.force_soft and path in self.force_overrides:
            raise PlanError(
                f"cannot force {name!r} on {desc.keyword} {desc.index}: {why}"
            )
        if self.force_soft:
            return None, ""
        return SERIAL, f"{name} refused: {why}"

    def _pin_refusal(self, strategy, desc: LoopDescriptor) -> str | None:
        """The one label rule: why the pinned label does not offer
        ``strategy`` for an unforced ``DOALL`` (None: it does). ``serial``
        offers the walk and the fused nest, ``vectorized`` the vector span,
        ``threaded`` the vector span and the fused nest (on a team where
        that is cheaper); ``auto`` offers everything, and a ``DO`` chooses
        between the walk and the nest under any label."""
        if self.backend == "auto" or not desc.parallel:
            return None
        offered = {
            "serial": (SERIAL, NEST),
            "vectorized": (VECTOR,),
            "threaded": (VECTOR, NEST),
        }[self.backend]
        return None if strategy in offered else f"the {self.backend} pin does not offer it"

    def _decide(self, desc: LoopDescriptor) -> Choice:
        """How a loop met on the walk runs: one walk over
        :data:`LOOP_STRATEGIES`, in table order. A forced strategy takes
        the loop; otherwise every strategy that recognises it and the pin
        offers is priced, and the cheapest wins (the first in table order
        on equal prices) — for an ``auto`` ``DOALL``, the cheapest of those
        within :data:`AUTO_TIE` of it that builds no native function of its
        own. Memoized per descriptor."""
        cached = self._choices.get(id(desc))
        if cached is not None:
            return cached
        forced, reason = self._forced(desc)
        verdicts: dict[str, Any] = {}
        if forced is not None:
            price = verdicts[forced.name] = replace(
                forced.price(self, desc), reason=reason
            )
            choice = Choice(forced, price, verdicts)
        else:
            for s in LOOP_STRATEGIES.values():
                why = s.recognise(self, desc) or self._pin_refusal(s, desc)
                verdicts[s.name] = why if why is not None else s.price(self, desc)
            priced = [
                (LOOP_STRATEGIES[name], v) for name, v in verdicts.items()
                if isinstance(v, Price)
            ]
            if not priced:
                raise PlanError(
                    f"no strategy applies to {desc.keyword} {desc.index} "
                    f"under the {self.backend} pin"
                )
            cheapest = best = min(priced, key=lambda sp: sp[1].cycles)
            tie = ""
            if self.backend == "auto" and desc.parallel:
                band = (1.0 + AUTO_TIE) * cheapest[1].cycles
                best = min(
                    (sp for sp in priced if sp[1].cycles <= band),
                    key=lambda sp: (sp[1].dialect == "native", sp[1].cycles),
                )
                if best is not cheapest:
                    tie = (
                        f"within {AUTO_TIE:.0%} of {cheapest[0].name}, and it "
                        f"builds no native function"
                    )
            choice = Choice(best[0], best[1], verdicts, tie)
        self._choices[id(desc)] = choice
        return choice

    def _do_note(self, desc: LoopDescriptor, path, choice: Choice) -> dict:
        """The provenance of a ``DO`` planned on its own: the compiled nest
        against the walk, and why the loser lost."""
        price = choice.price
        why = price.reason
        if choice.strategy is not NEST:
            refusal = NEST.recognise(self, desc, forced=True)
            if refusal is not None:
                why = refusal
            elif not why:
                why = NEST.walk_wins(self, desc, choice.verdicts[NEST.name])
        return {
            "index": str(path), "loop_index": desc.index,
            "strategy": choice.strategy.name, "trip": self._trip_est(desc),
            "dialect": price.dialect, "team": price.team,
            "team_note": price.note, "cycles": price.cycles,
            "walk_cycles": SERIAL.price(self, desc).cycles,
            "why": why,
        }

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

    def slow_notes(self) -> list[dict]:
        """Per-loop why-not provenance for nests left on the slow path: the
        first non-kernelizable equation, with the emitter's reason.
        Outermost loop wins when an equation sits under several."""
        notes: list[dict] = []
        if not self.use_kernels:
            return notes
        seen: set[str] = set()
        for lp in self.loops.values():
            desc = self.flowchart.descriptor_at(lp.path)
            label = why = None
            for eq in desc.nested_equations():
                r = kernelizable_reason(eq, self.analyzed)
                if r is not None:
                    label, why = eq.label, r
                    break
            if label is None or label in seen:
                continue
            seen.add(label)
            notes.append({
                "index": str(lp.path),
                "keyword": lp.keyword,
                "loop_index": lp.index,
                "label": label,
                "reason": why,
            })
        return notes

    # -- emission ----------------------------------------------------------

    def plan_module(self) -> None:
        self.total = sum(
            self._emit(d, (i,), 0, "walk", 1.0)
            for i, d in enumerate(self.flowchart.descriptors)
        )

    def price_entry(self) -> None:
        """The one post-pass, for a served ``auto`` plan on the native tier:
        where every top-level loop is a native nest, or a vector ``DOALL``
        whose ``nest`` verdict is native on the same team width, the plan
        can run as one call of its module entry, in which a loop pays no
        ``native_call_overhead`` of its own and a vector span saves nothing.
        Price it both ways — walked, today's total; as the entry, each
        loop's nest without its call overhead plus one call — and re-emit
        those ``DOALL`` s as ``nest`` when the entry is cheaper."""
        if not (
            self.served and self.backend == "auto" and self.force_default is None
            and self.tier == "native" and self.use_kernels
        ):
            return
        overhead = self.model.native_call_overhead
        entry, moved, teams = self.total + overhead, [], set()
        for desc in self.flowchart.descriptors:
            if isinstance(desc, NodeDescriptor):
                if desc.node.is_equation and entry_refusal(
                    desc.node.equation, self.analyzed
                ):
                    return
                continue
            choice = self._decide(desc)
            price = choice.price
            if choice.strategy is VECTOR:
                price = choice.verdicts[NEST.name]
                moved.append((desc, choice, price))
            elif choice.strategy is not NEST:
                return
            if not isinstance(price, Price) or price.dialect != "native":
                return
            teams.add(price.team)
            entry += price.cycles - overhead - choice.price.cycles
        if not teams or len(teams - {None}) > 1:
            return
        walked = self.total
        self.entry_cycles = entry, walked
        if entry >= walked:
            return
        why = f"module entry ~{entry:.0f} vs walked ~{walked:.0f} cycles"
        for desc, choice, price in moved:
            self._choices[id(desc)] = Choice(NEST, price, choice.verdicts, entry=why)
        if moved:
            self.entries, self.loops, self.equations = [], {}, {}
            self.do_notes, self.doall_notes = [], []
            self.plan_module()
        self.total = entry

    def _emit_equation(self, desc: NodeDescriptor, path, depth, ctx, span) -> float:
        if not desc.node.is_equation:
            self.entries.append(PlanEntry(depth, label=desc.node.id))
            return 0.0
        eq = desc.node.equation
        mode = self._eq_mode(eq, ctx)
        if mode in ("nest", "vector", "kernel") and self._native_root:
            # The enclosing nest/span lowers to the native C tier — the
            # equation's per-element cost and kernel label follow.
            mode = "native"
        kernel, reason = mode, ""
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
        te = self._trip_est(desc)

        if ctx == "nest":
            # a loop inside a fused kernel: part of its root
            lp = self._loop(desc, path, depth, ctx, fuse=True, reason="fused")
            lp.cycles = sum(
                self._emit(d, path + (i,), depth + 1, ctx, span * te)
                for i, d in enumerate(desc.body)
            )
            return lp.cycles

        if ctx == "vector":
            # a loop inside a vector span: a DOALL broadcasts, a DO loops
            span_reason = ""
            if desc.parallel:
                span_reason = (
                    "nested in native span" if self._native_root
                    else "nested in span"
                )
            lp = self._loop(
                desc, path, depth, (VECTOR if desc.parallel else SERIAL).name,
                reason=span_reason,
            )
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

        # ctx == "walk": the loop's own decision, and its provenance
        choice = self._decide(desc)
        if desc.parallel:
            self.doall_notes.append({
                "index": str(path), "loop_index": desc.index,
                "strategy": choice.strategy.name, "trip": self._trip_est(desc),
                "verdicts": choice.verdicts, "tie": choice.tie,
                "entry": choice.entry,
            })
        else:
            self.do_notes.append(self._do_note(desc, path, choice))
        return choice.strategy.emit(self, desc, path, depth, choice.price)

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

    def _loop(self, desc: LoopDescriptor, path, depth, strategy: str, **fields) -> LoopPlan:
        """Register the plan of the loop at ``path``, next in pre-order."""
        lp = LoopPlan(
            path, desc.index, desc.keyword, strategy, trip=self.trip(desc),
            **fields,
        )
        self.loops[path] = lp
        self.entries.append(PlanEntry(depth, loop=lp))
        return lp

    def finish(self, module: str) -> ExecutionPlan:
        """The plan of the walk. An ``auto`` plan's label follows from its
        loops: ``vectorized`` when one runs a vector span, else
        ``serial``."""
        storage = self._storage()
        backend = self.backend
        if backend == "auto":
            backend = "serial"
            if any(lp.strategy == VECTOR.name for lp in self.loops.values()):
                backend = "vectorized"
        plan = ExecutionPlan(
            module=module,
            backend=backend,
            requested=self.backend,
            workers=self.workers,
            use_windows=self.use_windows,
            use_kernels=self.use_kernels,
            kernel_tier=self.tier,
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
