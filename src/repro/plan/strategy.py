"""Loop strategies as objects: ``recognise -> price -> emit -> execute``.

Every way a loop can run is one object here, registered by plan-strategy
name in :data:`LOOP_STRATEGIES` — the one list of strategy names in the
package. A strategy says whether it applies to a loop (:meth:`recognise`,
with the refusal as text that ``plan.explain()`` and a refused force
print), what it would cost there (:meth:`price`, against the planner as
cost context), how it appears in the plan (:meth:`emit`, :meth:`annotate`)
and how a backend runs it (:meth:`execute`).

A strategy judges a loop by its shape and by whether the plan has a
worker pool (``_Planner.pool``); which strategies a pinned label offers is
the planner's one label rule (``_Planner._pin_refusal``). The planner's
choice for a loop met on the walk is one walk over the table
(``_Planner._decide``): a forced name asks that one strategy; otherwise
every strategy that recognises the loop, and the pin offers, is priced and
the cheapest wins (``AUTO_TIE`` settles an ``auto`` ``DOALL``'s near-ties).
The engine's walk runs every planned loop through its strategy's
:meth:`execute`, and :class:`repro.plan.ir.LoopPlan` reads its kernel
shape and the head of its ``pretty()`` row from it — so a strategy is one
entry here, not a branch in each of those places.

In table order: :class:`SerialStrategy` (``serial``) walks a loop element
by element; :class:`VectorStrategy` (``vector``) runs a ``DOALL`` as one
NumPy span; :class:`NestStrategy` (``nest``) runs a whole nest as one
compiled kernel; :class:`PoolStrategy` (``chunk`` and ``collapse``) divides
a ``DOALL`` among the plan's workers, each chunk on the loop's own
kernel.

Every strategy runs the loop the scheduler (or the ``--merge`` pass) built:
none splits or replaces it, so every plan names loops of the flowchart's
own tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, prod

from repro.runtime.kernels import native as native_mod
from repro.runtime.kernels.nest import (
    holds_doall,
    nest_unfusable_reason,
    team_unfit_reason,
)
from repro.schedule.flowchart import (
    LoopDescriptor,
    collapse_chain,
    loop_chunk_safe,
    loop_collapse_safe,
    split_range,
)

#: a chunk-safe inner DOALL takes the team only when its own trip count
#: keeps every worker busy at least this many chunks deep
INNER_CHUNK_FACTOR = 2

#: why a strategy that reorders iterations refuses a ``DO``
IN_ORDER = "its iterations must run in order"


@dataclass(frozen=True)
class Price:
    """What running one loop one way costs, and why it is offered."""

    #: predicted cycles of one execution (a build is not part of a run)
    cycles: float
    #: chunks (``chunk`` / ``collapse``)
    parts: int | None = None
    #: the one-line rationale the plan prints beside the strategy
    reason: str = ""
    #: which text of the nest kernel runs: ``"native"`` | ``"python"``
    dialect: str | None = None
    #: the width of the team the C kernel runs on (None: one thread)
    team: int | None = None
    #: why a ``DO`` over ``DOALL`` s runs without a team, for ``explain()``
    note: str = ""


class LoopStrategy:
    """What every strategy shares: no kernel of its own, and a ``pretty()``
    row headed by its name (with its part count, where it has one)."""

    name = ""
    #: the nest-kernel shape the loop runs (None: it dispatches no kernel)
    shape: str | None = None

    def recognise(self, planner, desc: LoopDescriptor, forced: bool = False) -> str | None:
        """None when the strategy applies to ``desc``, else why not. The
        loop's shape always counts; unless ``forced``, so does whether the
        plan's workers should divide it."""
        raise NotImplementedError

    def price(self, planner, desc: LoopDescriptor) -> Price:
        raise NotImplementedError

    def emit(self, planner, desc: LoopDescriptor, path, depth: int, price: Price) -> float:
        """Register the loop's plan (and its body's) on ``planner``; the
        cycles the loop adds to the plan's total."""
        raise NotImplementedError

    def execute(self, backend, state, desc: LoopDescriptor, lo, hi, env) -> None:
        """Run ``[lo, hi]`` of ``desc`` on ``backend``."""
        raise NotImplementedError

    def annotate(self, lp) -> list[str]:
        """The leading fields of the loop's ``pretty()`` row."""
        return [f"{self.name} x{lp.parts}" if lp.parts else self.name]


def _pool_refusal(planner, desc: LoopDescriptor) -> str | None:
    """Why the plan's workers cannot divide ``desc``, None when they
    can."""
    if not planner.pool:
        return "the plan has no worker pool"
    why = CHUNK.recognise(planner, desc, forced=True)
    if why is not None:
        return why
    if planner.workers < 2 or planner._trip_est(desc) < 2:
        return "nothing to chunk"
    return None


def _idle_team(planner, desc: LoopDescriptor) -> LoopDescriptor | None:
    """The utilization rule: a ``DOALL`` the workers could divide, but
    whose trip count is below the worker count, leaves them to a chunk-safe
    ``DOALL`` directly in its body whose own trip count keeps the whole
    team busy — that inner loop, or None. Deliberately not a cost
    comparison: an outer chunk with trip < workers idles (workers − trip)
    workers for the whole wavefront, and dispatch constants calibrated on
    a 1-core box would veto the inner chunking multicore hardware rewards.
    ``INNER_CHUNK_FACTOR`` keeps the extra dispatches amortised over a
    genuinely wide inner loop."""
    t = planner.trip(desc)
    if t is None or t >= planner.workers or _pool_refusal(planner, desc):
        return None
    for d in desc.body:
        if not isinstance(d, LoopDescriptor) or not d.parallel:
            continue
        if CHUNK.recognise(planner, d, forced=True) is not None:
            continue
        it = planner.trip(d)
        if it is None or it >= INNER_CHUNK_FACTOR * planner.workers:
            return d
    return None


def _short_trip(planner, desc: LoopDescriptor) -> str:
    return f"trip {planner.trip(desc)} < {planner.workers} workers"


class SerialStrategy(LoopStrategy):
    """``serial``: the reference walk — one iteration at a time in
    subrange order, every body equation on its scalar kernel or the
    evaluator. Every loop offers it: for a ``DO`` it is the price a
    compiled ``DO`` has to beat; a ``DOALL`` under the utilization rule
    says so (``trip 4 < 8 workers: DOALL J takes them``)."""

    name = "serial"

    def recognise(self, planner, desc, forced=False):
        return None

    def price(self, planner, desc):
        t = planner._trip_est(desc)
        cycles = t * (
            planner.model.loop_overhead
            + sum(planner._cost(d, "walk", 1) for d in desc.body)
        )
        inner = _idle_team(planner, desc) if desc.parallel else None
        if inner is None:
            return Price(cycles)
        return Price(
            cycles,
            reason=f"{_short_trip(planner, desc)}: DOALL {inner.index} takes them",
        )

    def emit(self, planner, desc, path, depth, price):
        # a DO's row stays plain: why it walks is its explain() row
        planner._loop(
            desc, path, depth, self.name, cycles=price.cycles,
            reason=price.reason if desc.parallel else "",
        )
        planner._emit_body(desc, path, depth, "walk", 1.0, native=False)
        return price.cycles

    def execute(self, backend, state, desc, lo, hi, env):
        backend.exec_sequential_loop(state, desc, lo, hi, env, [])


class VectorStrategy(LoopStrategy):
    """``vector``: a ``DOALL``'s whole subrange as one NumPy operation,
    nested ``DOALL`` s broadcasting. Every ``DOALL`` offers it; on a plan
    with a worker pool the price says why the workers do not divide the
    loop, when they cannot."""

    name = "vector"

    def recognise(self, planner, desc, forced=False):
        return None if desc.parallel else IN_ORDER

    def price(self, planner, desc):
        t = planner._trip_est(desc)
        cycles = sum(planner._cost(d, "vector", t) for d in desc.body)
        if not planner.pool:
            return Price(cycles)
        return Price(cycles, reason=_pool_refusal(planner, desc) or "")

    def emit(self, planner, desc, path, depth, price):
        planner._loop(
            desc, path, depth, self.name, cycles=price.cycles,
            reason=price.reason,
        )
        planner._emit_body(
            desc, path, depth, "vector", float(planner._trip_est(desc)),
            native=False,
        )
        return price.cycles

    def execute(self, backend, state, desc, lo, hi, env):
        backend.exec_vector_span(state, desc, lo, hi, env, [])


def _team_work(planner, body, span: float, p: int) -> tuple[float, float]:
    """(cycles, barriers) of ``body`` run ``span`` times inside a team of
    ``p`` threads: a ``DOALL`` is divided among as many threads as its trip
    count keeps busy, a ``DO`` holding one is walked by every thread,
    anything else runs on one; every unit ends at a barrier."""
    cycles = barriers = 0.0
    for d in body:
        if isinstance(d, LoopDescriptor) and not d.parallel and holds_doall(d):
            c, b = _team_work(planner, d.body, span * planner._trip_est(d), p)
        else:
            c, b = planner._cost(d, "native", span), span
            if isinstance(d, LoopDescriptor) and d.parallel:
                c /= max(1, min(p, planner._trip_est(d)))
        cycles += c
        barriers += b
    return cycles, barriers


class NestStrategy(LoopStrategy):
    """``nest``: the whole nest rooted at a loop runs as one compiled
    kernel over the root subrange, in iteration order. That order is the
    reference order of a ``DOALL`` and the only legal one of a ``DO``, so
    the same kernel serves both: over a ``DO`` root it is the paper's §3.4
    sequential loop as real compiled code instead of a per-element walk.
    A ``DO`` over ``DOALL`` s may also run its C kernel on a team of
    threads (``team xN``) — priced here, against the same kernel alone.
    Every loop whose nest fuses offers it."""

    name = "nest"
    #: the kernel shape the loop runs (``"team"`` when it has a team)
    shape = "full"

    def recognise(self, planner, desc, forced=False):
        if not planner.use_kernels:
            return "kernels off"
        why = nest_unfusable_reason(desc, planner.analyzed)
        if why is None and not desc.parallel and planner._pinned_inside(desc):
            why = "a loop inside it is pinned to its own strategy"
        return why

    def price(self, planner, desc):
        """The dialect the loop would run and its cycles. The C dialect
        needs the tier to allow it and the nest to lower to bit-exact C;
        over a ``DO`` it must also be worth a compiler run: a loop whose
        whole walk element by element (:meth:`_Planner._cost_interpreted`)
        is cheaper than one native build (``_Planner.native_build``: zero
        in a served plan, where the build is sunk) stays off ``cc``."""
        m = planner.model
        t = planner._trip_est(desc)
        reason = "fused nest kernel" if desc.parallel else "compiled in order"
        if planner._native_ok(desc, "full") and (
            desc.parallel
            or planner._cost_interpreted(desc) >= planner.native_build
        ):
            alone = m.native_call_overhead + sum(
                planner._cost(d, "native", t) for d in desc.body
            )
            return self._price_team(
                planner, desc, Price(alone, reason=reason, dialect="native")
            )
        cycles = m.vector_setup + sum(planner._cost(d, "nest", t) for d in desc.body)
        return Price(cycles, reason=reason, dialect="python")

    def _price_team(self, planner, desc, alone: Price) -> Price:
        """The C kernel on the caller's thread (priced ``alone``) against
        the same kernel on a team as wide as the plan's parallelism. No
        candidate at parallelism 1, so a one-worker plan never changes,
        and none without OpenMP on this host."""
        p = planner.parallelism
        if (
            p < 2 or team_unfit_reason(desc) is not None
            or not native_mod.openmp_supported()
        ):
            return alone
        why = planner._native_why(desc, "team")
        if why is not None:
            return replace(alone, note=f"team refused: {why}")
        m = planner.model
        work, barriers = _team_work(planner, desc.body, planner._trip_est(desc), p)
        cycles = (
            m.native_call_overhead + m.team_fork + work
            + barriers * m.team_barrier
        )
        if cycles < alone.cycles:
            return replace(alone, cycles=cycles, team=p)
        return replace(alone, note=f"team x{p} not cheaper (~{cycles:.0f} cycles)")

    def walk_wins(self, planner, desc, price: Price) -> str:
        """Why the walk of a ``DO`` beat its nest priced at ``price``."""
        if price.dialect == "python" and planner._native_ok(desc, "full"):
            return (
                f"walked element by element it costs "
                f"~{planner._cost_interpreted(desc):.0f} cycles, less than "
                f"one native build (~{planner.native_build:.0f}), and "
                f"the Python-dialect nest (~{price.cycles:.0f}) loses to "
                f"the walk"
            )
        return (
            f"the walk is cheaper than the {price.dialect}-dialect nest "
            f"(~{price.cycles:.0f} cycles)"
        )

    def emit(self, planner, desc, path, depth, price):
        planner._loop(
            desc, path, depth, self.name, fuse=True, dialect=price.dialect,
            cycles=price.cycles, reason=price.reason, team=price.team,
        )
        planner._emit_body(
            desc, path, depth, "nest", float(planner._trip_est(desc)),
            native=price.dialect == "native",
        )
        return price.cycles

    def execute(self, backend, state, desc, lo, hi, env):
        # no kernel available here: the reference walk
        if not backend.exec_nest_kernel(state, desc, lo, hi, env):
            backend.exec_sequential_loop(state, desc, lo, hi, env, [])


class PoolStrategy(LoopStrategy):
    """``chunk`` / ``collapse``: a ``DOALL``'s iteration space split into
    ``parts`` contiguous chunks on the backend's workers, every chunk
    running the whole loop body over its iterations — noelle's ``DOALL``
    task. ``chunk`` divides the root subrange and runs each part on the
    loop's ``"full"`` kernel (one C call per chunk); ``collapse`` divides
    the flattened space of a perfect ``DOALL`` chain and runs each part on
    its ``"flat"`` kernel, so a nest whose outer trip is below the team
    still divides evenly. Where no C kernel builds, a ``chunk`` runs NumPy
    vector spans and a ``collapse`` chunk the NumPy flat kernel, then the
    per-element walk. Unforced, only a plan with a worker pool offers
    them, and ``chunk`` steps aside under the utilization rule."""

    def __init__(self, name: str, shape: str, safe, refusal: str):
        self.name = name
        #: the kernel shape every chunk runs
        self.shape = shape
        #: the safety verdict a loop needs (``loop_chunk_safe`` /
        #: ``loop_collapse_safe``) and the refusal when it lacks it
        self._safe = safe
        self._refusal = refusal

    def recognise(self, planner, desc, forced=False):
        """None when the chunks may run concurrently (and, unforced, the
        plan's workers should divide this loop), else why not."""
        if not desc.parallel:
            return IN_ORDER
        if not self._safe(
            desc, planner.analyzed, planner.flowchart.windows, planner.use_windows
        ):
            return self._refusal
        if forced:
            return None
        why = _pool_refusal(planner, desc)
        if why is not None:
            return why
        if self.shape == "flat":
            # priced on its flat kernel: the nest must lower
            return NEST.recognise(planner, desc, forced=True)
        inner = _idle_team(planner, desc)
        if inner is not None:
            return f"{_short_trip(planner, desc)}: DOALL {inner.index} takes them"
        return None

    def _space(self, desc: LoopDescriptor):
        """(the loops whose iterations the chunks divide, the body below
        them)."""
        if self.shape == "flat":
            return collapse_chain(desc)
        return [desc], desc.body

    def price(self, planner, desc):
        """One chunk per worker, fewer when the space is smaller. A chunk
        of a loop that lowers to C is one kernel call behind a released
        GIL, overlapping fully across workers; otherwise it is NumPy rows —
        vector work that overlaps, plus GIL-bound Python (scalar
        fallbacks, a collapsed chunk's per-row bookkeeping) that serialises
        on a plan with a worker pool. Plus one fork, one join and one
        dispatch per chunk. A ``collapse`` under the utilization rule says
        so. The dialect is ``"native"`` when the chunks run C."""
        m = planner.model
        loops, body = self._space(desc)
        space = prod(max(1, planner._trip_est(loop)) for loop in loops)
        row = max(1, planner._trip_est(loops[-1]))
        parts = max(1, min(planner.workers, space))
        per_chunk = ceil(space / parts)
        native = planner._native_ok(desc, self.shape)
        if native:
            released = m.native_call_overhead + sum(
                planner._cost(d, "native", per_chunk) for d in body
            )
            bound = 0.0
        else:
            rows = ceil(per_chunk / row)
            pairs = [planner._vector_costs(d, min(per_chunk, row)) for d in body]
            overhead = m.collapse_row_overhead if self.shape == "flat" else 0.0
            released = rows * sum(r for r, _ in pairs)
            bound = rows * (overhead + sum(b for _, b in pairs))
        waves = ceil(parts / planner.parallelism)
        serialised = parts if planner.pool else waves
        reason = ""
        if self.shape == "flat" and _idle_team(planner, desc) is not None:
            reason = _short_trip(planner, desc)
        return Price(
            m.doall_fork + m.doall_barrier + parts * m.chunk_dispatch
            + waves * released + serialised * bound,
            parts=parts, reason=reason, dialect="native" if native else None,
        )

    def emit(self, planner, desc, path, depth, price):
        native = price.dialect == "native"
        fuse = NEST.recognise(planner, desc, forced=True) is None
        lp = planner._loop(
            desc, path, depth, self.name, parts=price.parts, fuse=fuse,
            cycles=price.cycles, reason=price.reason,
            dialect=price.dialect or ("python" if fuse else None),
        )
        te = planner._trip_est(desc)
        if self.shape == "flat":
            loops, _ = self._space(desc)
            trips = [planner.trip(loop) for loop in loops]
            lp.collapse_depth = len(loops)
            lp.flat_trip = None if None in trips else prod(trips)
            # the chain loops below multiply the span by their own trips,
            # so equations see roughly the per-chunk element count
            ctx, span = "collapse", te / price.parts
        else:
            ctx, span = "vector", float(ceil(te / price.parts))
        planner._emit_body(desc, path, depth, ctx, span, native)
        return price.cycles

    def annotate(self, lp):
        bits = super().annotate(lp)
        if lp.collapse_depth:
            depth = f"depth {lp.collapse_depth}"
            if lp.flat_trip is not None:
                depth += f" flat {lp.flat_trip}"
            bits.append(depth)
        return bits

    def execute(self, backend, state, desc, lo, hi, env):
        """Split the space into the planned chunk count and hand the
        chunks to :meth:`~repro.runtime.backends.base.ExecutionBackend.
        dispatch` — one wavefront, joined before the next descriptor runs.
        Targets are allocated first, so inside a chunk workers only write
        array elements, which :meth:`recognise` guarantees are disjoint."""
        if self.shape == "flat":
            extents = backend._flat_geometry(state, desc, lo, hi)[3]
            lo, hi = 0, prod(extents) - 1
            if hi < lo:
                return
        for eq in desc.nested_equations():
            backend.ensure_targets(state, eq)
        plan = state.plan.loop_for(desc)
        spans = split_range(lo, hi, plan.parts or backend.workers)
        if len(spans) < 2:
            self.run_chunk(backend, state, desc, lo, hi, env, plan.fuse)
        else:
            backend.dispatch(state, desc, self, spans, env, plan.fuse)

    def run_chunk(self, backend, state, desc: LoopDescriptor, lo, hi, env, fuse) -> None:
        """One chunk, ``[lo, hi]`` of the space, wherever the pool runs it:
        the loop's kernel (unless the plan said not to fuse), else the
        NumPy path — a ``chunk``'s vector span rather than the Python
        dialect's scalar loops, a ``collapse``'s flat kernel and then its
        per-element walk."""
        flat = self.shape == "flat"
        if fuse and backend._run_loop_kernel(
            state, desc, self.shape, env, lo, hi, numpy=flat
        ):
            return
        if flat:
            backend.exec_flat_walk(state, desc, lo, hi, env)
        else:
            backend.exec_vector_span(state, desc, lo, hi, env, [])


SERIAL = SerialStrategy()
VECTOR = VectorStrategy()
NEST = NestStrategy()
CHUNK = PoolStrategy("chunk", "full", loop_chunk_safe, "not chunk-safe")
COLLAPSE = PoolStrategy(
    "collapse", "flat", loop_collapse_safe,
    "not a collapse-safe perfect DOALL chain",
)

#: plan-strategy name -> strategy object, in the order the planner's walk
#: asks them
LOOP_STRATEGIES = {
    s.name: s for s in (SERIAL, VECTOR, NEST, CHUNK, COLLAPSE)
}
