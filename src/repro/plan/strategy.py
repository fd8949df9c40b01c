"""Loop strategies as objects: ``recognise -> price -> emit -> execute``.

Every way a loop can run is one object here, registered by plan-strategy
name in :data:`LOOP_STRATEGIES` — the one list of strategy names in the
package. A strategy says whether it applies to a loop (:meth:`recognise`,
with the refusal as text that ``plan.explain()`` and a refused force
print), what it would cost there (:meth:`price`, against the planner as
cost context), how it appears in the plan (:meth:`emit`) and how a
backend runs it (:meth:`execute`).

A strategy judges a loop by its shape; which strategies a pinned label
offers is the planner's one label rule (``_Planner._pin_refusal``). The
planner's choice for a loop met on the walk is one walk over the table
(``_Planner._decide``): a forced name asks that one strategy; otherwise
every strategy that recognises the loop, and the pin offers, is priced and
the cheapest wins (``AUTO_TIE`` settles an ``auto`` ``DOALL``'s near-ties).
The engine's walk runs every planned loop through its strategy's
:meth:`execute`, and :class:`repro.plan.ir.LoopPlan` reads its kernel
shape from it — so a strategy is one entry here, not a branch in each of
those places.

In table order: :class:`SerialStrategy` (``serial``) walks a loop element
by element; :class:`VectorStrategy` (``vector``) runs a ``DOALL`` as one
NumPy span; :class:`NestStrategy` (``nest``) runs a whole nest as one
compiled kernel — on one thread, or as one C call on a team of OpenMP
threads (``team xN``) when its root is a ``DOALL`` or a ``DO`` over
``DOALL`` s. That team is the only way iterations run concurrently: a loop
with no C kernel runs on the caller's thread.

Every strategy runs the loop the scheduler (or the ``--merge`` pass) built:
none splits or replaces it, so every plan names loops of the flowchart's
own tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.runtime.kernels import native as native_mod
from repro.runtime.kernels.nest import (
    holds_doall,
    nest_unfusable_reason,
    team_unfit_reason,
)
from repro.schedule.flowchart import LoopDescriptor

#: why a strategy that reorders iterations refuses a ``DO``
IN_ORDER = "its iterations must run in order"


@dataclass(frozen=True)
class Price:
    """What running one loop one way costs, and why it is offered."""

    #: predicted cycles of one execution (a build is not part of a run)
    cycles: float
    #: the one-line rationale the plan prints beside the strategy
    reason: str = ""
    #: which text of the nest kernel runs: ``"native"`` | ``"python"``
    dialect: str | None = None
    #: the width of the team the C kernel runs on (None: one thread)
    team: int | None = None
    #: why the nest runs without a team, for ``explain()``
    note: str = ""


class LoopStrategy:
    """What every strategy shares: no kernel of its own."""

    name = ""
    #: the nest-kernel shape the loop runs (None: it dispatches no kernel)
    shape: str | None = None

    def recognise(self, planner, desc: LoopDescriptor, forced: bool = False) -> str | None:
        """None when the strategy applies to ``desc``, else why not —
        ``forced`` or not, by the loop's shape alone."""
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


class SerialStrategy(LoopStrategy):
    """``serial``: the reference walk — one iteration at a time in
    subrange order, every body equation on its scalar kernel or the
    evaluator. Every loop offers it: for a ``DO`` it is the price a
    compiled ``DO`` has to beat."""

    name = "serial"

    def recognise(self, planner, desc, forced=False):
        return None

    def price(self, planner, desc):
        t = planner._trip_est(desc)
        return Price(t * (
            planner.model.loop_overhead
            + sum(planner._cost(d, "walk", 1) for d in desc.body)
        ))

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
    nested ``DOALL`` s broadcasting. Every ``DOALL`` offers it."""

    name = "vector"

    def recognise(self, planner, desc, forced=False):
        return None if desc.parallel else IN_ORDER

    def price(self, planner, desc):
        t = planner._trip_est(desc)
        return Price(sum(planner._cost(d, "vector", t) for d in desc.body))

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
    A ``DOALL`` root, or a ``DO`` over ``DOALL`` s, may also run its C
    kernel on a team of threads (``team xN``) — priced here, against the
    same kernel alone. Every loop whose nest fuses offers it."""

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
        and none without OpenMP on this host (whose probe compiles once per
        native cache, at the first plan that could take a team). A
        ``DOALL`` root is one unit shared among the team; a ``DO`` root is
        walked by every thread, each of its body units shared or run on
        one."""
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
        if desc.parallel:
            work, barriers = _team_work(planner, [desc], 1.0, p)
        else:
            work, barriers = _team_work(
                planner, desc.body, planner._trip_est(desc), p
            )
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


SERIAL = SerialStrategy()
VECTOR = VectorStrategy()
NEST = NestStrategy()

#: plan-strategy name -> strategy object, in the order the planner's walk
#: asks them
LOOP_STRATEGIES = {s.name: s for s in (SERIAL, VECTOR, NEST)}
