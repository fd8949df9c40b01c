"""Loop strategies as objects: ``recognise -> price -> emit -> execute``.

A strategy is one object that says whether it applies to a loop
(:meth:`recognise`, with the refusal as text ``plan.explain()`` can print),
what it would cost there (:meth:`price`, against the planner as cost
context), how it appears in the plan (:meth:`emit`) and how a backend runs
it (:meth:`execute`; False hands the loop back to the reference walk).
Objects register by plan-strategy name in :data:`LOOP_STRATEGIES`, which
the planner consults when it chooses and the backends' shared walk consults
when it dispatches — so a strategy is one entry here, not a branch in each.

:class:`NestStrategy` (``nest``) is the first strategy in this shape. The
remaining ones still live as decide / price / emit triples on ``_Planner``
and ``exec_*`` methods on the backends (ROADMAP, "Strategies as objects").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.ir import LoopPlan
from repro.runtime.kernels import native as native_mod
from repro.runtime.kernels.nest import (
    holds_doall,
    nest_unfusable_reason,
    team_unfit_reason,
)
from repro.schedule.flowchart import LoopDescriptor


@dataclass(frozen=True)
class NestPrice:
    #: which text of the kernel the loop runs: ``"native"`` | ``"python"``
    dialect: str
    #: predicted cycles of one execution (a build is not part of a run)
    cycles: float
    #: the width of the team the C kernel runs on (None: one thread)
    team: int | None = None
    #: why a ``DO`` over ``DOALL`` s runs without a team, for ``explain()``
    note: str = ""


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


class NestStrategy:
    """``nest``: the whole nest rooted at a loop runs as one compiled
    kernel over the root subrange, in iteration order. That order is the
    reference order of a ``DOALL`` and the only legal one of a ``DO``, so
    the same kernel serves both: over a ``DO`` root it is the paper's §3.4
    sequential loop as real compiled code instead of a per-element walk.
    A ``DO`` over ``DOALL`` s may also run its C kernel on a team of
    threads (``team xN``) — priced here, against the same kernel alone."""

    name = "nest"

    def recognise(self, planner, desc: LoopDescriptor) -> str | None:
        """None when the nest lowers into one kernel, else why not."""
        if not planner.use_kernels:
            return "kernels off"
        return nest_unfusable_reason(desc, planner.analyzed)

    def price(
        self, planner, desc: LoopDescriptor, interpreted: float | None = None
    ) -> NestPrice:
        """The dialect the loop would run and its cycles. The C dialect
        needs the tier to allow it and the nest to lower to bit-exact C;
        given ``interpreted`` — the predicted cycles of walking the whole
        nest element by element, passed for ``DO`` roots — it must also be
        worth a compiler run: a loop whose whole walk is cheaper than one
        native build (``MachineModel.native_build``) stays off ``cc``."""
        m = planner.model
        t = planner._trip_est(desc)
        if planner._native_ok(desc, "full") and (
            interpreted is None or interpreted >= m.native_build
        ):
            return self._price_team(planner, desc, m.native_call_overhead + sum(
                planner._cost(d, "native", t) for d in desc.body
            ))
        return NestPrice("python", m.vector_setup + sum(
            planner._cost(d, "nest", t) for d in desc.body
        ))

    def _price_team(self, planner, desc: LoopDescriptor, alone: float) -> NestPrice:
        """The C kernel on the caller's thread (``alone`` cycles) against
        the same kernel on a team as wide as the plan's parallelism. Never
        on the process backend: libgomp is not fork-safe once a team ran.
        No candidate at parallelism 1, so a one-worker plan never changes,
        and none without OpenMP on this host."""
        p = planner.parallelism
        if (
            p < 2 or planner.backend == "process"
            or team_unfit_reason(desc) is not None
            or not native_mod.openmp_supported()
        ):
            return NestPrice("native", alone)
        why = planner._native_why(desc, "team")
        if why is not None:
            return NestPrice("native", alone, note=f"team refused: {why}")
        m = planner.model
        work, barriers = _team_work(planner, desc.body, planner._trip_est(desc), p)
        cycles = (
            m.native_call_overhead + m.team_fork + work
            + barriers * m.team_barrier
        )
        if cycles < alone:
            return NestPrice("native", cycles, team=p)
        return NestPrice(
            "native", alone,
            note=f"team x{p} not cheaper (~{cycles:.0f} cycles)",
        )

    def emit(
        self, planner, desc: LoopDescriptor, path, depth: int,
        priced: NestPrice, reason: str,
    ) -> float:
        lp = LoopPlan(
            path, desc.index, desc.keyword, self.name,
            trip=planner.trip(desc), fuse=True, dialect=priced.dialect,
            cycles=priced.cycles, reason=reason, team=priced.team,
        )
        planner._register(lp, depth)
        planner._emit_body(
            desc, path, depth, "nest", float(planner._trip_est(desc)),
            native=priced.dialect == "native",
        )
        return priced.cycles

    def execute(self, backend, state, desc: LoopDescriptor, lo, hi, env) -> bool:
        return backend.exec_nest_kernel(state, desc, lo, hi, env)


NEST = NestStrategy()

#: plan-strategy name -> strategy object, in the order the planner offers
#: them to a loop
LOOP_STRATEGIES = {NEST.name: NEST}
