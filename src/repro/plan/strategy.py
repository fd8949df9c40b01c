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
from repro.runtime.kernels.nest import nest_unfusable_reason
from repro.schedule.flowchart import LoopDescriptor


@dataclass(frozen=True)
class NestPrice:
    #: which text of the kernel the loop runs: ``"native"`` | ``"python"``
    dialect: str
    #: predicted cycles of one execution (a build is not part of a run)
    cycles: float


class NestStrategy:
    """``nest``: the whole nest rooted at a loop runs as one compiled
    kernel over the root subrange, in iteration order. That order is the
    reference order of a ``DOALL`` and the only legal one of a ``DO``, so
    the same kernel serves both: over a ``DO`` root it is the paper's §3.4
    sequential loop as real compiled code instead of a per-element walk."""

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
            return NestPrice("native", m.native_call_overhead + sum(
                planner._cost(d, "native", t) for d in desc.body
            ))
        return NestPrice("python", m.vector_setup + sum(
            planner._cost(d, "nest", t) for d in desc.body
        ))

    def emit(
        self, planner, desc: LoopDescriptor, path, depth: int,
        priced: NestPrice, reason: str,
    ) -> float:
        lp = LoopPlan(
            path, desc.index, desc.keyword, self.name,
            trip=planner.trip(desc), fuse=True, dialect=priced.dialect,
            cycles=priced.cycles, reason=reason,
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
