"""Loop strategies as objects: ``recognise -> price -> emit -> execute``.

A strategy is one object that says whether it applies to a loop
(:meth:`recognise`, with the refusal as text ``plan.explain()`` can print),
what it would cost there (:meth:`price`, against the planner as cost
context), how it appears in the plan (:meth:`emit`) and how a backend runs
it (:meth:`execute`; False hands the loop back to the reference walk).
Objects register by plan-strategy name in :data:`LOOP_STRATEGIES`, which
the planner consults when it chooses, the backends' shared walk when it
dispatches and :meth:`repro.plan.ir.LoopPlan.kernel_shape` for the kernel a
loop runs — so a strategy is one entry here, not a branch in each.

:class:`NestStrategy` (``nest``) runs a whole nest as one compiled kernel;
:class:`PoolStrategy` (``chunk`` and ``collapse``) divides a ``DOALL``
among the backend's workers, each chunk on the loop's own kernel. The
``serial``, ``vector`` and ``fission`` strategies are still decided on
``_Planner`` and run by the backends' walk (ROADMAP, "Strategies as
objects").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod

from repro.plan.ir import LoopPlan
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
    #: the kernel shape the loop runs (``"team"`` when it has a team)
    shape = "full"

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


class PoolStrategy:
    """``chunk`` / ``collapse``: a ``DOALL``'s iteration space split into
    ``parts`` contiguous chunks on the backend's workers, every chunk
    running the whole loop body over its iterations — noelle's ``DOALL``
    task. ``chunk`` divides the root subrange and runs each part on the
    loop's ``"full"`` kernel (one C call per chunk); ``collapse`` divides
    the flattened space of a perfect ``DOALL`` chain and runs each part on
    its ``"flat"`` kernel, so a nest whose outer trip is below the team
    still divides evenly. Where no C kernel builds, a ``chunk`` runs NumPy
    vector spans and a ``collapse`` chunk the NumPy flat kernel, then the
    per-element walk."""

    def __init__(self, name: str, shape: str, safe, refusal: str):
        self.name = name
        #: the kernel shape every chunk runs
        self.shape = shape
        #: the safety verdict a loop needs (``loop_chunk_safe`` /
        #: ``loop_collapse_safe``) and the refusal when it lacks it
        self._safe = safe
        self._refusal = refusal

    def recognise(self, planner, desc: LoopDescriptor) -> str | None:
        """None when the chunks may run concurrently, else why not."""
        if self._safe(
            desc, planner.analyzed, planner.flowchart.windows, planner.use_windows
        ):
            return None
        return self._refusal

    def _space(self, desc: LoopDescriptor):
        """(the loops whose iterations the chunks divide, the body below
        them)."""
        if self.shape == "flat":
            return collapse_chain(desc)
        return [desc], desc.body

    def price(self, planner, desc: LoopDescriptor) -> tuple[int, float]:
        """(parts, cycles): one chunk per worker, fewer when the space is
        smaller. A chunk of a loop that lowers to C is one kernel call
        behind a released GIL, overlapping fully across workers; otherwise
        it is NumPy rows — vector work that overlaps, plus GIL-bound Python
        (scalar fallbacks, a collapsed chunk's per-row bookkeeping) that
        serialises on the threaded backend. Plus one fork, one join and one
        dispatch per chunk."""
        m = planner.model
        loops, body = self._space(desc)
        space = prod(max(1, planner._trip_est(loop)) for loop in loops)
        row = max(1, planner._trip_est(loops[-1]))
        parts = max(1, min(planner.workers, space))
        per_chunk = ceil(space / parts)
        if planner._native_ok(desc, self.shape):
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
        serialised = parts if planner.backend == "threaded" else waves
        return parts, (
            m.doall_fork + m.doall_barrier + parts * planner._dispatch_cost()
            + waves * released + serialised * bound
        )

    def emit(
        self, planner, desc: LoopDescriptor, path, depth: int,
        parts: int, cycles: float, reason: str,
    ) -> float:
        lp = LoopPlan(
            path, desc.index, desc.keyword, self.name, parts=parts,
            trip=planner.trip(desc), fuse=planner._fusable(desc),
            cycles=cycles, reason=reason,
        )
        te = planner._trip_est(desc)
        if self.shape == "flat":
            loops, _ = self._space(desc)
            trips = [planner.trip(loop) for loop in loops]
            lp.collapse_depth = len(loops)
            lp.flat_trip = None if None in trips else prod(trips)
            # the chain loops below multiply the span by their own trips,
            # so equations see roughly the per-chunk element count
            ctx, span = "collapse", te / parts
        else:
            ctx, span = "vector", float(ceil(te / parts))
        native = planner._native_ok(desc, self.shape)
        if native or lp.fuse:
            lp.dialect = "native" if native else "python"
        planner._register(lp, depth)
        planner._chunked_somewhere = True
        planner._emit_body(desc, path, depth, ctx, span, native)
        return cycles

    def execute(self, backend, state, desc: LoopDescriptor, lo, hi, env) -> bool:
        """Split the space into the planned chunk count and hand the
        chunks to :meth:`~repro.runtime.backends.base.ExecutionBackend.
        dispatch` — one wavefront, joined before the next descriptor runs.
        Targets are allocated first, so inside a chunk workers only write
        array elements, which :meth:`recognise` guarantees are disjoint."""
        if self.shape == "flat":
            extents = backend._flat_geometry(state, desc, lo, hi)[3]
            lo, hi = 0, prod(extents) - 1
            if hi < lo:
                return True
        for eq in desc.nested_equations():
            backend.ensure_targets(state, eq)
        plan = state.plan_of(desc, backend.name)
        spans = split_range(lo, hi, plan.parts or backend.workers)
        if len(spans) < 2:
            self.run_chunk(backend, state, desc, lo, hi, env, plan.fuse)
        else:
            backend.dispatch(state, desc, self, spans, env, plan.fuse)
        return True

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


NEST = NestStrategy()
CHUNK = PoolStrategy("chunk", "full", loop_chunk_safe, "not chunk-safe")
COLLAPSE = PoolStrategy(
    "collapse", "flat", loop_collapse_safe,
    "not a collapse-safe perfect DOALL chain",
)

#: plan-strategy name -> strategy object, in the order the planner offers
#: them to a loop
LOOP_STRATEGIES = {s.name: s for s in (NEST, CHUNK, COLLAPSE)}
