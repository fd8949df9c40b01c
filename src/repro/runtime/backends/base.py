"""The execution-backend interface and the shared flowchart walk.

A backend *executes* a scheduled flowchart according to an
:class:`~repro.plan.ir.ExecutionPlan`. All backends share one walk
(sequential ``DO`` loops, equation evaluation, lazy target allocation) and
one strategy dispatch — a ``DOALL`` runs by whatever its
:class:`~repro.plan.ir.LoopPlan` says:

* ``serial`` / ``iterate`` — scalar iterations in subrange order (the
  reference semantics; ``iterate`` exists so a low-trip outer DOALL hands
  the workers to a chunked inner loop);
* ``nest`` — the whole nest as one fused compiled kernel, whether its root
  is a ``DOALL`` or a sequential ``DO`` (a strategy object of
  :mod:`repro.plan.strategy`, which executes itself);
* ``vector`` — the whole subrange as one NumPy operation;
* ``chunk`` / ``collapse`` — the subrange (or the flattened iteration
  space of a perfect nest) split into contiguous chunks handed to
  :meth:`ExecutionBackend.dispatch`, the one hook the parallel backends
  override; every chunk runs through :meth:`ExecutionBackend.run_chunk`,
  inline here, on a thread pool in
  :class:`~repro.runtime.backends.threaded.ThreadedBackend`, and in a
  persistent pool of forked workers over shared memory in
  :class:`~repro.runtime.backends.process.ProcessBackend` — with one join
  per wavefront.

No backend re-derives chunking, safety, or kernel decisions from the
flowchart: those live in the plan, produced once per execution by
:mod:`repro.plan.planner` (a state constructed without a plan gets one
built on first use, so hand-built executions behave identically — the
planner remains the single decision point). Equation evaluation dispatches
through the compiled-kernel cache when one is attached to the state (see
:mod:`repro.runtime.kernels`); the tree-walking evaluator remains the
fallback.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.ps.semantics import AnalyzedEquation, AnalyzedModule, AnalyzedProgram
from repro.ps.symbols import SymbolKind
from repro.ps.types import ArrayType
from repro.runtime.evaluator import Evaluator
from repro.runtime.kernels.native import RangeUnproven
from repro.runtime.values import (
    BufferStore,
    RuntimeArray,
    array_bounds,
    eval_bound,
    new_storage,
    undefined_part,
)
from repro.schedule.flowchart import (
    Descriptor,
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
    collapse_chain,
    equation_vector_safe,
    loop_chunk_safe,
    split_range,
)


@dataclass
class ExecutionState:
    """Everything one module execution mutates: the data environment and
    evaluation statistics."""

    analyzed: AnalyzedModule
    flowchart: Flowchart
    options: Any  # ExecutionOptions (kept untyped to avoid an import cycle)
    data: dict[str, Any]
    evaluator: Evaluator
    program: AnalyzedProgram | None = None
    #: statistics: equation label -> number of element evaluations
    eval_counts: dict[str, int] = field(default_factory=dict)
    #: compiled-kernel cache (None: evaluate everything on the tree walk)
    kernels: Any = None  # KernelCache | None (untyped: import cycle)
    #: the ExecutionPlan driving strategy dispatch (built lazily when a
    #: state is constructed by hand without one)
    plan: Any = None  # ExecutionPlan | None (untyped: import cycle)
    #: every native kernel the plan dispatches is built and loaded — what
    #: ``ensure_targets`` needs before it trusts ``plan.storage``
    native_ready: bool = False

    def plan_of(self, desc, backend: str | None = None):
        """The LoopPlan for ``desc``, building the module plan on first
        use — the planner, not the backend, owns every strategy decision.
        ``backend`` pins the lazily built plan to the backend actually
        walking the state (a hand-driven walk must not execute under a
        plan costed for a different backend)."""
        if self.plan is None:
            from repro.plan.planner import build_plan

            self.plan = build_plan(
                self.analyzed,
                self.flowchart,
                self.options,
                self.scalar_env(),
                backend=backend,
            )
        return self.plan.loop_for(desc)

    def scalar_env(self) -> dict[str, int]:
        return {
            k: int(v)
            for k, v in self.data.items()
            if isinstance(v, (int, np.integer))
        }

    def fork(self) -> ExecutionState:
        """A shallow copy with private eval counts, for one worker chunk.
        The data environment stays shared: a thread-pool chunk sees the
        parent's dict itself, a pool process its own copy whose arrays
        address the same shared-memory segments. Either way chunk workers
        only *write* array elements, which chunk-safety guarantees are
        disjoint."""
        return ExecutionState(
            self.analyzed,
            self.flowchart,
            self.options,
            self.data,
            self.evaluator,
            program=self.program,
            eval_counts={},
            kernels=self.kernels,
            plan=self.plan,
        )

    def merge_counts(self, counts: dict[str, int]) -> None:
        for label, n in counts.items():
            self.eval_counts[label] = self.eval_counts.get(label, 0) + n

    def kernel_tier(self) -> str:
        """The nest-kernel tier this execution looks up first
        (``"native"`` unless the options narrowed it)."""
        return getattr(self.options, "kernel_tier", "native")


def equation_is_vector_safe(eq: AnalyzedEquation) -> bool:
    """Cached vector-safety verdict (see ``repro.schedule.flowchart``)."""
    return equation_vector_safe(eq)


def chunk_safe(state: ExecutionState, desc: LoopDescriptor) -> bool:
    """Cached chunk-safety verdict: precomputed at flowchart-build time by
    :func:`repro.schedule.flowchart.annotate_flowchart`, derived on first
    use for hand-built flowcharts."""
    return loop_chunk_safe(
        desc, state.analyzed, state.flowchart.windows, state.options.use_windows
    )


#: what :attr:`ExecutionBackend.counters` counts
STORAGE_COUNTERS = (
    "arg_bytes_borrowed", "arg_bytes_converted", "arrays_uninitialised", "arrays_zeroed",
)


class ExecutionBackend:
    """Base class: the shared walk plus the hooks backends override."""

    #: registry key, e.g. ``"serial"`` — set by each subclass
    name = "base"

    #: whether a long-lived owner (a serve :class:`Session`) must
    #: serialise concurrent runs on one instance — the process backend
    #: streams every run's wavefronts through one task/result queue pair,
    #: so interleaved runs would consume each other's results
    serialize_runs = False

    def __init__(self, workers: int | None = None):
        self.workers = max(1, workers if workers is not None else os.cpu_count() or 1)
        # Imported here: the plan layer imports the runtime.
        from repro.plan.strategy import LOOP_STRATEGIES

        #: plan-strategy name -> strategy object, for the strategies that
        #: execute themselves; the rest are still dispatched by the walk
        self.strategies = LOOP_STRATEGIES
        #: argument bytes borrowed / copied on import, target arrays left
        #: uninitialised / zero-filled, over every run of this instance
        self.counters = dict.fromkeys(STORAGE_COUNTERS, 0)
        self._counters_lock = threading.Lock()
        #: where the big arrays of a plan's second and later runs come from
        #: (None: storage is shared memory, a new segment every run)
        self.store: BufferStore | None = BufferStore()

    # -- lifecycle ---------------------------------------------------------

    def run(self, state: ExecutionState) -> None:
        """Execute the whole flowchart against ``state``."""
        if state.kernels is not None:
            # Kernels with module calls dispatch through the cache's call
            # box; point it at this execution's handler before anything runs
            # (forked pool workers inherit the binding with the cache).
            state.kernels.bind_call_fn(state.evaluator.call_fn)
        if state.plan is None:
            # A hand-built state: plan for *this* backend (the executor
            # normally supplies the plan and instantiates plan.backend).
            from repro.plan.planner import build_plan

            state.plan = build_plan(
                state.analyzed,
                state.flowchart,
                state.options,
                state.scalar_env(),
                backend=self.name,
            )
        if state.kernels is not None and state.kernel_tier() == "native":
            # One translation unit per (module, plan): every native kernel
            # the plan will dispatch is built now, as one batch — not one
            # compiler process per kernel as the walk meets them.
            windows = bool(state.options.use_windows)
            state.native_ready = state.kernels.prepare([
                (path, windows, shape)
                for path, shape in state.plan.native_kernels()
            ])
        self.exec_descriptor_list(state, state.flowchart.descriptors, {}, [])
        state.plan.ran = True

    def end_run(self) -> None:
        """Release *per-run* resources (e.g. this run's shared-memory
        segments) while keeping long-lived ones — worker pools, warmed
        caches — for the next run. Called after results are exported when
        the backend's lifetime outlives one execution (a
        :class:`~repro.serve.session.Session` owns such backends);
        :meth:`close` implies it."""
        self.store.trim()

    def close(self) -> None:
        """Release pools/segments. Called after results are exported."""
        self.end_run()

    # -- storage hooks -----------------------------------------------------

    def count(self, counter: str, n: int = 1) -> None:
        with self._counters_lock:
            self.counters[counter] += n

    def make_storage(self, shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
        return new_storage(shape, dtype, zero)

    def import_array(self, array, dtype) -> np.ndarray:
        """The storage a run reads an array argument from. In process:
        the caller's array itself, borrowed read-only for the run — PS is
        single-assignment, no lowering can write an argument — and copied
        only when its dtype, byte order or layout must be converted."""
        out = np.ascontiguousarray(array, dtype=dtype)
        took = isinstance(array, np.ndarray) and np.may_share_memory(out, array)
        self.count("arg_bytes_borrowed" if took else "arg_bytes_converted", out.nbytes)
        return out

    def export_result(self, array: np.ndarray) -> np.ndarray:
        """Detach a result from backend-owned storage (a no-op unless the
        storage dies with the backend, as shared memory does)."""
        return array

    # -- the walk ----------------------------------------------------------

    def exec_descriptor(
        self,
        state: ExecutionState,
        desc: Descriptor,
        env: dict[str, Any],
        vector_names: list[str],
    ) -> None:
        if isinstance(desc, NodeDescriptor):
            if desc.node.is_equation:
                self.exec_equation(state, desc.node.equation, env, vector_names)
            return
        assert isinstance(desc, LoopDescriptor)
        scalar_env = state.scalar_env()
        lo = eval_bound(desc.subrange.lo, scalar_env)
        hi = eval_bound(desc.subrange.hi, scalar_env)
        if hi < lo:
            return
        plan = None if vector_names else state.plan_of(desc, self.name)
        if plan is not None:
            strategy = self.strategies.get(plan.strategy)
            if strategy is not None and strategy.execute(
                self, state, desc, lo, hi, env
            ):
                return
            # no strategy object, or it declined (its kernel is unavailable
            # here): the dispatch below ends on the reference walk
        if plan is not None and plan.strategy == "fission":
            self.exec_fission_loop(state, desc, lo, hi, env)
            return
        if desc.parallel:
            self.exec_parallel_loop(state, desc, lo, hi, env, vector_names)
        else:
            if plan is not None and plan.strategy == "scan":
                self.exec_scan_loop(state, desc, lo, hi, env)
                return
            self.exec_sequential_loop(state, desc, lo, hi, env, vector_names)

    def exec_fission_loop(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
    ) -> None:
        """Run a loop planned as a dependence split: one replica loop per
        group, in topological order over the full subrange. The replicas
        are planned descriptors in their own right (marker paths), so the
        ordinary sibling walk applies — a promoted piece runs its DOALL
        strategy, a lone recurrence its scan, a decoupled replica run its
        pipeline group. Each equation lands in exactly one replica, so
        evaluation counts match the unfissioned walk."""
        from repro.schedule.fission import fission_split

        split = fission_split(
            state.analyzed, state.flowchart, desc, state.options.use_windows
        )
        if split is None:
            # Memoized at annotate time; missing means a foreign flowchart
            # copy — run the loop as scheduled (bit-exact, just unsplit).
            self.exec_sequential_loop(state, desc, lo, hi, env, [])
            return
        self.exec_descriptor_list(state, list(split.pieces), env, [])

    def exec_scan_loop(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
    ) -> None:
        """Run a ``DO`` loop planned as a blocked scan. The base backend
        has no worker pool, so this is the in-order fallback
        (serial/vectorized/process) — the compiled nest when the loop
        lowers, the reference walk otherwise; the threaded backends
        override it with the three-phase parallel engine."""
        if not self.exec_nest_kernel(state, desc, lo, hi, env):
            self.exec_sequential_loop(state, desc, lo, hi, env, [])

    def exec_sequential_loop(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
        vector_names: list[str],
    ) -> None:
        """The reference walk: one iteration at a time, in subrange order.
        What every compiled strategy is differentially tested against, and
        where a loop ends up when nothing compiled applies to it."""
        for i in range(lo, hi + 1):
            env2 = dict(env)
            env2[desc.index] = i
            self.exec_descriptor_list(state, desc.body, env2, vector_names)

    def exec_descriptor_list(
        self,
        state: ExecutionState,
        descs: list[Descriptor] | tuple[Descriptor, ...],
        env: dict[str, Any],
        vector_names: list[str],
    ) -> None:
        """Walk a sibling sequence in flowchart order, recognising pipeline
        groups: when a loop's plan is the head of a decoupled sibling run
        (strategy ``"pipeline"`` with its stage structure attached), the
        whole run is handed to :meth:`exec_pipeline_group` as one unit.
        Inside a vector span the plan is already spent, so groups are only
        recognised on the scalar walk."""
        i = 0
        n = len(descs)
        while i < n:
            desc = descs[i]
            if not vector_names and isinstance(desc, LoopDescriptor):
                plan = state.plan_of(desc, self.name)
                if (
                    plan is not None
                    and plan.strategy == "pipeline"
                    and plan.stages
                    and plan.group_size
                    and i + plan.group_size <= n
                ):
                    self.exec_pipeline_group(
                        state, list(descs[i : i + plan.group_size]), plan, env
                    )
                    i += plan.group_size
                    continue
            self.exec_descriptor(state, desc, env, vector_names)
            i += 1

    #: how a DOALL with no LoopPlan runs (hand-built flowcharts whose
    #: descriptors are not part of the state's planned flowchart)
    fallback_strategy = "vector"

    def exec_parallel_loop(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
        vector_names: list[str],
    ) -> None:
        """Run a DOALL by its LoopPlan. Inside a vector span the nest is
        already one NumPy operation — nested DOALLs broadcast structurally
        and the plan has nothing left to decide."""
        if vector_names:
            self.exec_vector_span(state, desc, lo, hi, env, vector_names)
            return
        plan = state.plan_of(desc, self.name)
        strategy = plan.strategy if plan is not None else self.fallback_strategy
        if strategy in ("serial", "iterate", "nest"):
            # "nest" arrives here only after its strategy object declined
            # in exec_descriptor (no kernel available): the reference walk
            self.exec_sequential_loop(state, desc, lo, hi, env, vector_names)
        elif strategy == "vector":
            self.exec_vector_span(state, desc, lo, hi, env, vector_names)
        elif strategy == "chunk":
            self.exec_chunked_loop(state, desc, lo, hi, env, plan)
        elif strategy == "collapse":
            self.exec_collapsed_loop(state, desc, lo, hi, env, plan)
        elif strategy == "pipeline":
            # A group member reached outside its group walk (e.g. a
            # hand-driven walk of one descriptor): run the subrange as one
            # span — bit-exact, just undecoupled.
            self.exec_chunk_span(state, desc, lo, hi, env)
        elif strategy == "fission":
            # Normally intercepted in exec_descriptor; kept for direct calls.
            self.exec_fission_loop(state, desc, lo, hi, env)
        else:
            raise ExecutionError(f"unknown plan strategy {strategy!r}")

    def exec_vector_span(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
        vector_names: list[str],
    ) -> None:
        """Run one contiguous subrange of a DOALL as a vector operation.
        The chunked backends reuse this per worker chunk."""
        env2 = dict(env)
        for vn in vector_names:
            env2[vn] = np.asarray(env2[vn])[..., None]
        env2[desc.index] = np.arange(lo, hi + 1)
        for d in desc.body:
            self.exec_descriptor(state, d, env2, vector_names + [desc.index])

    def _run_kernel(
        self, state: ExecutionState, kernel, env: dict[str, Any],
        lo: int | None = None, hi: int | None = None,
        label: str | None = None,
    ) -> None:
        """The one kernel call site. A loop kernel runs ``[lo, hi]`` and
        returns ``{label: count}``; a per-equation kernel (``label`` given)
        takes no range and returns the count of its one equation. Either
        way the counts are booked here, and a missing data/env binding
        inside the kernel is the evaluator's "unbound name" error. (Two
        plain calls, not one ``*range`` call: this runs per element on the
        scalar walk, where the unpacking call measured ~5% of the run.)"""
        try:
            if label is None:
                counts = kernel(state.data, env, lo, hi)
            else:
                counts = kernel(state.data, env)
        except KeyError as exc:
            raise ExecutionError(f"unbound name {exc.args[0]!r}") from None
        if label is None:
            state.merge_counts(counts)
        else:
            state.eval_counts[label] = state.eval_counts.get(label, 0) + counts

    def _run_loop_kernel(
        self, state: ExecutionState, desc: LoopDescriptor, shape: str,
        env: dict[str, Any], lo: int, hi: int,
    ) -> bool:
        """Run ``[lo, hi]`` of ``desc`` on its compiled kernel of
        ``shape`` — the native (C) tier first, then the NumPy tier; False
        when there is none and the caller must walk the range itself. The
        loop's plan says which dialect it was priced on: a ``"python"``
        loop starts no native build (it runs a native kernel only if one
        is already loaded)."""
        if state.kernels is None:
            return False
        plan = state.plan_of(desc, self.name)
        kernel = state.kernels.nest_kernel_for(
            desc, state.options.use_windows, variant=shape,
            tier=state.kernel_tier(),
            build_native=plan is None or plan.dialect != "python",
        )
        if kernel is None:
            return False
        try:
            self._run_kernel(state, kernel, env, lo, hi)
        except RangeUnproven:
            self._rerun_checked(state, desc, shape, env, lo, hi)
        return True

    def _rerun_checked(
        self, state: ExecutionState, desc: LoopDescriptor, shape: str,
        env: dict[str, Any], lo: int, hi: int,
    ) -> None:
        """A native kernel's entry range proof failed: it stored nothing,
        and this call — this chunk, not its siblings — runs again on code
        that checks every subscript per element. The proof is exact, so
        this is where the evaluator's out-of-range error is raised, in
        iteration order. ``"full"`` degrades to its Python dialect (scalar
        loops, range-checked); ``"span"`` and ``"flat"`` go to the strictly
        serial walk, because their NumPy tiers are vector rows, which clip
        a stray subscript instead of raising."""
        if shape == "flat":
            self.exec_flat_walk(state, desc, lo, hi, env)
            return
        if shape == "full":
            kernel = state.kernels.nest_kernel_for(
                desc, state.options.use_windows, variant="full", tier="numpy"
            )
            if kernel is not None:
                self._run_kernel(state, kernel, env, lo, hi)
                return
        for i in range(lo, hi + 1):
            env2 = dict(env)
            env2[desc.index] = i
            for d in desc.body:
                self._exec_descriptor_strictly_serial(state, d, env2)

    def exec_nest_kernel(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
    ) -> bool:
        """Run the root subrange ``[lo, hi]`` of the whole nest as one
        compiled kernel, in iteration order; False when no kernel is
        available (the caller falls back to the scalar walk)."""
        for eq in desc.nested_equations():
            self.ensure_targets(state, eq)
        return self._run_loop_kernel(state, desc, "full", env, lo, hi)

    def exec_chunked_loop(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
        plan: Any,
    ) -> None:
        """Split the subrange into the planned chunk count and hand the
        spans to :meth:`dispatch`. Targets are allocated up front so
        workers never race on the data environment — inside a chunk they
        only write array elements, which the planner's chunk-safety verdict
        guarantees are disjoint."""
        parts = plan.parts if plan is not None and plan.parts else self.workers
        for eq in desc.nested_equations():
            self.ensure_targets(state, eq)
        spans = split_range(lo, hi, parts)
        if len(spans) < 2:
            self.exec_chunk_span(state, desc, lo, hi, env)
            return
        self.dispatch(state, desc, "span", spans, env, True)

    def exec_chunk_span(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
    ) -> None:
        """One worker's chunk of a chunk-dispatched DOALL: the native span
        kernel (one C function per equation) when one compiles — cffi
        releases the GIL around the C call, so threaded chunks genuinely
        overlap — the NumPy per-equation distribution otherwise. Targets
        are pre-allocated by the chunk dispatcher before spans run, so the
        kernel only writes disjoint elements."""
        if not self._run_loop_kernel(state, desc, "span", env, lo, hi):
            self.exec_vector_span(state, desc, lo, hi, env, [])

    def run_chunk(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        kind: str,
        lo: int,
        hi: int,
        env: dict[str, Any],
        fuse: bool,
    ) -> None:
        """One chunk of a wavefront: ``[lo, hi]`` of ``desc``'s subrange
        (``kind == "span"``) or of its collapsed flat iteration space
        (``"flat"``, fused unless the plan said otherwise)."""
        if kind == "flat":
            self.exec_flat_span(state, desc, lo, hi, env, fuse)
        else:
            self.exec_chunk_span(state, desc, lo, hi, env)

    def dispatch(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        kind: str,
        spans: list[tuple[int, int]],
        env: dict[str, Any],
        fuse: bool,
    ) -> None:
        """Run one wavefront's chunks (see :meth:`run_chunk`) and return
        when all of them have. The base implementation runs them inline —
        a plan forced onto a backend without a worker pool stays correct,
        just not concurrent; the parallel backends override this with
        their pools."""
        for lo, hi in spans:
            self.run_chunk(state, desc, kind, lo, hi, env, fuse)

    # -- pipeline groups ---------------------------------------------------

    def exec_seq_block(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
    ) -> None:
        """One in-order block of a pipeline *sequential* stage: the nest
        kernel over the ``DO`` subrange when the nest lowers, the strictly
        ordered per-iteration walk otherwise (whose inner loops were
        planned in-stage, so they never re-enter a worker pool)."""
        if self.exec_nest_kernel(state, desc, lo, hi, env):
            return
        for i in range(lo, hi + 1):
            env2 = dict(env)
            env2[desc.index] = i
            for d in desc.body:
                self.exec_descriptor(state, d, env2, [])

    def exec_rep_block(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
    ) -> None:
        """One frontier-released block of a pipeline *replicated* stage —
        exactly a chunk span (native span kernel when one compiles, the
        NumPy distribution otherwise)."""
        self.exec_chunk_span(state, desc, lo, hi, env)

    def exec_pipeline_group(
        self,
        state: ExecutionState,
        descs: list[Descriptor],
        plan: Any,
        env: dict[str, Any],
    ) -> None:
        """Execute one pipeline group (the run of sibling loops whose head
        carries ``plan``). The base implementation executes the member
        loops whole, in flowchart order — sequential members through the
        in-order stage path, replicated members as one span — which *is*
        the reference order, so a pipeline plan forced onto a backend
        without the decoupled engine stays correct, just not concurrent.
        :class:`~repro.runtime.backends.threaded.ThreadedBackend` overrides
        this with the block-decoupled stage engine."""
        scalar_env = state.scalar_env()
        for desc in descs:
            assert isinstance(desc, LoopDescriptor)
            for eq in desc.nested_equations():
                self.ensure_targets(state, eq)
        for desc in descs:
            lo = eval_bound(desc.subrange.lo, scalar_env)
            hi = eval_bound(desc.subrange.hi, scalar_env)
            if hi < lo:
                continue
            if desc.parallel:
                self.exec_rep_block(state, desc, lo, hi, env)
            else:
                self.exec_seq_block(state, desc, lo, hi, env)

    # -- collapsed nests ---------------------------------------------------

    def _flat_geometry(
        self, state: ExecutionState, desc: LoopDescriptor, lo: int, hi: int
    ) -> tuple[list[LoopDescriptor], list[Descriptor], list[int], list[int]]:
        """(chain, body-below-chain, per-loop lows, per-loop extents) of the
        collapsed iteration space rooted at ``desc``; ``[lo, hi]`` is the
        root subrange already evaluated by the caller."""
        chain, chain_body = collapse_chain(desc)
        scalar_env = state.scalar_env()
        los = [lo]
        extents = [max(0, hi - lo + 1)]
        for loop in chain[1:]:
            llo = eval_bound(loop.subrange.lo, scalar_env)
            lhi = eval_bound(loop.subrange.hi, scalar_env)
            los.append(llo)
            extents.append(max(0, lhi - llo + 1))
        return chain, chain_body, los, extents

    def exec_collapsed_loop(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        lo: int,
        hi: int,
        env: dict[str, Any],
        plan: Any,
    ) -> None:
        """Run a collapse-planned DOALL chain: flatten the perfect nest
        into one ``[0, prod(extents) - 1]`` iteration space, split it into
        the planned chunk count, and hand the *flat* subranges to
        :meth:`dispatch`. Each chunk executes through the
        chunk-parameterized fused nest kernel (per-equation scalar walk
        when no kernel is available or the plan disabled fusion)."""
        _chain, _body, _los, extents = self._flat_geometry(state, desc, lo, hi)
        flat = 1
        for n in extents:
            flat *= n
        if flat <= 0:
            return
        for eq in desc.nested_equations():
            self.ensure_targets(state, eq)
        parts = plan.parts if plan is not None and plan.parts else self.workers
        fuse = plan.fuse if plan is not None else True
        spans = split_range(0, flat - 1, parts)
        if len(spans) < 2:
            self.exec_flat_span(state, desc, 0, flat - 1, env, fuse)
            return
        self.dispatch(state, desc, "flat", spans, env, fuse)

    def exec_flat_span(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        flo: int,
        fhi: int,
        env: dict[str, Any],
        fuse: bool = True,
    ) -> None:
        """Execute one contiguous flat subrange of a collapsed chain —
        through the fused flat-variant nest kernel when available, else by
        the delinearized per-equation walk. The chunked backends reuse
        this per worker chunk."""
        if not fuse or not self._run_loop_kernel(
            state, desc, "flat", env, flo, fhi
        ):
            self.exec_flat_walk(state, desc, flo, fhi, env)

    def exec_flat_walk(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        flo: int,
        fhi: int,
        env: dict[str, Any],
    ) -> None:
        """The per-equation reference path over a flat subrange: recover
        the chain indices from each flat offset (row-major, innermost
        fastest — ascending flat order is exactly the serial nest order)
        and walk the body descriptors element by element. The body walk is
        *strictly serial* and never consults loop plans: this path may
        already be running inside a pool worker, and a body DOALL planned
        "collapse"/"chunk" re-entering chunk dispatch would block on the
        very pool executing it."""
        scalar_env = state.scalar_env()
        lo = eval_bound(desc.subrange.lo, scalar_env)
        hi = eval_bound(desc.subrange.hi, scalar_env)
        chain, chain_body, los, extents = self._flat_geometry(
            state, desc, lo, hi
        )
        for flat in range(flo, fhi + 1):
            env2 = dict(env)
            r = flat
            for k in range(len(chain) - 1, 0, -1):
                env2[chain[k].index] = r % extents[k] + los[k]
                r //= extents[k]
            env2[chain[0].index] = r + los[0]
            for d in chain_body:
                self._exec_descriptor_strictly_serial(state, d, env2)

    def _exec_descriptor_strictly_serial(
        self, state: ExecutionState, desc: Descriptor, env: dict[str, Any]
    ) -> None:
        """Execute a descriptor in subrange order, treating every loop —
        parallel or not — as a sequential scalar loop (the reference
        semantics, ignoring plans)."""
        if isinstance(desc, NodeDescriptor):
            if desc.node.is_equation:
                self.exec_equation(state, desc.node.equation, env, [])
            return
        assert isinstance(desc, LoopDescriptor)
        scalar_env = state.scalar_env()
        lo = eval_bound(desc.subrange.lo, scalar_env)
        hi = eval_bound(desc.subrange.hi, scalar_env)
        for i in range(lo, hi + 1):
            env2 = dict(env)
            env2[desc.index] = i
            for d in desc.body:
                self._exec_descriptor_strictly_serial(state, d, env2)

    # -- equations ---------------------------------------------------------

    def exec_equation(
        self,
        state: ExecutionState,
        eq: AnalyzedEquation,
        env: dict[str, Any],
        vector_names: list[str],
    ) -> None:
        vector = bool(vector_names)
        if vector and not equation_is_vector_safe(eq):
            self._exec_equation_scalar_fallback(state, eq, env, vector_names)
            return

        if eq.atomic:
            self._exec_atomic(state, eq, env)
            return

        self.ensure_targets(state, eq)
        kernel = None
        if state.kernels is not None:
            kernel = state.kernels.kernel_for(
                eq, vector, state.options.use_windows
            )
        if kernel is not None:
            self._run_kernel(state, kernel, env, None, None, eq.label)
            return
        value = state.evaluator.eval(eq.rhs, env, vector=vector)
        state.eval_counts[eq.label] = state.eval_counts.get(eq.label, 0) + (
            int(np.size(value)) if vector else 1
        )
        target = eq.targets[0]
        holder = state.data.get(target.name)
        if isinstance(holder, RuntimeArray):
            subs = [
                state.evaluator.eval(s, env, vector=vector)
                for s in target.subscripts
            ]
            holder.set(subs, value)
        else:
            state.data[target.name] = (
                value.item() if isinstance(value, np.ndarray) else value
            )

    def _exec_equation_scalar_fallback(
        self,
        state: ExecutionState,
        eq: AnalyzedEquation,
        env: dict[str, Any],
        vector_names: list[str],
    ) -> None:
        """Iterate the vectorised indices element by element."""
        shape = _broadcast_shape(env, vector_names)
        grids = [
            np.broadcast_to(np.asarray(env[vn]), shape) for vn in vector_names
        ]
        flat = [g.reshape(-1) for g in grids]
        for i in range(flat[0].size if flat else 1):
            env2 = dict(env)
            for vn, g in zip(vector_names, flat):
                env2[vn] = int(g[i])
            self.exec_equation(state, eq, env2, [])

    def _exec_atomic(
        self, state: ExecutionState, eq: AnalyzedEquation, env: dict[str, Any]
    ) -> None:
        value = state.evaluator.eval(eq.rhs, env, vector=False)
        values = value if isinstance(value, tuple) else (value,)
        if len(values) != len(eq.targets):
            raise ExecutionError(
                f"{eq.label}: expected {len(eq.targets)} results, got {len(values)}"
            )
        for target, v in zip(eq.targets, values):
            sym = state.analyzed.symbol(target.name)
            if isinstance(sym.type, ArrayType):
                dense = v.to_numpy() if isinstance(v, RuntimeArray) else np.asarray(v)
                bounds = array_bounds(sym.type, state.scalar_env())
                state.data[target.name] = RuntimeArray.from_numpy(
                    target.name, self.import_array(dense, dense.dtype), bounds
                )
            else:
                state.data[target.name] = v
        state.eval_counts[eq.label] = state.eval_counts.get(eq.label, 0) + 1

    def ensure_targets(self, state: ExecutionState, eq: AnalyzedEquation) -> None:
        """Allocate target arrays on first definition — zero-filled, unless
        nothing in the plan reads the array early (``ExecutionPlan.storage``)
        and at this run's sizes it is totally defined (:func:`undefined_part`).
        Only a plan that has completed a run takes from the store, so a
        process that runs each plan once retains nothing."""
        for target in eq.targets:
            if target.name in state.data:
                continue
            sym = state.analyzed.symbol(target.name)
            if isinstance(sym.type, ArrayType):
                env = state.scalar_env()
                bounds = array_bounds(sym.type, env)
                windows: dict[int, int] = {}
                if state.options.use_windows and sym.kind is SymbolKind.VAR:
                    windows = dict(state.flowchart.window_of(target.name))
                how = state.native_ready and state.plan.storage.get(target.name)
                zero = True
                if isinstance(how, tuple) and not windows:
                    # one verdict per (array, sizes): a session's plan is
                    # cached per sizes, so its warm runs all hit the memo
                    sizes = tuple(env.items())
                    memo = state.plan.defined.get(target.name)
                    if memo is None or memo[0] != sizes:
                        memo = sizes, undefined_part(*how, env) is None
                        state.plan.defined[target.name] = memo
                    zero = not memo[1]
                self.count("arrays_zeroed" if zero else "arrays_uninitialised")
                make = self.make_storage
                if self.store is not None and state.plan is not None and state.plan.ran:
                    make = self.store.take
                state.data[target.name] = RuntimeArray.allocate(
                    target.name,
                    sym.type.element,
                    bounds,
                    windows=windows,
                    debug=state.options.debug_windows,
                    make=make,
                    zero=zero,
                )
            # Scalars are created on assignment.


def _broadcast_shape(env: dict[str, Any], vector_names: list[str]):
    shapes = [np.asarray(env[vn]).shape for vn in vector_names]
    return np.broadcast_shapes(*shapes) if shapes else ()
