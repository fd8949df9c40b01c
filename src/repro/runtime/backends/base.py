"""The one execution engine: the flowchart walk and the DOALL pool.

:class:`ExecutionBackend` *executes* a scheduled flowchart according to an
:class:`~repro.plan.ir.ExecutionPlan`: equation evaluation, lazy target
allocation, vector spans, the reference walk of a loop, and one dispatch —
every planned loop runs through ``LOOP_STRATEGIES[plan.strategy].execute``
(:mod:`repro.plan.strategy`), which calls back into the walk's primitives
here. No decision is re-derived from the flowchart: chunking, safety and
kernels live in the plan, built once per execution by
:mod:`repro.plan.planner`, and every :class:`ExecutionState` carries its
plan.

``plan.backend`` is the planner's label, not a class: ``serial``,
``vectorized`` and ``threaded`` plans all run on this one engine, and the
label decides the strategies a loop could take. The ``chunk`` strategy
hands :meth:`ExecutionBackend.dispatch` a wavefront of chunks, each one call
of :meth:`~repro.plan.strategy.ChunkStrategy.run_chunk` on the loop's own
kernel. Under a ``threaded`` plan the wavefront goes to the
engine's thread pool — created on first use, ``workers`` threads named
``repro-doall`` — where a chunk runs its C kernel (cffi's ABI mode releases
the GIL around the call, so chunks overlap on a GIL build) or the
vectorised NumPy path (NumPy releases the GIL too, but the Python
bookkeeping between kernels serialises unless the interpreter is a no-GIL
build). Under any other plan — a ``chunk`` forced onto a ``serial`` plan, a
callee's plan inside a worker chunk — the chunks run inline, so only a
``threaded`` plan ever starts a pool thread. Every pooled wavefront ends in
one join: all chunks finish before the first failure is re-raised, so a
failed run leaves nothing of its own on a session's persistent pool.

Equation evaluation dispatches through the compiled-kernel cache when one
is attached to the state (see :mod:`repro.runtime.kernels`); the
tree-walking evaluator remains the fallback.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.ps.semantics import AnalyzedEquation, AnalyzedModule, AnalyzedProgram
from repro.ps.symbols import SymbolKind
from repro.ps.types import ArrayType
from repro.runtime.evaluator import Evaluator
from repro.runtime.kernels.cache import plan_keys
from repro.runtime.kernels.native import RangeUnproven, team_width
from repro.runtime.values import (
    BufferStore,
    RuntimeArray,
    SelectedLaneClipped,
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
    equation_vector_safe,
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
    #: the ExecutionPlan driving strategy dispatch
    plan: Any  # ExecutionPlan (untyped: import cycle)
    program: AnalyzedProgram | None = None
    #: statistics: equation label -> number of element evaluations
    eval_counts: dict[str, int] = field(default_factory=dict)
    #: compiled-kernel cache (None: evaluate everything on the tree walk)
    kernels: Any = None  # KernelCache | None (untyped: import cycle)
    #: every native kernel the plan dispatches is built and loaded — what
    #: ``ensure_targets`` needs before it trusts ``plan.storage``
    native_ready: bool = False

    def scalar_env(self) -> dict[str, int]:
        return {
            k: int(v)
            for k, v in self.data.items()
            if isinstance(v, (int, np.integer))
        }

    def fork(self) -> ExecutionState:
        """A shallow copy with private eval counts, for one worker chunk.
        The data environment stays shared: a thread-pool chunk sees the
        parent's dict itself, and only *writes* array elements, which
        chunk-safety guarantees are disjoint."""
        return ExecutionState(
            self.analyzed,
            self.flowchart,
            self.options,
            self.data,
            self.evaluator,
            self.plan,
            program=self.program,
            eval_counts={},
            kernels=self.kernels,
        )

    def merge_counts(self, counts: dict[str, int]) -> None:
        for label, n in counts.items():
            self.eval_counts[label] = self.eval_counts.get(label, 0) + n


def free_threading_active() -> bool:
    """True when this interpreter is actually running without a GIL (a
    free-threaded CPython build with the GIL not re-enabled at runtime)."""
    try:
        return not sys._is_gil_enabled()
    except AttributeError:  # < 3.13: always GIL-ful
        return False


#: what :attr:`ExecutionBackend.counters` counts
RUN_COUNTERS = (
    "arg_bytes_borrowed", "arg_bytes_converted", "arrays_uninitialised", "arrays_zeroed",
    "team_calls", "team_capped",
)


class ExecutionBackend:
    """The engine: the flowchart walk, and a thread pool for the
    wavefronts of ``threaded`` plans."""

    def __init__(self, workers: int | None = None):
        self.workers = max(1, workers if workers is not None else os.cpu_count() or 1)
        # Imported here: the plan layer imports the runtime.
        from repro.plan.strategy import LOOP_STRATEGIES

        #: plan-strategy name -> the strategy object that runs such loops
        self.strategies = LOOP_STRATEGIES
        #: argument bytes borrowed / copied on import, target arrays left
        #: uninitialised / zero-filled, team kernel calls and those of them
        #: run narrower than planned, over every run of this instance
        self.counters = dict.fromkeys(RUN_COUNTERS, 0)
        self._counters_lock = threading.Lock()
        #: where the big arrays of a plan's second and later runs come from
        self.store = BufferStore()
        self._pool: ThreadPoolExecutor | None = None
        # A session-owned engine may serve overlapping runs from several
        # request threads; pool creation must happen exactly once.
        self._pool_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def run(self, state: ExecutionState) -> None:
        """Execute the whole flowchart against ``state``."""
        if state.kernels is not None:
            # Kernels with module calls dispatch through the cache's call
            # box; point it at this execution's handler before anything runs.
            state.kernels.bind_call_fn(state.evaluator.call_fn)
        if state.kernels is not None and state.options.kernel_tier == "native":
            # One translation unit per (module, plan): every native kernel
            # the plan will dispatch is built now, as one batch — not one
            # compiler process per kernel as the walk meets them.
            state.native_ready = state.kernels.prepare(
                plan_keys(state.plan, state.options.use_windows)
            )
        for desc in state.flowchart.descriptors:
            self.exec_descriptor(state, desc, {}, [])
        state.plan.ran = True

    def end_run(self) -> None:
        """Release *per-run* resources (idle recycled buffers beyond what
        the next run needs) while keeping long-lived ones — the thread pool,
        warmed caches — for the next run. Called after results are exported when
        the backend's lifetime outlives one execution (a
        :class:`~repro.serve.session.Session` owns such backends);
        :meth:`close` implies it."""
        self.store.trim()

    def close(self) -> None:
        """Release the pool and buffers. Called after results are read."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.end_run()

    # -- storage hooks -----------------------------------------------------

    def count(self, counter: str, n: int = 1) -> None:
        with self._counters_lock:
            self.counters[counter] += n

    def make_storage(self, shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
        return new_storage(shape, dtype, zero)

    def import_array(self, array, dtype) -> np.ndarray:
        """The storage a run reads an array argument from: the caller's
        array itself, borrowed read-only for the run — PS is
        single-assignment, no lowering can write an argument — and copied
        only when its dtype, byte order or layout must be converted."""
        out = np.ascontiguousarray(array, dtype=dtype)
        took = isinstance(array, np.ndarray) and np.may_share_memory(out, array)
        self.count("arg_bytes_borrowed" if took else "arg_bytes_converted", out.nbytes)
        return out

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
        if vector_names:
            # Inside a vector span the nest is already one NumPy operation:
            # a nested DOALL broadcasts, a nested DO keeps its own loop.
            if desc.parallel:
                self.exec_vector_span(state, desc, lo, hi, env, vector_names)
            else:
                self.exec_sequential_loop(state, desc, lo, hi, env, vector_names)
            return
        plan = state.plan.loop_for(desc)
        if plan is None:
            # a descriptor the plan does not cover: the reference walk
            self.exec_sequential_loop(state, desc, lo, hi, env, [])
        else:
            self.strategies[plan.strategy].execute(self, state, desc, lo, hi, env)

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
            for d in desc.body:
                self.exec_descriptor(state, d, env2, vector_names)

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
        A ``chunk`` strategy's chunk without a kernel runs this too."""
        env2 = dict(env)
        for vn in vector_names:
            env2[vn] = np.asarray(env2[vn])[..., None]
        env2[desc.index] = np.arange(lo, hi + 1)
        for d in desc.body:
            self.exec_descriptor(state, d, env2, vector_names + [desc.index])

    def _run_kernel(
        self, state: ExecutionState, kernel, env: dict[str, Any],
        lo: int | None = None, hi: int | None = None,
        label: str | None = None, width: int | None = None,
    ) -> None:
        """The one kernel call site. A loop kernel runs ``[lo, hi]`` and
        returns ``{label: count}`` (a team kernel on ``width`` threads); a
        per-equation kernel (``label`` given)
        takes no range and returns the count of its one equation. Either
        way the counts are booked here, and a missing data/env binding
        inside the kernel is the evaluator's "unbound name" error. (Plain
        calls, not one ``*range`` call: this runs per element on the
        scalar walk, where the unpacking call measured ~5% of the run.)"""
        try:
            if width is not None:
                counts = kernel(state.data, env, lo, hi, width)
            elif label is None:
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
        env: dict[str, Any], lo: int, hi: int, numpy: bool = True,
    ) -> bool:
        """Run ``[lo, hi]`` of ``desc`` on its compiled kernel of
        ``shape`` — the native (C) tier first, then (unless ``numpy`` is
        False) the NumPy tier; False when there is none and the caller must
        walk the range itself. The loop's plan says which dialect it was
        priced on: a ``"python"`` loop starts no native build (it runs a
        native kernel only if one is already loaded). A ``"team"`` kernel
        runs as wide as the plan
        says, narrowed by :func:`~repro.runtime.kernels.native.team_width`
        (a server's cap, a forked process) — the one place a width is
        decided, and counted."""
        if state.kernels is None:
            return False
        plan = state.plan.loop_for(desc)
        kernel = state.kernels.nest_kernel_for(
            desc, state.options.use_windows, variant=shape,
            tier=state.options.kernel_tier,
            build_native=plan is None or plan.dialect != "python",
            numpy=numpy,
        )
        if kernel is None:
            return False
        width = None
        if getattr(kernel, "__team__", False):
            width = team_width(plan.team)
            self.count("team_calls")
            if width < plan.team:
                self.count("team_capped")
        try:
            self._run_kernel(state, kernel, env, lo, hi, width=width)
        except RangeUnproven:
            self._rerun_checked(state, desc, env, lo, hi)
        return True

    def _rerun_checked(
        self, state: ExecutionState, desc: LoopDescriptor,
        env: dict[str, Any], lo: int, hi: int,
    ) -> None:
        """A native kernel's entry range proof failed — it stored nothing:
        this call — this chunk, not its siblings — runs again on code that
        checks every subscript per element, which is where the evaluator's
        out-of-range error is raised, in iteration order. ``"full"`` and
        ``"team"`` (whose proof returned before its region) alike degrade
        to the Python dialect (scalar loops, range-checked)."""
        kernel = state.kernels.nest_kernel_for(
            desc, state.options.use_windows, variant="full", tier="numpy"
        )
        if kernel is not None:
            self._run_kernel(state, kernel, env, lo, hi)
            return
        self.exec_walk_span(state, desc, lo, hi, env)

    def exec_walk_span(
        self, state: ExecutionState, desc: LoopDescriptor,
        lo: int, hi: int, env: dict[str, Any],
    ) -> None:
        """The reference walk over ``[lo, hi]`` of ``desc``'s subrange:
        its body element by element, checking every subscript and, under
        ``debug_windows``, every window tag. The walk is *strictly serial*
        and never consults loop plans: it may be running inside a pool
        worker, where a body ``DOALL`` re-entering chunk dispatch would wait
        on the very pool executing it."""
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
        compiled kernel, in iteration order — on a team of threads when
        the plan gave it one; False when no kernel is available (the caller
        falls back to the scalar walk). A nest that stores nothing runs
        nothing."""
        if not self.ensure_nest_targets(state, desc):
            return True
        shape = state.plan.loop_for(desc).kernel_shape()
        return self._run_loop_kernel(state, desc, shape, env, lo, hi)

    def dispatch(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        strategy,
        spans: list[tuple[int, int]],
        env: dict[str, Any],
        fuse: bool,
    ) -> None:
        """Run one wavefront's chunks — ``[lo, hi]`` each, through
        ``strategy`` (:class:`repro.plan.strategy.ChunkStrategy`), on the
        loop's kernel unless ``fuse`` is False — and return when all of
        them have. A ``threaded`` plan sends them to the pool, each on a
        private substate whose eval counts are merged after the join; any
        other plan runs them inline, correct but not concurrent."""
        if state.plan.backend != "threaded":
            for lo, hi in spans:
                strategy.run_chunk(self, state, desc, lo, hi, env, fuse)
            return
        pool = self._ensure_pool()
        substates = [state.fork() for _ in spans]
        self._join([
            pool.submit(strategy.run_chunk, self, sub, desc, lo, hi, env, fuse)
            for sub, (lo, hi) in zip(substates, spans)
        ])
        for sub in substates:
            state.merge_counts(sub.eval_counts)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-doall",
                    )
        return self._pool

    @staticmethod
    def _join(futures) -> None:
        """Wait for *every* future, then re-raise the first failure — the
        one failure protocol of the pool. Raising at the first failed
        future would leave its siblings running on the persistent pool,
        where the next request's waves queue behind a dead run's work (a
        failed run's partial writes are overwritten on re-run)."""
        first: BaseException | None = None
        for f in futures:
            try:
                f.result()
            except BaseException as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first

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
        if vector and not equation_vector_safe(eq):
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
        try:
            if kernel is not None:
                self._run_kernel(state, kernel, env, None, None, eq.label)
                return
            value = state.evaluator.eval(eq.rhs, env, vector=vector)
        except SelectedLaneClipped:
            # a lane the equation selects reads out of range: the scalar
            # walk raises the exact error (nothing was stored yet)
            self._exec_equation_scalar_fallback(state, eq, env, vector_names)
            return
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

    def ensure_nest_targets(self, state: ExecutionState, desc: LoopDescriptor) -> bool:
        """Allocate the targets of the nest ``desc`` before a kernel or a
        wavefront stores into them (at once True when all of them exist);
        False, allocating nothing, when the nest stores nothing — a loop on
        the way to each of its equations has an empty range, so the walk
        would not reach one either."""
        eqs = desc.nested_equations()
        if all(t.name in state.data for eq in eqs for t in eq.targets):
            return True
        env = state.scalar_env()

        def stores(d: Descriptor) -> bool:
            if isinstance(d, NodeDescriptor):
                return d.node.is_equation
            lo, hi = eval_bound(d.subrange.lo, env), eval_bound(d.subrange.hi, env)
            return lo <= hi and any(map(stores, d.body))

        if not stores(desc):
            return False
        for eq in eqs:
            self.ensure_targets(state, eq)
        return True

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
                if state.plan.ran:
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
