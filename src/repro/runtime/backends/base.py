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
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
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
    Layout,
    RuntimeArray,
    SelectedLaneClipped,
    array_bounds,
    eval_bound,
    halo_slabs,
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
    #: the plan's :class:`Recipe` at this run's sizes (None: not asked yet)
    recipe: Recipe | None = None

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
            recipe=self.recipe,
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


@dataclass(frozen=True)
class Recipe:
    """What every run of one plan at one set of sizes does alike, worked
    out at the first run there (:meth:`ExecutionBackend.recipe`) and shared
    by every later one — two threads' included: a run keeps its own arrays
    and buffers, and never writes here."""

    #: (sizes, kernel cache, window mode, kernel tier) it is for
    key: tuple
    #: every native kernel the plan dispatches is built and loaded
    ready: bool
    #: the array arguments, and every array an equation defines whose
    #: layout these sizes decide
    args: tuple[Layout, ...]
    targets: dict[str, Layout]
    #: the module entry (None: the runs walk), the arrays its runs
    #: allocate, its geometry vector, its team calls, their width, its
    #: calls that prove their ranges and the allocation counters it books
    entry: Any = None
    allocs: tuple[Layout, ...] = ()
    geom: Any = None
    teams: int = 0
    team: int = 0
    proofs: int = 0
    booked: tuple = ()


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
        """Execute the whole flowchart against ``state``: as one call of the
        plan's module entry (``run_<module>``, built with the plan's unit,
        named by ``plan.explain()``) where its recipe has one, else — and
        after any failure of that call — by the walk."""
        if state.kernels is not None:
            # Kernels with module calls dispatch through the cache's call
            # box; point it at this execution's handler before anything runs.
            state.kernels.bind_call_fn(state.evaluator.call_fn)
        recipe = state.recipe or self.recipe(state)
        if recipe.entry is None or not self._run_entry(state, recipe):
            for desc in state.flowchart.descriptors:
                self.exec_descriptor(state, desc, {}, [])
        state.plan.ran = True

    def recipe(self, state: ExecutionState) -> Recipe:
        """The plan's :class:`Recipe` at the sizes in ``state``, kept on the
        plan for the runs at those sizes, and set on ``state``."""
        env, kernels, options = state.scalar_env(), state.kernels, state.options
        key = (tuple(env.items()), kernels and weakref.ref(kernels),
               bool(options.use_windows), options.kernel_tier)
        recipe = state.plan.recipe
        if recipe is None or recipe.key != key:
            recipe = state.plan.recipe = _recipe(state, env, key)
        state.recipe = recipe
        return recipe

    def import_args(self, recipe: Recipe, data: dict[str, Any], args: dict[str, Any]) -> None:
        """Bind the array arguments in ``args`` into ``data``, each through
        :meth:`import_array` as ``recipe`` lays it out."""
        for layout in recipe.args:
            name = layout.name
            if name not in args:
                raise ExecutionError(f"missing argument {name!r}")
            array = self.import_array(args[name], layout.dtype)
            if array.shape != layout.shape:
                raise ExecutionError(
                    f"argument {name!r} has shape {array.shape}, expected "
                    f"{layout.shape} from the declared bounds"
                )
            data[name] = RuntimeArray(name, layout.los, layout.his, array, {})

    def _run_entry(self, state: ExecutionState, recipe: Recipe) -> bool:
        """Run the plan as one call of its module entry: allocate what the
        walk would allocate, then the call. False when the walk must run it
        instead — the call returned non-zero (an unproven range, an
        out-of-range subscript, a zero divisor), its arrays dropped first:
        the walk raises the evaluator's exact error or reruns the loop on
        checked code, and arguments are never written."""
        data = state.data
        make = self.store.take if state.plan.ran else self.make_storage
        for layout in recipe.allocs:
            data[layout.name] = layout.allocate(make)
        self.book(recipe.booked)
        width = team_width(recipe.team) if recipe.teams else 1
        if not recipe.entry(data, recipe.geom, width, recipe.proofs, state.eval_counts):
            for layout in recipe.allocs:
                del data[layout.name]  # its buffer goes back to the store
            return False
        if recipe.teams:
            self.book((
                ("team_calls", recipe.teams),
                ("team_capped", recipe.teams if width < recipe.team else 0),
            ))
        return True

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
        self.book(((counter, n),))

    def book(self, counts) -> None:
        """Add each ``(counter, n)`` of ``counts``, under one lock."""
        with self._counters_lock:
            for counter, n in counts:
                self.counters[counter] += n

    def make_storage(self, shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
        return new_storage(shape, dtype, zero)

    def import_array(self, array, dtype) -> np.ndarray:
        """The storage a run reads an array argument from: the caller's
        array itself, borrowed read-only for the run — PS is
        single-assignment, no lowering can write an argument — and copied
        only when its dtype, byte order or layout must be converted."""
        out = np.ascontiguousarray(array, dtype=dtype)
        took = out is array or (
            isinstance(array, np.ndarray) and np.may_share_memory(out, array)
        )
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
        if not _stores(desc, state.scalar_env()):
            return False
        for eq in eqs:
            self.ensure_targets(state, eq)
        return True

    def ensure_targets(self, state: ExecutionState, eq: AnalyzedEquation) -> None:
        """Allocate target arrays on first definition, as the run's recipe
        lays them out (:func:`_storage_layout`): zero-filled, unless nothing
        in the plan reads the array early (``ExecutionPlan.storage``) and at
        this run's sizes it is totally defined (:func:`undefined_part`) — or
        its definitions tile a box inside its bounds, when only the halo
        around that box is zeroed (:func:`halo_slabs`). Only a plan that has
        completed a run takes from the store, so a process that runs each
        plan once retains nothing."""
        for target in eq.targets:
            name = target.name
            if name in state.data:
                continue
            layout = state.recipe.targets.get(name) if state.recipe else None
            if layout is None:  # a scalar, or an array of a computed size
                sym = state.analyzed.symbol(name)
                if not isinstance(sym.type, ArrayType):
                    continue  # scalars are created on assignment
                layout = _storage_layout(
                    state, name, sym, state.scalar_env(),
                    bool(state.recipe and state.recipe.ready),
                )
            self.count("arrays_uninitialised" if layout.halo == [] else "arrays_zeroed")
            make = self.store.take if state.plan.ran else self.make_storage
            state.data[name] = layout.allocate(make, state.options.debug_windows)


def _storage_layout(
    state: ExecutionState, name: str, sym, env: dict[str, int], ready: bool,
) -> Layout:
    """How the array ``name`` is stored at sizes ``env``, the plan's
    native kernels ``ready`` or not: its bounds, windows, and the slabs an
    allocation zeroes — ``[]`` none, None all."""
    windows: dict[int, int] = {}
    if state.options.use_windows and sym.kind is SymbolKind.VAR:
        windows = state.flowchart.window_of(name)
    how = ready and state.plan.storage.get(name)
    halo = None
    if isinstance(how, tuple) and not windows:
        halo = [] if undefined_part(*how, env) is None else halo_slabs(*how, env)
    return Layout.of(name, sym.type.element, array_bounds(sym.type, env), windows, halo)


def _recipe(state: ExecutionState, env: dict[str, int], key: tuple) -> Recipe:
    """The :class:`Recipe` of ``state``'s plan at the sizes ``env``: on the
    native tier, after building every native kernel the plan dispatches,
    its module entry included, as one batch — one translation unit per
    (module, plan), not one compiler process per kernel as the walk meets
    them."""
    analyzed, plan, kernels = state.analyzed, state.plan, state.kernels
    ready, entry, windows = False, None, key[2]
    if kernels is not None and key[3] == "native":
        ready = kernels.prepare(plan_keys(plan, windows))
        entry = kernels.module_entry(plan, windows)
    args = []
    for name in analyzed.params_by_kind[1]:
        t = analyzed.symbol(name).type
        args.append(Layout.of(name, t.element, array_bounds(t, env)))
    targets = {}
    for name in dict.fromkeys(t.name for eq in analyzed.equations for t in eq.targets):
        sym = analyzed.symbol(name)
        if isinstance(sym.type, ArrayType):
            try:
                targets[name] = _storage_layout(state, name, sym, env, ready)
            except ExecutionError:
                pass  # the walk raises it where it allocates the array
    recipe = Recipe(key, ready, tuple(args), targets)
    run = entry and _entry_layout(state, entry, env, targets)
    if not run:
        return recipe
    allocs, teams, team, proofs = run
    geom = entry.geometry({layout.name: layout for layout in (*args, *allocs)})
    if geom is None:  # an array the walk would not allocate
        return recipe
    zeroed = sum(layout.halo != [] for layout in allocs)
    return replace(
        recipe, entry=entry, allocs=allocs, geom=geom, teams=teams, team=team,
        proofs=proofs, booked=(
            ("arrays_uninitialised", len(allocs) - zeroed), ("arrays_zeroed", zeroed),
        ),
    )


def _stores(d: Descriptor, env: dict[str, int]) -> bool:
    """Whether the walk of ``d`` reaches an equation at sizes ``env``."""
    if isinstance(d, NodeDescriptor):
        return d.node.is_equation
    lo, hi = eval_bound(d.subrange.lo, env), eval_bound(d.subrange.hi, env)
    return lo <= hi and any(_stores(c, env) for c in d.body)


def _entry_layout(state: ExecutionState, entry, env: dict[str, int], targets: dict):
    """``(the arrays the walk allocates, as ``targets`` lays them out, team
    calls, their width, calls proving their ranges)`` of ``entry``'s runs at
    sizes ``env``; None when they must walk: a loop with iterations that
    stores nothing, a bound that does not evaluate or fit ``int64`` (the
    entry evaluates the bounds again in C), or an array without a layout."""
    names: dict[str, None] = {}  # the arrays and scalars stored, in order
    teams = team = proofs = 0
    calls = iter(entry.spec.calls)
    for desc in state.flowchart.descriptors:
        if isinstance(desc, NodeDescriptor):
            if desc.node.is_equation:
                names[desc.node.equation.targets[0].name] = None
            continue
        call = next(calls)
        try:
            lo, hi = (eval_bound(b, env) for b in (desc.subrange.lo, desc.subrange.hi))
            if not all(-(2**63) <= v < 2**63 for v in (lo, hi)):
                return None
            if lo > hi:
                continue
            if not _stores(desc, env):
                return None
        except ExecutionError:
            return None
        names.update(dict.fromkeys(eq.targets[0].name for eq in desc.nested_equations()))
        proofs += call.proven > 0
        if call.team:
            teams, team = teams + 1, state.plan.loop_for(desc).team
    arrays = [name for name in names if name not in entry.spec.results]
    if any(name not in targets for name in arrays):
        return None
    return tuple(targets[name] for name in arrays), teams, team, proofs


def _broadcast_shape(env: dict[str, Any], vector_names: list[str]):
    shapes = [np.asarray(env[vn]).shape for vn in vector_names]
    return np.broadcast_shapes(*shapes) if shapes else ()
