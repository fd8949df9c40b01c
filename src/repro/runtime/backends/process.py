"""Process backend: DOALL chunks on a persistent pool of forked workers
over shared memory.

:class:`ProcessBackend` (``"process"``) forks its workers once, at the first
chunk dispatch, and they inherit the interpreter state *and the warmed
kernel cache*; each wavefront then costs one task message and one result
message per chunk instead of a fork/exec/teardown. Every array a run
allocates or imports lives in a ``multiprocessing.shared_memory`` segment —
and so do the fault-on-overwrite tags of a window-debug run — and arrays
allocated (or rebound) after the fork are re-attached by name, so workers
always address the planes, and check the tags, the parent sees.

Fork is required (the child must inherit the interpreter state without
pickling). On spawn-only platforms (macOS's default, Windows) constructing
the backend raises a clear :class:`ExecutionError` naming the platform
limitation — silently degrading to in-process execution made an explicit
``--backend process`` a lie, and the old half-degraded state crashed later
in ``_ensure_pool`` with an ``AttributeError`` on the missing fork context.
The planner's ``backend="auto"`` never offers the process backend when
fork is unavailable. Result arrays are copied out before the shared
segments are unlinked.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.backends.base import ExecutionBackend, ExecutionState
from repro.runtime.backends.vectorized import VectorizedBackend
from repro.runtime.values import RuntimeArray
from repro.schedule.flowchart import LoopDescriptor


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def require_fork(backend_name: str) -> None:
    """Raise the canonical spawn-only-platform error for ``backend_name``.

    Shared by the backend constructor and the planner-facing helpers so an
    explicit ``--backend process`` fails the same readable way everywhere
    (instead of the historical silent degradation or an ``AttributeError``
    on the missing fork context)."""
    if not _fork_available():
        import sys

        raise ExecutionError(
            f"the {backend_name!r} backend requires the 'fork' start method, "
            f"which this platform ({sys.platform}) does not provide — "
            f"macOS and Windows default to 'spawn'; use --backend threaded, "
            f"or backend='auto' to let the planner pick a supported backend"
        )


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment the parent owns.

    On Python >= 3.13 ``track=False`` skips resource-tracker registration
    outright. Earlier versions register on attach — harmless here, because a
    forked worker shares the parent's tracker process and its name cache is
    a set: the attach re-adds the name the parent's create registered, and
    the parent's ``unlink`` removes it exactly once."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name)


class _Mapping:
    """The ``.base`` of every array over a shared segment: it holds the
    :class:`SharedMemory`, so the segment stays mapped exactly as long as
    some NumPy view of it is alive. A view made straight from ``shm.buf``
    takes no buffer export under NumPy 2, so dropping the ``SharedMemory``
    would unmap the segment under a live view."""

    def __init__(self, shm: shared_memory.SharedMemory, shape, dtype):
        self.shm = shm
        self.__array_interface__ = np.ndarray(
            shape, dtype=dtype, buffer=shm.buf
        ).__array_interface__


def _view(shm: shared_memory.SharedMemory, shape, dtype) -> np.ndarray:
    """A writable array over ``shm`` that keeps its mapping alive."""
    return np.asarray(_Mapping(shm, shape, dtype))


def _pool_worker(backend: ProcessBackend, state: ExecutionState, task_q, result_q):
    """Persistent-worker main loop (runs in the forked child).

    The child inherited the interpreter state — analyzed module, flowchart,
    compiled kernel cache, and every array allocated before the fork. Each
    task carries the *full* current sync state (scalar bindings plus the
    shared-memory table of array storage and tags — a few hundred bytes; the
    array contents themselves never travel) and the worker applies only the
    deltas: an array is re-attached by segment name exactly when its
    backing segments changed, i.e. it was allocated or rebound wholesale by
    an atomic equation after the fork. Tasks are load-balanced off one
    shared queue, so a worker may see none of a wavefront's tasks —
    per-task full state is what keeps a later task self-sufficient.
    """
    vec = VectorizedBackend(workers=1)
    #: array name -> (storage segment, tag segment) of the binding in use
    known: dict[str, tuple[str | None, str | None]] = {}
    for name, val in state.data.items():
        if isinstance(val, RuntimeArray):
            segs = backend.segments_of(val)
            if segs[0] is not None:
                known[name] = segs
    attached: dict[str, shared_memory.SharedMemory] = {}

    def view(seg: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        shm = attached.get(seg)
        if shm is None:
            shm = attached[seg] = _attach_shm(seg)
        return _view(shm, shape, dtype)

    while True:
        task = task_q.get()
        if task is None:
            break
        task_id, strategy, path, lo, hi, env, scalars, specs, fuse = task
        try:
            state.data.update(scalars)
            for name, (segs, shape, dtype, los, his, windows) in specs.items():
                if known.get(name) == segs:
                    continue
                seg, tag_seg = segs
                # A window-debug run's tags are shared too: a worker checks
                # and stamps the very tags the parent and its siblings read.
                tags = None if tag_seg is None else view(tag_seg, shape, np.int64)
                state.data[name] = RuntimeArray(
                    name, list(los), list(his),
                    view(seg, shape, np.dtype(dtype)), dict(windows), tags,
                )
                known[name] = segs
            # A persistent pool outlives the run that forked it: drop names
            # whose segments the parent has since unlinked (they are absent
            # from this task's full sync state) and the attachments no name
            # references any more — each unmaps with its last view — so
            # memory use stays bounded by the *current* run's arrays, not
            # the session's history.
            live = set()
            for name in list(known):
                if name in specs:
                    live.update(known[name])
                else:
                    known.pop(name)
                    state.data.pop(name, None)
            for seg in [s for s in attached if s not in live]:
                del attached[seg]
            desc = state.flowchart.descriptor_at(path)
            sub = state.fork()
            # Native kernels come from the pre-fork-warmed cache — pure
            # compiled work, no GIL shared with sibling workers.
            vec.run_chunk(sub, desc, strategy, lo, hi, env, fuse)
            result_q.put((task_id, "ok", sub.eval_counts))
        except BaseException as exc:  # broad by design — reported to the parent
            result_q.put((task_id, "error", f"{type(exc).__name__}: {exc}"))


class ProcessBackend(ExecutionBackend):
    """Persistent worker pool: fork once, stream subranges thereafter."""

    name = "process"
    serialize_runs = True

    def __init__(self, workers: int | None = None):
        super().__init__(workers)
        require_fork(self.name)
        self.store = None
        self._segments: list[shared_memory.SharedMemory] = []
        #: id(storage) -> (storage, segment name); the strong reference
        #: keeps the id stable for the backend's lifetime
        self._seg_by_storage: dict[int, tuple[np.ndarray, str]] = {}
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self._task_seq = 0
        self._path_cache: dict[int, tuple[int, ...]] = {}

    # -- storage -----------------------------------------------------------

    def make_storage(self, shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
        """A fresh shared-memory segment — zero pages, whatever ``zero`` says."""
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._segments.append(shm)
        arr = _view(shm, shape, dtype)
        self._seg_by_storage[id(arr)] = (arr, shm.name)
        return arr

    def import_array(self, array, dtype) -> np.ndarray:
        """One copy (converting on the way), straight into a segment the
        workers can attach."""
        storage = self.make_storage(np.shape(array), dtype, zero=False)
        storage[...] = array
        self.count("arg_bytes_converted", storage.nbytes)
        return storage

    def segment_name_for(self, storage: np.ndarray | None) -> str | None:
        entry = self._seg_by_storage.get(id(storage))
        if entry is not None and entry[0] is storage:
            return entry[1]
        return None

    def segments_of(self, array: RuntimeArray) -> tuple[str | None, str | None]:
        """The segments behind ``array``'s storage and its debug tags."""
        return self.segment_name_for(array.storage), self.segment_name_for(array.tags)

    def export_result(self, array: np.ndarray) -> np.ndarray:
        # Results must outlive the shared segments backing them.
        return np.array(array)

    def end_run(self) -> None:
        """Unlink this run's shared segments (results were exported as
        copies already). Only the names go: a segment stays mapped while
        any view of it lives — a failed run's traceback may still hold
        some — and unmaps with the last one. Pool workers that attached
        the segments drop their stale attachments on the next task's sync
        (see :func:`_pool_worker`), so a persistent backend does not
        accumulate segments across runs."""
        for shm in self._segments:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
        self._seg_by_storage.clear()

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self, state: ExecutionState) -> None:
        if self._procs:
            return
        # Compile every kernel in the parent before forking: workers receive
        # the full cache once, at startup, and never compile anything —
        # native shared objects are dlopened here, so forked workers inherit
        # the loaded libraries without touching the compiler.
        if state.kernels is not None:
            state.kernels.warm(
                state.options.use_windows,
                tier=getattr(state.options, "kernel_tier", "native"),
            )
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        for _ in range(self.workers):
            p = self._ctx.Process(
                target=_pool_worker,
                args=(self, state, self._task_q, self._result_q),
                daemon=True,
            )
            p.start()
            self._procs.append(p)

    def _array_specs(self, state: ExecutionState) -> dict[str, tuple]:
        specs: dict[str, tuple] = {}
        for name, val in state.data.items():
            if not isinstance(val, RuntimeArray):
                continue
            segs = self.segments_of(val)
            if segs[0] is not None:
                specs[name] = (
                    segs,
                    val.storage.shape,
                    val.storage.dtype.str,
                    tuple(val.los),
                    tuple(val.his),
                    dict(val.windows),
                )
        return specs

    def _path_for(self, state: ExecutionState, desc: LoopDescriptor):
        path = self._path_cache.get(id(desc))
        if path is None:
            path = state.flowchart.path_of(desc)
            if path is None:
                raise ExecutionError(
                    f"descriptor for DOALL {desc.index} is not part of the "
                    f"executing flowchart"
                )
            self._path_cache[id(desc)] = path
        return path

    # -- dispatch ----------------------------------------------------------

    def dispatch(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        strategy,
        spans: list[tuple[int, int]],
        env: dict[str, Any],
        fuse: bool,
    ) -> None:
        self._ensure_pool(state)
        path = self._path_for(state, desc)
        scalars = {
            k: v
            for k, v in state.data.items()
            if not isinstance(v, RuntimeArray)
        }
        specs = self._array_specs(state)
        batch: set[int] = set()
        for clo, chi in spans:
            task_id = self._task_seq
            self._task_seq += 1
            batch.add(task_id)
            self._task_q.put(
                (task_id, strategy, path, clo, chi, env, scalars, specs, fuse)
            )
        # The barrier: every chunk of the wavefront completes (or fails)
        # before the next descriptor runs.
        failures: list[str] = []
        remaining = set(batch)
        while remaining:
            try:
                task_id, status, payload = self._result_q.get(timeout=0.1)
            except queue_mod.Empty:
                if any(p.exitcode is not None for p in self._procs):
                    codes = [p.exitcode for p in self._procs]
                    raise ExecutionError(
                        f"DOALL {desc.index} pool worker died "
                        f"(exit codes {codes})"
                    ) from None
                continue
            if task_id not in remaining:
                continue  # stray result from an aborted batch
            remaining.discard(task_id)
            if status == "ok":
                state.merge_counts(payload)
            else:
                failures.append(payload)
        if failures:
            raise ExecutionError(
                f"DOALL {desc.index} worker failed: " + "; ".join(failures)
            )

    def close(self) -> None:
        if self._procs:
            for _ in self._procs:
                try:
                    self._task_q.put(None)
                except Exception:
                    pass
            for p in self._procs:
                p.join(timeout=5)
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1)
            self._procs = []
            for q in (self._task_q, self._result_q):
                if q is not None:
                    q.close()
                    q.cancel_join_thread()
            self._task_q = None
            self._result_q = None
        self._path_cache.clear()
        self.end_run()
