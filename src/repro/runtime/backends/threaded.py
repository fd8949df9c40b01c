"""Threaded backend: planned DOALL chunks on a thread pool.

The planner splits a chunk- or collapse-planned ``DOALL`` into balanced
contiguous chunks; each runs through :meth:`~repro.runtime.backends.base.
ExecutionBackend.run_chunk` on the pool — one call of the loop's own *C
kernel* over the chunk when the nest lowers to C (cffi's ABI mode releases
the GIL around the C invocation, so chunks genuinely overlap on a GIL
build), the vectorised NumPy path otherwise (NumPy kernels release the GIL
too, but the per-equation Python bookkeeping between them serialises —
unless the interpreter is a no-GIL build, where that Python-level work
overlaps as well). Chunk-safety
(scalar targets, atomic equations, window aliasing) is the planner's
concern: a DOALL this backend sees with a ``vector`` or ``serial`` plan
simply runs that strategy via the shared base dispatch.

Every wave on the pool — a ``chunk`` wavefront of spans, a ``collapse``
wavefront of flat chunks — ends in :meth:`ThreadedBackend._join`: all
tasks finish before the first failure is re-raised, so a failed run leaves
nothing of its own running on the session's persistent pool.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.runtime.backends.base import ExecutionBackend, ExecutionState
from repro.schedule.flowchart import LoopDescriptor


def free_threading_active() -> bool:
    """True when this interpreter is actually running without a GIL (a
    free-threaded CPython build with the GIL not re-enabled at runtime)."""
    try:
        return not sys._is_gil_enabled()
    except AttributeError:  # < 3.13: always GIL-ful
        return False


class ThreadedBackend(ExecutionBackend):
    name = "threaded"

    def __init__(self, workers: int | None = None):
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        # A session-owned backend may serve overlapping runs from several
        # request threads; pool creation must happen exactly once.
        self._pool_lock = threading.Lock()

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

    def dispatch(
        self,
        state: ExecutionState,
        desc: LoopDescriptor,
        strategy,
        spans: list[tuple[int, int]],
        env: dict[str, Any],
        fuse: bool,
    ) -> None:
        """One wavefront on the pool: a private substate per chunk, every
        chunk joined before the next descriptor runs, then the eval-count
        merge."""
        pool = self._ensure_pool()
        substates = [state.fork() for _ in spans]
        self._join([
            pool.submit(self.run_chunk, sub, desc, strategy, lo, hi, env, fuse)
            for sub, (lo, hi) in zip(substates, spans)
        ])
        for sub in substates:
            state.merge_counts(sub.eval_counts)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
