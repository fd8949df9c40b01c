"""Threaded backend: planned DOALL chunks on a thread pool.

The planner splits a chunk- or collapse-planned ``DOALL`` into balanced
contiguous chunks; each runs through :meth:`~repro.runtime.backends.base.
ExecutionBackend.run_chunk` on the pool — the *native span kernel* when the
span lowers to C (cffi's ABI mode releases the GIL around the C invocation,
so chunks genuinely overlap on a GIL build), the vectorised NumPy path
otherwise (NumPy kernels release the GIL too, but the per-equation Python
bookkeeping between them serialises — unless the interpreter is a no-GIL
build, where that Python-level work overlaps as well). Chunk-safety
(scalar targets, atomic equations, window aliasing) is the planner's
concern: a DOALL this backend sees with a ``vector`` or ``serial`` plan
simply runs that strategy via the shared base dispatch.

Every wave on the pool — chunk and flat wavefronts, the pipeline's stage
tasks — ends in :meth:`ThreadedBackend._join`: all tasks finish before the
first failure is re-raised, so a failed run leaves nothing of its own
running on the session's persistent pool.
"""

from __future__ import annotations

import heapq
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.runtime.backends.base import ExecutionBackend, ExecutionState
from repro.runtime.values import eval_bound
from repro.schedule.flowchart import Descriptor, LoopDescriptor

#: how many blocks a stage may run ahead of its downstream neighbour — the
#: bounded hand-off buffer of the decoupled pipeline (small enough to keep
#: the working set of in-flight blocks cache-warm, large enough to absorb
#: per-block jitter between stages)
PIPELINE_LEAD = 8


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
        kind: str,
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
            pool.submit(self.run_chunk, sub, desc, kind, lo, hi, env, fuse)
            for sub, (lo, hi) in zip(substates, spans)
        ])
        for sub in substates:
            state.merge_counts(sub.eval_counts)

    def exec_pipeline_group(
        self,
        state: ExecutionState,
        descs: list[Descriptor],
        plan: Any,
        env: dict[str, Any],
    ) -> None:
        """The decoupled pipeline engine: one long-lived pool task per
        stage worker, hand-offs through per-stage *done frontiers* on a
        shared condition variable.

        The group's iteration range is cut into blocks of the planned
        ``queue_depth``. Stage ``k`` may run block ``b`` once its upstream
        neighbour has *completed* ``b`` (``done[k-1] > b``) — block
        boundaries are the only synchronisation points, and the planner
        admits only groups whose inter-loop reads are satisfied at or
        before the producing row, so a completed upstream block covers
        every read of the same block downstream. A stage may run at most
        :data:`PIPELINE_LEAD` blocks ahead of its downstream neighbour
        (the bounded hand-off buffer). Sequential stages hold one worker
        and take blocks strictly in order; replicated stages hold
        ``StagePlan.workers`` workers claiming successive ready blocks,
        with a heap-merged completion frontier so ``done`` only ever
        advances contiguously.

        Failure is all-or-nothing: the first exception poisons the group —
        every waiter wakes, drains, and exits — and is re-raised to the
        caller after all stage tasks have been joined, leaving the pool
        usable. The planner guarantees the total worker count fits the
        pool; anything that doesn't falls back to the base in-order walk."""
        stages = plan.stages
        n_stages = len(stages)
        tasks_needed = sum(
            1 if s.kind == "sequential" else max(1, s.workers) for s in stages
        )
        scalar_env = state.scalar_env()
        head = descs[0]
        assert isinstance(head, LoopDescriptor)
        lo = eval_bound(head.subrange.lo, scalar_env)
        hi = eval_bound(head.subrange.hi, scalar_env)
        if hi < lo:
            return
        block = max(1, int(plan.queue_depth or 1))
        nblocks = (hi - lo + block) // block
        if n_stages < 2 or nblocks < 2 or tasks_needed > self.workers:
            # Nothing to decouple (or the plan outgrew this pool — only
            # possible for hand-built plans): the in-order reference walk.
            super().exec_pipeline_group(state, descs, plan, env)
            return
        spans = [
            (lo + b * block, min(hi, lo + (b + 1) * block - 1))
            for b in range(nblocks)
        ]
        for desc in descs:
            assert isinstance(desc, LoopDescriptor)
            for eq in desc.nested_equations():
                self.ensure_targets(state, eq)

        cond = threading.Condition()
        claim = [0] * n_stages  # next block index each stage hands out
        done = [0] * n_stages  # contiguously completed block count
        finished: list[list[int]] = [[] for _ in range(n_stages)]
        failure: list[BaseException] = []
        last = n_stages - 1

        def stage_worker(k: int, sub: ExecutionState) -> None:
            try:
                while True:
                    with cond:
                        while True:
                            if failure:
                                return
                            b = claim[k]
                            if b >= nblocks:
                                return
                            if (k == 0 or done[k - 1] > b) and (
                                k == last or b < done[k + 1] + PIPELINE_LEAD
                            ):
                                claim[k] = b + 1
                                break
                            cond.wait()
                    blo, bhi = spans[b]
                    for m in stages[k].members:
                        member = descs[m]
                        if member.parallel:
                            self.exec_rep_block(sub, member, blo, bhi, env)
                        else:
                            self.exec_seq_block(sub, member, blo, bhi, env)
                    with cond:
                        heapq.heappush(finished[k], b)
                        while finished[k] and finished[k][0] == done[k]:
                            heapq.heappop(finished[k])
                            done[k] += 1
                        cond.notify_all()
            except BaseException as exc:  # poison the group, then unwind
                with cond:
                    if not failure:
                        failure.append(exc)
                    cond.notify_all()

        pool = self._ensure_pool()
        substates: list[ExecutionState] = []
        futures = []
        for k, stage in enumerate(stages):
            n_workers = 1 if stage.kind == "sequential" else max(1, stage.workers)
            for _ in range(n_workers):
                sub = state.fork()
                substates.append(sub)
                futures.append(pool.submit(stage_worker, k, sub))
        self._join(futures)  # workers trap their own exceptions
        if failure:
            raise failure[0]
        for sub in substates:
            state.merge_counts(sub.eval_counts)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
