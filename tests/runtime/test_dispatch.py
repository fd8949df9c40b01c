"""One chunk hook on every backend: ``dispatch`` over ``run_chunk``.

A chunk- or collapse-planned ``DOALL`` hands each wavefront to the
backend's ``dispatch(state, desc, kind, spans, env, fuse)``, and every span
runs through ``run_chunk`` — inline on ``serial`` and ``vectorized``, on the
thread pool on ``threaded``, in the persistent forked workers on
``process``. On every backend and for both chunk kinds (``"span"`` from
``chunk``, ``"flat"`` from ``collapse``) these tests pin:

* the spans of a wavefront partition its iteration space, each run once
  (the ``process`` workers report through a queue they inherit at fork);
* element-evaluation statistics come back exactly once per element;
* window-debug runs — fault-on-overwrite tags armed — match the evaluator
  bit for bit on the paper workloads and at degenerate worker counts;
* a poisoned tag is caught on every dispatch path, so workers check the
  tags the parent stamped rather than a private copy;
* a failed wave on a pool joins every chunk before raising, and the same
  backend instance then serves the next run.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.core.paper import jacobi_analyzed
from repro.plan.planner import forced_plan, valid_strategies
from repro.runtime.backends import instantiate_backend
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.backends.process import _fork_available
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.plan.test_collapse import SCALE_SOURCE, _scale_args, _setup
from tests.runtime.test_kernels import WORKLOADS

ALL_BACKENDS = ["serial", "vectorized", "threaded", "process"]
POOL_BACKENDS = ["threaded", "process"]
#: the chunk kind each DOALL strategy hands to ``dispatch``
KIND_OF = {"chunk": "span", "collapse": "flat"}
#: the two-dimensional paper workloads, where both strategies apply once
#: the local arrays are windowed (no loop of ``dp`` chunks then, and
#: ``paths_int`` writes ``W[I, 0]`` for every ``I`` before its ``DO I``
#: reads them through a two-plane window, which the tags report whatever
#: the backend)
WINDOW_DEBUG_CASES = [
    ("jacobi", "chunk"), ("jacobi", "collapse"),
    ("gauss_seidel", "chunk"), ("gauss_seidel", "collapse"),
    ("hyperplane_gs", "chunk"), ("hyperplane_gs", "collapse"),
]
WORKLOAD_BY_NAME = {w[0]: w for w in WORKLOADS}


def _needs(backend):
    if backend == "process" and not _fork_available():
        pytest.skip("fork unavailable")


def _scalars(args):
    return {k: int(v) for k, v in args.items() if isinstance(v, int)}


def _forced_everywhere(analyzed, flow, backend, options, scalars, strategy):
    """``strategy`` on every outermost loop it applies to, ``chunk`` on the
    other outermost loops that chunk, the reference walk elsewhere."""
    overrides = {}

    def walk(path, descs):
        for i, d in enumerate(descs):
            p = path + (i,)
            if not isinstance(d, LoopDescriptor):
                continue
            valid = valid_strategies(analyzed, flow, d, options.use_windows)
            pick = strategy if strategy in valid else "chunk"
            if pick in valid:
                overrides[p] = pick
            else:
                walk(p, d.body)

    walk((), flow.descriptors)
    assert strategy in overrides.values()
    return forced_plan(
        analyzed, flow, backend, options, scalars,
        default="serial", overrides=overrides,
    )


def _scale_plan(backend, strategy, options, r=5, c=67):
    analyzed, flow, scalars = _setup(SCALE_SOURCE, r=r, c=c)
    plan = _forced_everywhere(analyzed, flow, backend, options, scalars, strategy)
    return analyzed, flow, plan, _scale_args(r, c)


def _scale_reference(analyzed, flow, args):
    return execute_module(
        analyzed, dict(args), flow,
        ExecutionOptions(backend="serial", kernel_tier="evaluator"),
    )["B"]


def _jacobi_debug_plan(backend, options, m, maxk, strategy="chunk"):
    """Jacobi with its sweep (the DOALL inside ``DO K``) forced onto
    ``strategy`` and the copy loops on the tag-checking reference walk."""
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    do_k = next(
        d for d in flow.descriptors
        if isinstance(d, LoopDescriptor) and not d.parallel
    )
    plan = forced_plan(
        analyzed, flow, backend, options, {"M": m, "maxK": maxk},
        default="serial", overrides={flow.path_of(do_k.body[0]): strategy},
    )
    return analyzed, flow, plan


def _jacobi_args(m, maxk, seed=0):
    rng = np.random.default_rng(seed)
    return {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}


def _recorder(backend):
    """A queue ``run_chunk`` can report to from wherever it runs — a
    process backend's workers inherit it at fork."""
    if backend.name == "process":
        return backend._ctx.SimpleQueue()
    return queue.SimpleQueue()


def _drain(q):
    out = []
    while not q.empty():
        out.append(q.get())
    return out


class TestOneHook:
    @pytest.mark.parametrize("strategy", ["chunk", "collapse"])
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_spans_partition_the_iteration_space(
        self, monkeypatch, backend_name, strategy
    ):
        """Every span of the wavefront reaches ``run_chunk`` once, with the
        strategy's kind, and together the spans cover the loop's range (the
        rows for ``chunk``, the flattened nest for ``collapse``) without
        overlap."""
        _needs(backend_name)
        r, c = 5, 67
        options = ExecutionOptions(
            backend=backend_name, workers=3, kernel_tier="numpy"
        )
        analyzed, flow, plan, args = _scale_plan(backend_name, strategy, options, r, c)
        backend = instantiate_backend(backend_name, workers=3)
        calls = _recorder(backend)
        original = ExecutionBackend.run_chunk

        def run_chunk(self, state, desc, kind, lo, hi, env, fuse):
            calls.put((kind, lo, hi))
            original(self, state, desc, kind, lo, hi, env, fuse)

        monkeypatch.setattr(ExecutionBackend, "run_chunk", run_chunk)
        try:
            out = execute_module(
                analyzed, dict(args), flow, options, plan=plan, backend=backend
            )
        finally:
            backend.close()
        seen = _drain(calls)
        assert {kind for kind, _, _ in seen} == {KIND_OF[strategy]}
        spans = sorted((lo, hi) for _, lo, hi in seen)
        assert len(spans) >= 2
        first, last = (1, r) if strategy == "chunk" else (0, r * c - 1)
        assert spans[0][0] == first and spans[-1][1] == last
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert lo == hi + 1
        assert np.array_equal(out["B"], _scale_reference(analyzed, flow, args))

    @pytest.mark.parametrize("strategy", ["chunk", "collapse"])
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_eval_counts_come_back_once(self, backend_name, strategy):
        """Each chunk counts on a private substate (in a worker process:
        its own copy) and ``dispatch`` merges the counts into the run's
        state: one evaluation per element, none lost or doubled."""
        _needs(backend_name)
        r, c = 5, 67
        options = ExecutionOptions(
            backend=backend_name, workers=3, kernel_tier="numpy"
        )
        analyzed, flow, plan, args = _scale_plan(backend_name, strategy, options, r, c)
        backend = instantiate_backend(backend_name, workers=3)
        states = []
        original = backend.run

        def run(state):
            states.append(state)
            original(state)

        backend.run = run
        try:
            execute_module(
                analyzed, dict(args), flow, options, plan=plan, backend=backend
            )
        finally:
            backend.close()
        (label,) = [eq.label for eq in analyzed.equations]
        assert states[0].eval_counts == {label: r * c}


class TestWindowDebugParity:
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "case", WINDOW_DEBUG_CASES, ids=[f"{w}-{s}" for w, s in WINDOW_DEBUG_CASES]
    )
    def test_forced_plan_matches_the_evaluator(self, case, backend_name):
        """Windowed storage with the fault-on-overwrite tags armed, every
        outermost loop that can go to the pool sent there: the tags the
        chunks stamp are the ones the later walks check, on every backend
        (on ``process`` they live in shared segments next to the data)."""
        _needs(backend_name)
        name, strategy = case
        _, analyzed, flow, args, out = WORKLOAD_BY_NAME[name]
        options = ExecutionOptions(
            backend=backend_name, workers=3,
            use_windows=True, debug_windows=True,
        )
        plan = _forced_everywhere(
            analyzed, flow, backend_name, options, _scalars(args), strategy
        )
        ref = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(
                backend="serial", use_windows=True, kernel_tier="evaluator"
            ),
        )
        got = execute_module(analyzed, dict(args), flow, options, plan=plan)
        if isinstance(ref[out], np.ndarray):
            assert np.array_equal(ref[out], got[out])
        else:
            assert ref[out] == got[out]

    @pytest.mark.parametrize("workers", [1, 2, 3, 6])
    @pytest.mark.parametrize("backend_name", POOL_BACKENDS)
    def test_degenerate_worker_counts(self, backend_name, workers):
        """One worker (no wave at all), uneven splits, and more workers
        than the sweep has rows: the tags stay consistent whatever the
        chunk shape."""
        _needs(backend_name)
        m, maxk = 2, 4
        options = ExecutionOptions(
            backend=backend_name, workers=workers,
            use_windows=True, debug_windows=True,
        )
        analyzed, flow, plan = _jacobi_debug_plan(backend_name, options, m, maxk)
        args = _jacobi_args(m, maxk, seed=workers)
        ref = execute_module(
            analyzed, dict(args),
            options=ExecutionOptions(backend="serial", use_windows=True),
        )
        got = execute_module(analyzed, dict(args), flow, options, plan=plan)
        assert np.array_equal(got["newA"], ref["newA"])

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_a_poisoned_tag_is_caught_in_the_chunk(self, backend_name):
        """A clean run first (on ``process`` it forks the pool, so the
        next run's arrays reach the workers by segment name). Then, before
        each wave, the parent marks every plane of ``A`` as overwritten:
        the collapsed sweep's per-element walk reads ``A[K-1]`` and must
        report the window violation — wherever the chunk runs. A worker
        with a private (or no) copy of the tags would compute on and miss
        it."""
        _needs(backend_name)
        m, maxk = 4, 4
        options = ExecutionOptions(
            backend=backend_name, workers=2,
            use_windows=True, debug_windows=True,
        )
        analyzed, flow, plan = _jacobi_debug_plan(
            backend_name, options, m, maxk, strategy="collapse"
        )
        args = _jacobi_args(m, maxk)
        ref = execute_module(
            analyzed, dict(args),
            options=ExecutionOptions(backend="serial", use_windows=True),
        )
        backend = instantiate_backend(backend_name, workers=2)
        waves = []
        poison = []
        original = backend.dispatch

        def dispatch(state, desc, kind, spans, env, fuse):
            waves.append(kind)
            if poison:
                state.data["A"].tags[...] = -1
            original(state, desc, kind, spans, env, fuse)

        backend.dispatch = dispatch
        try:
            out = execute_module(
                analyzed, dict(args), flow, options, plan=plan, backend=backend
            )
            assert np.array_equal(out["newA"], ref["newA"])
            poison.append(True)
            with pytest.raises(Exception, match="window violation"):
                execute_module(
                    analyzed, dict(args), flow, options, plan=plan, backend=backend
                )
        finally:
            backend.close()
        # one wave per K = 2 .. maxK, then the poisoned run's first wave
        assert waves == ["flat"] * (maxk - 1) + ["flat"]


class TestFailedWave:
    @pytest.mark.parametrize("strategy", ["chunk", "collapse"])
    @pytest.mark.parametrize("backend_name", POOL_BACKENDS)
    def test_joins_every_chunk_then_serves_the_next_run(
        self, monkeypatch, backend_name, strategy
    ):
        """While armed, chunk 0 fails at once and chunk 1 finishes 0.2 s
        later. The failure reaches the caller only after the sibling
        finished; the same instance then runs bit-equal to the evaluator —
        on ``process`` without forking a single new worker."""
        _needs(backend_name)
        options = ExecutionOptions(
            backend=backend_name, workers=2, kernel_tier="numpy"
        )
        analyzed, flow, plan, args = _scale_plan(backend_name, strategy, options)
        backend = instantiate_backend(backend_name, workers=2)
        sync = backend._ctx if backend_name == "process" else threading
        armed, sibling_done = sync.Event(), sync.Event()
        armed.set()
        first = {"span": 1, "flat": 0}
        original = ExecutionBackend.run_chunk

        def run_chunk(self, state, desc, kind, lo, hi, env, fuse):
            if armed.is_set():
                if lo == first[kind]:
                    raise RuntimeError("chunk 0 failed")
                time.sleep(0.2)
                sibling_done.set()
            original(self, state, desc, kind, lo, hi, env, fuse)

        monkeypatch.setattr(ExecutionBackend, "run_chunk", run_chunk)
        started = []
        if backend_name == "process":

            class CountingProcess(backend._ctx.Process):
                def start(self):
                    started.append(self)
                    super().start()

            monkeypatch.setattr(backend._ctx, "Process", CountingProcess)
        try:
            with pytest.raises(Exception, match="chunk 0 failed"):
                execute_module(
                    analyzed, dict(args), flow, options, plan=plan, backend=backend
                )
            assert sibling_done.is_set()
            armed.clear()
            out = execute_module(
                analyzed, dict(args), flow, options, plan=plan, backend=backend
            )
        finally:
            backend.close()
        assert np.array_equal(out["B"], _scale_reference(analyzed, flow, args))
        if backend_name == "process":
            assert len(started) == 2
