"""One chunk hook under every plan label: ``dispatch`` over ``run_chunk``.

A chunk-planned ``DOALL`` hands each wavefront to the engine's
``dispatch(state, desc, strategy, spans, env, fuse)``, and every span runs
through ``ChunkStrategy.run_chunk`` — inline under a ``serial`` or
``vectorized`` plan, on the engine's thread pool under a ``threaded`` one.
Under every label and for both placements of the chunks (``chunk``: the
outermost ``DOALL`` divides, one wavefront; ``inner-chunk``: the outer
``DOALL`` walks and the ``DOALL`` inside it divides, one wavefront per
outer iteration — what a nest whose outer trip is below the team runs)
these tests pin:

* the spans of a wavefront partition its iteration space, each run once;
* element-evaluation statistics come back exactly once per element;
* window-debug runs — fault-on-overwrite tags armed — match the evaluator
  bit for bit on the paper workloads and at degenerate worker counts;
* a poisoned tag is caught on every dispatch path, so workers check the
  tags the caller stamped;
* a failed wave on a pool joins every chunk before raising, and the same
  engine then serves the next run.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.core.paper import jacobi_analyzed
from repro.plan.planner import forced_plan, valid_strategies
from repro.plan.strategy import ChunkStrategy
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernels import WORKLOADS

ALL_BACKENDS = ["serial", "vectorized", "threaded"]
#: where the forced chunks go: the outermost ``DOALL`` that chunks, or the
#: innermost one under outer ``DOALL`` s left on the walk
PLACEMENTS = ["chunk", "inner-chunk"]
#: the two-dimensional paper workloads, chunked at both placements, plus
#: ``paths_int``: it writes ``W[I, 0]`` for every ``I`` before its ``DO I``,
#: so ``W`` plans unwindowed and its boundary sweep chunks (no loop of
#: ``dp`` chunks in window mode)
WINDOW_DEBUG_CASES = [
    ("jacobi", "chunk"), ("jacobi", "inner-chunk"),
    ("gauss_seidel", "chunk"), ("gauss_seidel", "inner-chunk"),
    ("hyperplane_gs", "chunk"), ("hyperplane_gs", "inner-chunk"),
    ("paths_int", "chunk"),
]
WORKLOAD_BY_NAME = {w[0]: w for w in WORKLOADS}

SCALE_SOURCE = """\
Scale: module (A: array[1 .. r, 1 .. c] of real; r: int; c: int):
       [B: array[1 .. r, 1 .. c] of real];
type
    I = 1 .. r; J = 1 .. c;
define
    B[I, J] = A[I, J] * 2.0 + 1.0;
end Scale;
"""


def _setup(source, **scalars):
    analyzed = analyze_module(parse_module(source))
    flow = schedule_module(analyzed)
    return analyzed, flow, scalars


def _scale_args(rows, cols, seed=3):
    rng = np.random.default_rng(seed)
    return {"A": rng.random((rows, cols)), "r": rows, "c": cols}


def _scalars(args):
    return {k: int(v) for k, v in args.items() if isinstance(v, int)}


def _forced_everywhere(analyzed, flow, backend, options, scalars, placement):
    """``chunk`` on every outermost loop it applies to — or, at placement
    ``inner-chunk``, on the innermost: a loop that chunks but holds a
    ``DOALL`` that chunks too stays on the walk — and the reference walk
    elsewhere."""
    overrides = {}

    def chunks(d):
        return isinstance(d, LoopDescriptor) and "chunk" in valid_strategies(
            analyzed, flow, d, options.use_windows
        )

    def walk(path, descs):
        for i, d in enumerate(descs):
            p = path + (i,)
            if not isinstance(d, LoopDescriptor):
                continue
            inner = placement == "inner-chunk" and any(map(chunks, d.body))
            if chunks(d) and not inner:
                overrides[p] = "chunk"
            else:
                walk(p, d.body)

    walk((), flow.descriptors)
    assert overrides
    if placement == "inner-chunk":
        assert any(len(p) > 1 for p in overrides)
    return forced_plan(
        analyzed, flow, backend, options, scalars,
        default="serial", overrides=overrides,
    )


def _scale_plan(backend, placement, options, r=5, c=67):
    analyzed, flow, scalars = _setup(SCALE_SOURCE, r=r, c=c)
    plan = _forced_everywhere(analyzed, flow, backend, options, scalars, placement)
    return analyzed, flow, plan, _scale_args(r, c)


def _scale_reference(analyzed, flow, args):
    return execute_module(
        analyzed, dict(args), flow,
        ExecutionOptions(backend="serial", use_kernels=False),
    )["B"]


def _jacobi_debug_plan(backend, options, m, maxk):
    """Jacobi with its sweep (the DOALL inside ``DO K``) forced onto
    ``chunk`` and the copy loops on the tag-checking reference walk."""
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    do_k = next(
        d for d in flow.descriptors
        if isinstance(d, LoopDescriptor) and not d.parallel
    )
    plan = forced_plan(
        analyzed, flow, backend, options, {"M": m, "maxK": maxk},
        default="serial", overrides={flow.path_of(do_k.body[0]): "chunk"},
    )
    return analyzed, flow, plan


def _jacobi_args(m, maxk, seed=0):
    rng = np.random.default_rng(seed)
    return {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}


def _drain(q):
    out = []
    while not q.empty():
        out.append(q.get())
    return out


class TestOneHook:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_spans_partition_the_iteration_space(
        self, monkeypatch, backend_name, placement
    ):
        """Every span of a wavefront reaches ``ChunkStrategy.run_chunk``
        once, and together a wavefront's spans cover the chunked loop's
        range (the rows for ``chunk``; the columns, once per row, for
        ``inner-chunk``) without overlap."""
        r, c = 5, 67
        options = ExecutionOptions(
            backend=backend_name, workers=3, kernel_tier="numpy"
        )
        analyzed, flow, plan, args = _scale_plan(backend_name, placement, options, r, c)
        backend = ExecutionBackend(workers=3)
        calls = queue.SimpleQueue()
        original = ChunkStrategy.run_chunk

        def run_chunk(self, backend, state, desc, lo, hi, env, fuse):
            calls.put((desc.index, lo, hi))
            original(self, backend, state, desc, lo, hi, env, fuse)

        monkeypatch.setattr(ChunkStrategy, "run_chunk", run_chunk)
        try:
            out = execute_module(
                analyzed, dict(args), flow, options, plan=plan, backend=backend
            )
        finally:
            backend.close()
        seen = _drain(calls)
        index, waves, last = ("I", 1, r) if placement == "chunk" else ("J", r, c)
        assert {i for i, _, _ in seen} == {index}
        spans = sorted({(lo, hi) for _, lo, hi in seen})
        assert len(spans) >= 2
        assert len(seen) == waves * len(spans)
        assert spans[0][0] == 1 and spans[-1][1] == last
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert lo == hi + 1
        assert np.array_equal(out["B"], _scale_reference(analyzed, flow, args))

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_eval_counts_come_back_once(self, backend_name, placement):
        """Each chunk counts on a private substate and ``dispatch`` merges the counts into the run's
        state: one evaluation per element, none lost or doubled."""
        r, c = 5, 67
        options = ExecutionOptions(
            backend=backend_name, workers=3, kernel_tier="numpy"
        )
        analyzed, flow, plan, args = _scale_plan(backend_name, placement, options, r, c)
        backend = ExecutionBackend(workers=3)
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
        chunks stamp are the ones the later walks check, on every
        backend."""
        name, placement = case
        _, analyzed, flow, args, out = WORKLOAD_BY_NAME[name]
        if name == "paths_int":
            assert not flow.window_of("W") and "W" in flow.window_refusals
        options = ExecutionOptions(
            backend=backend_name, workers=3,
            use_windows=True, debug_windows=True,
        )
        plan = _forced_everywhere(
            analyzed, flow, backend_name, options, _scalars(args), placement
        )
        ref = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(
                backend="serial", use_windows=True, use_kernels=False
            ),
        )
        got = execute_module(analyzed, dict(args), flow, options, plan=plan)
        if isinstance(ref[out], np.ndarray):
            assert np.array_equal(ref[out], got[out])
        else:
            assert ref[out] == got[out]

    @pytest.mark.parametrize("workers", [1, 2, 3, 6])
    def test_degenerate_worker_counts(self, workers):
        """One worker (no wave at all), uneven splits, and more workers
        than the sweep has rows: the tags stay consistent whatever the
        chunk shape of the threaded pool."""
        m, maxk = 2, 4
        options = ExecutionOptions(
            backend="threaded", workers=workers,
            use_windows=True, debug_windows=True,
        )
        analyzed, flow, plan = _jacobi_debug_plan("threaded", options, m, maxk)
        args = _jacobi_args(m, maxk, seed=workers)
        ref = execute_module(
            analyzed, dict(args),
            options=ExecutionOptions(backend="serial", use_windows=True),
        )
        got = execute_module(analyzed, dict(args), flow, options, plan=plan)
        assert np.array_equal(got["newA"], ref["newA"])

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_a_poisoned_tag_is_caught_in_the_chunk(self, backend_name):
        """A clean run first; then, before each wave, the caller marks every
        plane of ``A`` as overwritten: under ``debug_windows`` each chunk of
        the sweep walks its elements, reads ``A[K-1]`` under the boundary
        ``if`` and must report the window violation — wherever the chunk
        runs."""
        m, maxk = 4, 4
        options = ExecutionOptions(
            backend=backend_name, workers=2,
            use_windows=True, debug_windows=True,
        )
        analyzed, flow, plan = _jacobi_debug_plan(backend_name, options, m, maxk)
        args = _jacobi_args(m, maxk)
        ref = execute_module(
            analyzed, dict(args),
            options=ExecutionOptions(backend="serial", use_windows=True),
        )
        backend = ExecutionBackend(workers=2)
        waves = []
        poison = []
        original = backend.dispatch

        def dispatch(state, desc, strategy, spans, env, fuse):
            waves.append(strategy.name)
            if poison:
                state.data["A"].tags[...] = -1
            original(state, desc, strategy, spans, env, fuse)

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
        assert waves == ["chunk"] * (maxk - 1) + ["chunk"]


class TestFailedWave:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_joins_every_chunk_then_serves_the_next_run(self, monkeypatch, placement):
        """While armed, chunk 0 fails at once and chunk 1 finishes 0.2 s
        later. The failure reaches the caller only after the sibling
        finished; the same threaded pool then runs bit-equal to the
        evaluator."""
        options = ExecutionOptions(backend="threaded", workers=2, kernel_tier="numpy")
        analyzed, flow, plan, args = _scale_plan("threaded", placement, options)
        backend = ExecutionBackend(workers=2)
        armed, sibling_done = threading.Event(), threading.Event()
        armed.set()
        original = ChunkStrategy.run_chunk

        def run_chunk(self, backend, state, desc, lo, hi, env, fuse):
            if armed.is_set():
                if lo == 1:
                    raise RuntimeError("chunk 0 failed")
                time.sleep(0.2)
                sibling_done.set()
            original(self, backend, state, desc, lo, hi, env, fuse)

        monkeypatch.setattr(ChunkStrategy, "run_chunk", run_chunk)
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
