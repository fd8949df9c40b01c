"""The decoupled pipeline engine: bit-exactness against the reference
evaluator, the inline fallback on backends without the engine, and the
all-or-nothing failure protocol (poisoned queues unwind with the original
exception and leave the pool usable)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recurrences import (
    RECURRENCE_WORKLOADS,
    coupled_analyzed,
    coupled_args,
    scan_analyzed,
    scan_args,
)
from repro.runtime.backends.threaded import ThreadedBackend
from repro.runtime.executor import ExecutionOptions, execute_module

#: the workloads that still pipeline with window debugging on (it turns the
#: kernels off, and the single-loop recurrences pipeline only as a compiled
#: nest)
DEBUG_PIPELINED = [w for w in RECURRENCE_WORKLOADS
                   if w[0] in ("scan", "coupled", "line_sweep")]


def _reference(analyzed, args, out):
    res = execute_module(
        analyzed, args,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )
    return np.asarray(res[out])


class TestPipelineParity:
    @pytest.mark.parametrize(
        "workload", RECURRENCE_WORKLOADS, ids=[w[0] for w in RECURRENCE_WORKLOADS]
    )
    @pytest.mark.parametrize("backend", ["threaded"])
    @pytest.mark.parametrize("use_windows", [False, True], ids=["flat", "win"])
    def test_forced_pipeline_bit_exact(self, workload, backend, use_windows):
        name, analyzed_fn, args_fn, out = workload
        analyzed = analyzed_fn()
        args = args_fn()
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend=backend, workers=4, strategy="pipeline",
                use_windows=use_windows,
            ),
        )
        assert np.array_equal(
            np.asarray(res[out]), _reference(analyzed, args, out)
        )

    @pytest.mark.parametrize(
        "workload", DEBUG_PIPELINED, ids=[w[0] for w in DEBUG_PIPELINED]
    )
    def test_forced_pipeline_window_debug_bit_exact(self, workload):
        # Fault-on-overwrite tags armed: the stage tasks stamp and check
        # them concurrently, block by block, and no read finds a plane a
        # downstream stage still needed overwritten.
        from repro.plan.planner import build_plan
        from repro.schedule.scheduler import schedule_module

        name, analyzed_fn, args_fn, out = workload
        analyzed = analyzed_fn()
        flow = schedule_module(analyzed)
        args = args_fn()
        options = ExecutionOptions(
            backend="threaded", workers=4, strategy="pipeline",
            use_windows=True, debug_windows=True,
        )
        plan = build_plan(
            analyzed, flow, options,
            {k: int(v) for k, v in args.items() if isinstance(v, int)},
        )
        assert any(s == "pipeline" for _, s in plan.strategies())
        # Without kernels a sequential stage walks its body on the pool
        # worker: a loop in there that chunked would wait for the pool
        # it is running on.
        staged = [p for p, lp in plan.loops.items() if lp.strategy == "pipeline"]
        for path, lp in plan.loops.items():
            if any(len(path) > len(p) and path[: len(p)] == p for p in staged):
                assert lp.strategy not in ("chunk", "collapse"), path
        res = execute_module(analyzed, args, flow, options, plan=plan)
        assert np.array_equal(
            np.asarray(res[out]), _reference(analyzed, args, out)
        )

    @pytest.mark.parametrize(
        "workload", RECURRENCE_WORKLOADS, ids=[w[0] for w in RECURRENCE_WORKLOADS]
    )
    def test_auto_threaded_bit_exact(self, workload):
        # No force: whatever the pricing decides (line_sweep pipelines on
        # merit, the others stay undecoupled) must match the reference.
        name, analyzed_fn, args_fn, out = workload
        analyzed = analyzed_fn()
        args = args_fn()
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(backend="threaded", workers=4),
        )
        assert np.array_equal(
            np.asarray(res[out]), _reference(analyzed, args, out)
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_inline_fallback_backends_bit_exact(self, backend):
        # Backends without the decoupled engine run a forced pipeline plan
        # through the base in-order walk — same answers, no pool.
        if backend == "process":
            from repro.runtime.backends.process import _fork_available

            if not _fork_available():
                pytest.skip("fork unavailable")
        analyzed = coupled_analyzed()
        args = coupled_args()
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend=backend, workers=4, strategy="pipeline"
            ),
        )
        assert np.array_equal(
            np.asarray(res["R"]), _reference(analyzed, args, "R")
        )

    def test_eval_counts_survive_the_stage_merge(self):
        # Every stage worker runs on a forked substate; the engine must
        # merge their element-evaluation statistics back exactly once.
        from repro.runtime.backends.base import ExecutionState
        from repro.runtime.evaluator import Evaluator
        from repro.runtime.values import RuntimeArray
        from repro.schedule.scheduler import schedule_module

        analyzed = scan_analyzed()
        flowchart = schedule_module(analyzed)
        args = scan_args(n=64)
        data = {
            "n": 64,
            "a": args["a"],
            "X": RuntimeArray.from_numpy("X", np.asarray(args["X"]), [(1, 64)]),
        }
        options = ExecutionOptions(backend="threaded", workers=4,
                                   strategy="pipeline")
        state = ExecutionState(
            analyzed, flowchart, options, data, Evaluator(data)
        )
        backend = ThreadedBackend(workers=4)
        try:
            backend.run(state)
        finally:
            backend.close()
        assert state.eval_counts["eq.2"] == 64  # the sequential stage
        assert state.eval_counts["eq.3"] == 64  # the replicated stage

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_forced_pipeline_bit_exact(self, n, seed):
        # Any size (including trips below one block, and trips that leave
        # a ragged final block) and any input data: the decoupled engine
        # computes exactly what the scalar reference evaluator computes.
        analyzed = scan_analyzed()
        args = scan_args(n=n, seed=seed)
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend="threaded", workers=4, strategy="pipeline"
            ),
        )
        assert np.array_equal(
            np.asarray(res["Y"]), _reference(analyzed, args, "Y")
        )


class _ExplodingBackend(ThreadedBackend):
    """Raises inside a replicated-stage block mid-run — after at least one
    upstream block has been handed off — exactly once."""

    name = "threaded"

    def __init__(self, workers=None):
        super().__init__(workers)
        self.armed = True

    def exec_rep_block(self, state, desc, lo, hi, env):
        if self.armed and lo > 0:
            self.armed = False
            raise RuntimeError("stage exploded mid-run")
        super().exec_rep_block(state, desc, lo, hi, env)


class TestPipelinePoison:
    def test_stage_failure_unwinds_with_original_exception(self):
        analyzed = coupled_analyzed()
        args = coupled_args()
        opts = ExecutionOptions(backend="threaded", workers=4,
                                strategy="pipeline")
        backend = _ExplodingBackend(workers=4)
        try:
            with pytest.raises(RuntimeError, match="stage exploded mid-run"):
                execute_module(analyzed, args, options=opts, backend=backend)

            # The poison drained every stage; the same pool instance must
            # run the next execution cleanly, bit-exact.
            res = execute_module(analyzed, args, options=opts, backend=backend)
            assert np.array_equal(
                np.asarray(res["R"]), _reference(analyzed, args, "R")
            )
        finally:
            backend.close()
