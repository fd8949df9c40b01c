"""Inner-DOALL chunking: a DOALL whose trip count is below the worker
count must not leave workers idle — the planner hands the team to a
chunk-safe inner DOALL (outer ``iterate``, inner ``chunk``), the waste the
backends could never fix at loop entry on their own."""

import numpy as np
import pytest

from repro.plan.planner import build_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module

#: a tall-skinny elementwise grid: a handful of rows, thousands of columns
SCALE_SOURCE = """\
Scale: module (A: array[1 .. r, 1 .. c] of real; r: int; c: int):
       [B: array[1 .. r, 1 .. c] of real];
type
    I = 1 .. r; J = 1 .. c;
define
    B[I, J] = A[I, J] * 2.0 + 1.0;
end Scale;
"""


def _setup(rows, cols):
    analyzed = analyze_module(parse_module(SCALE_SOURCE))
    flow = schedule_module(analyzed)
    rng = np.random.default_rng(13)
    args = {"A": rng.random((rows, cols)), "r": rows, "c": cols}
    return analyzed, flow, args


def _outer_inner(plan):
    loops = [lp for lp in plan.loops.values() if lp.keyword == "DOALL"]
    outer = min(loops, key=lambda lp: len(lp.path))
    inner = max(loops, key=lambda lp: len(lp.path))
    return outer, inner


class TestTallSkinnyGrid:
    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_planner_collapses_the_nest(self, backend):
        """A 4-row grid cannot keep 8 workers busy chunking on rows; with
        a collapse-safe fusable chain the planner now flattens the whole
        nest into one chunked iteration space (PR 4) instead of iterating
        the outer DOALL (PR 3)."""
        analyzed, flow, args = _setup(4, 4096)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend=backend, workers=8),
            {"r": 4, "c": 4096}, cpu_count=8,
        )
        outer, inner = _outer_inner(plan)
        assert outer.strategy == "collapse"
        assert outer.parts == 8
        assert outer.collapse_depth == 2
        assert outer.flat_trip == 4 * 4096
        assert "trip 4 < 8 workers" in outer.reason
        assert inner.strategy == "collapse"

    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_no_collapse_restores_iterate(self, backend):
        """--no-collapse is the escape hatch back to the PR 3 plan: the
        outer DOALL iterates and the inner DOALL takes the team."""
        analyzed, flow, args = _setup(4, 4096)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend=backend, workers=8, use_collapse=False),
            {"r": 4, "c": 4096}, cpu_count=8,
        )
        outer, inner = _outer_inner(plan)
        assert outer.strategy == "iterate"
        assert outer.chunk_index == inner.index
        assert "trip 4 < 8 workers" in outer.reason
        assert inner.strategy == "chunk"
        assert inner.parts == 8

    def test_wide_outer_still_chunks_outer(self):
        analyzed, flow, args = _setup(64, 64)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="threaded", workers=8),
            {"r": 64, "c": 64}, cpu_count=8,
        )
        outer, inner = _outer_inner(plan)
        assert outer.strategy == "chunk"
        assert outer.parts == 8
        assert inner.strategy == "vector"

    def test_small_inner_does_not_iterate(self):
        """With a short inner loop there is nothing to win by iterating the
        outer DOALL one row at a time — chunk what trip there is."""
        analyzed, flow, args = _setup(4, 8)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="threaded", workers=8),
            {"r": 4, "c": 8}, cpu_count=8,
        )
        outer, _ = _outer_inner(plan)
        assert outer.strategy == "chunk"
        assert outer.parts == 4

    @pytest.mark.usefixtures("pinned_host")
    def test_inner_chunked_execution_is_exact(self):
        analyzed, flow, args = _setup(4, 4096)
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        out = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="threaded", workers=8),
        )["B"]
        assert np.array_equal(out, expected)

    @pytest.mark.usefixtures("pinned_host")
    def test_inner_chunking_distributes_all_elements(self):
        """Eval counts survive the iterate+chunk path: every element is
        computed exactly once."""
        from repro.runtime.backends import BACKENDS
        from repro.runtime.backends.base import ExecutionState
        from repro.runtime.evaluator import Evaluator
        from repro.runtime.kernels import KernelCache
        from repro.runtime.values import RuntimeArray

        analyzed, flow, args = _setup(4, 512)
        options = ExecutionOptions(backend="threaded", workers=8)
        data = {
            "r": 4, "c": 512,
            "A": RuntimeArray.from_numpy(
                "A", np.asarray(args["A"]), [(1, 4), (1, 512)]
            ),
        }
        state = ExecutionState(
            analyzed, flow, options, data, Evaluator(data),
            kernels=KernelCache(analyzed, flow),
        )
        backend = BACKENDS["threaded"](workers=8)
        try:
            backend.run(state)
        finally:
            backend.close()
        assert state.eval_counts == {"eq.1": 4 * 512}


class TestJacobiKeepsOuterChunking:
    def test_wide_jacobi_unaffected(self):
        from repro.core.paper import jacobi_analyzed

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="threaded", workers=4),
            {"M": 62, "maxK": 4}, cpu_count=4,
        )
        strategies = dict(plan.strategies())
        # 64 rows >> 4 workers: the outer DOALL keeps the team.
        assert strategies["I"] == "chunk"
