"""Planner edge cases surfaced by review: GIL-aware process selection,
in-process callee plans, plan re-binding, and auto always being measurable."""

import numpy as np
import pytest

from repro.core.paper import jacobi_analyzed
from repro.plan.planner import build_plan
from repro.ps.parser import parse_program
from repro.ps.semantics import analyze_program
from repro.runtime.executor import ExecutionOptions, execute_program_module
from repro.schedule.scheduler import schedule_module

CALL_PROGRAM_SOURCE = """\
Scale: module (x: real): [y: real]; define y = x * 2.0; end Scale;
Use: module (A: array[1 .. n] of real; n: int): [B: array[1 .. n] of real];
type I = 1 .. n;
define B[I] = Scale(A[I]) + 1.0;
end Use;
"""


class TestGilAwareChunkCosts:
    def test_auto_picks_process_for_gil_bound_work(self):
        """A chunk-safe DOALL whose body is a per-element module call
        (vector-unsafe, non-kernelizable) holds the GIL — threads cannot
        help, forked processes can. With real cores available, auto must
        reach for the process backend; this is exactly the workload class
        the dominated-by-threaded cost model used to make unreachable."""
        program = analyze_program(parse_program(CALL_PROGRAM_SOURCE))
        use = program["Use"]
        flow = schedule_module(use)
        plan = build_plan(
            use, flow,
            ExecutionOptions(backend="auto", workers=8),
            {"n": 20000}, cpu_count=8,
        )
        assert plan.backend == "process"

    def test_numpy_bound_work_still_prefers_vectorized(self):
        """The preference holds on both kernel tiers: the calibrated
        native per-element cost is honest about large NumPy-bound sweeps
        being memory-bound either way, so auto keeps the vectorized
        backend rather than flipping to serial-with-native-nests."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        for tier in ("numpy", "native"):
            plan = build_plan(
                analyzed, flow,
                ExecutionOptions(backend="auto", workers=8, kernel_tier=tier),
                {"M": 30, "maxK": 8}, cpu_count=8,
            )
            assert plan.backend == "vectorized", tier

    def test_pinned_serial_plans_native_nests(self):
        """An explicit serial pin still lowers every fusable nest to the
        native tier — the label the runtime cache resolves."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="serial", workers=1),
            {"M": 30, "maxK": 8}, cpu_count=8,
        )
        assert all(e.kernel == "native" for e in plan.equations.values())
        numpy_plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="serial", workers=1, kernel_tier="numpy"),
            {"M": 30, "maxK": 8}, cpu_count=8,
        )
        assert all(e.kernel == "nest" for e in numpy_plan.equations.values())


@pytest.mark.usefixtures("pinned_host")
class TestCalleePlansStayInProcess:
    def test_callee_memo_never_plans_a_pool(self):
        """Module calls fire per element; the callee's auto plan must stay
        on the in-process backends even when the caller runs a pool."""
        program = analyze_program(parse_program(CALL_PROGRAM_SOURCE))
        rng = np.random.default_rng(3)
        args = {"A": rng.random(8), "n": 8}
        out = execute_program_module(
            program, "Use", args,
            options=ExecutionOptions(backend="threaded", workers=4),
        )
        assert out["B"].shape == (8,)
        memo = program._plan_memo
        assert memo, "expected a memoized callee plan"
        for plan in memo.values():
            assert plan.backend in ("serial", "vectorized")


class TestPlanRebinding:
    def test_bind_is_idempotent_per_flowchart(self):
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        plan = build_plan(
            analyzed, flow, ExecutionOptions(workers=2), {"M": 4, "maxK": 3},
            cpu_count=2,
        )
        index = plan._by_id
        plan.bind(flow)
        assert plan._by_id is index  # no rebuild on the same flowchart
        flow2 = schedule_module(analyzed)
        plan.bind(flow2)
        assert plan._by_id is not index
        doall = next(d for d in flow2.loops() if d.parallel)
        assert plan.loop_for(doall) is not None


@pytest.mark.usefixtures("pinned_host")
class TestComparePlansAlwaysMeasuresAuto:
    def test_auto_backend_appended_to_candidates(self):
        from repro.machine.report import compare_plans

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        rng = np.random.default_rng(5)
        args = {"InitialA": rng.random((6, 6)), "M": 4, "maxK": 3}
        cmp = compare_plans(
            analyzed, flow, args, backends=["serial"], workers=1, repeats=1
        )
        assert cmp.auto_backend in [r["backend"] for r in cmp.rows]
        assert cmp.auto_seconds > 0
        assert cmp.to_dict()["auto_backend"] == cmp.auto_backend
