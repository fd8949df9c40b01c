"""Planner edge cases surfaced by review: GIL-aware process selection,
in-process callee plans, plan re-binding, auto always being measurable,
recognised recurrences planning as the compiled ``DO`` at every size,
``DOALL``-only strategies forced on a ``DO``, and the retired ``pipeline``
and ``scan`` strategies refused by name."""

import re

import numpy as np
import pytest

from repro.core.paper import jacobi_analyzed
from repro.core.recurrences import (
    ilinrec_analyzed,
    isum_analyzed,
    runmax_analyzed,
    scan_analyzed,
)
from repro.errors import ExecutionError
from repro.plan.ir import STRATEGIES, VALID_STRATEGIES, PlanError
from repro.plan.planner import build_plan, forced_plan
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


#: the (trip, workers) grid on which a blocked scan once outpriced the
#: compiled ``DO`` (threaded, ``cpu_count`` equal to the workers), plus a
#: short trip and a single worker
RECURRENCE_TRIPS = (64, 2_000_000, 20_000_000, 200_000_000)
RECURRENCE_WORKERS = (1, 2, 4, 8, 16, 32)


class TestRecognisedRecurrences:
    @pytest.mark.parametrize("p", RECURRENCE_WORKERS, ids=lambda p: f"p{p}")
    @pytest.mark.parametrize("n", RECURRENCE_TRIPS, ids=lambda n: f"n{n}")
    @pytest.mark.parametrize(
        "analyzed_fn", [isum_analyzed, runmax_analyzed, ilinrec_analyzed],
        ids=["isum", "runmax", "ilinrec"],
    )
    def test_plans_as_the_compiled_do(self, analyzed_fn, n, p):
        """A recognised scan or linear recurrence plans as one compiled
        in-order loop however long it is and however many workers there
        are, and ``explain()`` keeps its ``DO`` row."""
        analyzed = analyzed_fn()
        flow = schedule_module(analyzed)
        (do_loop,) = [d for d in flow.loops() if not d.parallel]
        path = flow.path_of(do_loop)
        plan = build_plan(
            analyzed, flow, ExecutionOptions(backend="threaded", workers=p),
            {"n": n}, cpu_count=p,
        )
        lp = plan.loops[path]
        assert (lp.keyword, lp.strategy) == ("DO", "nest")
        (note,) = plan.provenance["do_loops"]
        assert (note["index"], note["strategy"]) == (str(path), "nest")
        assert f"  DO I @{path}: compiled nest" in plan.explain()

    def test_kernels_off_leaves_it_on_the_walk(self):
        analyzed = ilinrec_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4, use_kernels=False),
            {"n": 64}, cpu_count=4,
        )
        assert ("I", "serial") in plan.strategies()
        (do,) = plan.provenance["do_loops"]
        assert do["why"] == "kernels off"


def _build_with_strategy(analyzed, flow, name):
    return build_plan(
        analyzed, flow,
        ExecutionOptions(backend="threaded", workers=4, strategy=name),
        {"n": 64}, cpu_count=4,
    )


def _forced_default(analyzed, flow, name):
    return forced_plan(
        analyzed, flow, "threaded", ExecutionOptions(workers=4), {"n": 64},
        default=name,
    )


def _forced_override(analyzed, flow, name):
    (do_loop,) = [d for d in flow.loops() if not d.parallel]
    return forced_plan(
        analyzed, flow, "threaded", ExecutionOptions(workers=4), {"n": 64},
        overrides={flow.path_of(do_loop): name},
    )


class TestForcedOnADo:
    """A ``DOALL``-only strategy pinned by path on a ``DO`` is refused
    loudly, naming the loop; as a default it leaves the ``DO`` on the walk
    so the ``DOALL`` s inside it take it."""

    def _jacobi(self):
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        (do_k,) = [d for d in flow.loops() if not d.parallel]
        return analyzed, flow, flow.path_of(do_k)

    @pytest.mark.parametrize("name", ["vector", "chunk", "collapse"])
    def test_a_pin_raises_naming_the_loop(self, name):
        analyzed, flow, path = self._jacobi()
        with pytest.raises(
            PlanError,
            match=f"cannot force '{name}' on DO K: its iterations must run in order",
        ):
            forced_plan(
                analyzed, flow, "threaded", ExecutionOptions(workers=2),
                {"M": 16, "maxK": 4}, overrides={path: name}, cpu_count=2,
            )

    @pytest.mark.parametrize("name", ["vector", "chunk", "collapse"])
    def test_a_default_leaves_the_do_on_the_walk(self, name):
        analyzed, flow, path = self._jacobi()
        plan = forced_plan(
            analyzed, flow, "threaded", ExecutionOptions(workers=2),
            {"M": 16, "maxK": 4}, default=name, cpu_count=2,
        )
        assert plan.loops[path].strategy == "serial"
        assert plan.loops[path + (0,)].strategy == name


class TestRetiredStrategy:
    @pytest.mark.parametrize("name", ["iterate", "pipeline", "scan"])
    @pytest.mark.parametrize("plan_with, error", [
        (_build_with_strategy, ExecutionError),
        (_forced_default, PlanError),
        (_forced_override, PlanError),
    ], ids=["build_plan", "forced_plan-default", "forced_plan-override"])
    def test_retired_names_are_refused_naming_the_survivors(
        self, plan_with, error, name
    ):
        assert len(VALID_STRATEGIES) == 6
        # the count vocabulary keeps the retired names, always counted 0
        assert STRATEGIES == (*VALID_STRATEGIES, "iterate", "pipeline", "scan")
        # a recurrence feeding a consumer: the shape pipeline decoupled
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        survivors = re.escape(", ".join(VALID_STRATEGIES))
        with pytest.raises(error, match=f"'{name}'; available: {survivors}$"):
            plan_with(analyzed, flow, name)
