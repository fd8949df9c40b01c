"""Planner edge cases surfaced by review: module calls (inlined ones
compile, kept ones hold the GIL), callee plans without a pool, plan
re-binding, auto always being measured, one planning walk per plan, labels
checked by both plan builders,
recognised recurrences planning as the compiled ``DO`` at every size,
``DOALL``-only strategies forced on a ``DO``, the retired ``iterate``,
``pipeline``, ``scan`` and ``fission`` strategies refused by name, and the
slow-loop provenance of a merged nest."""

import re
import threading

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
from repro.plan.planner import _Planner, build_plan, forced_plan
from repro.ps.parser import parse_program
from repro.ps.semantics import analyze_program
from repro.runtime.executor import ExecutionOptions, execute_program_module
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_compiled_do import _merged
from tests.runtime.test_kernels import KEPT_CALL_PROGRAM_SOURCE

CALL_PROGRAM_SOURCE = """\
Scale: module (x: real): [y: real]; define y = x * 2.0; end Scale;
Use: module (A: array[1 .. n] of real; n: int): [B: array[1 .. n] of real];
type I = 1 .. n;
define B[I] = Scale(A[I]) + 1.0;
end Use;
"""


class TestGilAwareChunkCosts:
    def test_an_inlined_call_runs_on_a_compiled_kernel(self):
        """A per-element call of a loop-free module is inlined by the front
        end, so its DOALL compiles like any other: at two workers ``auto``
        puts it on a native kernel, not on the evaluator."""
        program = analyze_program(parse_program(CALL_PROGRAM_SOURCE))
        use = program["Use"]
        assert use.equations[0].calls == []
        plan = build_plan(
            use, schedule_module(use),
            ExecutionOptions(backend="auto", workers=2),
            {"n": 200_000}, cpu_count=2,
        )
        assert plan.equations["eq.1"].kernel == "native"
        explain = plan.explain()
        assert "native full kernel @(0,) (DOALL I)" in explain
        assert "not kernelizable" not in explain

    @pytest.mark.parametrize("workers", [2, 8])
    def test_a_kept_call_holds_the_gil_so_threads_do_not_pay(self, workers):
        """A call the front end keeps (its callee has a loop) runs on the
        evaluator and holds the GIL: a thread pool cannot help, so ``auto``
        leaves the loop off the pool and ``explain()`` names the call."""
        program = analyze_program(parse_program(KEPT_CALL_PROGRAM_SOURCE))
        use = program["Use"]
        plan = build_plan(
            use, schedule_module(use),
            ExecutionOptions(backend="auto", workers=workers),
            {"n": 20000}, cpu_count=workers,
        )
        assert plan.backend in ("serial", "vectorized")
        assert "eq.1 not kernelizable — calls module Scale" in plan.explain()

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
    def test_callee_memo_never_plans_a_pool(self, monkeypatch):
        """Module calls fire per element; the callee's plan must stay off
        the worker pool (and off a team) even when the caller's chunks run
        the calls on the pool: no callee loop is divided, and no pool
        thread starts another."""
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append((threading.current_thread().name, thread.name))
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        program = analyze_program(parse_program(KEPT_CALL_PROGRAM_SOURCE))
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
            assert plan.workers == 1
            assert all((lp.parts or 0) <= 1 for lp in plan.loops.values())
            assert not any(lp.team for lp in plan.loops.values())
        nested = [
            pair for pair in started
            if all(name.startswith("repro-doall") for name in pair)
        ]
        assert started and not nested


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
    def test_auto_plan_is_its_own_row(self):
        """``auto`` plans per loop, so its plan need not be any label's:
        it is timed as a row of its own, whatever labels are asked for."""
        from repro.machine.report import compare_plans

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        rng = np.random.default_rng(5)
        args = {"InitialA": rng.random((6, 6)), "M": 4, "maxK": 3}
        cmp = compare_plans(
            analyzed, flow, args, backends=["serial"], workers=1, repeats=1
        )
        assert [r["backend"] for r in cmp.rows] == ["auto", "serial"]
        auto = cmp.rows[0]
        assert cmp.auto_seconds == auto["seconds"] > 0
        assert cmp.auto_backend == auto["label"]
        assert cmp.to_dict()["auto_backend"] == cmp.auto_backend


@pytest.mark.usefixtures("pinned_host")
class TestOneWalk:
    @pytest.mark.parametrize("backend", ["auto", "serial", "vectorized", "threaded"])
    def test_build_plan_walks_the_flowchart_once(self, backend, monkeypatch):
        """``auto`` prices every strategy per loop on one walk instead of
        planning the module once per label."""
        walks = []
        plan_module = _Planner.plan_module

        def counting(planner):
            walks.append(planner.backend)
            plan_module(planner)

        monkeypatch.setattr(_Planner, "plan_module", counting)
        analyzed = jacobi_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend=backend, workers=2), {"M": 8, "maxK": 4},
            cpu_count=2,
        )
        assert walks == [backend]
        assert plan.requested == backend and plan.pinned == (backend != "auto")

    def test_explain_prices_or_refuses_every_strategy_per_doall(self):
        """``explain()`` says why each ``DOALL`` took its strategy: every
        strategy priced, the winner starred, every refusal with its
        reason — a pin's included."""
        analyzed = jacobi_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="serial", workers=2), {"M": 8, "maxK": 4},
            cpu_count=2,
        )
        rows = [
            re.sub(r"~\d+", "~N", line) for line in plan.explain().splitlines()
            if line.startswith("  DOALL")
        ]
        assert [row.split(":")[0] for row in rows] == [
            "  DOALL I @(0,)", "  DOALL I @(1, 0)", "  DOALL I @(2,)",
        ]
        assert rows[0] == (
            "  DOALL I @(0,): nest, trip 10: serial ~N, *nest ~N cycles; "
            "vector refused (the serial pin does not offer it); "
            "chunk refused (the plan has no worker pool); "
            "collapse refused (the plan has no worker pool)"
        )


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
    @pytest.mark.parametrize("name", ["iterate", "pipeline", "scan", "fission"])
    @pytest.mark.parametrize("plan_with, error", [
        (_build_with_strategy, ExecutionError),
        (_forced_default, PlanError),
        (_forced_override, PlanError),
    ], ids=["build_plan", "forced_plan-default", "forced_plan-override"])
    def test_retired_names_are_refused_naming_the_survivors(
        self, plan_with, error, name
    ):
        assert VALID_STRATEGIES == ("serial", "vector", "nest", "chunk", "collapse")
        # the count vocabulary keeps the retired names, always counted 0
        assert STRATEGIES == (
            *VALID_STRATEGIES, "iterate", "pipeline", "scan", "fission",
        )
        # a recurrence feeding a consumer: the shape pipeline decoupled
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        survivors = re.escape(", ".join(VALID_STRATEGIES))
        with pytest.raises(error, match=f"'{name}'; available: {survivors}$"):
            plan_with(analyzed, flow, name)


class TestUnknownBackendLabel:
    @pytest.mark.parametrize("label", ["gpu", "process", "Serial"])
    @pytest.mark.parametrize("plan_with, error", [
        (build_plan, ExecutionError),
        (forced_plan, PlanError),
    ], ids=["build_plan", "forced_plan"])
    def test_unknown_labels_are_refused_naming_every_label(
        self, plan_with, error, label
    ):
        """Both plan builders share one label check: an unknown label is
        refused by name instead of printing as the plan's backend (and
        running) or failing on the first loop."""
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        options = ExecutionOptions(backend=label, workers=2)
        args = (options,) if plan_with is build_plan else (label, options)
        with pytest.raises(
            error,
            match=f"unknown execution backend '{label}'; "
            f"available: serial, vectorized, threaded$",
        ):
            plan_with(analyzed, flow, *args, {"n": 64}, cpu_count=2)

    def test_forced_plan_accepts_auto(self):
        """``auto`` is the one walk, so a forced plan may leave its
        unforced loops to it."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        plan = forced_plan(
            analyzed, flow, "auto", ExecutionOptions(workers=2),
            {"M": 8, "maxK": 4}, overrides={(1, 0): "chunk"}, cpu_count=2,
        )
        assert not plan.pinned
        assert plan.loops[(1, 0)].strategy == "chunk"
        assert plan.backend == "threaded"


class TestUnknownKernelTier:
    @pytest.mark.parametrize("tier", ["evaluator", "natve"])
    @pytest.mark.parametrize("plan_with, error", [
        (build_plan, ExecutionError),
        (forced_plan, PlanError),
    ], ids=["build_plan", "forced_plan"])
    def test_unknown_tiers_are_refused_naming_both(self, plan_with, error, tier):
        """No kernels at all is ``use_kernels=False``; any tier name but
        ``native`` / ``numpy`` — the retired ``evaluator``, a typo — is
        refused instead of silently planning another tier."""
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        options = ExecutionOptions(
            backend="threaded", workers=4, kernel_tier=tier
        )
        args = (options,) if plan_with is build_plan else ("threaded", options)
        with pytest.raises(
            error, match=f"unknown kernel tier '{tier}'; available: native, numpy$"
        ):
            plan_with(analyzed, flow, *args, {"n": 64})

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
    @pytest.mark.parametrize("plan_with, error", [
        (build_plan, ExecutionError),
        (forced_plan, PlanError),
    ], ids=["build_plan", "forced_plan"])
    def test_bad_worker_counts_are_refused(self, plan_with, error, workers):
        """A worker count is None (the host's) or a positive ``int``:
        ``0``, a negative, a ``bool``, a float or a string is refused
        instead of planning one worker, the host's cores or a fraction."""
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        options = ExecutionOptions(backend="auto", workers=workers)
        args = (options,) if plan_with is build_plan else ("threaded", options)
        with pytest.raises(
            error, match=re.escape(f"workers must be a positive integer; got {workers!r}")
        ):
            plan_with(analyzed, flow, *args, {"n": 64})


#: a call of a module with a loop of its own (kept, not inlined) merged into
#: one nest with a clean equation
POISONED_PROGRAM = """\
Scale: module (v: int): [w: int];
type
    K = 1 .. 1;
var
    P: array [1 .. 1] of int;
define
    P[K] = v * 3;
    w = P[1];
end Scale;

Body: module (X: array[1 .. n] of int; n: int):
      [Y: array[1 .. n] of int; Z: array[1 .. n] of int];
type
    I = 1 .. n;
define
    Y[I] = Scale(X[I]);
    Z[I] = X[I] * X[I] + 2;
end Body;
"""


class TestSlowLoopProvenance:
    def test_a_merged_nest_names_its_unkernelizable_equation(self):
        body = analyze_program(parse_program(POISONED_PROGRAM))["Body"]
        plan = build_plan(
            body, _merged(body),
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 1000}, cpu_count=4,
        )
        why = "calls module Scale with index-dependent arguments"
        assert plan.provenance["slow_loops"] == [{
            "index": "(0,)", "keyword": "DOALL", "loop_index": "I",
            "label": "eq.1", "reason": why,
        }]
        row = f"  slow loop @(0,) (DOALL I): eq.1 not kernelizable — {why}\n"
        assert row in plan.explain()
