"""Golden-text plan stability: ``ExecutionPlan.pretty()`` is part of the
tool's interface (``repro plan``), so its text on the five paper workloads
and on the loop-merging pass's ``Mixed`` nest is pinned. The planner runs
with an explicit ``cpu_count`` — ``auto``'s backend choice must not depend
on the machine running the tests."""

import textwrap

import pytest

from repro.core.paper import jacobi_analyzed
from repro.core.recurrences import mixed_analyzed
from repro.plan.planner import (
    AUTO_TIE,
    build_plan,
    forced_plan,
    valid_strategies,
)
from repro.ps.parser import parse_program
from repro.ps.semantics import analyze_program
from repro.runtime.executor import ExecutionOptions
from repro.schedule.scheduler import schedule_module

from tests.plan.conftest import WORKLOADS
from tests.runtime.test_compiled_do import (
    INLINED_CALL_PROGRAM,
    LOOPED_CALL_PROGRAM,
    _merged,
)

GOLDEN = {
    "jacobi": """\
        plan Relaxation: backend=vectorized workers=4 kernels=native windows=off [auto]
        DOALL I -> vector; trip 10
            DOALL J -> vector; trip 10; nested in span
                eq.1 [kernel=vector]
        DO K -> serial; trip 3
            DOALL I -> vector; trip 10
                DOALL J -> vector; trip 10; nested in span
                    eq.3 [kernel=vector]
        DOALL I -> vector; trip 10
            DOALL J -> vector; trip 10; nested in span
                eq.2 [kernel=vector]""",
    "gauss_seidel": """\
        plan Relaxation: backend=vectorized workers=4 kernels=native windows=off [auto]
        DOALL I -> vector; trip 10
            DOALL J -> vector; trip 10; nested in span
                eq.1 [kernel=vector]
        DO K -> nest; trip 3; compiled in order
            DO I -> nest; trip 10; fused
                DO J -> nest; trip 10; fused
                    eq.3 [kernel=nest]
        DOALL I -> vector; trip 10
            DOALL J -> vector; trip 10; nested in span
                eq.2 [kernel=vector]""",
    # The hyperplane-transformed subscripts miss the affine fast path, so
    # a span over a time plane pays fancy-indexing gathers — auto honestly
    # runs each plane on a native C nest instead, while the one-shot copy
    # out is still cheaper as a span: each loop takes its own cheapest.
    "hyperplane_gs": """\
        plan RelaxationHyper: backend=vectorized workers=4 kernels=native windows=off [auto]
        DO Kp -> serial; trip 25
            DOALL Ip -> nest; trip 4; fused nest kernel
                DOALL Jp -> nest; trip 10; fused
                    eq.1 [kernel=native]
        DOALL I -> vector; trip 10
            DOALL J -> vector; trip 10; nested in span
                eq.2 [kernel=vector]""",
    "dp": """\
        plan Align: backend=vectorized workers=4 kernels=native windows=off [auto]
        DOALL _i1 -> vector; trip 7
            eq.1 [kernel=vector]
        DOALL I -> vector; trip 6
            eq.2 [kernel=vector]
        DO I -> nest; trip 6; compiled in order
            DO J -> nest; trip 6; fused
                eq.3 [kernel=nest]
        eq.4 [kernel=scalar]""",
    "paths_int": """\
        plan Paths: backend=vectorized workers=4 kernels=native windows=off [auto]
        DOALL _i1 -> vector; trip 7
            eq.1 [kernel=vector]
        DOALL I -> vector; trip 6
            eq.2 [kernel=vector]
        DO I -> nest; trip 6; compiled in order
            DO J -> nest; trip 6; fused
                eq.3 [kernel=nest]
        DOALL _i0 -> vector; trip 7
            eq.4 [kernel=vector]""",
}


#: the same five workloads under the collapse-forcing policy: every
#: collapse-safe DOALL chain is forced to "collapse" (dp and paths_int have
#: no perfect DOALL nest, so their plans fall back to the planner's choice
#: — the texts pin that the policy composes with ordinary planning)
GOLDEN_COLLAPSE = {
    "jacobi": """\
        plan Relaxation: backend=threaded workers=4 kernels=native windows=off [pinned]
        DOALL I -> collapse x4; depth 2 flat 100; trip 10; forced
            DOALL J -> collapse; trip 10; collapsed
                eq.1 [kernel=native]
        DO K -> serial; trip 3
            DOALL I -> collapse x4; depth 2 flat 100; trip 10; forced
                DOALL J -> collapse; trip 10; collapsed
                    eq.3 [kernel=native]
        DOALL I -> collapse x4; depth 2 flat 100; trip 10; forced
            DOALL J -> collapse; trip 10; collapsed
                eq.2 [kernel=native]""",
    "gauss_seidel": """\
        plan Relaxation: backend=threaded workers=4 kernels=native windows=off [pinned]
        DOALL I -> collapse x4; depth 2 flat 100; trip 10; forced
            DOALL J -> collapse; trip 10; collapsed
                eq.1 [kernel=native]
        DO K -> nest; trip 3; compiled in order
            DO I -> nest; trip 10; fused
                DO J -> nest; trip 10; fused
                    eq.3 [kernel=nest]
        DOALL I -> collapse x4; depth 2 flat 100; trip 10; forced
            DOALL J -> collapse; trip 10; collapsed
                eq.2 [kernel=native]""",
    "hyperplane_gs": """\
        plan RelaxationHyper: backend=threaded workers=4 kernels=native windows=off [pinned]
        DO Kp -> serial; trip 25
            DOALL Ip -> collapse x4; depth 2 flat 40; trip 4; forced
                DOALL Jp -> collapse; trip 10; collapsed
                    eq.1 [kernel=native]
        DOALL I -> collapse x4; depth 2 flat 100; trip 10; forced
            DOALL J -> collapse; trip 10; collapsed
                eq.2 [kernel=native]""",
    "dp": """\
        plan Align: backend=threaded workers=4 kernels=native windows=off [pinned]
        DOALL _i1 -> chunk x4; trip 7
            eq.1 [kernel=native]
        DOALL I -> chunk x4; trip 6
            eq.2 [kernel=native]
        DO I -> nest; trip 6; compiled in order
            DO J -> nest; trip 6; fused
                eq.3 [kernel=nest]
        eq.4 [kernel=scalar]""",
    "paths_int": """\
        plan Paths: backend=threaded workers=4 kernels=native windows=off [pinned]
        DOALL _i1 -> chunk x4; trip 7
            eq.1 [kernel=native]
        DOALL I -> chunk x4; trip 6
            eq.2 [kernel=native]
        DO I -> nest; trip 6; compiled in order
            DO J -> nest; trip 6; fused
                eq.3 [kernel=nest]
        DOALL _i0 -> chunk x4; trip 7
            eq.4 [kernel=native]""",
}


def _scalars(args):
    return {k: v for k, v in args.items() if isinstance(v, int)}


class TestGoldenPlans:
    def test_every_workload_has_a_golden(self):
        assert set(GOLDEN) == {w[0] for w in WORKLOADS}

    @pytest.mark.parametrize(
        "workload", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_auto_plan_text(self, workload):
        name, analyzed, flow, args, _ = workload
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="auto", workers=4),
            _scalars(args), cpu_count=4,
        )
        assert plan.pretty() == textwrap.dedent(GOLDEN[name])

    def test_pinned_serial_jacobi_fuses_nests(self):
        name, analyzed, flow, args, _ = WORKLOADS[0]
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="serial", workers=1),
            _scalars(args), cpu_count=4,
        )
        assert plan.pretty() == textwrap.dedent("""\
            plan Relaxation: backend=serial workers=1 kernels=native windows=off [pinned]
            DOALL I -> nest; trip 10; fused nest kernel
                DOALL J -> nest; trip 10; fused
                    eq.1 [kernel=native]
            DO K -> serial; trip 3
                DOALL I -> nest; trip 10; fused nest kernel
                    DOALL J -> nest; trip 10; fused
                        eq.3 [kernel=native]
            DOALL I -> nest; trip 10; fused nest kernel
                DOALL J -> nest; trip 10; fused
                    eq.2 [kernel=native]""")

    def test_pinned_threaded_jacobi_collapses(self):
        # Near-tie between chunk (the native full kernel per chunk of
        # rows) and collapse (the native flat kernel per flat chunk):
        # collapse wins on balance — 10 rows split 3/3/2/2 over 4 workers,
        # the 100-element flat space 25/25/25/25.
        # The three 10x10 sweeps under DO K are cheaper as one in-order
        # Python-dialect nest than as three pool dispatches (and far too
        # small to be worth a compiler run).
        name, analyzed, flow, args, _ = WORKLOADS[0]
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="threaded", workers=4),
            _scalars(args), cpu_count=4,
        )
        assert plan.pretty() == textwrap.dedent("""\
            plan Relaxation: backend=threaded workers=4 kernels=native windows=off [pinned]
            DOALL I -> collapse x4; depth 2 flat 100; trip 10
                DOALL J -> collapse; trip 10; collapsed
                    eq.1 [kernel=native]
            DO K -> nest; trip 3; compiled in order
                DOALL I -> nest; trip 10; fused
                    DOALL J -> nest; trip 10; fused
                        eq.3 [kernel=nest]
            DOALL I -> collapse x4; depth 2 flat 100; trip 10
                DOALL J -> collapse; trip 10; collapsed
                    eq.2 [kernel=native]""")

    def test_cycles_rendering_is_optional(self):
        name, analyzed, flow, args, _ = WORKLOADS[0]
        plan = build_plan(
            analyzed, flow, ExecutionOptions(workers=4), _scalars(args),
            cpu_count=4,
        )
        assert "cycles" not in plan.pretty()
        assert "cycles" in plan.pretty(cycles=True)
        assert plan.cycles is not None and plan.cycles > 0

    def test_kernels_off_plans_evaluator(self):
        name, analyzed, flow, args, _ = WORKLOADS[0]
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="serial", use_kernels=False),
            _scalars(args), cpu_count=4,
        )
        assert all(e.kernel == "evaluator" for e in plan.equations.values())
        assert all(lp.strategy != "nest" for lp in plan.loops.values())


#: the Jacobi grid at two cores, ``maxK`` = 40: at M = 70 a copy's fused
#: nest is priced a hair below its NumPy span, at M = 128 well below it
COPY_TIE_GRID = """\
    plan Relaxation: backend=vectorized workers=2 kernels=native windows={w} [auto]
    DOALL I -> vector; trip 72
        DOALL J -> vector; trip 72; nested in span
            eq.1 [kernel=vector]
    DO K -> nest; trip 39; compiled in order
        DOALL I -> nest; trip 72; fused
            DOALL J -> nest; trip 72; fused
                eq.3 [kernel=native]
    DOALL I -> vector; trip 72
        DOALL J -> vector; trip 72; nested in span
            eq.2 [kernel=vector]"""


class TestCompiledSweepPins:
    """``auto``'s tie rule, loop by loop: the sweep of a DOALL grid is
    worth a compiler run whatever the grid; a one-shot copy around it
    compiles only when its C nest is priced more than ``AUTO_TIE`` below
    its NumPy span — equal run time within the model's precision is not
    worth another C function in a cold start."""

    @staticmethod
    def _plan(M, use_windows):
        analyzed = jacobi_analyzed()
        return build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="auto", workers=2, use_windows=use_windows),
            {"M": M, "maxK": 40}, cpu_count=2,
        )

    @staticmethod
    def _copies(plan):
        notes = plan.provenance["doall_loops"]
        assert [n["index"] for n in notes] == ["(0,)", "(2,)"]
        return notes

    @pytest.mark.parametrize("use_windows", [False, True])
    def test_a_near_tie_keeps_the_copies_on_spans(self, use_windows):
        plan = self._plan(70, use_windows)
        assert plan.pretty() == textwrap.dedent(COPY_TIE_GRID).format(
            w="on" if use_windows else "off"
        )
        assert plan.native_kernels() == [((1,), "full")]
        (note,) = plan.provenance["native_nests"]
        assert note["proven"] == note["checks"] > 0 and note["function"]
        for note in self._copies(plan):
            vector = note["verdicts"]["vector"].cycles
            nest = note["verdicts"]["nest"].cycles
            # the nest is cheaper, but inside the band: the tie decides
            assert nest < vector <= (1 + AUTO_TIE) * nest
            assert note["strategy"] == "vector"
            assert note["tie"] == (
                "within 5% of nest, and it builds no native function"
            )
        assert "; tie: within 5% of nest" in plan.explain()

    @pytest.mark.parametrize("use_windows", [False, True])
    def test_a_clear_win_compiles_the_copies(self, use_windows):
        plan = self._plan(128, use_windows)
        assert [lp.strategy for lp in plan.loops.values()] == ["nest"] * 7
        assert plan.native_kernels() == [
            ((0,), "full"), ((1,), "full"), ((2,), "full"),
        ]
        for note in self._copies(plan):
            vector = note["verdicts"]["vector"].cycles
            nest = note["verdicts"]["nest"].cycles
            assert (1 + AUTO_TIE) * nest < vector
            assert (note["strategy"], note["tie"]) == ("nest", "")
        assert "tie:" not in plan.explain()


class TestGoldenCollapsePlans:
    def test_every_workload_has_a_golden(self):
        assert set(GOLDEN_COLLAPSE) == {w[0] for w in WORKLOADS}

    @pytest.mark.parametrize(
        "workload", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_collapse_forced_plan_text(self, workload):
        name, analyzed, flow, args, _ = workload
        overrides = {
            flow.path_of(desc): "collapse"
            for desc in flow.loops()
            if desc.parallel
            and "collapse" in valid_strategies(analyzed, flow, desc)
        }
        plan = forced_plan(
            analyzed, flow, "threaded",
            ExecutionOptions(backend="threaded", workers=4),
            _scalars(args), overrides=overrides,
        )
        assert plan.pretty() == textwrap.dedent(GOLDEN_COLLAPSE[name])


GOLDEN_MERGED_MIXED = """\
    plan Mixed: backend=threaded workers=4 kernels=native windows=off [pinned]
    eq.1 [kernel=scalar]
    eq.2 [kernel=scalar]
    eq.3 [kernel=scalar]
    DO I -> nest; trip 200000; compiled in order
        eq.4 [kernel=native]
        eq.5 [kernel=native]
        eq.6 [kernel=native]"""


def _merged_mixed():
    analyzed = mixed_analyzed()
    return analyzed, _merged(analyzed)


def _sweep(source):
    return analyze_program(parse_program(source))["Sweep"]


def _threaded_plan(analyzed, n, workers):
    """``analyzed``'s merged flowchart, planned on ``threaded``."""
    return build_plan(
        analyzed, _merged(analyzed),
        ExecutionOptions(backend="threaded", workers=workers),
        {"n": n}, cpu_count=workers,
    )


#: the trips and worker counts the merged-nest plans are pinned over
_SIZES = [
    (n, p) for n in (64, 20_000, 2_000_000, 200_000_000) for p in (1, 2, 4, 8)
]
SIZES = pytest.mark.parametrize(
    "n, workers", _SIZES, ids=[f"n{n}-p{p}" for n, p in _SIZES]
)


class TestMergedNestPlans:
    """The loop-merging pass fuses ``Mixed``'s three integer recurrences
    into one ``DO``, and the plan runs it as written: one compiled in-order
    loop, never a loop per recurrence."""

    def test_merged_mixed_plan_text(self):
        analyzed, flow = _merged_mixed()
        plan = build_plan(
            analyzed, flow, ExecutionOptions(backend="threaded", workers=4),
            {"n": 200_000}, cpu_count=4,
        )
        assert plan.pretty() == textwrap.dedent(GOLDEN_MERGED_MIXED)
        explain = plan.explain()
        assert "fission" not in explain
        assert "DO I @(3,): compiled nest [native], trip 200000" in explain

    @SIZES
    def test_merged_mixed_is_one_compiled_do(self, n, workers):
        plan = _threaded_plan(mixed_analyzed(), n, workers)
        assert plan.strategies() == [("I", "nest")]
        assert plan.provenance["slow_loops"] == []

    @SIZES
    def test_an_inlined_call_leaves_one_compiled_do(self, n, workers):
        sweep = _sweep(INLINED_CALL_PROGRAM)
        assert all(not eq.calls for eq in sweep.equations)
        plan = _threaded_plan(sweep, n, workers)
        assert plan.strategies() == [("I", "nest")]
        assert plan.provenance["slow_loops"] == []

    @SIZES
    def test_an_uninlined_call_keeps_the_whole_nest_on_the_walk(
        self, n, workers
    ):
        # The callee has a loop of its own, so the front end leaves the
        # call, and the nest carrying it stays one walked loop: the three
        # clean recurrences beside it are not split off into compiled ones.
        sweep = _sweep(LOOPED_CALL_PROGRAM)
        plan = _threaded_plan(sweep, n, workers)
        assert plan.strategies() == [("I", "serial")]
        why = "calls module Damp with index-dependent arguments"
        assert plan.provenance["slow_loops"] == [{
            "index": "(4,)", "keyword": "DO", "loop_index": "I",
            "label": "eq.5", "reason": why,
        }]
        explain = plan.explain()
        assert f"slow loop @(4,) (DO I): eq.5 not kernelizable — {why}" in explain
        assert "fission" not in explain

    def test_the_merged_do_offers_only_the_walk_and_the_nest(self):
        analyzed, flow = _merged_mixed()
        (loop,) = flow.loops()
        assert valid_strategies(analyzed, flow, loop) == ["serial", "nest"]
