"""Golden-text plan stability: ``ExecutionPlan.pretty()`` is part of the
tool's interface (``repro plan``), so its text on the five paper workloads
is pinned. The planner runs with an explicit ``cpu_count`` — ``auto``'s
backend choice must not depend on the machine running the tests."""

import textwrap

import pytest

from repro.core.paper import jacobi_analyzed
from repro.plan.planner import build_plan, forced_plan, valid_strategies
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions
from repro.schedule.scheduler import schedule_module

from tests.plan.conftest import WORKLOADS
from tests.runtime.test_kernel_sources import TALLSKINNY_SOURCE

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
    # the vector backend pays fancy-indexing gathers — auto honestly hands
    # the module to the serial backend's native C nests instead.
    "hyperplane_gs": """\
        plan RelaxationHyper: backend=serial workers=4 kernels=native windows=off [auto]
        DO Kp -> serial; trip 25
            DOALL Ip -> nest; trip 4; fused nest kernel
                DOALL Jp -> nest; trip 10; fused
                    eq.1 [kernel=native]
        DOALL I -> nest; trip 10; fused nest kernel
            DOALL J -> nest; trip 10; fused
                eq.2 [kernel=native]""",
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
        plan Relaxation: backend=process workers=4 kernels=native windows=off [pinned]
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
        plan Relaxation: backend=process workers=4 kernels=native windows=off [pinned]
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
        plan RelaxationHyper: backend=process workers=4 kernels=native windows=off [pinned]
        DO Kp -> serial; trip 25
            DOALL Ip -> collapse x4; depth 2 flat 40; trip 4; forced
                DOALL Jp -> collapse; trip 10; collapsed
                    eq.1 [kernel=native]
        DOALL I -> collapse x4; depth 2 flat 100; trip 10; forced
            DOALL J -> collapse; trip 10; collapsed
                eq.2 [kernel=native]""",
    "dp": """\
        plan Align: backend=process workers=4 kernels=native windows=off [pinned]
        DOALL _i1 -> chunk x4; trip 7
            eq.1 [kernel=native]
        DOALL I -> chunk x4; trip 6
            eq.2 [kernel=native]
        DO I -> nest; trip 6; compiled in order
            DO J -> nest; trip 6; fused
                eq.3 [kernel=nest]
        eq.4 [kernel=scalar]""",
    "paths_int": """\
        plan Paths: backend=process workers=4 kernels=native windows=off [pinned]
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
        # Near-tie between chunk (per-equation native span kernels) and
        # collapse (one fused native flat kernel per chunk): collapse wins
        # by the span tier's per-call overhead, and is the better shape —
        # fewer native calls, perfect load balance over the flat space.
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


#: the paper's DOALL grids at the sizes ``benchmarks/e2e`` runs them, at
#: two cores: ``auto`` compiles the sweep and nothing else
GRID_PINS = {
    "jacobi": (
        jacobi_analyzed, {"M": 128, "maxK": 40}, """\
        plan Relaxation: backend=vectorized workers=2 kernels=native windows={w} [auto]
        DOALL I -> vector; trip 130
            DOALL J -> vector; trip 130; nested in span
                eq.1 [kernel=vector]
        DO K -> nest; trip 39; compiled in order
            DOALL I -> nest; trip 130; fused
                DOALL J -> nest; trip 130; fused
                    eq.3 [kernel=native]
        DOALL I -> vector; trip 130
            DOALL J -> vector; trip 130; nested in span
                eq.2 [kernel=vector]""",
    ),
    "tallskinny": (
        lambda: analyze_module(parse_module(TALLSKINNY_SOURCE)),
        {"r": 4, "c": 4096, "maxK": 20}, """\
        plan Relax: backend=vectorized workers=2 kernels=native windows={w} [auto]
        DOALL I -> vector; trip 4
            DOALL J -> vector; trip 4096; nested in span
                eq.1 [kernel=vector]
        DO K -> nest; trip 20; compiled in order
            DOALL I -> nest; trip 4; fused
                DOALL J -> nest; trip 4096; fused
                    eq.2 [kernel=native]
        DOALL I -> vector; trip 4
            DOALL J -> vector; trip 4096; nested in span
                eq.3 [kernel=vector]""",
    ),
}


class TestCompiledSweepPins:
    """The sweep of a DOALL grid is the one loop worth a compiler run: its
    native kernel is priced at about a third of the NumPy spans it
    replaces (a ratio measured in BENCH_native.json), while the one-shot
    copies around it stay on spans — equal run time within the model's
    precision, two fewer C functions in a cold start."""

    @pytest.mark.parametrize("use_windows", [False, True])
    @pytest.mark.parametrize("name", list(GRID_PINS))
    def test_auto_compiles_the_sweep_and_only_the_sweep(self, name, use_windows):
        make, scalars, golden = GRID_PINS[name]
        analyzed = make()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="auto", workers=2, use_windows=use_windows),
            scalars, cpu_count=2,
        )
        assert plan.pretty() == textwrap.dedent(golden).format(
            w="on" if use_windows else "off"
        )
        assert plan.native_kernels() == [((1,), "full")]
        (note,) = plan.provenance["native_nests"]
        assert note["proven"] == note["checks"] > 0 and len(note["functions"]) == 1
        assert (
            f"range checks: {note['checks']} of {note['checks']} proven at entry"
            in plan.explain()
        )
        # the serial candidate would run a hair faster and compile all
        # three nests; the tie goes to the plan that builds fewest
        rows = {r["backend"]: r for r in plan.provenance["candidates"]}
        assert rows["serial"]["predicted_cycles"] < rows["vectorized"]["predicted_cycles"]
        assert rows["serial"]["native_functions"] == 3
        assert rows["vectorized"]["native_functions"] == 1
        assert "builds the fewest native functions" in plan.provenance["reason"]


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
            analyzed, flow, "process",
            ExecutionOptions(backend="process", workers=4),
            _scalars(args), overrides=overrides,
        )
        assert plan.pretty() == textwrap.dedent(GOLDEN_COLLAPSE[name])
