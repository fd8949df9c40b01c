"""The scan strategy at the plan layer: golden forced-plan texts (part of
the ``repro plan`` interface), the merit decision at realistic sizes, the
float-reassociation gate, composition with the pipeline engine, and the
pricing provenance lines ``plan.explain()`` prints."""

import textwrap

import pytest

from repro.core.recurrences import (
    RECURRENCE_WORKLOADS,
    ilinrec_analyzed,
    isum_analyzed,
    scan_analyzed,
)
from repro.plan.ir import PlanError
from repro.plan.planner import build_plan, forced_plan, valid_strategies
from repro.runtime.executor import ExecutionOptions
from repro.schedule.scheduler import schedule_module

SCAN_WORKLOADS = [w for w in RECURRENCE_WORKLOADS
                  if w[0] in ("isum", "runmax", "ilinrec")]

GOLDEN_FORCED = {
    "isum": """\
        plan ISum: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> scan x4; trip 64; forced +-scan
            eq.2 [kernel=native (scan phases)]""",
    "runmax": """\
        plan RunMax: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> scan x4; trip 64; forced max-scan
            eq.2 [kernel=native (scan phases)]""",
    "ilinrec": """\
        plan ILinRec: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> scan x4; trip 64; forced linear recurrence
            eq.2 [kernel=native (scan phases)]""",
}


class TestGoldenScanPlans:
    @pytest.mark.parametrize(
        "workload", SCAN_WORKLOADS, ids=[w[0] for w in SCAN_WORKLOADS]
    )
    def test_forced_scan_text(self, workload):
        name, analyzed_fn, args_fn, _ = workload
        analyzed = analyzed_fn()
        scalars = {k: v for k, v in args_fn().items() if isinstance(v, int)}
        plan = forced_plan(
            analyzed, schedule_module(analyzed), "threaded",
            ExecutionOptions(workers=4), scalars, default="scan",
        )
        assert plan.pretty() == textwrap.dedent(GOLDEN_FORCED[name])


class TestScanMerit:
    def test_auto_picks_scan_at_large_trip(self):
        analyzed = ilinrec_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=8),
            {"n": 2_000_000}, cpu_count=8,
        )
        # The comparator is the compiled DO, not the walk: the scan needs
        # both a long trip and real cores to pay for its second pass.
        assert ("I", "scan") in plan.strategies()
        (note,) = plan.provenance["scan_loops"]
        assert note["chosen"] and note["why"] == "blocked scan is cheaper"
        assert note["do_compiled"]
        assert note["scan_cycles"] < note["do_cycles"] < note["serial_cycles"]
        # The seq fused-kernel comparator is recorded alongside.
        assert note["seq_cycles"] is not None

    def test_small_trip_stays_in_order(self):
        analyzed = ilinrec_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 64}, cpu_count=4,
        )
        assert ("I", "nest") in plan.strategies()
        (note,) = plan.provenance["scan_loops"]
        assert not note["chosen"]
        assert note["why"].endswith("> compiled DO")

    def test_four_workers_do_not_beat_the_compiled_loop(self):
        # ROADMAP, measured: at n=50000..200000 one thread of C ties or
        # beats the blocked scan at p = 2 and 4. The planner must say so.
        analyzed = ilinrec_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 50_000}, cpu_count=4,
        )
        assert ("I", "nest") in plan.strategies()
        assert plan.loops[(1,)].dialect == "native"
        assert "scan x4: 1.9x the arithmetic + 2 barriers > compiled DO" in (
            plan.explain()
        )

    def test_kernels_off_compares_against_the_walk(self):
        analyzed = ilinrec_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4, use_kernels=False),
            {"n": 64}, cpu_count=4,
        )
        assert ("I", "serial") in plan.strategies()
        (do,) = plan.provenance["do_loops"]
        assert do["why"] == "kernels off"

    def test_serial_backend_never_scans_on_merit(self):
        analyzed = ilinrec_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="serial"),
            {"n": 50_000}, cpu_count=4,
        )
        assert ("I", "nest") in plan.strategies()
        (note,) = plan.provenance["scan_loops"]
        assert "no scan engine" in note["why"]

    def test_auto_with_scan_strategy_picks_a_pool_backend(self):
        # backend=auto + strategy=scan narrows the candidates to the
        # backends that own the scan engine.
        analyzed = isum_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="auto", workers=4, strategy="scan"),
            {"n": 50_000}, cpu_count=4,
        )
        assert plan.backend in ("threaded", "free-threading")
        assert ("I", "scan") in plan.strategies()

    def test_explain_prints_the_scan_verdict(self):
        analyzed = ilinrec_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=8),
            {"n": 2_000_000}, cpu_count=8,
        )
        text = plan.explain()
        assert "scan loop" in text
        assert "linrec" in text
        assert "chosen" in text
        assert "cycles compiled DO" in text

    def test_valid_strategies_offers_scan_for_bit_exact_loops(self):
        analyzed = isum_analyzed()
        flow = schedule_module(analyzed)
        (do_loop,) = [d for d in flow.loops() if not d.parallel]
        assert valid_strategies(analyzed, flow, do_loop) == [
            "serial", "nest", "scan",
        ]

    def test_valid_strategies_excludes_gated_float_ops(self):
        # Float linrec needs allow_reassoc: valid_strategies (the hard
        # per-path force menu, which carries no options) must not offer it.
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        (do_loop,) = [d for d in flow.loops() if not d.parallel]
        assert valid_strategies(analyzed, flow, do_loop) == ["serial", "nest"]

    def test_per_path_scan_force_on_doall_raises(self):
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        doall_path = next(
            flow.path_of(d) for d in flow.loops() if d.parallel
        )
        with pytest.raises(PlanError, match="sequential DO"):
            forced_plan(
                analyzed, flow, "threaded", ExecutionOptions(workers=4),
                {"n": 64}, overrides={doall_path: "scan"},
            )


class TestPipelineComposition:
    def test_scan_head_stage_under_allow_reassoc(self):
        # The float linrec head of the Scan workload's pipeline group
        # converts to a scan stage once reassociation is allowed and the
        # trip is large enough for the blocked scan to beat streaming.
        analyzed = scan_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4,
                             allow_reassoc=True),
            {"n": 2_000_000}, cpu_count=4,
        )
        head = plan.loops[(1,)]
        assert head.strategy == "pipeline"
        kinds = [s.kind for s in head.stages]
        assert kinds == ["scan", "replicated"]
        assert "scan x4(eq.2)" in plan.pretty()

    def test_no_reassoc_keeps_the_sequential_stage(self):
        analyzed = scan_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 2_000_000}, cpu_count=4,
        )
        head = plan.loops[(1,)]
        assert head.strategy == "pipeline"
        kinds = [s.kind for s in head.stages]
        assert kinds == ["sequential", "replicated"]


class TestKernelGates:
    def test_kernels_off_rejects_scan(self):
        analyzed = isum_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4,
                             use_kernels=False, strategy="scan"),
            {"n": 50_000}, cpu_count=4,
        )
        assert ("I", "serial") in plan.strategies()
        (note,) = plan.provenance["scan_loops"]
        assert note["why"] == "kernels off"

    def test_numpy_tier_plans_nest_kernel_label(self):
        analyzed = isum_analyzed()
        plan = forced_plan(
            analyzed, schedule_module(analyzed), "threaded",
            ExecutionOptions(workers=4, kernel_tier="numpy"),
            {"n": 64}, default="scan",
        )
        assert "eq.2 [kernel=nest (scan phases)]" in plan.pretty()

    def test_unrecognized_do_loop_keeps_serial_plan(self):
        # The coupled recurrence (two equations in the DO body) must plan
        # exactly as before — no scan note, no text churn.
        from repro.core.recurrences import coupled_analyzed

        analyzed = coupled_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 50_000}, cpu_count=4,
        )
        assert plan.provenance["scan_loops"] == []
