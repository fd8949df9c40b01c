"""The scan strategy at the plan layer: golden forced-plan texts (part of
the ``repro plan`` interface), the merit decision at realistic sizes, the
float-reassociation gate, composition with the pipeline engine, and the
pricing provenance lines ``plan.explain()`` prints."""

import re
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


#: (trip, workers) grid the merit tests walk to find where the model's
#: prices cross — the crossover is computed, not pinned
TRIPS = (2_000_000, 20_000_000, 200_000_000)
WORKERS = (2, 4, 8, 16, 32)


def _scan_plan(analyzed_fn, n, workers, **options):
    analyzed = analyzed_fn()
    return build_plan(
        analyzed, schedule_module(analyzed),
        ExecutionOptions(backend="threaded", workers=workers, **options),
        {"n": n}, cpu_count=workers,
    )


def _scan_sides():
    """Every (workload, trip, workers) of the grid with its plan and scan
    note, split by what the model prices cheaper: (blocked scan wins,
    compiled DO wins)."""
    wins, loses = [], []
    for _name, analyzed_fn, _args, _ in SCAN_WORKLOADS:
        for n in TRIPS:
            for p in WORKERS:
                plan = _scan_plan(analyzed_fn, n, p)
                (note,) = plan.provenance["scan_loops"]
                side = wins if note["scan_cycles"] < note["do_cycles"] else loses
                side.append((plan, note))
    return wins, loses


class TestScanMerit:
    def test_auto_picks_scan_exactly_where_it_is_priced_cheaper(self):
        # The comparator is the compiled DO, not the walk: the scan needs
        # both a long trip and real cores to pay for its coefficient pass
        # and its second sweep. Both sides of that crossover exist on the
        # grid, and the choice follows the prices on each.
        wins, loses = _scan_sides()
        assert wins and loses
        for plan, note in wins:
            assert ("I", "scan") in plan.strategies()
            assert note["chosen"] and note["why"] == "blocked scan is cheaper"
            assert note["do_compiled"]
            assert note["scan_cycles"] < note["do_cycles"] < note["serial_cycles"]
            # The seq fused-kernel comparator is recorded alongside.
            assert note["seq_cycles"] is not None
        for plan, note in loses:
            assert ("I", "nest") in plan.strategies()
            assert not note["chosen"]
            assert note["why"].endswith("> compiled DO")

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
        (note,) = plan.provenance["scan_loops"]
        assert note["scan_cycles"] > note["do_cycles"]
        # the verdict names the scan's arithmetic relative to one in-order
        # pass (coefficient vectors + both sweeps: more than 1.5 passes)
        said = re.fullmatch(
            r"scan x4: (\d+\.\d)x the arithmetic \+ 2 barriers > compiled DO",
            note["why"],
        )
        assert said and float(said.group(1)) > 1.5
        assert note["why"] in plan.explain()

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
        assert plan.backend == "threaded"
        assert ("I", "scan") in plan.strategies()

    def test_explain_prints_the_scan_verdict(self):
        wins, loses = _scan_sides()
        for (plan, note), verdict in ((wins[0], "chosen"), (loses[0], "rejected")):
            text = plan.explain()
            assert "scan loop" in text
            assert note["kind"] in text
            assert verdict in text
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


def _pipelined_heads(**options):
    """(trip, workers, head LoopPlan, group note) wherever the Scan
    workload's sibling run is priced below the undecoupled plan."""
    out = []
    for n in TRIPS:
        for p in WORKERS:
            plan = _scan_plan(scan_analyzed, n, p, **options)
            (note,) = plan.provenance["pipeline_groups"]
            head = plan.loops[(1,)]
            cheaper = note["pipeline_cycles"] < note["serial_cycles"]
            assert (head.strategy == "pipeline") == note["chosen"] == cheaper
            if cheaper:
                out.append((n, p, plan, head))
            else:
                assert head.strategy == "nest"  # the compiled DO + consumer
    return out


class TestPipelineComposition:
    def test_scan_head_stage_under_allow_reassoc(self):
        # The float linrec head of the Scan workload's pipeline group
        # converts to a scan stage once reassociation is allowed, where the
        # trip and the worker count make the blocked scan beat streaming —
        # and streams in order on the other side of that price.
        heads = _pipelined_heads(allow_reassoc=True)
        scanned = [
            (n, p, plan) for n, p, plan, head in heads
            if [s.kind for s in head.stages] == ["scan", "replicated"]
        ]
        streamed = [
            head for _n, _p, _plan, head in heads
            if [s.kind for s in head.stages] == ["sequential", "replicated"]
        ]
        assert scanned and streamed
        assert len(scanned) + len(streamed) == len(heads)
        for _n, p, plan in scanned:
            assert f"scan x{p}(eq.2)" in plan.pretty()

    def test_no_reassoc_keeps_the_sequential_stage(self):
        heads = _pipelined_heads()
        assert heads
        for _n, _p, _plan, head in heads:
            assert [s.kind for s in head.stages] == ["sequential", "replicated"]


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
