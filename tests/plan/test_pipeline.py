"""The pipeline strategy at the plan layer: how sibling runs partition
into stages, what the forced plans look like (golden text — part of the
``repro plan`` interface), and how the pricing provenance reads."""

import textwrap

import pytest

from repro.core.recurrences import (
    RECURRENCE_WORKLOADS,
    coupled_analyzed,
    line_sweep_analyzed,
    line_sweep_args,
    scan_analyzed,
    scan_args,
)
from repro.errors import ExecutionError
from repro.plan.planner import build_plan, forced_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions
from repro.schedule.pipeline_stages import pipeline_groups
from repro.schedule.scheduler import schedule_module

from tests.plan.conftest import WORKLOADS


def _groups(source: str):
    analyzed = analyze_module(parse_module(source))
    flow = schedule_module(analyzed)
    return pipeline_groups(analyzed, flow, False)


def _scalars(args):
    return {k: v for k, v in args.items() if isinstance(v, int)}


class TestPartitioning:
    def test_scan_partitions_seq_then_par(self):
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        groups = pipeline_groups(analyzed, flow, False)
        assert set(groups) == {()}
        (group,) = groups[()]
        assert group.start == 1 and group.size == 2
        assert [s.kind for s in group.stages] == ["sequential", "replicated"]
        assert [s.labels for s in group.stages] == [("eq.2",), ("eq.3",)]

    def test_coupled_recurrence_is_one_sequential_stage(self):
        # P and Q are mutually recursive: the scheduler fuses them into one
        # DO (one MSCC), which must become a single sequential stage.
        analyzed = coupled_analyzed()
        flow = schedule_module(analyzed)
        (group,) = pipeline_groups(analyzed, flow, False)[()]
        assert group.kinds() == "seq+par[1]"
        assert group.stages[0].labels == ("eq.3", "eq.4")

    def test_line_sweep_coalesces_identity_consumers(self):
        # D and Mout read their producers at the same row (delta 0): both
        # DOALLs join one replicated stage instead of two chained ones.
        analyzed = line_sweep_analyzed()
        flow = schedule_module(analyzed)
        (group,) = pipeline_groups(analyzed, flow, False)[()]
        assert group.kinds() == "seq+par[2]"
        assert group.stages[1].members == (1, 2)
        assert group.stages[1].labels == ("eq.3", "eq.4")

    def test_shifted_doall_chain_partitions_into_replicated_stages(self):
        # No recurrence at all: two DOALLs linked by a backward-shifted
        # read still pipeline — both stages replicated.
        groups = _groups("""\
Shift: module (X: array[0 .. n] of real; n: int): [Z: array[1 .. n] of real];
type
    I = 1 .. n;
var
    Y: array [0 .. n] of real;
define
    Y[0] = X[0];
    Y[I] = X[I] * 2.0 + X[I-1];
    Z[I] = Y[I] + Y[I-1];
end Shift;
""")
        (group,) = groups[()]
        assert [s.kind for s in group.stages] == ["replicated", "replicated"]

    def test_identity_only_chain_is_not_a_pipeline(self):
        # Same-row deps coalesce everything into one stage; a one-stage
        # "pipeline" is just a loop run, so no group is reported.
        assert _groups("""\
Ident: module (X: array[1 .. n] of real; n: int): [Z: array[1 .. n] of real];
type
    I = 1 .. n;
var
    Y: array [1 .. n] of real;
define
    Y[I] = X[I] * 2.0;
    Z[I] = Y[I] + 1.0;
end Ident;
""") == {}

    def test_forward_read_rejects_the_group(self):
        # The consumer reads S[I+1]: a completed upstream block does not
        # cover the read, so block hand-offs would be wrong.
        assert _groups("""\
Forward: module (X: array[0 .. n+1] of real; n: int): [Z: array[1 .. n] of real];
type
    I = 1 .. n;
var
    S: array [0 .. n+1] of real;
define
    S[0] = 0.0;
    S[I] = S[I-1] + X[I];
    Z[I] = S[I+1] * 2.0;
end Forward;
""") == {}

    def test_mismatched_bounds_reject_the_group(self):
        assert _groups("""\
Mismatch: module (X: array[0 .. n] of real; n: int; m: int):
          [Z: array[1 .. m] of real];
type
    I = 1 .. n; J = 1 .. m;
var
    S: array [0 .. n] of real;
define
    S[0] = 0.0;
    S[I] = S[I-1] + X[I];
    Z[J] = S[J] * 2.0;
end Mismatch;
""") == {}

    @pytest.mark.parametrize(
        "workload", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    @pytest.mark.parametrize("use_windows", [False, True], ids=["flat", "win"])
    def test_paper_workloads_have_no_groups(self, workload, use_windows):
        # The five paper workloads must keep their existing plans: none of
        # their sibling runs is a decoupleable pipeline.
        _, analyzed, flow, _, _ = workload
        assert pipeline_groups(analyzed, flow, use_windows) == {}


GOLDEN_FORCED = {
    "scan": """\
        plan Scan: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> pipeline x4; stages 2 [seq(eq.2) | par x3(eq.3)]; block 4; trip 64; forced
            eq.2 [kernel=native]
        DOALL I -> pipeline; trip 64; stage 2/2
            eq.3 [kernel=native]""",
    "coupled": """\
        plan Coupled: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        eq.2 [kernel=scalar]
        DO I -> pipeline x4; stages 2 [seq(eq.3, eq.4) | par x3(eq.5)]; block 4; trip 64; forced
            eq.3 [kernel=native]
            eq.4 [kernel=native]
        DOALL I -> pipeline; trip 64; stage 2/2
            eq.5 [kernel=native]""",
    # The standalone scan workloads have no consumer siblings, so there is
    # no group to force: at trip 64 the blocked scan loses to the compiled
    # in-order nest (Python dialect: a 64-trip walk is far cheaper than a
    # compiler run) — tests/plan/test_scan_plan.py pins the forced-scan
    # texts.
    "isum": """\
        plan ISum: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> nest; trip 64; compiled in order
            eq.2 [kernel=nest]""",
    "runmax": """\
        plan RunMax: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> nest; trip 64; compiled in order
            eq.2 [kernel=nest]""",
    "ilinrec": """\
        plan ILinRec: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> nest; trip 64; compiled in order
            eq.2 [kernel=nest]""",
    # Unmerged, the three recurrences interleave with their base-case
    # nodes, so no sibling run of loops forms and there is no group to
    # force (merged, this workload is the fission gate —
    # tests/plan/test_fission_plan.py pins those texts).
    "mixed": """\
        plan Mixed: backend=threaded workers=4 kernels=native windows=off [pinned]
        eq.1 [kernel=scalar]
        DO I -> nest; trip 64; compiled in order
            eq.4 [kernel=nest]
        eq.2 [kernel=scalar]
        DO I -> nest; trip 64; compiled in order
            eq.5 [kernel=nest]
        eq.3 [kernel=scalar]
        DO I -> nest; trip 64; compiled in order
            eq.6 [kernel=nest]""",
    "line_sweep": """\
        plan LineSweep: backend=threaded workers=4 kernels=native windows=off [pinned]
        DOALL J -> chunk x4; trip 10
            eq.1 [kernel=native]
        DO I -> pipeline x4; stages 2 [seq(eq.2) | par x3(eq.3, eq.4)]; block 1; trip 12; forced
            DOALL J -> nest; trip 10; fused
                eq.2 [kernel=native]
        DOALL I -> pipeline; trip 12; stage 2/2
            DOALL J -> vector; trip 10; nested in native span
                eq.3 [kernel=native]
        DOALL I -> pipeline; trip 12; stage 2/2
            DOALL J -> vector; trip 10; nested in native span
                eq.4 [kernel=native]""",
}


class TestGoldenPipelinePlans:
    @pytest.mark.parametrize(
        "workload", RECURRENCE_WORKLOADS, ids=[w[0] for w in RECURRENCE_WORKLOADS]
    )
    def test_forced_pipeline_text(self, workload):
        name, analyzed_fn, args_fn, _ = workload
        analyzed = analyzed_fn()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4, strategy="pipeline"),
            _scalars(args_fn()), cpu_count=4,
        )
        assert plan.pretty() == textwrap.dedent(GOLDEN_FORCED[name])

    def test_line_sweep_pipelines_on_merit(self):
        # No force: the priced decoupling beats the undecoupled plan (a
        # scalar-walked recurrence row vs a fused seq-kernel stage), so
        # the pinned threaded plan picks pipeline by itself.
        analyzed = line_sweep_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4),
            _scalars(line_sweep_args()), cpu_count=4,
        )
        head = next(p for _, p in plan.strategies() if p == "pipeline")
        assert head == "pipeline"
        (note,) = plan.provenance["pipeline_groups"]
        assert note["chosen"] and note["why"] == "decoupling is cheaper"
        assert note["pipeline_cycles"] < note["serial_cycles"]

    def test_hard_pin_on_a_member_outranks_the_group(self):
        # A hard per-path pin is honoured or raises, never dropped: the
        # group the pipeline default forms must not claim a pinned member.
        analyzed = line_sweep_analyzed()
        chart = schedule_module(analyzed)
        options = ExecutionOptions(backend="threaded", workers=4)
        scalars = _scalars(line_sweep_args())
        free = forced_plan(
            analyzed, chart, "threaded", options, scalars, default="pipeline"
        )
        head = next(lp for lp in free.loops.values() if lp.strategy == "pipeline")
        pinned = forced_plan(
            analyzed, chart, "threaded", options, scalars,
            default="pipeline", overrides={head.path: "serial"},
        )
        assert pinned.loops[head.path].strategy == "serial"
        assert all(s != "pipeline" for _, s in pinned.strategies())

    def test_scan_rejected_without_force_at_small_trip(self):
        # At trip 64 the stage spin-up dominates: auto pricing must keep
        # the undecoupled plan and say why in the provenance.
        analyzed = scan_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=4),
            _scalars(scan_args()), cpu_count=4,
        )
        assert all(s != "pipeline" for _, s in plan.strategies())
        (note,) = plan.provenance["pipeline_groups"]
        assert not note["chosen"]
        assert note["why"].startswith("undecoupled plan is cheaper")
        assert "compiled DO" in note["why"]

    def test_pipeline_degrades_to_serial_when_workers_lack(self):
        # Soft force with one worker: a stage per worker is impossible, so
        # the group degrades all-or-nothing to the undecoupled plan.
        analyzed = scan_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="threaded", workers=1, strategy="pipeline"),
            _scalars(scan_args()), cpu_count=4,
        )
        assert all(s != "pipeline" for _, s in plan.strategies())

    def test_unknown_strategy_raises(self):
        analyzed = scan_analyzed()
        with pytest.raises(ExecutionError, match="unknown strategy"):
            build_plan(
                analyzed, schedule_module(analyzed),
                ExecutionOptions(backend="threaded", workers=4,
                                 strategy="warp-drive"),
                _scalars(scan_args()), cpu_count=4,
            )

    def test_auto_with_pipeline_strategy_picks_a_pipeline_backend(self):
        # backend=auto + strategy=pipeline narrows the candidates to the
        # backends that own the decoupled engine.
        analyzed = line_sweep_analyzed()
        plan = build_plan(
            analyzed, schedule_module(analyzed),
            ExecutionOptions(backend="auto", workers=4, strategy="pipeline"),
            _scalars(line_sweep_args()), cpu_count=4,
        )
        assert plan.backend == "threaded"
        assert any(s == "pipeline" for _, s in plan.strategies())
