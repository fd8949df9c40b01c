"""Planner integration of fission: golden plan texts, merit competition
against the unfissioned plan, provenance (taken and rejected), the
``--no-fission`` escape hatch, and forced-strategy validation."""

import pytest

from repro.core.recurrences import coupled_analyzed, mixed_analyzed
from repro.graph.build import build_dependency_graph
from repro.plan.ir import PlanError
from repro.plan.planner import build_plan, forced_plan, valid_strategies
from repro.ps.parser import parse_program
from repro.ps.semantics import analyze_program
from repro.runtime.executor import ExecutionOptions
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module

POISONED_PROGRAM = """\
Scale: module (v: int): [w: int];
define
    w = v * 3;
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


def _merged(analyzed):
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


def _mixed():
    analyzed = mixed_analyzed()
    return analyzed, _merged(analyzed)


GOLDEN_FORCED = """\
plan Mixed: backend=threaded workers=4 kernels=native windows=off [pinned]
eq.1 [kernel=scalar]
eq.2 [kernel=scalar]
eq.3 [kernel=scalar]
DO I -> fission x3; trip 64; forced dependence split
    DO I -> nest; trip 64; compiled in order
        eq.4 [kernel=nest]
    DO I -> nest; trip 64; compiled in order
        eq.5 [kernel=nest]
    DO I -> nest; trip 64; compiled in order
        eq.6 [kernel=nest]"""

#: trips the merit tests walk to find where the model's prices cross
TRIP_LADDER = (64, 20_000, 200_000, 2_000_000, 20_000_000, 200_000_000)


def _merit_plan(n, workers=4):
    analyzed, chart = _mixed()
    plan = build_plan(
        analyzed, chart,
        ExecutionOptions(backend="threaded", workers=workers),
        {"n": n}, cpu_count=workers,
    )
    (note,) = plan.provenance["fission_loops"]
    return plan, note


def _fission_crossover(workers=4):
    """(last trip of the ladder where the unfissioned plan is priced
    cheaper, first trip where the split is): the two sides of the
    crossover, found from the model rather than pinned."""
    below = None
    for n in TRIP_LADDER:
        _plan, note = _merit_plan(n, workers)
        if note["fission_cycles"] < note["unfissioned_cycles"]:
            assert below is not None, "fission wins even at the shortest trip"
            return below, n
        below = n
    raise AssertionError("fission never beats the compiled DO on the ladder")


class TestGoldenFissionPlans:
    def test_forced_fission_text(self):
        analyzed, chart = _mixed()
        plan = build_plan(
            analyzed, chart,
            ExecutionOptions(backend="threaded", workers=4,
                             strategy="fission"),
            {"n": 64}, cpu_count=4,
        )
        assert plan.pretty() == GOLDEN_FORCED

    def test_merit_fission_with_pipelined_replicas(self):
        # Past the trip where three decoupled passes are priced below one
        # compiled DO the split wins on price alone, and the replica run
        # decouples into a three-stage pipeline — the transforms compose:
        # fission exposes the siblings, pipeline decouples them. Below it
        # the loop stays one compiled nest.
        below, above = _fission_crossover()
        plan, _note = _merit_plan(below)
        assert plan.strategies() == [("I", "nest")]
        plan, _note = _merit_plan(above)
        assert plan.strategies() == [
            ("I", "fission"), ("I", "pipeline"), ("I", "pipeline"),
            ("I", "pipeline"),
        ]
        root = plan.loops[(3,)]
        assert root.annotation() == f"fission x3; trip {above}; dependence split"
        head = plan.loops[(3, -1, 0)]
        assert [s.labels for s in head.stages] == [
            ("eq.4",), ("eq.5",), ("eq.6",),
        ]
        assert head.stages[0].kind == head.stages[1].kind == "sequential"
        assert head.reason == "decoupled sibling run"
        assert {plan.equations[f"eq.{k}"].kernel for k in (4, 5, 6)} == {"native"}


class TestFissionDecision:
    def test_merit_provenance_fields(self):
        below, above = _fission_crossover()
        plan, note = _merit_plan(above)
        assert note["chosen"] and note["why"] == "split pieces are cheaper"
        assert note["parts"] == 3
        assert note["pieces"] == ["DO(eq.4)", "DO(eq.5)", "DO(eq.6)"]
        assert note["fission_cycles"] < note["unfissioned_cycles"]
        assert "fission @" in plan.explain()
        # and on the other side of the crossover the note says who won
        plan, note = _merit_plan(below)
        assert not note["chosen"]
        assert note["fission_cycles"] >= note["unfissioned_cycles"]
        assert note["why"].startswith("unfissioned plan is cheaper")

    def test_short_trip_keeps_the_unfissioned_plan(self):
        # At trip 64 the split's replica loops only add overhead: auto
        # pricing must reject it and say why.
        analyzed, chart = _mixed()
        plan = build_plan(
            analyzed, chart,
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 64}, cpu_count=4,
        )
        assert "fission" not in [s for _, s in plan.strategies()]
        (note,) = plan.provenance["fission_loops"]
        assert not note["chosen"]
        assert note["why"] == (
            "unfissioned plan is cheaper: 3 passes over memory > one "
            "compiled DO"
        )

    def test_no_fission_escape_hatch(self):
        analyzed, chart = _mixed()
        _below, above = _fission_crossover()  # where the split would win
        plan = build_plan(
            analyzed, chart,
            ExecutionOptions(backend="threaded", workers=4,
                             use_fission=False),
            {"n": above}, cpu_count=4,
        )
        assert "fission" not in [s for _, s in plan.strategies()]
        assert not plan.provenance.get("fission_loops")

    def test_soft_force_degrades_on_unsplittable_loops(self):
        # The coupled recurrence is one dependence group: a soft
        # ``--strategy fission`` plans normally instead of raising.
        analyzed = coupled_analyzed()
        chart = schedule_module(analyzed)
        plan = build_plan(
            analyzed, chart,
            ExecutionOptions(backend="threaded", workers=4,
                             strategy="fission"),
            {"n": 64}, cpu_count=4,
        )
        assert "fission" not in [s for _, s in plan.strategies()]

    def test_hard_pin_on_unsplittable_loop_raises(self):
        analyzed = coupled_analyzed()
        chart = schedule_module(analyzed)
        loop = next(d for d in chart.loops() if not d.parallel)
        path = chart.path_of(loop)
        with pytest.raises(PlanError, match="cannot force 'fission'"):
            forced_plan(
                analyzed, chart, "threaded", scalar_env={"n": 64},
                overrides={path: "fission"}, cpu_count=4,
            )

    def test_window_mode_hazard_degrades_softly(self):
        # The Mixed targets are results (never windowed), so build a
        # windowed variant: a local accumulator consumed only at [n].
        source = """\
WinMix: module (X: array[1 .. n] of int; n: int):
        [R: array[0 .. n] of int; Y: int];
type
    I = 1 .. n;
var
    U: array [0 .. n] of int;
define
    R[0] = 0;
    U[0] = 0;
    R[I] = R[I-1] + X[I];
    U[I] = U[I-1] + X[I];
    Y = U[n];
end WinMix;
"""
        from repro.ps.parser import parse_module
        from repro.ps.semantics import analyze_module

        analyzed = analyze_module(parse_module(source))
        chart = _merged(analyzed)
        for use_windows, expect in ((False, True), (True, False)):
            plan = build_plan(
                analyzed, chart,
                ExecutionOptions(backend="threaded", workers=4,
                                 strategy="fission",
                                 use_windows=use_windows),
                {"n": 64}, cpu_count=4,
            )
            has = "fission" in [s for _, s in plan.strategies()]
            assert has == expect
        # The window-mode rejection lands in the provenance.
        plan = build_plan(
            analyzed, chart,
            ExecutionOptions(backend="threaded", workers=4,
                             strategy="fission", use_windows=True),
            {"n": 64}, cpu_count=4,
        )
        (note,) = plan.provenance["fission_loops"]
        assert not note["chosen"]
        assert "windowed array U" in note["why"]

    def test_valid_strategies_lists_fission(self):
        analyzed, chart = _mixed()
        opts = ExecutionOptions(backend="threaded", workers=4)
        loop = next(d for d in chart.loops())
        assert "fission" in valid_strategies(analyzed, chart, loop, opts)
        unmerged = schedule_module(analyzed)
        single = next(d for d in unmerged.loops())
        assert "fission" not in valid_strategies(
            analyzed, unmerged, single, opts
        )

    def test_fission_with_kernels_off_stays_buildable(self):
        analyzed, chart = _mixed()
        plan = build_plan(
            analyzed, chart,
            ExecutionOptions(backend="serial", strategy="fission",
                             use_kernels=False),
            {"n": 64}, cpu_count=4,
        )
        assert "fission" in [s for _, s in plan.strategies()]


class TestSlowLoopProvenance:
    def test_unkernelizable_equation_is_named_with_its_reason(self):
        program = analyze_program(parse_program(POISONED_PROGRAM))
        body = program["Body"]
        chart = _merged(body)
        plan = build_plan(
            body, chart,
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 1000}, cpu_count=4,
        )
        (note,) = plan.provenance["slow_loops"]
        assert note["label"] == "eq.1"
        assert note["reason"] == (
            "calls module Scale with index-dependent arguments"
        )
        assert "slow loop @" in plan.explain()
        assert "eq.1 not kernelizable" in plan.explain()

    def test_fission_isolation_is_reported_when_taken(self):
        # Force the split: the note must say the offender now runs in
        # its own replica loop.
        program = analyze_program(parse_program(POISONED_PROGRAM))
        body = program["Body"]
        chart = _merged(body)
        plan = build_plan(
            body, chart,
            ExecutionOptions(backend="threaded", workers=4,
                             strategy="fission"),
            {"n": 1000}, cpu_count=4,
        )
        (note,) = plan.provenance["slow_loops"]
        assert note["fission"] == "split: the offender runs in its own loop"

    def test_clean_modules_report_no_slow_loops(self):
        analyzed, chart = _mixed()
        plan = build_plan(
            analyzed, chart,
            ExecutionOptions(backend="threaded", workers=4),
            {"n": 64}, cpu_count=4,
        )
        assert plan.provenance["slow_loops"] == []
