"""Pipeline-group recognition (:mod:`repro.schedule.pipeline_stages`):
how runs of sibling loops over one iteration space partition into
sequential and replicated stages. Nothing plans or executes these groups;
the end-to-end benchmark counts them."""

import pytest

from repro.core.recurrences import (
    coupled_analyzed,
    line_sweep_analyzed,
    scan_analyzed,
)
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.schedule.pipeline_stages import pipeline_groups
from repro.schedule.scheduler import schedule_module

from tests.plan.conftest import WORKLOADS


def _groups(source: str):
    analyzed = analyze_module(parse_module(source))
    flow = schedule_module(analyzed)
    return pipeline_groups(analyzed, flow, False)


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
        # None of the five paper workloads' sibling runs is a group.
        _, analyzed, flow, _, _ = workload
        assert pipeline_groups(analyzed, flow, use_windows) == {}
