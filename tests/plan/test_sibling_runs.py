"""A recurrence and its consumers plan loop by loop.

A run of sibling loops over one subrange — a recurrence feeding pointwise
consumers (``Scan``, ``Coupled``), a line sweep feeding per-row
diagnostics (``LineSweep``), three recurrences the merge pass fused
(``Mixed``) — plans as ``auto`` with one worker would plan it: the
recurrence as the compiled in-order ``DO`` (``nest``), each consumer as an
ordinary ``DOALL``. These are the sizes and worker counts at which ``auto``
once decoupled such runs into concurrent pipeline stages (or split
``Mixed`` to feed them) and measured slower than the compiled ``DO``; the
golden texts pin the plans (nothing is executed)."""

import textwrap

import pytest

from repro.core.recurrences import (
    coupled_analyzed,
    line_sweep_analyzed,
    mixed_analyzed,
    scan_analyzed,
)
from repro.graph.build import build_dependency_graph
from repro.plan.planner import build_plan
from repro.runtime.executor import ExecutionOptions
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module

GOLDEN = {
    "scan": """\
        plan Scan: backend=threaded workers={w} kernels=native windows=off [auto]
        eq.1 [kernel=scalar]
        DO I -> nest; trip 2000000; compiled in order
            eq.2 [kernel=native]
        DOALL I -> chunk x{w}; trip 2000000
            eq.3 [kernel=native]""",
    "coupled": """\
        plan Coupled: backend=threaded workers={w} kernels=native windows=off [auto]
        eq.1 [kernel=scalar]
        eq.2 [kernel=scalar]
        DO I -> nest; trip 2000000; compiled in order
            eq.3 [kernel=native]
            eq.4 [kernel=native]
        DOALL I -> chunk x{w}; trip 2000000
            eq.5 [kernel=native]""",
    "line_sweep": """\
        plan LineSweep: backend=threaded workers={w} kernels=native windows=off [auto]
        DOALL J -> vector; trip 4002
            eq.1 [kernel=vector]
        DO I -> nest; trip 4000; compiled in order
            DOALL J -> nest; trip 4002; fused
                eq.2 [kernel=native]
        DOALL I -> chunk x{w}; trip 4000
            DOALL J -> vector; trip 4002; nested in native span
                eq.3 [kernel=native]
        DOALL I -> chunk x{w}; trip 4000
            DOALL J -> vector; trip 4002; nested in native span
                eq.4 [kernel=native]""",
    # merged: one DO over three independent recurrences, left unsplit
    "mixed": """\
        plan Mixed: backend=serial workers={w} kernels=native windows=off [auto]
        eq.1 [kernel=scalar]
        eq.2 [kernel=scalar]
        eq.3 [kernel=scalar]
        DO I -> nest; trip 2000000; compiled in order
            eq.4 [kernel=native]
            eq.5 [kernel=native]
            eq.6 [kernel=native]""",
}


def _merged(analyzed):
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


#: (golden, analyzed builder, flowchart builder, sizes, workers)
CELLS = [
    ("scan", scan_analyzed, schedule_module, {"n": 2_000_000}, 2),
    ("coupled", coupled_analyzed, schedule_module, {"n": 2_000_000}, 2),
    *[
        ("line_sweep", line_sweep_analyzed, schedule_module,
         {"n": 4000, "m": 4000}, w)
        for w in (2, 4, 8, 16)
    ],
    *[("mixed", mixed_analyzed, _merged, {"n": 2_000_000}, w) for w in (4, 8)],
]


@pytest.mark.parametrize(
    "name, analyzed_fn, flowchart_fn, sizes, workers", CELLS,
    ids=[f"{c[0]}-p{c[4]}" for c in CELLS],
)
def test_auto_plans_the_run_loop_by_loop(
    name, analyzed_fn, flowchart_fn, sizes, workers
):
    analyzed = analyzed_fn()
    plan = build_plan(
        analyzed, flowchart_fn(analyzed),
        ExecutionOptions(backend="auto", workers=workers), sizes,
        cpu_count=workers,
    )
    assert plan.pretty() == textwrap.dedent(GOLDEN[name]).format(w=workers)
