"""The section-3.4 memory windows compute what full storage computes.

Each program carries a two-dimensional array ``W`` along ``I`` at offset
``c`` (1 or 2) and differs in where its boundary column ``J = 0`` is
defined:

* ``sweep`` — by a separate ``DOALL I`` before the recurrence. The planes
  it writes would be overwritten in a ``1 + c`` plane window before the
  recurrence reads them, so the window is refused;
* ``constant`` — nowhere: only the constant planes ``0 .. c - 1`` below
  the loop are defined outside it, which the loop reads before it
  overwrites them, so the window holds;
* ``inside`` — by the recurrence itself (a boundary ``if``), so the window
  holds;
* ``corner`` — as ``inside``, with the result read at ``W[n, n]``: the
  published read rule then also admits a window over ``J``, which would
  lose the row ``W[I - c, J]`` reads, so that one is refused.

On every backend, with the fault-on-overwrite tags armed and with the
kernels on, windows on must equal windows off bit for bit.
"""

import numpy as np
import pytest

from repro.graph.build import build_dependency_graph
from repro.graph.scc import condensation_order
from repro.plan.planner import build_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module
from repro.schedule.virtual import virtual_dimension_report

BACKENDS = ("serial", "vectorized", "threaded")

#: the planes below the loop, defined outside it: constant, as allowed
BASE = {1: "W[0] = 1;", 2: "W[0] = 1;\n    W[1] = 2;"}

SHAPES = {
    "sweep": (
        "J = 1 .. n",
        "W[I, 0] = I;\n    W[I, J] = W[I-{c}, J] + W[I, J-1];",
        "Y: array[0 .. n] of int", "Y = W[n];",
    ),
    "constant": (
        "J = 0 .. n",
        "W[I, J] = W[I-{c}, J] * 2 + J;",
        "Y: array[0 .. n] of int", "Y = W[n];",
    ),
    "inside": (
        "J = 0 .. n",
        "W[I, J] = if J = 0 then I else W[I-{c}, J] + W[I, J-1];",
        "Y: array[0 .. n] of int", "Y = W[n];",
    ),
    "corner": (
        "J = 0 .. n",
        "W[I, J] = if J = 0 then I else W[I-{c}, J] + W[I, J-1];",
        "Y: int", "Y = W[n, n];",
    ),
}

#: shape -> (windows the scheduler grants, refusal it records for W)
EXPECTED = {
    "sweep": ({}, "defines W[I, 0] outside the loop over I; only constant "
                  "planes 0 .. {c1} of dimension 0 may be"),
    "constant": ({"W": {0: "{w}"}}, None),
    "inside": ({"W": {0: "{w}"}}, None),
    "corner": ({"W": {0: "{w}"}}, "reads W[I - {c}, J] across iterations of "
                                  "an enclosing loop"),
}


def _source(shape: str, c: int) -> str:
    j_range, body, result, read = SHAPES[shape]
    return f"""\
Win: module (n: int): [{result}];
type
    I = {c} .. n; {j_range};
var
    W: array [0 .. n, 0 .. n] of int;
define
    {BASE[c]}
    {body.format(c=c)}
    {read}
end Win;
"""


CASES = [(shape, c) for shape in SHAPES for c in (1, 2)]
IDS = [f"{shape}-c{c}" for shape, c in CASES]


@pytest.mark.parametrize("shape, c", CASES, ids=IDS)
def test_the_scheduler_grants_or_refuses_the_window(shape, c):
    analyzed = analyze_module(parse_module(_source(shape, c)))
    flow = schedule_module(analyzed)
    windows, refusal = EXPECTED[shape]
    assert flow.windows == {
        name: {d: int(w.format(w=1 + c)) for d, w in dims.items()}
        for name, dims in windows.items()
    }
    if refusal is None:
        assert flow.window_refusals == {}
        return
    (why,) = flow.window_refusals.values()
    assert refusal.format(c=c, c1=c - 1) in why
    # the plan says it on W's storage line, in window mode only
    options = ExecutionOptions(backend="serial", use_windows=True)
    line = next(
        row for row in build_plan(analyzed, flow, options, {"n": 6}).explain()
        .splitlines() if row.startswith("  W: ")
    )
    assert line.endswith(f"; window refused: {why}")
    options = ExecutionOptions(backend="serial")
    assert "window refused" not in build_plan(
        analyzed, flow, options, {"n": 6}
    ).explain()


@pytest.mark.parametrize("debug_windows", [True, False], ids=["tags", "kernels"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape, c", CASES, ids=IDS)
def test_windows_on_equal_windows_off(shape, c, backend, debug_windows):
    analyzed = analyze_module(parse_module(_source(shape, c)))
    flow = schedule_module(analyzed)
    full = execute_module(
        analyzed, {"n": 7}, flow,
        ExecutionOptions(backend="serial", use_kernels=False),
    )
    windowed = execute_module(
        analyzed, {"n": 7}, flow,
        ExecutionOptions(
            backend=backend, workers=2, use_windows=True,
            debug_windows=debug_windows,
        ),
    )
    assert np.array_equal(np.asarray(windowed["Y"]), np.asarray(full["Y"]))


PATHS_SWEEP = """\
Paths: module (n: int): [Y: array[0 .. n] of int];
type
    I = 1 .. n; J = 1 .. n;
var
    W: array [0 .. n, 0 .. n] of int;
define
    W[0] = 1;
    W[I, 0] = I;
    W[I, J] = W[I-1, J] + W[I, J-1];
    Y = W[n];
end Paths;
"""


@pytest.mark.parametrize("use_windows", [False, True], ids=["full", "win"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_lattice_paths_with_a_swept_boundary(backend, use_windows):
    """The reproduction that found the bug: with windows on, ``W`` came
    back as ``[6, 34, 121, 330, 760, 1556, 2920]`` on every backend."""
    analyzed = analyze_module(parse_module(PATHS_SWEEP))
    out = execute_module(
        analyzed, {"n": 6},
        options=ExecutionOptions(
            backend=backend, workers=2, use_windows=use_windows,
            debug_windows=use_windows,
        ),
    )
    assert list(out["Y"]) == [6, 22, 63, 154, 336, 672, 1254]


def test_the_report_lists_the_refusal():
    analyzed = analyze_module(parse_module(PATHS_SWEEP))
    graph = build_dependency_graph(analyzed)
    report = virtual_dimension_report(
        graph, condensation_order(graph.full_view())
    )
    (row,) = report
    assert (row.node_id, row.dim, row.window) == ("W", 0, None)
    assert row.refused.startswith("eq.2 defines W[I, 0] outside the loop")
