"""B-fission — splitting a fused sequential nest against compiling it whole.

The merge pass fuses every same-range recurrence into one ``DO`` nest:
the three recurrences of the ``Mixed`` workload (an integer scan, a linear
recurrence, and a running max) share one loop, which runs as one compiled
in-order kernel (``DO I -> nest``). Fission replicates the loop per
dependence group; the replicas are sibling loops the planner compiles one
by one. What that buys is parallelism inside any piece that comes out a
``DOALL``, and what it costs is one pass over memory per piece where the
fused loop makes one; the planner prices both per plan (on ``Mixed`` every
piece is a recurrence, and it declines). This bench checks the answer and
writes ``BENCH_fission.json``.

The gate (``strategy_vs_compiled_do`` in ``conftest.py``): at every worker
count the host has cores for, **if the unforced plan takes the split it
measures no slower than the fused compiled ``DO`` at p = 1**, and the
forced split agrees bit for bit with it at bench size. (Until PR 18 the
gate was ">= 1.5x over the unfissioned walk" — ~240x measured, all of it
from the pieces reaching C at all; see ROADMAP, "Recent".)

On a machine without a C compiler the module skips: the baseline would be
the Python dialect of the loop, which is not the comparison being made.
"""

import json

import pytest

from repro.core.recurrences import mixed_analyzed, mixed_args
from repro.graph.build import build_dependency_graph
from repro.runtime.kernels import native_supported
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module

pytestmark = pytest.mark.skipif(
    not native_supported(),
    reason="native tier unavailable: no C compiler / cffi on this machine",
)

#: fused-nest trip counts
TRIPS = [20_000, 200_000]


def test_fission_vs_compiled_do(artifact, strategy_vs_compiled_do):
    analyzed = mixed_analyzed()
    graph = build_dependency_graph(analyzed)
    flow = merge_loops(schedule_module(analyzed, graph), graph)
    rows = []
    for n in TRIPS:
        rows += strategy_vs_compiled_do(
            analyzed, flow, mixed_args(n=n), ("T", "S", "M"), "fission",
            "mixed",
        )
    artifact("BENCH_fission.json", json.dumps({"rows": rows}, indent=2))
