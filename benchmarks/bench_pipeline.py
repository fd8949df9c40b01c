"""B-pipeline — DSWP-style decoupling against the compiled sequential loop.

A sequential recurrence schedules as a ``DO`` loop, and a ``DO`` whose
nest lowers runs as one compiled in-order kernel (``DO I -> nest``). The
``pipeline`` strategy turns the recurrence and its downstream DOALL
consumers into decoupled stages over bounded block hand-offs: the
sequential stage streams in-order blocks through that same kernel while
the replicated stage chases its completion frontier with the remaining
workers. What it buys over running the two loops one after the other is
overlap, and what it costs is stage spin-up plus a hand-off per block; the
planner prices both per plan. This bench checks the answer on the
coupled-recurrence workload (two mutually recursive sequences feeding an
elementwise consumer) and writes ``BENCH_pipeline.json``.

The gate (``strategy_vs_compiled_do`` in ``conftest.py``): at every worker
count the host has cores for, **if the unforced plan picks ``pipeline`` it
measures no slower than the compiled ``DO`` plan at p = 1**, and the
forced pipeline agrees bit for bit with it at bench size. (Until PR 18 the
gate was ">= 1.5x over the serial walk" — ~100x measured, all of it from
reaching C at all; see ROADMAP, "Recent".)

On a machine without a C compiler the module skips: the baseline would be
the Python dialect of the loop, which is not the comparison being made.
"""

import json

import pytest

from repro.core.recurrences import coupled_analyzed, coupled_args
from repro.runtime.kernels import native_supported
from repro.schedule.scheduler import schedule_module

pytestmark = pytest.mark.skipif(
    not native_supported(),
    reason="native tier unavailable: no C compiler / cffi on this machine",
)

#: recurrence lengths
TRIPS = [50_000, 500_000]


def test_pipeline_vs_compiled_do(artifact, strategy_vs_compiled_do):
    analyzed = coupled_analyzed()
    flow = schedule_module(analyzed)
    rows = []
    for n in TRIPS:
        rows += strategy_vs_compiled_do(
            analyzed, flow, coupled_args(n=n), ("R",), "pipeline", "coupled"
        )
    artifact("BENCH_pipeline.json", json.dumps({"rows": rows}, indent=2))
