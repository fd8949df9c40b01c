"""B-scan — the blocked scan against the compiled sequential loop.

A first-order recurrence schedules as a ``DO`` loop, and a ``DO`` whose
nest lowers runs as one compiled in-order kernel (``DO I -> nest``). The
``scan`` strategy solves the same recurrence Blelloch-style in three
phases (parallel per-block sweeps around a p-step serial carry pass) on
the thread pool: about twice the arithmetic plus two barriers, in exchange
for p-way sweeps. Whether that trade pays is a question about cores and
trip counts, and the planner answers it per plan; this bench checks the
answer on the integer linear-recurrence workload (loop-varying
coefficients, bit-exact under two's-complement wraparound) and writes
``BENCH_scan.json``.

The gate (``strategy_vs_compiled_do`` in ``conftest.py``): at every worker
count the host has cores for, **if the unforced plan picks ``scan`` it
measures no slower than the compiled ``DO`` at p = 1**, and the forced
scan agrees bit for bit with the compiled loop at bench size. (Until
PR 18 the gate was ">= 1.5x over the serial walk" — ~100x measured, all of
it from reaching C at all; see ROADMAP, "Recent".)

On a machine without a C compiler the module skips: the baseline would be
the Python dialect of the loop, which is not the comparison being made.
"""

import json

import pytest

from repro.core.recurrences import ilinrec_analyzed, ilinrec_args
from repro.runtime.kernels import native_supported
from repro.schedule.scheduler import schedule_module

pytestmark = pytest.mark.skipif(
    not native_supported(),
    reason="native tier unavailable: no C compiler / cffi on this machine",
)

#: recurrence lengths
TRIPS = [50_000, 500_000]


def test_scan_vs_compiled_do(artifact, strategy_vs_compiled_do):
    analyzed = ilinrec_analyzed()
    flow = schedule_module(analyzed)
    rows = []
    for n in TRIPS:
        rows += strategy_vs_compiled_do(
            analyzed, flow, ilinrec_args(n=n), ("S",), "scan", "ilinrec"
        )
    artifact("BENCH_scan.json", json.dumps({"rows": rows}, indent=2))
