#!/usr/bin/env python3
"""Pipeline parallelism for non-DOALL loops: the DSWP-style `pipeline`
strategy on the recurrence corpus.

A recurrence (``S[I] = S[I-1]*a + X[I]``) schedules as a sequential ``DO``
loop — no DOALL, so none of the chunk/vector machinery applies. But the
flowchart right *after* the recurrence often holds DOALL loops that consume
its output row by row. The ``pipeline`` strategy partitions such a run of
sibling loops into stages over the dependence structure:

* the cyclic loop (the recurrence itself) becomes a *sequential* stage —
  one worker, blocks strictly in order, through the same compiled
  in-order nest kernel an unpipelined ``DO I -> nest`` runs;
* each acyclic consumer becomes (or joins) a *replicated* stage — several
  workers claiming blocks as the upstream frontier releases them.

Stages hand off bounded blocks: stage k runs block b once stage k-1 has
completed it, and at most a few blocks ahead of its consumer. Single
assignment makes this bit-exact — a completed upstream block covers every
downstream read of the same rows.

The corpus:

* ``scan``       — first-order linear recurrence + elementwise consumer;
* ``coupled``    — two mutually recursive sequences (one fused DO) + consumer;
* ``line_sweep`` — Gauss-Seidel-style line relaxation: each row depends on
                   the previous row, inner columns are parallel.

Equivalent CLI:  repro run scan.ps --set n=64 --set a=1 \\
                     --backend threaded --workers 4 --strategy pipeline

Run:  python examples/pipeline_recurrences.py
"""

import time

import numpy as np

from repro.core.recurrences import RECURRENCE_WORKLOADS, scan_analyzed
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module


def main() -> None:
    print("=" * 72)
    print("The scan schedule: a sequential DO feeding a DOALL")
    print("=" * 72)
    analyzed = scan_analyzed()
    print(schedule_module(analyzed).pretty())

    print()
    print("=" * 72)
    print("The forced pipeline plan (threaded, 4 workers)")
    print("=" * 72)
    from repro.plan.planner import build_plan

    options = ExecutionOptions(backend="threaded", workers=4, strategy="pipeline")
    plan = build_plan(
        analyzed, schedule_module(analyzed), options, {"n": 64}
    )
    print(plan.pretty())
    for note in plan.provenance.get("pipeline_groups", []):
        state = "chosen" if note["chosen"] else "rejected"
        print(f"  group @{note['index']}: {note['kinds']} — {state} ({note['why']})")

    print()
    print("=" * 72)
    print("Parity: forced pipeline vs the scalar reference evaluator")
    print("=" * 72)
    print(f"{'workload':>12} {'serial':>10} {'pipeline':>10}  bit-exact")
    for name, analyzed_fn, args_fn, out in RECURRENCE_WORKLOADS:
        analyzed = analyzed_fn()
        args = args_fn()
        t0 = time.perf_counter()
        ref = execute_module(
            analyzed, args,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = execute_module(analyzed, args, options=options)
        t_pipe = time.perf_counter() - t0
        exact = np.array_equal(np.asarray(ref[out]), np.asarray(res[out]))
        print(
            f"{name:>12} {t_ref * 1e3:>8.1f}ms {t_pipe * 1e3:>8.1f}ms  {exact}"
        )
        assert exact, f"{name}: pipeline diverged from the reference"
    print()
    print("All recurrence workloads bit-exact under the decoupled pipeline.")


if __name__ == "__main__":
    main()
