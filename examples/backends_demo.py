#!/usr/bin/env python3
"""Pluggable DOALL execution backends: the same schedule, three engines.

The scheduler emits DOALL loops because their iterations are independent;
the execution backends exploit that on real hardware:

* ``serial``     — scalar reference semantics (the correctness baseline);
* ``vectorized`` — each DOALL dimension becomes one NumPy operation;
* ``threaded``   — vector spans, or a fused C nest on a team of OpenMP
                   threads where that is cheaper, its join inside the call.

Equivalent CLI:  repro run relaxation.ps --set M=24 --set maxK=6 \\
                     --backend threaded --workers 4

Run:  python examples/backends_demo.py
"""

import time

import numpy as np

import repro
from repro.core.paper import jacobi_analyzed
from repro.machine.report import measure_backend_speedups
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module


def main() -> None:
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    m, maxk = 24, 6
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}

    print("=" * 72)
    print("Schedule under execution (paper Figure 6)")
    print("=" * 72)
    print(flow.pretty())

    print()
    print("=" * 72)
    print(f"Backend matrix on Jacobi relaxation (M={m}, maxK={maxk})")
    print("=" * 72)
    combos = [
        ("serial", None),
        ("vectorized", None),
        ("threaded", 4),
    ]
    reference = None
    print(f"{'backend':>12} {'workers':>8} {'wall clock':>12} {'vs serial':>10}")
    t_serial = None
    for backend, workers in combos:
        options = ExecutionOptions(backend=backend, workers=workers)
        t0 = time.perf_counter()
        out = execute_module(analyzed, args, flowchart=flow, options=options)
        dt = time.perf_counter() - t0
        if reference is None:
            reference, t_serial = out["newA"], dt
        assert np.allclose(out["newA"], reference)
        print(f"{backend:>12} {workers or 1:>8} {dt * 1e3:>10.1f} ms "
              f"{t_serial / dt:>9.1f}x")
    print("-> all three backends produce identical grids.")

    print()
    print("=" * 72)
    print("Cost-model prediction vs measured speedup (threaded backend)")
    print("=" * 72)
    report = measure_backend_speedups(
        analyzed, flow, args, "threaded", [1, 2, 4], workload="jacobi"
    )
    print(report.pretty())
    print()
    print("-> the 1987 cost model predicts speedup from dividing iterations")
    print("   over processors; the measured column also captures what the")
    print("   model cannot see — NumPy spans and compiled nests vs the")
    print("   scalar interpreter baseline, and what a team costs to start.")

    print()
    print("CLI equivalents:")
    print("  repro run relaxation.ps --set M=24 --set maxK=6 "
          "--backend threaded --workers 4")
    print("  repro run relaxation.ps --set M=24 --set maxK=6 "
          "--backend threaded --workers 4 --windows")


if __name__ == "__main__":
    main()
