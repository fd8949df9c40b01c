#!/usr/bin/env python3
"""Loop-level parallelism on the simulated MIMD machine + real wall clock.

Reproduces the paper's motivating claim ("Loop level parallelism has been
recognized to have major impact in the performance of parallel programs on
MIMD machines") two ways:

1. the simulated machine: cycle counts of the Figure-6 schedule across
   processor counts, against the fully iterative Gauss-Seidel schedule;
2. real wall clock on this machine: the interpreter's vectorised NumPy
   execution of DOALL dimensions against the scalar reference loop.

Run:  python examples/relaxation_speedup.py
"""

import time

import numpy as np

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.machine.cost import MachineModel
from repro.machine.report import speedup_table
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module


def simulated() -> None:
    print("=" * 72)
    print("Simulated MIMD machine (idealised cycles)")
    print("=" * 72)
    args = {"M": 64, "maxK": 30}
    procs = [1, 2, 4, 8, 16, 32, 64]

    jac = jacobi_analyzed()
    jac_flow = schedule_module(jac)
    print(speedup_table(jac, jac_flow, args, procs).pretty(
        "\nJacobi (Figure 6: DO K with inner DOALLs), M=64, maxK=30"))

    gs = gauss_seidel_analyzed()
    gs_flow = schedule_module(gs)
    print(speedup_table(gs, gs_flow, args, procs).pretty(
        "\nGauss-Seidel (Figure 7: fully iterative), M=64, maxK=30"))
    print("\n-> the iterative schedule cannot use added processors; the")
    print("   DOALL schedule scales until the trip count saturates.")


def wall_clock() -> None:
    print()
    print("=" * 72)
    print("Real wall clock: vectorised DOALL vs scalar reference")
    print("=" * 72)
    analyzed = jacobi_analyzed()
    m, maxk = 48, 12
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}

    t0 = time.perf_counter()
    fast = execute_module(analyzed, args, options=ExecutionOptions())
    t_fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    slow = execute_module(analyzed, args, options=ExecutionOptions(backend="serial"))
    t_slow = time.perf_counter() - t0

    assert np.allclose(fast["newA"], slow["newA"])
    print(f"M={m}, maxK={maxk}")
    print(f"  scalar reference loops : {t_slow * 1e3:9.1f} ms")
    print(f"  vectorised DOALL dims  : {t_fast * 1e3:9.1f} ms")
    print(f"  speedup                : {t_slow / t_fast:9.1f}x")


def sync_cost_sensitivity() -> None:
    print()
    print("=" * 72)
    print("Where DOALL stops paying: barrier cost vs loop size")
    print("=" * 72)
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    from repro.machine.simulator import simulate_flowchart

    print(f"{'M':>4} {'serial':>12} {'P=16':>12} {'speedup':>8}")
    for m in [2, 4, 8, 16, 32, 64]:
        args = {"M": m, "maxK": 20}
        model = MachineModel(doall_fork=200, doall_barrier=200)
        s1 = simulate_flowchart(analyzed, flow, args, model.with_processors(1))
        s16 = simulate_flowchart(analyzed, flow, args, model.with_processors(16))
        print(f"{m:>4} {s1.cycles:>12} {s16.cycles:>12} "
              f"{s1.cycles / s16.cycles:>8.2f}")
    print("-> with expensive synchronisation, small grids see no benefit;")
    print("   the crossover moves with the fork/barrier cost.")


def main() -> None:
    simulated()
    wall_clock()
    sync_cost_sensitivity()


if __name__ == "__main__":
    main()
