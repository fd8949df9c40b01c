"""P1 — The motivating claim: loop-level parallelism on MIMD machines.

Regenerates a speedup series for the Figure-6 schedule on the simulated
machine (P = 1..64) and benchmarks real execution: the vectorised DOALL
backend against the scalar reference semantics. The paper reports no
absolute numbers; the reproduced *shape* is near-linear interior speedup
that saturates at the loop trip count.
"""

import numpy as np

from repro.core.paper import jacobi_analyzed
from repro.machine.report import speedup_table
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module

PROCS = [1, 2, 4, 8, 16, 32, 64]


def test_p1_simulated_speedup(benchmark, artifact):
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    args = {"M": 64, "maxK": 30}

    table = benchmark(lambda: speedup_table(analyzed, flow, args, PROCS))

    s = table.speedups
    assert all(b >= a * 0.99 for a, b in zip(s, s[1:]))  # monotone
    assert s[PROCS.index(32)] > 16  # near-linear while unsaturated

    small = speedup_table(analyzed, flow, {"M": 4, "maxK": 30}, [1, 36, 144])
    ssmall = small.speedups
    assert ssmall[2] < ssmall[1] * 1.1  # saturates at the trip count

    text = table.pretty("P1 - Jacobi (Figure-6 schedule), M=64, maxK=30, simulated MIMD")
    text += "\n\n" + small.pretty("saturation at small M (M=4): trip count caps speedup")
    artifact("perf_jacobi.txt", text)


def test_p1_wallclock_vectorized(benchmark):
    """Real time: one NumPy op per DOALL nest iteration plane."""
    analyzed = jacobi_analyzed()
    m, maxk = 32, 10
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}

    out = benchmark(
        lambda: execute_module(
            analyzed, args, options=ExecutionOptions()
        )
    )
    assert out["newA"].shape == (m + 2, m + 2)


def test_p1_wallclock_scalar_reference(benchmark):
    """Baseline: the scalar reference interpreter (the 'serial program')."""
    analyzed = jacobi_analyzed()
    m, maxk = 32, 10
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}

    out = benchmark(
        lambda: execute_module(
            analyzed, args, options=ExecutionOptions(backend="serial")
        )
    )
    assert out["newA"].shape == (m + 2, m + 2)
