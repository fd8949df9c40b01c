"""P2 — Section 4's payoff: the transformation exposes usable parallelism.

Regenerates the crossover the paper implies: the untransformed Gauss-Seidel
schedule (Figure 7) cannot use added processors; the hyperplane-transformed
program does more total work (guards and padding) but parallelises, so it
loses at P = 1 and wins at large P. Also benchmarks real execution of both
programs under the vectorised backend.
"""

import numpy as np

from repro.core.paper import gauss_seidel_analyzed
from repro.hyperplane.pipeline import hyperplane_transform
from repro.machine.cost import MachineModel
from repro.machine.simulator import simulate_flowchart
from repro.runtime.executor import ExecutionOptions, execute_module

PROCS = [1, 2, 4, 8, 16, 32]
ARGS = {"M": 16, "maxK": 10}


def test_p2_crossover(benchmark, artifact):
    analyzed = gauss_seidel_analyzed()
    res = hyperplane_transform(analyzed)

    def crossover_series():
        rows = []
        for p in PROCS:
            model = MachineModel(processors=p)
            orig = simulate_flowchart(
                analyzed, res.original_flowchart, ARGS, model
            ).cycles
            trans = simulate_flowchart(
                res.transformed, res.transformed_flowchart, ARGS, model
            ).cycles
            rows.append((p, orig, trans))
        return rows

    rows = benchmark(crossover_series)

    p1 = rows[0]
    p_hi = rows[-1]
    assert p1[1] < p1[2]  # serial: original wins (less total work)
    assert p_hi[2] < p_hi[1]  # parallel: transformed wins
    # The original barely improves with P (only init/extract DOALLs).
    assert rows[0][1] / rows[-1][1] < 2.0
    # The transformed program improves substantially.
    assert rows[0][2] / rows[-1][2] > 4.0

    lines = [
        "P2 - iterative vs hyperplane-transformed Gauss-Seidel "
        f"(simulated cycles, M={ARGS['M']}, maxK={ARGS['maxK']})",
        f"{'P':>4} {'iterative(Fig.7)':>18} {'transformed':>14} {'winner':>12}",
    ]
    for p, orig, trans in rows:
        winner = "iterative" if orig <= trans else "transformed"
        lines.append(f"{p:>4} {orig:>18} {trans:>14} {winner:>12}")
    artifact("perf_hyperplane.txt", "\n".join(lines))


def test_p2_wallclock_original(benchmark):
    """Real time, untransformed: the fully iterative nest cannot be
    vectorised (every spatial loop is a DO)."""
    analyzed = gauss_seidel_analyzed()
    m, maxk = 16, 6
    rng = np.random.default_rng(1)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    out = benchmark(lambda: execute_module(analyzed, args))
    assert out["newA"].shape == (m + 2, m + 2)


def test_p2_wallclock_transformed(benchmark):
    """Real time, transformed: inner DOALLs execute as NumPy planes."""
    analyzed = gauss_seidel_analyzed()
    res = hyperplane_transform(analyzed)
    m, maxk = 16, 6
    rng = np.random.default_rng(1)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    out = benchmark(
        lambda: execute_module(
            res.transformed, args, options=ExecutionOptions()
        )
    )
    assert out["newA"].shape == (m + 2, m + 2)


def test_p2_results_agree(benchmark):
    analyzed = gauss_seidel_analyzed()
    res = hyperplane_transform(analyzed)
    m, maxk = 8, 5
    rng = np.random.default_rng(2)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}

    def run_both():
        a = execute_module(analyzed, args)["newA"]
        b = execute_module(res.transformed, args)["newA"]
        return a, b

    a, b = benchmark(run_both)
    np.testing.assert_allclose(a, b, rtol=1e-12)
