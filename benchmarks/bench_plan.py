"""B-plan — the cost-driven planner against the stopwatch.

The ExecutionPlan layer (``repro.plan``) claims two things worth gating:

* ``backend="auto"`` is a *good* choice: on every paper workload the
  ``auto`` plan, timed as a row of its own, lands within 15% of the best
  measured row — itself or a plan pinned to a hand-picked label — (plus a
  small absolute grace for sub-millisecond runs, where scheduler jitter
  dominates);
* fusing a DOALL nest into one compiled kernel pays on the serial path:
  >= 1.5x over the per-equation kernels on Jacobi.

Every timed pair is checked bit-exact against the serial reference first.
Results land in ``BENCH_plan.json`` (the perf-trend artifact CI diffs
against ``benchmarks/baseline/``).
"""

import json
import time

import numpy as np

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.hyperplane.pipeline import hyperplane_transform
from repro.machine.report import compare_plans
from repro.plan.planner import forced_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module

#: auto must land within this factor of the measured-best backend ...
AUTO_GATE_FACTOR = 1.15
#: ... with this much absolute grace (seconds) for tiny, jittery runs
AUTO_GATE_GRACE = 0.005
#: nest-fused kernels must beat per-equation kernels by this factor
NEST_GATE_SPEEDUP = 1.5

#: hand-picked labels auto competes against
CANDIDATES = ["serial", "vectorized", "threaded"]

DP_SOURCE = """\
Align: module (CostA: array[1 .. n] of real;
               CostB: array[1 .. n] of real;
               gap: real; n: int):
       [score: real];
type
    I, J = 1 .. n;
var
    D: array [0 .. n, 0 .. n] of real;
define
    D[0] = 0.0;
    D[I, 0] = I * gap;
    D[I, J] = min(D[I-1, J-1] + abs(CostA[I] - CostB[J]),
                  min(D[I-1, J] + gap, D[I, J-1] + gap));
    score = D[n, n];
end Align;
"""

PATHS_INT_SOURCE = """\
Paths: module (n: int): [Y: array[0 .. n] of int];
type
    I = 1 .. n; J = 1 .. n;
var
    W: array [0 .. n, 0 .. n] of int;
define
    W[0] = 1;
    W[I, 0] = 1;
    W[I, J] = W[I-1, J] + W[I, J-1];
    Y = W[n];
end Paths;
"""


def _workloads():
    rng = np.random.default_rng(0)
    jac = jacobi_analyzed()
    yield (
        "jacobi", jac, schedule_module(jac),
        {"InitialA": rng.random((66, 66)), "M": 64, "maxK": 10}, "newA",
    )
    gs = gauss_seidel_analyzed()
    yield (
        "gauss_seidel", gs, schedule_module(gs),
        {"InitialA": rng.random((34, 34)), "M": 32, "maxK": 6}, "newA",
    )
    hgs = hyperplane_transform(gauss_seidel_analyzed()).transformed
    yield (
        "hyperplane_gs", hgs, schedule_module(hgs),
        {"InitialA": rng.random((50, 50)), "M": 48, "maxK": 6}, "newA",
    )
    dp = analyze_module(parse_module(DP_SOURCE))
    yield (
        "dp", dp, schedule_module(dp),
        {"CostA": rng.random(96), "CostB": rng.random(96), "gap": 0.4, "n": 96},
        "score",
    )
    paths = analyze_module(parse_module(PATHS_INT_SOURCE))
    yield ("paths_int", paths, schedule_module(paths), {"n": 96}, "Y")


def _check_parity(analyzed, flow, args, result):
    ref = execute_module(
        analyzed, args, flowchart=flow,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )[result]
    for backend in CANDIDATES:
        out = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend=backend, workers=2),
        )[result]
        assert np.array_equal(out, ref), f"{backend} diverged"


def test_auto_plan_tracks_best_backend(artifact):
    """Gate (a): planned auto within 15% of the best measured backend."""
    payload = {"workloads": [], "gates": {}}
    for name, analyzed, flow, args, result in _workloads():
        _check_parity(analyzed, flow, args, result)
        cmp = compare_plans(
            analyzed, flow, args, backends=CANDIDATES, workers=2,
            repeats=3, workload=name,
        )
        payload["workloads"].append(cmp.to_dict())
        limit = cmp.best_seconds * AUTO_GATE_FACTOR + AUTO_GATE_GRACE
        assert cmp.auto_seconds <= limit, (
            f"{name}: auto planned {cmp.auto_backend!r} "
            f"({cmp.auto_seconds:.4f}s) misses the best backend "
            f"{cmp.best_backend!r} ({cmp.best_seconds:.4f}s) "
            f"by more than {AUTO_GATE_FACTOR:.2f}x + {AUTO_GATE_GRACE}s"
        )
        payload["gates"][f"auto_{name}"] = {
            "auto_backend": cmp.auto_backend,
            "auto_seconds": cmp.auto_seconds,
            "best_backend": cmp.best_backend,
            "best_seconds": cmp.best_seconds,
            "limit_factor": AUTO_GATE_FACTOR,
            "passed": True,
        }
    artifact("BENCH_plan.json", json.dumps(payload, indent=2))


def _time(fn, repeats=3):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_nest_fusion_beats_per_equation_kernels(artifact):
    """Gate (b): fused nest kernels >= 1.5x on serial Jacobi.

    Pinned to the NumPy kernel tier: this gate measures the PR 3 fusion
    claim (one exec-compiled nest vs per-equation kernels), and letting
    the native tier serve the nest would silently re-measure the
    ``bench_native.py`` claim instead."""
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    rng = np.random.default_rng(1)
    m, maxk = 32, 8
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    options = ExecutionOptions(backend="serial", workers=1, kernel_tier="numpy")
    scalars = {"M": m, "maxK": maxk}

    fused = forced_plan(
        analyzed, flow, "serial", options, scalars, default="nest"
    )
    flat = forced_plan(
        analyzed, flow, "serial", options, scalars, default="serial"
    )
    t_fused, out_fused = _time(
        lambda: execute_module(
            analyzed, args, flowchart=flow, options=options, plan=fused
        )
    )
    t_flat, out_flat = _time(
        lambda: execute_module(
            analyzed, args, flowchart=flow, options=options, plan=flat
        )
    )
    assert np.array_equal(out_fused["newA"], out_flat["newA"])
    speedup = t_flat / t_fused
    assert speedup >= NEST_GATE_SPEEDUP, (
        f"nest-fused serial kernels only {speedup:.2f}x over per-equation "
        f"kernels on Jacobi M={m} (gate: {NEST_GATE_SPEEDUP}x)"
    )
    artifact(
        "BENCH_plan_nest.json",
        json.dumps(
            {
                "grid": m,
                "maxk": maxk,
                "per_equation_seconds": t_flat,
                "nest_seconds": t_fused,
                "speedup": speedup,
                "required": NEST_GATE_SPEEDUP,
                "passed": True,
            },
            indent=2,
        ),
    )


def test_plan_wallclock_auto_jacobi(benchmark):
    """pytest-benchmark series: the planned auto path on Jacobi."""
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    rng = np.random.default_rng(2)
    args = {"InitialA": rng.random((66, 66)), "M": 64, "maxK": 8}
    options = ExecutionOptions(backend="auto")
    out = benchmark(
        lambda: execute_module(analyzed, args, flowchart=flow, options=options)
    )
    assert out["newA"].shape == (66, 66)
