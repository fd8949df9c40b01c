"""B-kernels — compiled wavefront kernels vs the tree-walking evaluator.

The kernel subsystem (``repro.runtime.kernels``) removes the per-element /
per-wavefront AST interpretation tax: each equation is exec-compiled once
into a specialized NumPy kernel and cached. This bench measures the claim
on the paper workloads — Jacobi relaxation (Figure 6) and the
hyperplane-transformed Gauss-Seidel relaxation (section 4) — and writes the
matrix to ``BENCH_kernels.json``.

Acceptance gates (CI-enforced):

* kernels are >= 2x faster than the evaluator path on Jacobi at the largest
  benchmarked grid, for both the ``serial`` and ``vectorized`` backends;
* every timed pair agrees **bit-exactly**.
"""

import json
import time

import numpy as np

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.hyperplane.pipeline import hyperplane_transform
from repro.plan.planner import forced_plan
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module

#: grid sizes per backend — the scalar reference path is orders of magnitude
#: slower, so it gets smaller grids; the gate applies at each list's largest
SERIAL_GRIDS = [16, 32, 48]
VECTOR_GRIDS = [64, 128, 256]

#: wall-clock advantage the gates demand
KERNEL_GATE_SPEEDUP = 2.0


def _time(fn, repeats=3):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _jacobi(m, maxk=8):
    analyzed = jacobi_analyzed()
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    return analyzed, schedule_module(analyzed), args


def _hyperplane_gs(m, maxk=6):
    analyzed = hyperplane_transform(gauss_seidel_analyzed()).transformed
    rng = np.random.default_rng(1)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    return analyzed, schedule_module(analyzed), args


def _run(analyzed, flow, args, backend, kernels, workers=1, plan=None):
    options = ExecutionOptions(
        backend=backend, workers=workers, use_kernels=kernels
    )
    if plan is None and backend == "serial" and kernels:
        plan = _per_equation_plan(analyzed, flow, options)
    return execute_module(
        analyzed, args, flowchart=flow, options=options, plan=plan
    )


def _per_equation_plan(analyzed, flow, options):
    """Pin the per-equation kernel path: this bench (and the cost-model
    calibration anchored on its artifact) measures the per-equation layer;
    nest fusion has its own gate in bench_plan.py. Built once per timed
    series — plan construction must stay outside the timed region."""
    return forced_plan(analyzed, flow, "serial", options, default="serial")


def _kernel_matrix(workload, make, grids, backend, repeats):
    rows = []
    for m in grids:
        analyzed, flow, args = make(m)
        kern_plan = (
            _per_equation_plan(
                analyzed, flow,
                ExecutionOptions(backend=backend, workers=1, use_kernels=True),
            )
            if backend == "serial"
            else None
        )
        t_eval, ref = _time(
            lambda a=analyzed, f=flow, g=args: _run(a, f, g, backend, kernels=False),
            repeats=repeats,
        )
        t_kern, out = _time(
            lambda a=analyzed, f=flow, g=args, p=kern_plan: _run(
                a, f, g, backend, kernels=True, plan=p
            ),
            repeats=repeats,
        )
        assert np.array_equal(out["newA"], ref["newA"]), (
            f"{workload}/{backend} kernel path diverged at M={m}"
        )
        rows.append({
            "workload": workload,
            "backend": backend,
            "grid": m,
            # the sweep count: calibration derives per-element seconds from it
            "maxk": args["maxK"],
            "evaluator_seconds": t_eval,
            "kernel_seconds": t_kern,
            "speedup": t_eval / t_kern,
        })
    return rows


def test_kernel_speedup_matrix(artifact):
    """Kernels vs evaluator on both paper workloads + the CI gates."""
    payload = {"rows": [], "gates": {}}
    payload["rows"] += _kernel_matrix(
        "jacobi", _jacobi, SERIAL_GRIDS, "serial", repeats=1
    )
    payload["rows"] += _kernel_matrix(
        "jacobi", _jacobi, VECTOR_GRIDS, "vectorized", repeats=3
    )
    payload["rows"] += _kernel_matrix(
        "hyperplane_gauss_seidel", _hyperplane_gs, [16, 32], "serial", repeats=1
    )
    payload["rows"] += _kernel_matrix(
        "hyperplane_gauss_seidel", _hyperplane_gs, [32, 64], "vectorized",
        repeats=3,
    )

    # Gate 1: >= 2x on Jacobi at the largest grid, serial and vectorized.
    for backend, grids in (("serial", SERIAL_GRIDS), ("vectorized", VECTOR_GRIDS)):
        largest = grids[-1]
        row = next(
            r for r in payload["rows"]
            if r["workload"] == "jacobi"
            and r["backend"] == backend
            and r["grid"] == largest
        )
        assert row["speedup"] >= KERNEL_GATE_SPEEDUP, (
            f"kernel path only {row['speedup']:.2f}x faster than the "
            f"evaluator on jacobi/{backend} at M={largest} "
            f"(gate: {KERNEL_GATE_SPEEDUP}x)"
        )
        payload["gates"][f"jacobi_{backend}_M{largest}"] = {
            "speedup": row["speedup"],
            "required": KERNEL_GATE_SPEEDUP,
            "passed": True,
        }

    artifact("BENCH_kernels.json", json.dumps(payload, indent=2))


def test_kernel_wallclock_vectorized(benchmark):
    """pytest-benchmark series: the kernel path on the large Jacobi grid."""
    analyzed, flow, args = _jacobi(VECTOR_GRIDS[-1])
    out = benchmark(lambda: _run(analyzed, flow, args, "vectorized", True))
    assert out["newA"].shape == (VECTOR_GRIDS[-1] + 2, VECTOR_GRIDS[-1] + 2)


def test_kernel_wallclock_process_pool(benchmark):
    """pytest-benchmark series: persistent-pool process backend, 4 workers."""
    analyzed, flow, args = _jacobi(48, maxk=8)
    out = benchmark(lambda: _run(analyzed, flow, args, "process", True, 4))
    assert out["newA"].shape == (50, 50)
