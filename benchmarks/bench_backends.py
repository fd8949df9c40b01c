"""B-backends — the execution-backend matrix: real parallel DOALL execution.

The paper's claim is that hyperplane-scheduled DOALL loops expose loop-level
parallelism a code generator can exploit on real hardware. This bench runs
the two paper workloads — Jacobi relaxation (the Figure-6 schedule) and the
hyperplane-transformed Gauss-Seidel relaxation (the section-4 wavefronts) —
across every execution backend and a range of worker counts, checks that all
backends agree numerically, and writes the measured-vs-predicted trajectory
to ``BENCH_backends.json``.

Acceptance gate: a ``threaded`` plan (vector spans, or a fused nest on a
team of OpenMP threads where that is cheaper) must beat the serial
reference backend wall-clock on the Jacobi workload at >= 4 workers.
"""

import json
import time

import numpy as np

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.hyperplane.pipeline import hyperplane_transform
from repro.machine.report import measure_backend_speedups
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module

WORKER_COUNTS = [1, 2, 4]


def _time(fn, repeats=2):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _jacobi_workload():
    analyzed = jacobi_analyzed()
    m, maxk = 32, 8
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    return "jacobi", analyzed, schedule_module(analyzed), args


def _hyperplane_gs_workload():
    res = hyperplane_transform(gauss_seidel_analyzed())
    analyzed = res.transformed
    m, maxk = 16, 6
    rng = np.random.default_rng(1)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    return "hyperplane_gauss_seidel", analyzed, schedule_module(analyzed), args


def _matrix_for(name, analyzed, flowchart, args):
    """Wall-clock times for every backend/worker combination, with a
    numeric parity check against the serial reference result."""
    rows = []
    t_serial, ref = _time(
        lambda: execute_module(
            analyzed, args, flowchart=flowchart,
            options=ExecutionOptions(backend="serial"),
        ),
        repeats=1,
    )
    rows.append({"workload": name, "backend": "serial", "workers": 1,
                 "seconds": t_serial, "speedup": 1.0})
    combos = [("vectorized", [1]), ("threaded", WORKER_COUNTS)]
    for backend, worker_counts in combos:
        for w in worker_counts:
            t, out = _time(
                lambda backend=backend, w=w: execute_module(
                    analyzed, args, flowchart=flowchart,
                    options=ExecutionOptions(backend=backend, workers=w),
                )
            )
            np.testing.assert_allclose(
                out["newA"], ref["newA"], rtol=1e-12, atol=1e-12
            )
            rows.append({"workload": name, "backend": backend, "workers": w,
                         "seconds": t, "speedup": t_serial / t})
    return rows


def test_backend_matrix(artifact):
    """The full matrix on both workloads + the acceptance gate."""
    payload = {"worker_counts": WORKER_COUNTS, "rows": [], "reports": []}
    for name, analyzed, flowchart, args in (
        _jacobi_workload(),
        _hyperplane_gs_workload(),
    ):
        payload["rows"].extend(_matrix_for(name, analyzed, flowchart, args))
        # Predicted (cost model) vs measured, through the machine report.
        report = measure_backend_speedups(
            analyzed, flowchart, args, "threaded", WORKER_COUNTS, workload=name
        )
        payload["reports"].append(report.to_dict())

    by_key = {
        (r["workload"], r["backend"], r["workers"]): r for r in payload["rows"]
    }
    serial = by_key[("jacobi", "serial", 1)]["seconds"]
    threaded4 = by_key[("jacobi", "threaded", 4)]["seconds"]
    # The acceptance gate: a threaded plan beats the serial reference on
    # the paper's main workload at 4 workers.
    assert threaded4 < serial, (
        f"the threaded plan did not beat serial: serial={serial:.4f}s "
        f"threaded@4={threaded4:.4f}s"
    )
    payload["gate"] = {
        "jacobi_serial_seconds": serial,
        "jacobi_threaded4_seconds": threaded4,
        "passed": True,
    }
    artifact("BENCH_backends.json", json.dumps(payload, indent=2))


def test_backend_threaded_wallclock(benchmark):
    """pytest-benchmark series for the threaded backend at 4 workers."""
    analyzed = jacobi_analyzed()
    m, maxk = 32, 8
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    out = benchmark(
        lambda: execute_module(
            analyzed, args,
            options=ExecutionOptions(backend="threaded", workers=4),
        )
    )
    assert out["newA"].shape == (m + 2, m + 2)

