"""B-native — the cffi-compiled C kernel tier vs the NumPy tier's kernels.

The native tier (``repro.runtime.kernels.native``) lowers fusable DOALL
nests all the way to C, compiled once and dlopened through cffi — the
paper's premise taken to its logical end: nonprocedural dataflow loops
compiling into tight loop-level-parallel machine code. This bench measures
the tier against the PR 3 fused NumPy nest kernels on the paper workloads
and writes ``BENCH_native.json``.

Acceptance gates (CI-enforced):

* the native tier is >= 1.5x faster than the *Python-dialect nest kernel*
  (the exec-compiled ``for`` loops of the NumPy tier's ``"full"`` shape)
  on serial Jacobi at the largest benchmarked grid (measured ~100-200x on
  the baseline box — the gate is deliberately conservative for slow CI
  runners);
* the native tier is no slower than the **NumPy spans** of the vectorized
  backend on the same grid — the comparison ``auto`` actually decides on
  (a compiled ``DO K`` nest against 8 vector sweeps), measured ~0.3x;
* chunk-forced **threaded + native span kernels** (GIL released inside
  the C calls) is no slower than 1.10x the process backend on Jacobi at
  4 workers — threads dodge the fork/IPC tax once the compute runs
  outside the GIL, and this pins that claim on every CI box;
* every timed pair agrees **bit-exactly** with the evaluator.

Every serial row records Python-nest, native and NumPy-span seconds of one
grid, so ``MachineModel.from_native_bench`` fits ``native_element_factor``
and ``vector_element_factor`` — and therefore their ratio — from one
payload. The threaded rows carry ``native_seconds`` + ``workers`` so it can
recalibrate ``chunk_dispatch`` from the same artifact. Both tests
accumulate into one ``BENCH_native.json`` payload.

On a machine without a C compiler (or cffi) the whole module skips with a
notice — the tier itself degrades to NumPy kernels there, which
``tests/runtime/test_native_kernels.py`` covers.
"""

import json
import time
from functools import partial

import numpy as np
import pytest

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.hyperplane.pipeline import hyperplane_transform
from repro.plan.planner import forced_plan
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported
from repro.schedule.scheduler import schedule_module

pytestmark = pytest.mark.skipif(
    not native_supported(),
    reason="native tier unavailable: no C compiler / cffi on this machine "
    "(the runtime degrades to the NumPy kernel tier)",
)

#: serial grids; the gate applies at the largest
GRIDS = [32, 64, 96]
MAXK = 8

#: wall-clock advantage over the Python nest kernel the gate demands
NATIVE_GATE_SPEEDUP = 1.5

#: native seconds may be at most this multiple of NumPy-span seconds
NATIVE_VS_SPAN_GATE = 1.0

#: the threaded-native gate: threaded wall clock may exceed the process
#: backend's by at most this factor on chunk-forced Jacobi
THREADED_GATE_RATIO = 1.10
GATE_WORKERS = 4

#: both tests accumulate rows/gates here and rewrite the one artifact, so
#: a partial run (-k) still emits whatever it measured
_PAYLOAD = {"rows": [], "gates": {}}


def _time(fn, repeats=3):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _jacobi(m, maxk=MAXK):
    analyzed = jacobi_analyzed()
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    return analyzed, schedule_module(analyzed), args


def _hyperplane_gs(m, maxk=6):
    analyzed = hyperplane_transform(gauss_seidel_analyzed()).transformed
    rng = np.random.default_rng(1)
    args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
    return analyzed, schedule_module(analyzed), args


def _run_nest(analyzed, flow, args, tier, cache):
    """One serial execution with every DOALL nest forced onto the fused
    nest kernels of the given tier, through a persistent cache so compile
    time stays out of the timed region after warm-up."""
    options = ExecutionOptions(
        backend="serial", workers=1, kernel_tier=tier
    )
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = forced_plan(analyzed, flow, "serial", options, scalars, default="nest")
    return execute_module(
        analyzed, args, flowchart=flow, options=options,
        kernel_cache=cache, plan=plan,
    )


def _run_spans(analyzed, flow, args, cache):
    """One execution on the vectorized backend: every DOALL a NumPy span,
    the ``DO K`` loop walked around them — the plan ``auto`` weighs a
    compiled nest against."""
    options = ExecutionOptions(backend="vectorized", workers=1, kernel_tier="numpy")
    return execute_module(
        analyzed, args, flowchart=flow, options=options, kernel_cache=cache
    )


def _native_matrix(workload, make, grids, repeats):
    rows = []
    for m in grids:
        analyzed, flow, args = make(m)
        ref = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )
        caches = {t: KernelCache(analyzed, flow) for t in ("numpy", "native", "span")}
        runs = {
            "numpy": partial(_run_nest, analyzed, flow, args, "numpy", caches["numpy"]),
            "native": partial(_run_nest, analyzed, flow, args, "native", caches["native"]),
            "span": partial(_run_spans, analyzed, flow, args, caches["span"]),
        }
        outs = {}
        times = {}
        for name, run in runs.items():
            run()  # warm-up
            # the compiled tiers are milliseconds: more repeats, same budget
            times[name], outs[name] = _time(
                run, repeats=repeats if name == "numpy" else 5 * repeats
            )
        assert caches["native"].stats()["native"] > 0, (
            f"{workload} M={m}: native tier silently unused"
        )
        for name in runs:
            assert np.array_equal(outs[name]["newA"], ref["newA"]), (
                f"{workload}/{name} diverged from the evaluator at M={m}"
            )
        rows.append({
            "workload": workload,
            "backend": "serial",
            "grid": m,
            "maxk": args["maxK"],
            "nest_seconds": times["numpy"],
            "native_seconds": times["native"],
            "span_seconds": times["span"],
            "speedup": times["numpy"] / times["native"],
        })
    return rows


def test_native_speedup_matrix(artifact):
    """Native vs NumPy nest kernels on the paper workloads + the CI gate."""
    _PAYLOAD["rows"] += _native_matrix("jacobi", _jacobi, GRIDS, repeats=3)
    _PAYLOAD["rows"] += _native_matrix(
        "hyperplane_gauss_seidel", _hyperplane_gs, [24, 48], repeats=3
    )

    largest = GRIDS[-1]
    row = next(
        r for r in _PAYLOAD["rows"]
        if r["workload"] == "jacobi" and r["grid"] == largest
    )
    assert row["speedup"] >= NATIVE_GATE_SPEEDUP, (
        f"native tier only {row['speedup']:.2f}x faster than the NumPy "
        f"nest kernel on serial jacobi at M={largest} "
        f"(gate: {NATIVE_GATE_SPEEDUP}x)"
    )
    _PAYLOAD["gates"][f"jacobi_native_vs_nest_M{largest}"] = {
        "speedup": row["speedup"],
        "required": NATIVE_GATE_SPEEDUP,
        "passed": True,
    }
    ratio = row["native_seconds"] / row["span_seconds"]
    assert ratio <= NATIVE_VS_SPAN_GATE, (
        f"native tier took {ratio:.2f}x the NumPy spans on serial jacobi at "
        f"M={largest} (gate: <= {NATIVE_VS_SPAN_GATE}x) — the planner "
        f"prices it at about a third"
    )
    _PAYLOAD["gates"][f"jacobi_native_vs_span_M{largest}"] = {
        "ratio": ratio,
        "required": NATIVE_VS_SPAN_GATE,
        "passed": True,
    }
    artifact("BENCH_native.json", json.dumps(_PAYLOAD, indent=2))


def _run_chunked(analyzed, flow, args, backend, cache, workers):
    """One chunk-forced execution on a parallel backend: every DOALL that
    can chunk is chunked, and on the native tier each chunk runs the
    GIL-released span kernels."""
    options = ExecutionOptions(backend=backend, workers=workers)
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = forced_plan(analyzed, flow, backend, options, scalars, default="chunk")
    return execute_module(
        analyzed, args, flowchart=flow, options=options,
        kernel_cache=cache, plan=plan,
    )


def test_threaded_native_gate(artifact):
    """Chunk-forced threaded execution with native span kernels must keep
    pace with (or beat) the process backend on Jacobi at 4 workers."""
    m = GRIDS[1]
    analyzed, flow, args = _jacobi(m)
    ref = execute_module(
        analyzed, args, flowchart=flow,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )
    caches = {b: KernelCache(analyzed, flow) for b in ("threaded", "process")}
    times, outs = {}, {}
    for backend in ("threaded", "process"):
        _run_chunked(analyzed, flow, args, backend, caches[backend],
                     GATE_WORKERS)  # warm-up: compile + pool spin-up
        times[backend], outs[backend] = _time(
            lambda b=backend: _run_chunked(
                analyzed, flow, args, b, caches[b], GATE_WORKERS
            ),
            repeats=3,
        )
        assert np.array_equal(outs[backend]["newA"], ref["newA"]), (
            f"threaded-native gate: {backend} diverged from the evaluator"
        )
    assert caches["threaded"].stats()["native"] > 0, (
        "threaded gate ran without native span kernels"
    )
    ratio = times["threaded"] / times["process"]
    _PAYLOAD["rows"].append({
        "workload": "jacobi",
        "backend": "threaded",
        "grid": m,
        "maxk": args["maxK"],
        "workers": GATE_WORKERS,
        "native_seconds": times["threaded"],
        "process_seconds": times["process"],
    })
    assert ratio <= THREADED_GATE_RATIO, (
        f"threaded+native-span took {ratio:.2f}x the process backend on "
        f"jacobi M={m} at {GATE_WORKERS} workers "
        f"(gate: <= {THREADED_GATE_RATIO}x)"
    )
    _PAYLOAD["gates"][f"jacobi_threaded_native_vs_process_M{m}"] = {
        "ratio": ratio,
        "required": THREADED_GATE_RATIO,
        "passed": True,
    }
    artifact("BENCH_native.json", json.dumps(_PAYLOAD, indent=2))


def test_native_wallclock_serial(benchmark):
    """pytest-benchmark series: the native tier on the largest Jacobi grid."""
    analyzed, flow, args = _jacobi(GRIDS[-1])
    cache = KernelCache(analyzed, flow)
    _run_nest(analyzed, flow, args, "native", cache)  # compile outside timing
    out = benchmark(lambda: _run_nest(analyzed, flow, args, "native", cache))
    assert out["newA"].shape == (GRIDS[-1] + 2, GRIDS[-1] + 2)
