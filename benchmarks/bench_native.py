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
* the compiled ``DO K`` on a **team of 2 threads** (one OpenMP region
  around the ``DO``, its ``DOALL I`` shared out) takes at most 0.65x the
  same kernel on one thread on Jacobi at M = 512 — the paper's wavefront
  as one native call that owns its threads (skipped below 2 cores or
  without OpenMP);
* the **hyperplane Gauss-Seidel** ``DO Kp`` (M = 384, ``maxK`` = 16) on a
  team of 2 takes no longer than on one thread; its rows also time ``auto``
  at one and two workers and the untransformed program at both;
* every timed pair agrees **bit-exactly** with the evaluator.

Ungated rows: the §4 alignment sweep (n = 1024) and windowed Jacobi (M =
512, ``maxK`` = 40) on one thread in ns per element — the kernels whose
innermost loops run as segments with their index guards folded away — and
the ``doall_team`` row: ``rec`` at n = 2000, ``auto`` at one worker
against ``auto`` at two, whose middle ``DOALL`` runs on a team of two (one
``omp for`` over its root).

Every serial row records Python-nest, native and NumPy-span seconds of one
grid, so ``MachineModel.from_native_bench`` fits ``native_element_factor``
and ``vector_element_factor`` — and therefore their ratio — from one
payload. The team rows (one thread vs two, at M = 512 and at two ``maxK`` of a barrier-bound
M = 32) fit ``team_fork`` and ``team_barrier``; the hyperplane team row
refits ``team_barrier`` upward to what one of its planes pays beyond half a
thread's work. The tests accumulate into one ``BENCH_native.json``
payload.

On a machine without a C compiler (or cffi) the whole module skips with a
notice — the tier itself degrades to NumPy kernels there, which
``tests/runtime/test_native_kernels.py`` covers.
"""

import json
import os
import time
from functools import partial

import numpy as np
import pytest

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.hyperplane.pipeline import hyperplane_transform
from repro.plan.planner import build_plan, forced_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported, openmp_supported
from repro.runtime.values import eval_bound
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

#: the team gate: a width-2 team's seconds over one thread's, Jacobi M=512
TEAM_GATE_RATIO = 0.65
TEAM_GRID, TEAM_MAXK = 512, 40
#: the barrier-bound rows the fit reads: (grid, maxK) pairs of one grid
TEAM_FIT_ROWS = [(32, 50), (32, 400)]
#: the hyperplane Gauss-Seidel team row (ROADMAP item 2's acceptance size)
HYPER_TEAM_GRID, HYPER_TEAM_MAXK = 384, 16

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


def _team_runner(analyzed, flow, args, width, use_windows=False):
    """Warm executions with every nest compiled and the ``DO K`` sweep run
    as one native call on a team ``width`` threads wide (None: on the
    calling thread alone, the plan ``auto`` makes at one worker) — one
    plan and one backend across runs, so from the second run on the
    arrays are recycled, as in a ``Session``."""
    options = ExecutionOptions(backend="serial", workers=1, use_windows=use_windows)
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = forced_plan(analyzed, flow, "serial", options, scalars, default="nest")
    sweep = next(lp for lp in plan.loops.values() if lp.keyword == "DO")
    assert sweep.dialect == "native"
    sweep.team = width
    cache = KernelCache(analyzed, flow)
    backend = ExecutionBackend()
    return partial(
        execute_module, analyzed, args, flowchart=flow, options=options,
        kernel_cache=cache, plan=plan, backend=backend,
    )


def test_team_gate(artifact):
    """The compiled ``DO K`` on a team of two against the same kernel on
    one thread: the speedup gate at M = 512, and the barrier-bound rows
    ``from_native_bench`` fits the team's fork and barrier costs from."""
    if not openmp_supported() or (os.cpu_count() or 1) < 2:
        pytest.skip("team kernels need OpenMP and two cores")
    rows = []
    for m, maxk in [(TEAM_GRID, TEAM_MAXK), *TEAM_FIT_ROWS]:
        analyzed, flow, args = _jacobi(m, maxk)
        times, outs = {}, {}
        for width in (None, 2):
            run = _team_runner(analyzed, flow, args, width)
            # Warm-up: compile, start the team's threads, fill the store —
            # for a second, because a virtual machine's idle core can take
            # that long to come back to full speed (a team of 2 measured
            # 40x slow in the first second after 15 s of idling).
            start = time.perf_counter()
            while time.perf_counter() - start < 1.0:
                run()
            times[width], outs[width] = _time(run, repeats=7 if m > 64 else 25)
        assert np.array_equal(outs[2]["newA"], outs[None]["newA"]), (
            f"team gate: the team diverged from one thread at M={m}"
        )
        rows.append({
            "workload": "jacobi",
            "backend": "team",
            "grid": m,
            "maxk": maxk,
            "workers": 2,
            "native_seconds": times[None],
            "team_seconds": times[2],
        })
    _PAYLOAD["rows"] += rows
    ratio = rows[0]["team_seconds"] / rows[0]["native_seconds"]
    assert ratio <= TEAM_GATE_RATIO, (
        f"a team of 2 took {ratio:.2f}x one thread on jacobi M={TEAM_GRID} "
        f"(gate: <= {TEAM_GATE_RATIO}x)"
    )
    _PAYLOAD["gates"][f"jacobi_team2_vs_one_thread_M{TEAM_GRID}"] = {
        "ratio": ratio,
        "required": TEAM_GATE_RATIO,
        "passed": True,
    }
    artifact("BENCH_native.json", json.dumps(_PAYLOAD, indent=2))


#: the split-guard rows: the §4 alignment kernel and windowed Jacobi, one
#: thread, in ns per element — what the segmented loops leave of ROADMAP
#: item 3's headroom
ALIGN_N = 1024
SPLIT_JACOBI_GRID, SPLIT_JACOBI_MAXK = 512, 40

ALIGN_SOURCE = """\
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


def test_split_guard_rows(artifact):
    """One-thread rows, no gate: the §4 alignment sweep (``DO Ip`` over
    the padded, skewed ``Dp``; four leaves) at n = 1024 and the windowed
    Jacobi sweep (two leaves) at M = 512, ``maxK`` = 40, each in ns per
    element of its sweep, bit-exact against the evaluator's plan."""
    align = analyze_module(parse_module(ALIGN_SOURCE))
    align = hyperplane_transform(align).transformed
    rng = np.random.default_rng(2)
    n = ALIGN_N
    cases = [(
        "align_hyper", align, schedule_module(align), False,
        {"CostA": rng.random(n), "CostB": rng.random(n), "gap": 0.4, "n": n},
        (2 * n + 1) * (n + 1),
    )]
    m, maxk = SPLIT_JACOBI_GRID, SPLIT_JACOBI_MAXK
    jacobi, flow, args = _jacobi(m, maxk)
    cases.append(("jacobi_win", jacobi, flow, True, args, (maxk - 1) * (m + 2) ** 2))
    for name, analyzed, flow, windows, args, elements in cases:
        run = _team_runner(analyzed, flow, args, None, use_windows=windows)
        run()  # compile outside the timing
        seconds, out = _time(run, repeats=5)
        want = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(workers=1, use_windows=windows),
        )
        for key, value in want.items():
            assert np.array_equal(np.asarray(out[key]), np.asarray(value)), (
                f"split-guard rows: {name} diverged in {key}"
            )
        _PAYLOAD["rows"].append({
            "workload": name,
            "backend": "native",
            "grid": args.get("M", args.get("n")),
            "workers": 1,
            "native_seconds": seconds,
            "elements": elements,
            "ns_per_element": seconds / elements * 1e9,
        })
    artifact("BENCH_native.json", json.dumps(_PAYLOAD, indent=2))


def _auto_runner(analyzed, flow, args, workers):
    """Warm executions of the plan ``auto`` makes at ``workers`` (on a
    host with that many cores), one plan and one backend across runs."""
    options = ExecutionOptions(workers=workers)
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = build_plan(analyzed, flow, options, scalars, cpu_count=workers)
    cache = KernelCache(analyzed, flow)
    backend = ExecutionBackend()
    return partial(
        execute_module, analyzed, args, flowchart=flow, options=options,
        kernel_cache=cache, plan=plan, backend=backend,
    )


def test_hyperplane_team_rows(artifact):
    """Hyperplane Gauss-Seidel at M = 384, ``maxK`` = 16: the ``DO Kp``
    kernel alone and on a team of two (the fit row and the gate: the team
    no slower than one thread), ``auto`` at one and two workers, and the
    untransformed program at both — all bit-exact against one another."""
    if not openmp_supported() or (os.cpu_count() or 1) < 2:
        pytest.skip("team kernels need OpenMP and two cores")
    m, maxk = HYPER_TEAM_GRID, HYPER_TEAM_MAXK
    analyzed, flow, args = _hyperplane_gs(m, maxk)
    plain = gauss_seidel_analyzed()
    runs = {
        "native": _team_runner(analyzed, flow, args, None),
        "team": _team_runner(analyzed, flow, args, 2),
        "auto1": _auto_runner(analyzed, flow, args, 1),
        "auto2": _auto_runner(analyzed, flow, args, 2),
        "untransformed1": _auto_runner(plain, schedule_module(plain), args, 1),
        "untransformed2": _auto_runner(plain, schedule_module(plain), args, 2),
    }
    times, outs = {}, {}
    for name, run in runs.items():
        # one second of warm-up per variant, as in test_team_gate
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:
            run()
        times[name], outs[name] = _time(run, repeats=7)
    for name in runs:
        assert np.array_equal(outs[name]["newA"], outs["native"]["newA"]), (
            f"hyperplane team rows: {name} diverged at M={m}"
        )
    (sweep,) = [d for d in flow.loops() if not d.parallel]
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    lo, hi = (
        eval_bound(b, scalars) for b in (sweep.subrange.lo, sweep.subrange.hi)
    )
    _PAYLOAD["rows"].append({
        "workload": "gs_hyper",
        "backend": "team",
        "grid": m,
        "maxk": maxk,
        "workers": 2,
        "planes": hi - lo + 1,
        "native_seconds": times["native"],
        "team_seconds": times["team"],
        "auto1_seconds": times["auto1"],
        "auto2_seconds": times["auto2"],
        "untransformed1_seconds": times["untransformed1"],
        "untransformed2_seconds": times["untransformed2"],
    })
    ratio = times["team"] / times["native"]
    assert ratio <= 1.0, (
        f"a team of 2 took {ratio:.2f}x one thread on hyperplane "
        f"Gauss-Seidel M={m} maxK={maxk} (gate: <= 1.0x)"
    )
    _PAYLOAD["gates"][f"gs_hyper_team2_vs_one_thread_M{m}"] = {
        "ratio": ratio,
        "required": 1.0,
        "passed": True,
    }
    artifact("BENCH_native.json", json.dumps(_PAYLOAD, indent=2))


#: a DOALL whose body is a sequential DO: the doall_team row's program
REC_SOURCE = """\
Rec: module (n: int): [Y: array[1 .. n] of int];
type
    I = 1 .. n; J = 1 .. n;
var
    W: array [1 .. n, 0 .. n] of int;
define
    W[I, 0] = 1;
    W[I, J] = W[I, J-1] + I;
    Y[I] = W[I, n];
end Rec;
"""
REC_N = 2000


def test_doall_team_row(artifact):
    """``rec`` at n = 2000: ``auto`` at one worker against ``auto`` at two,
    whose ``DOALL I`` runs on a team of two — bit-equal, times recorded
    (ungated)."""
    if not openmp_supported() or (os.cpu_count() or 1) < 2:
        pytest.skip("team kernels need OpenMP and two cores")
    analyzed = analyze_module(parse_module(REC_SOURCE))
    flow = schedule_module(analyzed)
    args = {"n": REC_N}
    runs = {w: _auto_runner(analyzed, flow, args, w) for w in (1, 2)}
    assert any(
        lp.keyword == "DOALL" and lp.team == 2
        for lp in runs[2].keywords["plan"].loops.values()
    ), "rec at two workers planned no DOALL team"
    times, outs = {}, {}
    for w, run in runs.items():
        # one second of warm-up per variant, as in test_team_gate
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:
            run()
        times[w], outs[w] = _time(run, repeats=7)
    assert np.array_equal(outs[1]["Y"], outs[2]["Y"]), (
        "doall_team row: the team diverged from one thread"
    )
    _PAYLOAD["rows"].append({
        "workload": "rec",
        "backend": "doall_team",
        "grid": REC_N,
        "workers": 2,
        "native_seconds": times[1],
        "team_seconds": times[2],
    })
    artifact("BENCH_native.json", json.dumps(_PAYLOAD, indent=2))


def test_native_wallclock_serial(benchmark):
    """pytest-benchmark series: the native tier on the largest Jacobi grid."""
    analyzed, flow, args = _jacobi(GRIDS[-1])
    cache = KernelCache(analyzed, flow)
    _run_nest(analyzed, flow, args, "native", cache)  # compile outside timing
    out = benchmark(lambda: _run_nest(analyzed, flow, args, "native", cache))
    assert out["newA"].shape == (GRIDS[-1] + 2, GRIDS[-1] + 2)
