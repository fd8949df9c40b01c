"""Shared helpers for the benchmark/reproduction harness.

Every bench regenerates one paper artifact (figure, table, or derivation),
asserts its structure, writes the regenerated text to ``benchmarks/out/``
(so the reproduction is inspectable without re-running), and benchmarks the
implementing code path with pytest-benchmark.
"""

import os
import pathlib
import time

import numpy as np
import pytest

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="session", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    """Keep the native tier's compiled artifacts out of the user's real
    ``~/.cache`` during benchmark runs (same isolation as tests/)."""
    import os

    path = tmp_path_factory.mktemp("native-cache")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


@pytest.fixture()
def artifact():
    """Writer for regenerated paper artifacts: artifact(name, text)."""

    def write(name: str, text: str) -> pathlib.Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        return path

    return write


#: worker counts the recurrence-strategy gate is evaluated at (those the
#: host really has cores for)
GATE_WORKERS = (2, 4, 8)

#: timer noise the gate tolerates: "no slower" is best-of-five against
#: best-of-five on a shared runner
GATE_SLACK = 1.10


def _best_of(fn, repeats=5):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.fixture()
def strategy_vs_compiled_do():
    """The one gate the pipeline and fission benches share. The
    baseline is the *compiled* sequential loop — the serial backend's
    unforced plan, one thread of C — never the per-element walk: beating
    an interpreter measures the kernel tier, not parallelism. Per worker
    count ``p`` the host has cores for:

    * the forced strategy at ``p`` computes exactly what the compiled
      ``DO`` computes (bit for bit, at bench size);
    * **if the unforced plan at ``p`` picks the strategy, it measures no
      slower than the compiled ``DO`` at p = 1** — a planner that takes a
      parallel strategy must be right about it; one that declines it is
      not penalised for the strategy losing.

    Returns the rows (seconds both ways, what the planner picked,
    ``os.cpu_count()`` and the baseline's kernel tier) for the artifact.
    """
    from repro.plan.planner import build_plan
    from repro.runtime.executor import ExecutionOptions, execute_module
    from repro.runtime.kernels import KernelCache

    def measure(analyzed, flow, args, outputs, strategy, workload):
        scalars = {k: v for k, v in args.items() if isinstance(v, int)}
        cache = KernelCache(analyzed, flow)

        def runner(options, plan=None):
            return lambda: execute_module(
                analyzed, args, flowchart=flow, options=options, plan=plan,
                kernel_cache=cache,
            )

        o_do = ExecutionOptions(backend="serial")
        plan_do = build_plan(analyzed, flow, o_do, scalars, cpu_count=1)
        walked = [
            lp.index for lp in plan_do.loops.values()
            if lp.keyword == "DO" and lp.strategy == "serial"
        ]
        assert not walked, (
            f"baseline is not compiled: DO {walked} of {workload} walk"
        )
        run_do = runner(o_do, plan_do)
        run_do()  # build kernels outside the timed region
        t_do, out_do = _best_of(run_do)

        rows = []
        for p in GATE_WORKERS:
            if p > (os.cpu_count() or 1):
                continue
            forced = runner(ExecutionOptions(
                backend="threaded", workers=p, strategy=strategy
            ))()
            for name in outputs:
                assert np.array_equal(forced[name], out_do[name]), (
                    f"forced {strategy} x{p} diverged from the compiled "
                    f"DO on {workload} {name}"
                )
            o_par = ExecutionOptions(backend="threaded", workers=p)
            plan_par = build_plan(analyzed, flow, o_par, scalars, cpu_count=p)
            picked = any(s == strategy for _, s in plan_par.strategies())
            run_par = runner(o_par, plan_par)
            run_par()
            t_par, _ = _best_of(run_par)
            rows.append({
                "workload": workload,
                "trip": scalars["n"],
                "workers": p,
                "cpu_count": os.cpu_count(),
                "baseline_tier": "native" if plan_do.native_kernels() else "python",
                "compiled_do_seconds": t_do,
                "unforced_seconds": t_par,
                "picked": picked,
            })
            assert not picked or t_par <= t_do * GATE_SLACK, (
                f"the planner picked {strategy} x{p} on {workload} at "
                f"n={scalars['n']} but it measures {t_par * 1e3:.2f} ms "
                f"against {t_do * 1e3:.2f} ms for the compiled DO at p=1"
            )
        return rows

    return measure
