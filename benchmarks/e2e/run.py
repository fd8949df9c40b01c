#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark for the PS compiler.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out F]

Every workload is driven through ``repro``'s public functions only and
timed from outside. ``--trace 0`` (default) measures the end-to-end
metrics; ``--trace 1`` measures the per-layer metrics with spans around
each call into a layer and writes a Chrome trace. Each workload prints its
metrics by name with unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``; every output of every
operation is checked against ``oracle.py`` and a wrong, failed or refused
operation counts as failed. Metric names, units and bounds are declared in
``BENCHMARK.json``; the README has the metric <-> layer <-> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

from driver import BENCH_DIR, REPO_ROOT, add_src_to_path
from refclock import at_reference_speed, spin, timed

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
CLIENTS = 2  # closed loop, one connection per core of the 2-core box
CHILD_TIMEOUT = 120
#: share of a round's remaining time (after its child launches) given to
#: compile passes, in-process runs and serving
SLICES = {"compile": 0.25, "run": 0.35, "serve": 0.4}
PINNED = (
    ("serial", "serial", None),
    ("vectorized", "vectorized", None),
    ("threaded", "threaded", 2),
    ("threaded_w1", "threaded", 1),
)


def tail(values) -> float:
    """The highest percentile that still has ten samples beyond it (the
    maximum when there are too few samples for that)."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 11 else ordered[-1]


def median_or_nan(values) -> float:
    values = list(values)
    return median(values) if values else float("nan")


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Ops:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def record(self, problem: str | None, count: int = 1) -> None:
        with self._lock:
            self.attempted += count
            if problem:
                self.failed += count
                if len(self.reasons) < 20:
                    self.reasons.append(problem)


class Run:
    """One workload of one invocation: inputs, oracle, work directory."""

    def __init__(self, name: str, seed: int, quick: bool, workdir: Path):
        import oracle
        import workloads

        self.workdir = workdir
        workdir.mkdir(parents=True)
        #: filled by the first cold launch and shared by everything warm —
        #: never the host's ~/.cache/repro/native, whose calibration store
        #: changes ``auto`` plans. Set before the first compilation: every
        #: CompileResult loads that store.
        self.warm_cache = workdir / "cache-warm"
        os.environ["REPRO_NATIVE_CACHE"] = str(self.warm_cache)
        os.environ["TMPDIR"] = str(workdir)  # cc's temporaries stay in the checkout too
        self.ops = Ops()
        self.oracle = oracle
        self.workload = workloads.build_workload(name, seed, quick)
        oracle.attach_expected(self.workload.requests)
        for problem in oracle.cross_check(workloads.tiny_requests(self.workload, seed)):
            self.ops.record(problem)
        self.pickle = workdir / "workload.pkl"
        with open(self.pickle, "wb") as fh:
            pickle.dump(self.workload, fh)

    # -- child processes ---------------------------------------------------

    def launch(self, cold: bool, warm_kernels: bool = False) -> dict | None:
        """Run ``child.py`` to verified first results. ``cold`` gives it an
        empty native cache (the first cold launch's cache is kept as the
        warm one). Returns the child's report plus ``wall_s``, or None
        when the launch failed."""
        n = len(self.workload.requests)
        cache = self.warm_cache
        if cold and cache.exists():
            cache = Path(tempfile.mkdtemp(prefix="cache-cold-", dir=self.workdir))
        cache.mkdir(exist_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(self.pickle)]
        if warm_kernels:
            cmd.append("--warm-kernels")
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                cmd, env={**os.environ, "REPRO_NATIVE_CACHE": str(cache)},
                capture_output=True, text=True,
                timeout=CHILD_TIMEOUT,
            )
            wall = time.perf_counter() - t0
            if done.returncode:
                raise RuntimeError(done.stderr.strip()[-500:])
            report = json.loads(done.stdout.splitlines()[-1])
        except (subprocess.SubprocessError, RuntimeError, ValueError, IndexError) as exc:
            self.ops.record(f"child launch failed: {exc}", n)
            return None
        self.ops.record(None, n - len(report["failed"]))
        for problem in report["failed"]:
            self.ops.record(f"child: {problem}")
        report["wall_s"] = at_reference_speed(wall, report["spins"])
        if cold:
            report["so_bytes"] = sum(
                p.stat().st_size for p in cache.rglob("*.so")
            )
            if cache != self.warm_cache:
                shutil.rmtree(cache, ignore_errors=True)
        return None if report["failed"] else report

    @contextlib.contextmanager
    def serving(self):
        """The warm daemons of ``serve_child.py``; yields socket paths
        (relative to the working directory: unix socket paths are limited
        to 108 bytes and the checkout may sit anywhere)."""
        prefix = os.path.relpath(self.workdir / "sock")
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_child.py"),
             str(self.pickle), prefix],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("serve child exited before it was ready")
            yield json.loads(line)["sockets"]
        finally:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class Clients:
    """``count`` closed-loop clients, each with one connection per daemon,
    walking the request list from staggered offsets that persist across
    slices so every request is sent equally often."""

    def __init__(self, run: Run, sockets: dict[str, str], count: int):
        from repro.serve import ReproClient

        self.run = run
        requests = run.workload.requests
        self.conns = [
            {key: ReproClient(unix_path=path) for key, path in sockets.items()}
            for _ in range(count)
        ]
        self.position = [i * len(requests) // count for i in range(count)]

    def close(self) -> None:
        for conns in self.conns:
            for client in conns.values():
                client.close()

    def stats(self) -> list[dict]:
        return [client.stats() for client in self.conns[0].values()]

    def slice(self, seconds: float) -> tuple[float, list[tuple[str, float]]]:
        """Serve for ``seconds``; returns (seconds it took to the last
        response, [(program, round-trip seconds)] of the verified
        responses), both at reference speed: each client spins between
        its requests."""
        from repro.errors import ClientError

        requests = self.run.workload.requests
        trips: list[list[tuple[str, float]]] = [[] for _ in self.conns]
        spins: list[list[float]] = [[] for _ in self.conns]
        ends = [0.0] * len(self.conns)
        start = time.perf_counter()
        deadline = start + seconds

        def walk(i: int) -> None:
            spins[i].append(spin())
            while time.perf_counter() < deadline:
                r = requests[self.position[i] % len(requests)]
                self.position[i] += 1
                t0 = time.perf_counter()
                try:
                    out = self.conns[i][r.compiler].run(
                        r.module, r.args, **r.overrides
                    )
                except ClientError as exc:
                    self.run.ops.record(f"serve {r.program}: {exc}")
                    continue
                ends[i] = time.perf_counter()
                spins[i].append(spin())
                problem = self.run.oracle.mismatch(r, out)
                self.run.ops.record(problem)
                if not problem:
                    trips[i].append(
                        (r.program, at_reference_speed(ends[i] - t0, spins[i][-2:]))
                    )

        threads = [
            threading.Thread(target=walk, args=(i,)) for i in range(len(self.conns))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done = [trip for per_client in trips for trip in per_client]
        if not done:
            return 0.0, []
        return at_reference_speed(max(ends) - start, sum(spins, [])), done


def compile_pass(run: Run) -> float:
    """Seconds for one ``compile_source`` of every program of the workload."""
    from repro.core.pipeline import CompilerOptions, compile_source
    from workloads import COMPILER_OPTIONS

    def compile_all() -> list[str | None]:
        problems: list[str | None] = []
        for r in run.workload.programs():
            try:
                result = compile_source(
                    r.source, CompilerOptions(**COMPILER_OPTIONS[r.compiler])
                )
                problems.append(
                    None if result.flowchart.descriptors
                    else f"compile {r.program}: empty flowchart"
                )
            except Exception as exc:  # any compile failure is a failed operation
                problems.append(f"compile {r.program}: {type(exc).__name__}: {exc}")
        return problems

    seconds, problems = timed(compile_all)
    for problem in problems:
        run.ops.record(problem)
    return seconds


def run_pass(run: Run, sessions, samples: dict[str, list[float]], tracer=None):
    """One warm ``Session.run`` of every request, each timed on its own."""
    from driver import run_request

    for r in run.workload.requests:
        span = tracer.span("runtime.run", r.program) if tracer else contextlib.nullcontext()

        def one(r=r, span=span):
            with span:
                return run_request(sessions, r)

        try:
            seconds, out = timed(one)
        except Exception as exc:  # a run that raises is a failed operation
            run.ops.record(f"run {r.program}: {type(exc).__name__}: {exc}")
            continue
        samples.setdefault(r.program, []).append(seconds)
        run.ops.record(run.oracle.mismatch(r, out))


def until(deadline: float, body, at_least: int = 1) -> None:
    done = 0
    while done < at_least or time.perf_counter() < deadline:
        body()
        done += 1


def plan_digests(run: Run, sessions) -> dict[str, str]:
    """A digest of each request's ``plan.pretty()``: a plan flip between
    two runs is then named as the cause of a delta."""
    out = {}
    for r in run.workload.requests:
        plan = sessions[r.compiler].plan(r.module, r.args, **r.overrides)
        out[r.program] = hashlib.sha256(plan.pretty().encode()).hexdigest()[:12]
    return out


# -- untraced: the end-to-end metrics ------------------------------------------


def measure_end_to_end(run: Run, seconds: float, quick: bool) -> dict:
    """Interleaved rounds, so every statistic spans the whole run: each
    round launches one cold and two warm children, then splits the rest of
    its time between compile passes, in-process runs and serving."""
    from driver import open_sessions

    rounds = 1 if quick else max(2, min(8, int(seconds // 4)))
    cold, warm, compiles, slices = [], [], [], []
    trips: dict[str, list[float]] = {}
    runs: dict[str, list[float]] = {}
    cold.append(run.launch(cold=True))  # also fills the warm cache
    with run.serving() as sockets, open_sessions(run.workload) as sessions:
        run_pass(run, sessions, {})  # builds plans, kernels and pools
        digests = plan_digests(run, sessions)
        clients = Clients(run, sockets, CLIENTS)
        try:
            clients.slice(0.0)  # connect and touch every daemon thread
            start = time.perf_counter()
            for i in range(rounds):
                end = start + (i + 1) * seconds / rounds
                if i:
                    cold.append(run.launch(cold=True))
                warm += [run.launch(cold=False) for _ in range(2)]
                left = max(end - time.perf_counter(), 0.3 * seconds / rounds)
                until(time.perf_counter() + SLICES["compile"] * left,
                      lambda: compiles.append(compile_pass(run)))
                until(time.perf_counter() + SLICES["run"] * left,
                      lambda: run_pass(run, sessions, runs))
                elapsed, done = clients.slice(SLICES["serve"] * left)
                slices.append((len(done), elapsed))
                for program, rt in done:
                    trips.setdefault(program, []).append(rt)
        finally:
            clients.close()
    cold = [c for c in cold if c]
    warm = [w for w in warm if w]
    served = sum(n for n, _ in slices)
    nan = float("nan")
    return {
        "metrics": {
            "setup_s": median_or_nan(c["wall_s"] for c in cold),
            "warm_start_s": median_or_nan(w["wall_s"] for w in warm),
            "compile_s": median_or_nan(compiles),
            "run_s": sum(median(v) for v in runs.values()) if runs else nan,
            "serve_rps": served / sum(t for _, t in slices) if served else nan,
            # each request's median round trip, averaged over the request
            # list: the raw median of a mix of sizes jumps between clusters
            "serve_p50_ms": (
                statistics.fmean(map(median, trips.values())) * 1e3 if trips else nan
            ),
            "peak_rss_mb": median_or_nan(w["peak_rss_kb"] / 1024 for w in warm),
        },
        "samples": {
            "setup_s": len(cold), "warm_start_s": len(warm), "peak_rss_mb": len(warm),
            "compile_s": len(compiles), "serve_rps": served, "serve_p50_ms": served,
            "run_s": min(map(len, runs.values()), default=0),
        },
        "plan_digests": digests,
    }


# -- traced: the per-layer metrics -----------------------------------------


def staged_compile(tracer, request, execution: dict, counts: dict) -> None:
    """``compile_source`` + ``build_plan`` taken apart at the layer
    boundaries, a span around each call; exact sizes of what each stage
    produced go to ``counts``."""
    from repro.codegen.cgen import generate_c
    from repro.codegen.pygen import generate_python
    from repro.errors import CodegenError
    from repro.graph.build import build_dependency_graph
    from repro.hyperplane.pipeline import hyperplane_transform
    from repro.plan.planner import build_plan
    from repro.ps.lexer import tokenize
    from repro.ps.parser import Parser
    from repro.ps.semantics import analyze_module
    from repro.runtime.executor import ExecutionOptions
    from repro.schedule.fission import fission_splits
    from repro.schedule.merge import merge_loops
    from repro.schedule.pipeline_stages import pipeline_groups
    from repro.schedule.scan_detect import scan_loops
    from repro.schedule.scheduler import schedule_module
    from workloads import COMPILER_OPTIONS

    pid, options = request.program, COMPILER_OPTIONS[request.compiler]
    span = tracer.span
    with span("ps.parse", pid):
        with span("ps.lex", pid):
            tokens = tokenize(request.source)
        module = Parser(tokens).parse_module()
    with span("ps.analyze", pid):
        analyzed = analyze_module(module)
    if options.get("hyperplane"):
        with span("hyperplane.transform", pid):
            analyzed = hyperplane_transform(analyzed).transformed
    with span("graph.build", pid):
        graph = build_dependency_graph(analyzed)
    with span("schedule.schedule", pid):
        flowchart = schedule_module(analyzed, graph)
    if options.get("merge_loops"):
        with span("schedule.merge", pid):
            flowchart = merge_loops(flowchart, graph)
    c_source = ""
    with span("codegen.c", pid), contextlib.suppress(CodegenError):
        c_source = generate_c(analyzed, flowchart, use_windows=True)
    with span("codegen.py", pid), contextlib.suppress(CodegenError):
        generate_python(analyzed, flowchart, use_windows=True)
    exec_options = ExecutionOptions(**{**execution, **request.overrides})
    scalars = {k: v for k, v in request.args.items() if isinstance(v, int)}
    with span("plan.build", pid):
        build_plan(analyzed, flowchart, exec_options, scalars)

    windows = exec_options.use_windows
    loops = flowchart.loops()
    for key, n in (
        ("ps.tokens", len(tokens)),
        ("graph.nodes", len(graph.nodes)),
        ("graph.edges", len(graph.edges)),
        ("schedule.loops_do", sum(not d.parallel for d in loops)),
        ("schedule.loops_doall", sum(bool(d.parallel) for d in loops)),
        ("schedule.scan_loops", len(scan_loops(analyzed, flowchart, windows))),
        ("schedule.pipeline_groups", sum(
            map(len, pipeline_groups(analyzed, flowchart, windows).values()))),
        ("schedule.fission_splits", len(fission_splits(analyzed, flowchart))),
        ("codegen.c_bytes", len(c_source)),
    ):
        counts[key] = counts.get(key, 0) + n


STAGE_SPANS = {
    "ps.lex_s": "ps.lex", "ps.parse_s": "ps.parse", "ps.analyze_s": "ps.analyze",
    "graph.build_s": "graph.build", "schedule.schedule_s": "schedule.schedule",
    "schedule.merge_s": "schedule.merge", "codegen.c_s": "codegen.c",
    "codegen.py_s": "codegen.py", "plan.build_s": "plan.build",
    "hyperplane.transform_s": "hyperplane.transform",
}


def numpy_kernel_emit_seconds(run: Run) -> float:
    """``KernelCache.warm(tier="numpy")`` on fresh compilations: the time
    to emit and exec-compile every NumPy-tier kernel of the workload."""
    from repro.core.pipeline import CompilerOptions, compile_source
    from workloads import COMPILER_OPTIONS

    total = 0.0
    for r in run.workload.requests:
        result = compile_source(
            r.source,
            CompilerOptions(
                emit_c=False, emit_python=False, **COMPILER_OPTIONS[r.compiler]
            ),
        )
        total += timed(
            lambda c=result.kernel_cache, w=bool(r.overrides.get("use_windows")):
            c.warm(w, tier="numpy")
        )[0]
    return total


def wire_costs(run: Run) -> dict[str, dict[str, float]]:
    """Per request: seconds to encode and to decode its arguments and its
    results through the serve wire format (JSON included), and the bytes."""
    from repro.serve import wire

    out = {}
    for r in run.workload.requests:
        enc = dec = size = 0.0
        for mapping in (r.args, r.expected):
            t_enc, text = timed(
                lambda m=mapping: json.dumps(wire.encode_mapping(m), separators=(",", ":"))
            )
            t_dec, _ = timed(lambda t=text: wire.decode_mapping(json.loads(t)))
            enc, dec, size = enc + t_enc, dec + t_dec, size + len(text)
        out[r.program] = {"encode": enc, "decode": dec, "bytes": size}
    return out


def measure_layers(run: Run, seconds: float, quick: bool, trace_path: Path) -> dict:
    from driver import open_sessions
    from repro.plan.ir import STRATEGIES
    from spans import Tracer
    from workloads import NAMED_PROGRAMS

    wl = run.workload
    tracer = Tracer(wl.name)
    m: dict[str, float] = {}

    # child launches with an explicit kernel-warm phase
    launches = 1 if quick else 2
    cold = [run.launch(cold=True, warm_kernels=True) for _ in range(launches)]
    warm = [run.launch(cold=False, warm_kernels=True) for _ in range(launches)]
    cold, warm = [c for c in cold if c], [w for w in warm if w]
    if cold and warm:
        m["cli.import_s"] = median(c["phases"]["import_s"] for c in cold + warm)
        m["kernels.cc_cold_s"] = median(c["phases"]["kernel_warm_s"] for c in cold)
        m["kernels.warm_hit_s"] = median(w["phases"]["kernel_warm_s"] for w in warm)
        m["kernels.so_bytes"] = cold[0]["so_bytes"]
        m["runtime.first_run_s"] = median(w["phases"]["first_run_s"] for w in warm)
        for key, n in warm[0]["kernels"].items():
            m[f"kernels.{key}"] = n

    # the compile path, stage by stage
    passes: list[dict[str, float]] = []
    counts: dict[str, int] = {}

    def one_staged_pass():
        first = len(tracer.spans)
        counts.clear()
        before = spin()
        for r in wl.requests:
            staged_compile(tracer, r, wl.execution(), counts)
        scale = at_reference_speed(1.0, (before, spin()))
        own = tracer.self_seconds(first)
        passes.append(
            {name: scale * sum(own.get(span, ())) for name, span in STAGE_SPANS.items()}
        )

    until(time.perf_counter() + 0.1 * seconds, one_staged_pass, at_least=2)
    for name in STAGE_SPANS:
        m[name] = median(p[name] for p in passes)
    m.update(counts)
    m["kernels.emit_numpy_s"] = numpy_kernel_emit_seconds(run)

    # warm in-process runs, alternately with and without spans
    traced: dict[str, list[float]] = {}
    plain: dict[str, list[float]] = {}
    plan_hits: list[float] = []
    with open_sessions(wl) as sessions:
        run_pass(run, sessions, {})
        digests = plan_digests(run, sessions)
        plans = {
            r.program: sessions[r.compiler].plan(r.module, r.args, **r.overrides)
            for r in wl.requests
        }

        def one_pair():
            run_pass(run, sessions, traced, tracer)
            run_pass(run, sessions, plain)

            def all_plans():
                for r in wl.requests:
                    with tracer.span("plan.cache_hit", r.program):
                        sessions[r.compiler].plan(r.module, r.args, **r.overrides)

            plan_hits.append(timed(all_plans)[0])

        until(time.perf_counter() + 0.2 * seconds, one_pair, at_least=3)
    auto = {p: median(v) for p, v in plain.items()}
    m["plan.cache_hit_s"] = median(plan_hits)
    m["trace.overhead_frac"] = (
        sum(median(v) for v in traced.values()) / sum(auto.values()) - 1
    )
    buckets: dict[str, float] = {}
    for r in wl.requests:
        buckets[r.bucket] = buckets.get(r.bucket, 0.0) + auto[r.program]
    for bucket in (*NAMED_PROGRAMS, "small"):
        m[f"runtime.run_ms.{bucket}"] = buckets.get(bucket, 0.0) * 1e3
    n_pass = min(map(len, plain.values()))
    m["runtime.run_tail_s"] = tail(
        [sum(v[i] for v in plain.values()) for i in range(n_pass)]
    )
    for strategy in STRATEGIES:
        m[f"plan.loops.{strategy}"] = sum(
            lp.strategy == strategy for p in plans.values() for lp in p.loops.values()
        )
    for backend in ("serial", "vectorized", "threaded", "process"):
        m[f"plan.backend.{backend}"] = sum(
            p.backend == backend for p in plans.values()
        )
    rates = [p.cycles / auto[name] for name, p in plans.items() if p.cycles]
    m["plan.pred_spread"] = max(rates) / min(rates)

    # every program pinned to each backend
    pinned: dict[str, dict[str, float]] = {}
    for label, backend, workers in PINNED:
        samples: dict[str, list[float]] = {}
        overrides = {"backend": backend}
        if workers:
            overrides["workers"] = workers
        with open_sessions(wl, **overrides) as sessions:
            first: dict[str, list[float]] = {}
            budget, started = 0.05 * seconds, time.perf_counter()
            run_pass(run, sessions, first)
            if time.perf_counter() - started < budget:
                until(time.perf_counter() + budget,
                      lambda s=sessions, v=samples: run_pass(run, s, v))
        # a pass too slow to repeat within the budget (the scalar walk at
        # n=200000 takes seconds) is its own, kernel-building, sample
        samples = samples or first
        pinned[label] = {p: median(v) for p, v in samples.items()}
        m[f"backends.{label}_s"] = sum(pinned[label].values())
    m["backends.speedup_w2"] = geomean(
        [pinned["threaded_w1"][p] / pinned["threaded"][p] for p in auto]
    )
    m["plan.auto_regret"] = sum(auto.values()) / sum(
        min(pinned[label][p] for label in ("serial", "vectorized", "threaded"))
        for p in auto
    )

    # serving: one client, then two
    wire = wire_costs(run)
    m["serve.wire_encode_s"] = sum(w["encode"] for w in wire.values())
    m["serve.wire_decode_s"] = sum(w["decode"] for w in wire.values())
    m["serve.wire_bytes"] = sum(w["bytes"] for w in wire.values())
    failed_before = run.ops.failed
    with run.serving() as sockets:
        one = Clients(run, sockets, 1)
        two = Clients(run, sockets, CLIENTS)
        try:
            one.slice(0.0)
            two.slice(0.0)
            _, c1 = one.slice(0.1 * seconds)
            _, c2 = two.slice(0.1 * seconds)
            stats = two.stats()
        finally:
            one.close()
            two.close()
    m["serve.errors"] = run.ops.failed - failed_before
    by_program: dict[str, list[float]] = {}
    for program, rt in c1:
        by_program.setdefault(program, []).append(rt)
    m["serve.c1_p50_ms"] = statistics.fmean(map(median, by_program.values())) * 1e3
    m["serve.tail_ms"] = tail([rt for _, rt in c2]) * 1e3
    m["serve.overhead_ms"] = 1e3 * median(
        median(v) - auto[p] - wire[p]["encode"] - wire[p]["decode"]
        for p, v in by_program.items()
    )
    requests = sum(s["plan_requests"] for s in stats)
    m["serve.plan_hit_rate"] = 1 - sum(s["plans_built"] for s in stats) / requests

    tracer.write_chrome(trace_path)
    print(tracer.table())
    return {"metrics": m, "plan_digests": digests, "trace_file": str(trace_path)}


# -- reporting ---------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy

    def first_line(cmd):
        try:
            out = subprocess.run(
                cmd, capture_output=True, text=True, cwd=REPO_ROOT, timeout=20
            )
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        lines = out.stdout.splitlines()
        return lines[0].strip() if out.returncode == 0 and lines else "unknown"

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": first_line(["cc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "seed": seed,
    }


def run_workload(name: str, args, spec: dict, workroot: Path) -> dict:
    run = Run(name, args.seed, args.quick, workroot / name)
    seconds = args.seconds
    if args.trace:
        trace_path = BENCH_DIR / ".work" / f"trace-{name}-seed{args.seed}.json"
        result = measure_layers(run, seconds, args.quick, trace_path)
        declared = {d["name"]: d["unit"] for d in spec["per_layer"]}
    else:
        result = measure_end_to_end(run, seconds, args.quick)
        declared = {d["name"]: d["unit"] for d in spec["end_to_end"]}
    values, counts = result["metrics"], result.pop("samples", {})
    for extra in values.keys() - declared.keys():
        run.ops.record(f"metric {extra} is not declared in BENCHMARK.json")
    for missing in declared.keys() - values.keys():
        run.ops.record(f"metric {missing} was not measured")
    metrics = result["metrics"] = {
        k: {"value": float(values.get(k, "nan")), "unit": unit}
        | ({"n": counts[k]} if k in counts else {})
        for k, unit in declared.items()
    }
    for reason in run.ops.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)

    print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
          f"{seconds:g} s): {run.ops.failed} of {run.ops.attempted} operations failed")
    for key in declared:
        rec = metrics[key]
        n = f"  (n={rec['n']})" if "n" in rec else ""
        print(f"{key:32s} {rec['value']:14.6g} {rec['unit']}{n}")
    ok = run.ops.failed == 0 and all(
        math.isfinite(metrics[k]["value"]) for k in declared
    )
    line = {
        "correct": ok,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {
            k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
            for k in declared
        },
    }
    print(json.dumps(line))
    return {
        "workload": name, "trace": int(args.trace), "seconds": seconds,
        "ops_attempted": run.ops.attempted, "ops_failed": run.ops.failed,
        "failures": run.ops.reasons, **result,
    }


def main(argv: list[str] | None = None) -> int:
    add_src_to_path()
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: all of them")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measuring time per workload (default "
                         f"{spec['run_seconds']}; 2 with --quick)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: per-layer metrics and a Chrome trace")
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: tiny sizes, one round")
    ap.add_argument("--out", help="append this run's full records to a JSON file")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])

    workroot = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    records = []
    try:
        for name in [args.workload] if args.workload else names:
            records.append(run_workload(name, args, spec, workroot))
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    if args.out:
        doc = {"provenance": provenance(args.seed), "runs": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc["runs"] = json.load(fh)["runs"]
        doc["runs"] += [{**r, "seed": args.seed, "quick": args.quick} for r in records]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
