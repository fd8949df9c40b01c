"""Tier-up: a session's plan key runs first on the plan a one-shot process
would build, and from its second run on the session replans it with the
native build sunk, compiles the changed plans in the background as one
unit, and swaps them in between runs — bit-exact throughout, never making
a request wait on ``cc``."""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import paper, recurrences
from repro.core.genprog import generate_program, program_args
from repro.core.pipeline import CompilerOptions, compile_source
from repro.ps.types import ArrayType
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import native as native_mod
from repro.runtime.values import array_bounds, dtype_for
from repro.serve import DaemonThread, ReproClient, Session

from tests.runtime.test_kernel_sources import TALLSKINNY_SOURCE
from tests.runtime.test_kernels import DP_SOURCE, PATHS_INT_SOURCE

pytestmark = pytest.mark.skipif(
    not native_mod.native_supported(), reason="no C compiler / cffi"
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: the named programs of the e2e ``small_many`` workload at its sizes:
#: name -> (source, compiler options, execution overrides, sizes)
NAMED = {
    "jacobi": (paper.RELAXATION_JACOBI_SOURCE, {}, {}, {"M": 8, "maxK": 4}),
    "jacobi_win": (
        paper.RELAXATION_JACOBI_SOURCE, {}, {"use_windows": True},
        {"M": 8, "maxK": 4},
    ),
    "gs_hyper": (
        paper.RELAXATION_GAUSS_SEIDEL_SOURCE, {"hyperplane": True}, {},
        {"M": 8, "maxK": 4},
    ),
    "tallskinny": (TALLSKINNY_SOURCE, {}, {}, {"r": 2, "c": 32, "maxK": 4}),
    "align_hyper": (DP_SOURCE, {"hyperplane": True}, {}, {"n": 32}),
    "scan": (recurrences.SCAN_SOURCE, {}, {}, {"n": 32}),
    "coupled": (recurrences.COUPLED_SOURCE, {}, {}, {"n": 32}),
    "isum": (recurrences.ISUM_SOURCE, {}, {}, {"n": 32}),
    "runmax": (recurrences.RUNMAX_SOURCE, {}, {}, {"n": 32}),
    "ilinrec": (recurrences.ILINREC_SOURCE, {}, {}, {"n": 32}),
    "linesweep": (recurrences.LINE_SWEEP_SOURCE, {}, {}, {"n": 16, "m": 16}),
    "mixed": (recurrences.MIXED_SOURCE, {"merge_loops": True}, {}, {"n": 32}),
    "align": (DP_SOURCE, {}, {}, {"n": 32}),
    "paths": (PATHS_INT_SOURCE, {}, {}, {"n": 32}),
}

#: what ``small_many`` runs every program with
SMALL_MANY = ExecutionOptions(backend="auto", workers=2)

EVALUATOR = ExecutionOptions(backend="serial", use_kernels=False)


def inputs(analyzed, sizes: dict, seed: int) -> dict:
    """``sizes`` plus every other parameter: small integers (no recurrence
    of the corpus overflows on them), reals in [0, 1) and 0.5 scalars."""
    rng = np.random.default_rng(seed)
    args = dict(sizes)
    for pname in analyzed.param_names:
        if pname in args:
            continue
        t = analyzed.symbol(pname).type
        if isinstance(t, ArrayType):
            shape = tuple(hi - lo + 1 for lo, hi in array_bounds(t, sizes))
            if np.dtype(dtype_for(t.element)).kind == "f":
                args[pname] = rng.random(shape)
            else:
                args[pname] = rng.integers(-1, 2, shape)
        else:
            args[pname] = 0.5
    return args


def evaluate(session: Session, module: str, args: dict, **overrides) -> dict:
    result = session.result_for(module)
    return execute_module(
        result.analyzed, dict(args), flowchart=result.flowchart,
        options=ExecutionOptions.resolve(EVALUATOR, **overrides),
    )


def assert_same(out: dict, want: dict, what: str) -> None:
    assert set(out) == set(want), what
    for name in want:
        assert np.array_equal(np.asarray(out[name]), np.asarray(want[name])), (
            f"{what}: {name}"
        )


def settle(session: Session, timeout: float = 120.0) -> None:
    """Wait until the session's builder has no tier-up left."""
    deadline = time.monotonic() + timeout
    while session.stats().builds_pending:
        assert time.monotonic() < deadline, "tier-up builds never finished"
        time.sleep(0.02)


@pytest.fixture()
def fresh_native(tmp_path, monkeypatch):
    """An empty on-disk native cache and nothing dlopened in this
    process, so every native function must come from a real build."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native"))
    monkeypatch.setattr(native_mod, "_loaded", {})
    return tmp_path / "native"


class TestPricing:
    @pytest.mark.parametrize("name", NAMED)
    def test_first_run_plans_as_one_shot(self, name):
        """A key's first run is served the plan ``compile_source`` builds,
        priced with the build charged to it."""
        source, compiler, overrides, sizes = NAMED[name]
        options = ExecutionOptions.resolve(SMALL_MANY, **overrides)
        one_shot = compile_source(source, CompilerOptions(**compiler)).plan(
            sizes, execution=options
        )
        with Session(SMALL_MANY, CompilerOptions(**compiler)) as s:
            module = s.load(source)
            args = inputs(s.result_for(module).analyzed, sizes, 0)
            s.run(module, args, **overrides)
            plan = s.plan(module, sizes, **overrides)
        assert plan.pretty() == one_shot.pretty()
        assert "pricing: native build charged to this run" in plan.explain()

    def test_served_pricing_sinks_the_build(self):
        """The same key priced as served compiles the small ``DO`` the
        one-shot plan leaves to the Python dialect, and says so."""
        result = compile_source(recurrences.ISUM_SOURCE)
        options = ExecutionOptions(backend="serial")
        one_shot = result.plan({"n": 32}, execution=options)
        served = result.plan({"n": 32}, execution=options, served=True)
        assert "eq.2 [kernel=nest]" in one_shot.pretty()
        assert "eq.2 [kernel=native]" in served.pretty()
        assert "pricing: native build sunk (served plan)" in served.explain()
        assert result.plan({"n": 32}, execution=options) is one_shot


class TestTierUp:
    def test_second_run_tiers_up_between_runs(self, fresh_native):
        with Session(ExecutionOptions(backend="serial")) as s:
            s.load(recurrences.ISUM_SOURCE)
            args = inputs(s.result_for("ISum").analyzed, {"n": 32}, 1)
            want = evaluate(s, "ISum", args)
            assert_same(s.run("ISum", args), want, "first run")
            first = s.plan("ISum", args)
            assert_same(s.run("ISum", args), want, "second run")
            settle(s)
            stats = s.stats()
            assert (stats.tier_ups, stats.tier_up_failures) == (1, 0)
            assert stats.tier_up_builds == {"tus": 1, "cc_calls": 1}
            tiered = s.plan("ISum", args)
            assert tiered is not first
            assert "eq.2 [kernel=native]" in tiered.pretty()
            assert "native build sunk (served plan)" in tiered.explain()
            assert_same(s.run("ISum", args), want, "tiered run")
            # the swapped-in kernels were built in the background: the
            # tiered run started no compiler of its own
            assert s.result_for("ISum").kernel_cache.stats()["cc_calls"] == 0

    def test_unchanged_plan_settles_without_a_build(self, fresh_native):
        """At a size where the one-shot plan already compiles the ``DO``,
        the replan is the same text: the key settles and nothing builds."""
        with Session(ExecutionOptions(backend="serial")) as s:
            s.load(recurrences.ISUM_SOURCE)
            args = inputs(s.result_for("ISum").analyzed, {"n": 4000}, 2)
            s.run("ISum", args)
            first = s.plan("ISum", args)
            s.run("ISum", args)
            settle(s)
            stats = s.stats()
            assert (stats.tier_ups, stats.tier_up_failures) == (0, 0)
            assert stats.tier_up_builds == {"tus": 0, "cc_calls": 0}
            assert s.plan("ISum", args) is first
            s.run("ISum", args)
            assert s.stats().builds_pending == 0

    def test_compiler_removed_after_the_first_run(self, fresh_native, monkeypatch):
        """A failed background build keeps the old plan serving, is
        counted once, and is not retried; ``close()`` joins the builder."""
        s = Session(ExecutionOptions(backend="serial"))
        s.load(recurrences.ISUM_SOURCE)
        args = inputs(s.result_for("ISum").analyzed, {"n": 32}, 3)
        want = evaluate(s, "ISum", args)
        assert_same(s.run("ISum", args), want, "first run")
        first = s.plan("ISum", args)
        monkeypatch.setattr(
            native_mod, "find_compiler", lambda: str(fresh_native / "gone-cc")
        )
        for _ in range(3):
            assert_same(s.run("ISum", args), want, "run after removal")
            settle(s)
        stats = s.stats()
        assert (stats.tier_ups, stats.tier_up_failures) == (0, 1)
        assert s.plan("ISum", args) is first
        builder = s._builder
        assert builder.is_alive()
        s.close()
        assert not builder.is_alive(), "close() left the builder running"

    def test_warm_serves_the_compiled_plan_from_the_first_request(
        self, fresh_native
    ):
        with Session(ExecutionOptions(backend="serial")) as s:
            s.load(recurrences.ISUM_SOURCE)
            s.warm("ISum", {"n": 32})
            plan = s.plan("ISum", {"n": 32})
            assert "eq.2 [kernel=native]" in plan.pretty()
            assert "native build sunk (served plan)" in plan.explain()
            args = inputs(s.result_for("ISum").analyzed, {"n": 32}, 4)
            want = evaluate(s, "ISum", args)
            built = s.result_for("ISum").kernel_cache.stats()["cc_calls"]
            for _ in range(3):
                assert_same(s.run("ISum", args), want, "warmed run")
            stats = s.stats()
            assert (stats.tier_ups, stats.builds_pending) == (0, 0)
            assert s.result_for("ISum").kernel_cache.stats()["cc_calls"] == built
            assert s._builder is None, "a warmed key queued a tier-up"

    def test_a_background_cc_never_blocks_a_foreground_build(
        self, fresh_native, tmp_path, monkeypatch
    ):
        """A compiler that takes 2 s at idle priority (the builder's) holds
        up no other module's first run, which builds its own kernels."""
        real = native_mod.find_compiler()
        mark = tmp_path / "slow-cc-started"
        fake = tmp_path / "slow-cc"
        fake.write_text(textwrap.dedent(f"""\
            #!{sys.executable}
            import os, sys, time
            if os.nice(0) > int(os.environ["BASE_NICE"]):
                open({str(mark)!r}, "w").close()
                time.sleep(2)
            os.execv({real!r}, [{real!r}] + sys.argv[1:])
        """))
        fake.chmod(0o755)
        monkeypatch.setenv("BASE_NICE", str(os.nice(0)))
        monkeypatch.setattr(native_mod, "find_compiler", lambda: str(fake))
        with Session(ExecutionOptions(backend="serial")) as s:
            s.load(recurrences.ISUM_SOURCE)
            s.load(paper.RELAXATION_JACOBI_SOURCE)
            isum = inputs(s.result_for("ISum").analyzed, {"n": 32}, 5)
            s.run("ISum", isum)
            s.run("ISum", isum)
            deadline = time.monotonic() + 30
            while not mark.exists():
                assert time.monotonic() < deadline, "no background build"
                time.sleep(0.01)
            jacobi = inputs(
                s.result_for("Relaxation").analyzed, {"M": 8, "maxK": 3}, 6
            )
            t0 = time.perf_counter()
            out = s.run("Relaxation", jacobi)
            elapsed = time.perf_counter() - t0
            assert s.stats().builds_pending == 1  # still in the slow cc
            assert_same(out, evaluate(s, "Relaxation", jacobi), "Relaxation")
            assert s.result_for("Relaxation").kernel_cache.stats()["cc_calls"] >= 1
            assert elapsed < 1.0, f"first run waited {elapsed:.2f} s on cc"
            settle(s)
            assert s.stats().tier_ups == 1
            assert_same(s.run("ISum", isum), evaluate(s, "ISum", isum), "ISum")

    def test_racing_runs_queue_each_key_once(self, fresh_native):
        """Eight threads run three keys at once under a tiny switch
        interval: each key tiers up exactly once, and every result is the
        evaluator's before and after its swap."""
        sources = [
            recurrences.ISUM_SOURCE, recurrences.RUNMAX_SOURCE,
            recurrences.SCAN_SOURCE,
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Session(ExecutionOptions(backend="serial")) as s:
                requests = []
                for i, source in enumerate(sources):
                    name = s.load(source)
                    args = inputs(s.result_for(name).analyzed, {"n": 32}, i)
                    requests.append((name, args, evaluate(s, name, args)))
                errors = []

                def client(k: int) -> None:
                    try:
                        for r in range(40):
                            name, args, want = requests[(k + r) % len(requests)]
                            assert_same(s.run(name, args), want, name)
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(k,)) for k in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert not errors, errors[0]
                settle(s)
                stats = s.stats()
                assert (stats.tier_ups, stats.tier_up_failures) == (3, 0)
                assert 1 <= stats.tier_up_builds["cc_calls"] <= 3
                for name, args, want in requests:
                    assert "[kernel=native]" in s.plan(name, args).pretty()
                    assert_same(s.run(name, args), want, name)
        finally:
            sys.setswitchinterval(interval)

    def test_a_second_process_reuses_the_batched_units(self, fresh_native):
        """A batch's digest depends on which tier-ups were pending together;
        the unit index lets another process on the same cache dlopen the
        units that hold its functions instead of running ``cc`` again."""
        script = textwrap.dedent("""\
            import json, time
            import numpy as np
            from repro.core import recurrences
            from repro.runtime.executor import ExecutionOptions
            from repro.serve import Session

            sources = [recurrences.ISUM_SOURCE, recurrences.RUNMAX_SOURCE,
                       recurrences.SCAN_SOURCE]
            with Session(ExecutionOptions(backend="serial")) as s:
                for source in sources:
                    name = s.load(source)
                    args = {"n": 32, "X": np.ones(32), "a": 0.5}
                    if name == "ISum":
                        args["X"] = np.ones(32, dtype=np.int64)
                    s.run(name, args)
                    s.run(name, args)
                while s.stats().builds_pending:
                    time.sleep(0.02)
                stats = s.stats()
                print(json.dumps({"tier_ups": stats.tier_ups,
                                  "failures": stats.tier_up_failures,
                                  "builds": stats.tier_up_builds}))
        """)
        env = {
            **os.environ, "REPRO_NATIVE_CACHE": str(fresh_native),
            "PYTHONPATH": str(SRC),
        }
        reports = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            reports.append(json.loads(done.stdout.splitlines()[-1]))
        first, second = reports
        assert first["tier_ups"] == second["tier_ups"] == 3
        assert first["failures"] == second["failures"] == 0
        assert first["builds"]["cc_calls"] >= 1
        assert second["builds"]["cc_calls"] == 0
        assert second["builds"]["tus"] >= 1


def _generated_programs(count: int) -> dict[str, tuple]:
    out = {}
    for seed in range(count):
        prog = generate_program(1000 + seed)
        name = f"Gen{seed}"
        out[name] = (
            prog.source.replace("GenProg", name), {}, {},
            program_args(prog, 32, seed=seed),
        )
    return out


class TestServedTierUp:
    def test_concurrent_clients_stay_bit_exact_across_the_swap(self, tmp_path):
        """Two daemon clients walk the 14 named ``small_many`` programs and
        a few generated ones at once; every response before and after the
        swap equals the evaluator's."""
        programs = {**NAMED, **_generated_programs(4)}
        groups: dict[tuple, list[str]] = {}
        for name, (_, compiler, _, _) in programs.items():
            groups.setdefault(tuple(sorted(compiler.items())), []).append(name)
        sessions, daemons, sockets, requests = [], [], {}, []
        try:
            for i, (compiler, names) in enumerate(groups.items()):
                session = Session(SMALL_MANY, CompilerOptions(**dict(compiler)))
                sessions.append(session)
                for name in names:
                    source, _, overrides, sizes = programs[name]
                    module = session.load(source, name=name.split("_win")[0])
                    analyzed = session.result_for(module).analyzed
                    args = inputs(analyzed, sizes, len(requests))
                    want = evaluate(session, module, args, **overrides)
                    requests.append((i, module, args, overrides, want))
                sockets[i] = str(tmp_path / f"s{i}")
                daemon = DaemonThread(session, unix_path=sockets[i], max_inflight=2)
                daemon.start()
                daemons.append(daemon)

            def client(rounds: int, offset: int) -> None:
                conns = {i: ReproClient(unix_path=p) for i, p in sockets.items()}
                try:
                    for r in range(rounds * len(requests)):
                        i, module, args, overrides, want = requests[
                            (r + offset) % len(requests)
                        ]
                        out = conns[i].run(module, args, **overrides)
                        assert_same(out, want, module)
                finally:
                    for conn in conns.values():
                        conn.close()

            def both(rounds: int) -> None:
                errors = []

                def guarded(offset):
                    try:
                        client(rounds, offset)
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=guarded, args=(k * len(requests) // 2,))
                    for k in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                if errors:
                    raise errors[0]

            both(2)  # first runs, then the second runs that queue tier-ups
            for session in sessions:
                settle(session)
            both(1)  # on the swapped-in plans
            tiered = sum(session.stats().tier_ups for session in sessions)
            failures = sum(s.stats().tier_up_failures for s in sessions)
            assert failures == 0
            assert tiered >= len(NAMED) // 2, "most small plans should tier up"
        finally:
            for daemon in daemons:
                daemon.stop()
            for session in sessions:
                session.close()
        assert not any(s._builder.is_alive() for s in sessions if s._builder)

    def test_daemon_stats_report_tier_ups(self, tmp_path):
        with Session(ExecutionOptions(backend="serial")) as s:
            s.load(recurrences.ISUM_SOURCE)
            path = str(tmp_path / "sock")
            with DaemonThread(s, unix_path=path):
                with ReproClient(unix_path=path) as client:
                    args = {"n": 32, "X": np.arange(32)}
                    for _ in range(2):
                        client.run("ISum", args)
                    settle(s)
                    stats = client.stats()
        assert stats["builds_pending"] == 0
        assert stats["tier_up_failures"] == 0
        assert stats["tier_ups"] == 1
        assert set(stats["tier_up_builds"]) == {"tus", "cc_calls"}
