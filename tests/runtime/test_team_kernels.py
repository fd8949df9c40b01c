"""Team kernels: a compiled ``DO`` over ``DOALL`` s as one OpenMP region.

* differential — Jacobi (full storage and windows), tall-skinny (an outer
  trip of 4, below a team of 7), the line sweep and a ``DO`` body with a
  plain equation beside its ``DOALL`` (the ``omp single`` path), each at
  widths 1, 2, 3 and 7, against the evaluator and against width 1, with
  equal evaluation counts and uninitialised storage poisoned;
* a failed entry proof returns before the region, and the rerun a tier
  down raises the evaluator's error;
* libgomp lifetime: a process that ran a team exits cleanly with the pool
  spinning (``OMP_WAIT_POLICY=active``), and a child forked after its
  parent ran one runs at width 1 instead of hanging — both in
  subprocesses with a timeout; team calls happen only on the thread that
  called the run, never on a pool thread;
* the daemon runs teams at most ``cpu_count // max_inflight`` wide, plain
  ``Session.run`` as wide as the plan, and ``stats`` counts both;
* without OpenMP the same plan runs the one-thread kernel.

Plans are made as on a two-core host (``os.cpu_count`` pinned), whatever
this machine has: a team of two runs correctly on one core too.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.paper import RELAXATION_JACOBI_SOURCE, jacobi_analyzed
from repro.core.recurrences import LINE_SWEEP_SOURCE
from repro.errors import ExecutionError
from repro.machine.cost import MachineModel
from repro.plan.planner import forced_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, openmp_supported
from repro.runtime.kernels import native as native_mod
from repro.schedule.scheduler import schedule_module
from repro.serve import DaemonThread, ReproClient, Session

from tests.runtime.test_kernel_sources import TALLSKINNY_SOURCE

pytestmark = pytest.mark.skipif(
    not openmp_supported(), reason="no OpenMP-capable C compiler here"
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: a plain equation in the ``DO`` body beside its ``DOALL``: ``S[I]`` runs
#: on one thread, then every thread reads it
SINGLE_SOURCE = """\
Single: module (X: array[0 .. n, 0 .. m] of real; n: int; m: int):
        [S: array[0 .. n] of real; G: array[0 .. n, 0 .. m] of real];
type
    I = 1 .. n;
    J = 0 .. m;
define
    S[0] = 0.0;
    G[0, J] = X[0, J];
    S[I] = S[I-1] * 0.5 + G[I-1, 0];
    G[I, J] = G[I-1, J] * 0.5 + S[I] + X[I, J];
end Single;
"""

#: ``X[I + 1]`` leaves ``X`` at ``I = m``: the entry proof fails
RANGE_SOURCE = """\
Bad: module (X: array[0 .. m] of real; n: int; m: int):
     [A: array[0 .. n, 0 .. m] of real];
type
    K = 1 .. n;
    I = 0 .. m;
define
    A[0, I] = X[I];
    A[K, I] = A[K-1, I] * 0.5 + X[I + 1];
end Bad;
"""

WIDTHS = (1, 2, 3, 7)

#: a machine on which every loop is worth a compiler run
ALWAYS_C = MachineModel(native_build=0.0)

#: the preamble of a subprocess script: plan as a two-core host
TWO_CORES = "import os; os.cpu_count = lambda: 2\n"


def _program(name):
    """(analyzed, args, outputs, use_windows)."""
    rng = np.random.default_rng(3)
    if name in ("jacobi", "jacobi_win"):
        return (
            jacobi_analyzed(),
            {"InitialA": rng.random((15, 15)), "M": 13, "maxK": 6},
            ("newA",), name == "jacobi_win",
        )
    if name == "tallskinny":
        return (
            analyze_module(parse_module(TALLSKINNY_SOURCE)),
            {"InitialA": rng.random((6, 52)), "r": 4, "c": 50, "maxK": 5},
            ("newA",), False,
        )
    if name == "linesweep":
        return (
            analyze_module(parse_module(LINE_SWEEP_SOURCE)),
            {"G": rng.random((13, 19)), "n": 12, "m": 17},
            ("Mout",), False,
        )
    return (
        analyze_module(parse_module(SINGLE_SOURCE)),
        {"X": rng.random((10, 6)), "n": 9, "m": 5},
        ("S", "G"), False,
    )


def _team_plan(analyzed, flow, args, use_windows, width):
    """Every nest compiled, and every ``DO`` whose team kernel lowers on a
    team ``width`` wide (None: the one-thread kernel)."""
    options = ExecutionOptions(backend="serial", workers=1, use_windows=use_windows)
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = forced_plan(
        analyzed, flow, "serial", options, scalars, default="nest",
        model=ALWAYS_C,
    )
    teams = [
        lp for path, lp in plan.loops.items()
        if lp.keyword == "DO" and lp.strategy == "nest"
        and native_mod.native_refusal(
            flow.descriptor_at(path), analyzed, flow, use_windows, "team"
        ) is None
    ]
    assert teams and all(lp.dialect == "native" for lp in teams)
    for lp in teams:
        lp.team = width
    return options, plan


def _evaluator(analyzed, args, flow=None, use_windows=False):
    """The reference run; in window mode with the debug tags armed, so a
    plane read after its window rotated it out faults."""
    return execute_module(
        analyzed, args, flowchart=flow,
        options=ExecutionOptions(
            backend="serial", use_kernels=False, use_windows=use_windows,
            debug_windows=use_windows,
        ),
    )


@pytest.fixture()
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture()
def states(monkeypatch):
    """Every execution state a backend runs, for its evaluation counts."""
    seen = []
    real = ExecutionBackend.run

    def run(self, state):
        seen.append(state)
        return real(self, state)

    monkeypatch.setattr(ExecutionBackend, "run", run)
    return seen


@pytest.fixture()
def widths(monkeypatch):
    """The width argument of every team kernel call, with the calling
    thread."""
    seen = []
    real = ExecutionBackend._run_kernel

    def spy(self, state, kernel, env, lo=None, hi=None, label=None, width=None):
        if width is not None:
            seen.append((width, threading.current_thread()))
        return real(self, state, kernel, env, lo, hi, label, width=width)

    monkeypatch.setattr(ExecutionBackend, "_run_kernel", spy)
    return seen


class TestDifferential:
    @pytest.mark.parametrize(
        "name", ["jacobi", "jacobi_win", "tallskinny", "linesweep", "single"]
    )
    def test_every_width_equals_the_evaluator_and_width_one(self, name, states):
        analyzed, args, outputs, use_windows = _program(name)
        flow = schedule_module(analyzed)
        want = _evaluator(analyzed, args, flow, use_windows)
        reference_counts = dict(states[-1].eval_counts)
        got = {}
        for width in (None, *WIDTHS):
            options, plan = _team_plan(analyzed, flow, args, use_windows, width)
            backend = ExecutionBackend(workers=1)
            got[width] = execute_module(
                analyzed, args, flowchart=flow, options=options, plan=plan,
                kernel_cache=KernelCache(analyzed, flow), backend=backend,
            )
            backend.close()
            assert backend.counters["team_calls"] == (0 if width is None else 1)
            assert backend.counters["team_capped"] == 0
            assert dict(states[-1].eval_counts) == reference_counts, width
            for k in outputs:
                assert np.array_equal(np.asarray(got[width][k]), want[k]), (
                    name, width, k,
                )
        for width in WIDTHS:
            for k in outputs:
                assert np.array_equal(
                    np.asarray(got[width][k]), np.asarray(got[1][k])
                ), (name, width, k)

    def test_a_failed_entry_proof_returns_before_the_region(self):
        analyzed = analyze_module(parse_module(RANGE_SOURCE))
        flow = schedule_module(analyzed)
        args = {"X": np.arange(6.0), "n": 4, "m": 5}
        with pytest.raises(ExecutionError, match="out of range") as evaluator:
            _evaluator(analyzed, args, flow)
        options, plan = _team_plan(analyzed, flow, args, False, 2)
        cache = KernelCache(analyzed, flow)
        backend = ExecutionBackend(workers=1)
        with pytest.raises(ExecutionError, match="out of range") as team:
            execute_module(
                analyzed, args, flowchart=flow, options=options, plan=plan,
                kernel_cache=cache, backend=backend,
            )
        backend.close()
        assert str(team.value) == str(evaluator.value)
        assert cache.stats()["range_unproven"] == 1
        assert backend.counters["team_calls"] == 1


def _run_script(body: str, env_extra=None, timeout=120):
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env_extra or {})}
    return subprocess.run(
        [sys.executable, "-c", TWO_CORES + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


class TestLibgompLifetime:
    def test_exit_with_a_spinning_pool(self):
        # The kernel .so must outlive the interpreter's teardown: libgomp's
        # pool threads are still spinning in it (rc 139 when it unloads).
        done = _run_script("""\
            import numpy as np
            from repro.core.paper import RELAXATION_JACOBI_SOURCE
            from repro.runtime.executor import ExecutionOptions
            from repro.serve import Session

            rng = np.random.default_rng(0)
            args = {"InitialA": rng.random((66, 66)), "M": 64, "maxK": 10}
            session = Session(ExecutionOptions(backend="auto", workers=2))
            session.load(RELAXATION_JACOBI_SOURCE)
            session.run("Relaxation", args)
            print(session.stats().team_calls)
            """, {"OMP_WAIT_POLICY": "active"})
        assert done.returncode == 0, done.stderr[-2000:]
        assert int(done.stdout.split()[-1]) >= 1

    def test_a_child_forked_after_a_team_runs_at_width_one(self):
        # GNU libgomp is not fork-safe once its pool exists: a width-2
        # region in the child would wait forever for threads it does not
        # have. The child must run the same plan one thread wide.
        done = _run_script("""\
            import os, signal
            import numpy as np
            from repro.core.paper import RELAXATION_JACOBI_SOURCE
            from repro.runtime.executor import ExecutionOptions
            from repro.runtime.kernels.native import team_width
            from repro.serve import Session

            rng = np.random.default_rng(0)
            args = {"InitialA": rng.random((66, 66)), "M": 64, "maxK": 10}
            session = Session(ExecutionOptions(backend="auto", workers=2))
            session.load(RELAXATION_JACOBI_SOURCE)
            want = session.run("Relaxation", args)["newA"]
            assert session.stats().team_calls == 1
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)  # a hang dies instead of outliving the test
                got = session.run("Relaxation", args)["newA"]
                stats = session.stats()
                ok = (
                    team_width(2) == 1 and np.array_equal(got, want)
                    and stats.team_calls == 2 and stats.team_capped == 1
                )
                os._exit(0 if ok else 3)
            _, status = os.waitpid(pid, 0)
            print(os.waitstatus_to_exitcode(status))
            """)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.split()[-1] == "0"

    def test_team_calls_stay_on_the_callers_thread(self, widths, two_cores):
        # threaded x2: the copies around the sweep are chunked on the pool,
        # the sweep's team is entered from the calling thread only
        with Session(ExecutionOptions(backend="threaded", workers=2)) as session:
            session.load(RELAXATION_JACOBI_SOURCE)
            args = {
                "InitialA": np.random.default_rng(1).random((130, 130)),
                "M": 128, "maxK": 12,
            }
            plan = session.plan("Relaxation", args)
            assert any(lp.team for lp in plan.loops.values())
            assert any(lp.strategy == "chunk" for lp in plan.loops.values())
            session.run("Relaxation", args)
        assert widths and all(
            t is threading.current_thread() for _w, t in widths
        )


class TestDaemonCap:
    @staticmethod
    def _args():
        return {
            "M": 64, "maxK": 8,
            "InitialA": np.random.default_rng(2).random((66, 66)),
        }

    @staticmethod
    def _session():
        session = Session(ExecutionOptions(backend="auto", workers=2))
        session.load(RELAXATION_JACOBI_SOURCE)
        return session

    def test_a_plain_run_takes_the_plans_width(self, widths, two_cores):
        with self._session() as session:
            plan = session.plan("Relaxation", self._args())
            assert [lp.team for lp in plan.loops.values() if lp.team] == [2]
            session.run("Relaxation", self._args())
            stats = session.stats()
        assert [w for w, _t in widths] == [2]
        assert (stats.team_calls, stats.team_capped) == (1, 0)

    def test_a_two_slot_daemon_on_two_cpus_runs_width_one(self, widths, two_cores):
        session = self._session()
        before = session.plan("Relaxation", self._args()).pretty()
        assert "team x2" in before
        with DaemonThread(session, port=0, max_inflight=2) as daemon:
            assert daemon.team_cap == 1
            host, port = daemon.address
            with ReproClient(host=host, port=port) as client:
                out = client.run("Relaxation", self._args())
                stats = client.stats()
            # the cap is applied to the call: plans and their texts stay put
            assert session.plan("Relaxation", self._args()).pretty() == before
        want = _evaluator(jacobi_analyzed(), self._args())["newA"]
        assert np.array_equal(out["newA"], want)
        assert [w for w, _t in widths] == [1]
        assert (stats["team_calls"], stats["team_capped"]) == (1, 1)


class TestWithoutOpenMP:
    def test_a_team_plan_runs_the_one_thread_kernel(self, monkeypatch):
        analyzed, args, _outputs, _ = _program("jacobi")
        flow = schedule_module(analyzed)
        options, plan = _team_plan(analyzed, flow, args, False, 2)
        monkeypatch.setattr(native_mod, "openmp_supported", lambda: False)
        backend = ExecutionBackend(workers=1)
        cache = KernelCache(analyzed, flow)
        got = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan,
            kernel_cache=cache, backend=backend,
        )
        backend.close()
        want = _evaluator(analyzed, args, flow)
        assert np.array_equal(got["newA"], want["newA"])
        assert backend.counters["team_calls"] == 0
        # the sweep still ran in C, on the caller's thread
        assert cache.stats()["native"] >= 1
