"""Team kernels: a compiled ``DOALL`` or ``DO`` over ``DOALL`` s as one
OpenMP region.

* differential — Jacobi (full storage and windows), tall-skinny (an outer
  trip of 4, below a team of 7), the line sweep and a ``DO`` body with a
  plain equation beside its ``DOALL`` (the ``omp single`` path), each at
  widths 1, 2, 3 and 7, against the evaluator and against width 1, with
  equal evaluation counts and uninitialised storage poisoned;
* every ``DOALL`` -rooted nest of the corpus (plain and §4) and of the 36
  generated ``small_many`` programs, one ``omp for`` over its root, at the
  same widths, windows off and on, against the evaluator;
* a failed entry proof returns before the region, and the rerun a tier
  down raises the evaluator's error — a ``DO`` root's and a ``DOALL``
  root's alike, after which the next run is exact; a ``div`` guard keeps
  a ``DOALL`` off the team, and its zero divisor raises as the evaluator
  does;
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
import random
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.genprog import generate_program, program_args
from repro.core.paper import RELAXATION_JACOBI_SOURCE, jacobi_analyzed
from repro.core.pipeline import CompilerOptions, compile_source
from repro.core.recurrences import LINE_SWEEP_SOURCE
from repro.errors import ExecutionError, ReproError
from repro.machine.cost import MachineModel
from repro.plan.planner import forced_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.ps.types import ArrayType
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, openmp_supported
from repro.runtime.kernels import native as native_mod
from repro.runtime.values import array_bounds, dtype_for
from repro.schedule.flowchart import LoopDescriptor, loop_chunk_safe
from repro.schedule.scheduler import schedule_module
from repro.serve import DaemonThread, ReproClient, Session

from tests.runtime.test_kernel_sources import (
    CORPUS,
    GENERATED_PER_UNIT_COUNT,
    TALLSKINNY_SOURCE,
)

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
    thread — a module entry's teams included."""
    seen = []
    real = ExecutionBackend._run_kernel
    real_entry = ExecutionBackend._run_entry

    def spy(self, state, kernel, env, lo=None, hi=None, label=None, width=None):
        if width is not None:
            seen.append((width, threading.current_thread()))
        return real(self, state, kernel, env, lo, hi, label, width=width)

    def spy_entry(self, state, recipe):
        if recipe.teams:
            seen.append((native_mod.team_width(recipe.team), threading.current_thread()))
        return real_entry(self, state, recipe)

    monkeypatch.setattr(ExecutionBackend, "_run_kernel", spy)
    monkeypatch.setattr(ExecutionBackend, "_run_entry", spy_entry)
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
            backend = ExecutionBackend()
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
        backend = ExecutionBackend()
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
        # threaded x2: the sweep's team is entered from the calling thread
        # only
        with Session(ExecutionOptions(backend="threaded", workers=2)) as session:
            session.load(RELAXATION_JACOBI_SOURCE)
            args = {
                "InitialA": np.random.default_rng(1).random((130, 130)),
                "M": 128, "maxK": 12,
            }
            plan = session.plan("Relaxation", args)
            assert any(lp.team for lp in plan.loops.values())
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
        backend = ExecutionBackend()
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


#: a size for every integer parameter the corpus declares, small enough to
#: run every program at every width
RUN_SIZES = {"M": 9, "maxK": 4, "n": 23, "m": 11, "r": 3, "c": 17, "k": 3}


def _corpus_args(analyzed, rng):
    """An argument for every parameter of a corpus program: its size from
    :data:`RUN_SIZES`, small integers or reals in ``[0, 1)``."""
    args = {}
    for name in analyzed.param_names:
        t = analyzed.symbol(name).type
        if not isinstance(t, ArrayType):
            args[name] = RUN_SIZES[name] if np.dtype(dtype_for(t)).kind == "i" else 0.5
    env = {k: v for k, v in args.items() if isinstance(v, int)}
    for name in analyzed.param_names:
        t = analyzed.symbol(name).type
        if isinstance(t, ArrayType):
            shape = tuple(hi - lo + 1 for lo, hi in array_bounds(t, env))
            if np.dtype(dtype_for(t.element)).kind == "i":
                args[name] = rng.integers(-5, 6, shape)
            else:
                args[name] = rng.random(shape)
    return args


def _doall_rooted():
    """(tag, analyzed, flowchart, args) for every corpus program, plain and
    §4-transformed, and every generated ``small_many`` program."""
    rng = np.random.default_rng(11)
    for name, source in CORPUS.items():
        for hyper in (False, True):
            try:
                result = compile_source(source, CompilerOptions(hyperplane=hyper))
            except ReproError:
                continue
            analyzed = result.analyzed
            yield (
                f"{name}/h{int(hyper)}", analyzed, result.flowchart,
                _corpus_args(analyzed, rng),
            )
    draw = random.Random(1)
    want = dict(GENERATED_PER_UNIT_COUNT)
    while any(want.values()):
        prog = generate_program(draw.randrange(1 << 30))
        units = len(prog.kinds)
        if not want.get(units):
            continue
        want[units] -= 1
        result = compile_source(prog.source)
        yield (
            f"gen{prog.seed}", result.analyzed, result.flowchart,
            program_args(prog, 32, seed=units),
        )




def _doall_team_plan(analyzed, flow, args, use_windows):
    """Every ``DOALL`` met on the walk outside another ``DOALL`` forced onto
    ``nest`` (a ``DO`` holding one is walked, so its ``DOALL`` s are roots),
    and the loops whose team kernel lowers and which are chunk-safe."""
    overrides = {}

    def walk(descs, path):
        for i, d in enumerate(descs):
            if isinstance(d, LoopDescriptor) and not d.parallel:
                overrides[path + (i,)] = "serial"
                walk(d.body, path + (i,))

    walk(flow.descriptors, ())
    options = ExecutionOptions(backend="serial", workers=1, use_windows=use_windows)
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = forced_plan(
        analyzed, flow, "serial", options, scalars, default="nest",
        overrides=overrides, model=ALWAYS_C,
    )
    teams = [
        lp for path, lp in plan.loops.items()
        if lp.keyword == "DOALL" and lp.strategy == "nest"
        and lp.dialect == "native"
        and loop_chunk_safe(
            flow.descriptor_at(path), analyzed, flow.windows, use_windows
        )
        and native_mod.native_refusal(
            flow.descriptor_at(path), analyzed, flow, use_windows, "team"
        ) is None
    ]
    return options, plan, teams


#: (tag, analyzed, flowchart, args, window mode) of every program and mode
#: in which a ``DOALL`` lowers to a team
DOALL_TEAM_CASES = [
    (tag, analyzed, flow, args, use_windows)
    for tag, analyzed, flow, args in _doall_rooted()
    for use_windows in (False, True)
    if _doall_team_plan(analyzed, flow, args, use_windows)[2]
]


class TestDoallTeams:
    @pytest.mark.parametrize(
        "case", DOALL_TEAM_CASES,
        ids=[f"{c[0]}-{'win' if c[4] else 'flat'}" for c in DOALL_TEAM_CASES],
    )
    def test_every_width_equals_the_evaluator(self, case, states):
        """Every ``DOALL`` -rooted nest on a team 1, 2, 3 and 7 wide, one
        ``omp for`` over its root, with uninitialised storage poisoned:
        the evaluator's bytes (its windowed run with the debug tags
        armed), each element evaluated once."""
        tag, analyzed, flow, args, use_windows = case
        options, plan, teams = _doall_team_plan(analyzed, flow, args, use_windows)
        want = _evaluator(analyzed, args, flow, use_windows)
        reference_counts = dict(states[-1].eval_counts)
        cache = KernelCache(analyzed, flow)
        for width in WIDTHS:
            for lp in teams:
                lp.team = width
            backend = ExecutionBackend()
            got = execute_module(
                analyzed, args, flowchart=flow, options=options, plan=plan,
                kernel_cache=cache, backend=backend,
            )
            backend.close()
            assert backend.counters["team_calls"] >= 1, (tag, width)
            assert dict(states[-1].eval_counts) == reference_counts, (tag, width)
            for k in analyzed.result_names:
                g, w = np.asarray(got[k]), np.asarray(want[k])
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (
                    tag, width, k,
                )

    def test_the_corpus_has_doall_teams_to_check(self):
        tags = {tag for tag, *_rest, use_windows in DOALL_TEAM_CASES if not use_windows}
        assert {"jacobi/h0", "rec/h0", "scan/h0"} <= tags
        assert any(tag.startswith("gen") for tag in tags)
        assert any(use_windows for *_rest, use_windows in DOALL_TEAM_CASES)


#: ``X[I + s]`` leaves ``X`` at ``I = n`` when ``s = 1``; in range at 0
OFFSET_SOURCE = """\
Offset: module (X: array[1 .. n] of real; n: int; s: int):
        [Y: array[1 .. n] of real];
type I = 1 .. n;
define
    Y[I] = X[I + s] * 2.0;
end Offset;
"""

#: an integer division by ``D[1]``
QUOT_SOURCE = """\
Quot: module (n: int; X: array[1 .. n] of int; D: array[1 .. 2] of int):
      [B: array[1 .. n] of int];
type I = 1 .. n;
define
    B[I] = X[I] div D[1];
end Quot;
"""


class TestDoallTeamErrors:
    def test_an_out_of_range_read_raises_the_evaluators_error(self):
        """The entry proof fails before the region: the call reruns on the
        range-checked Python dialect, which raises the evaluator's exact
        error; the same plan, cache and engine then run an in-range input
        bit-equal to the evaluator."""
        analyzed = analyze_module(parse_module(OFFSET_SOURCE))
        flow = schedule_module(analyzed)
        n = 40
        bad = {"X": np.arange(1.0, n + 1), "n": n, "s": 1}
        with pytest.raises(ExecutionError, match="out of range") as evaluator:
            _evaluator(analyzed, bad, flow)
        options, plan, teams = _doall_team_plan(analyzed, flow, bad, False)
        (lp,) = teams
        lp.team = 2
        cache = KernelCache(analyzed, flow)
        backend = ExecutionBackend()
        with pytest.raises(ExecutionError, match="out of range") as team:
            execute_module(
                analyzed, bad, flowchart=flow, options=options, plan=plan,
                kernel_cache=cache, backend=backend,
            )
        assert str(team.value) == str(evaluator.value)
        assert cache.stats()["range_unproven"] == 1
        good = {**bad, "s": 0}
        got = execute_module(
            analyzed, good, flowchart=flow, options=options, plan=plan,
            kernel_cache=cache, backend=backend,
        )
        backend.close()
        assert got["Y"].tobytes() == _evaluator(analyzed, good, flow)["Y"].tobytes()
        assert backend.counters["team_calls"] == 2

    def test_a_zero_divisor_keeps_the_team_off_and_raises(self, two_cores):
        """A ``div`` guard may return inside the loop, which no team region
        may: ``explain()`` says the team is refused, the run raises the
        evaluator's ``ZeroDivisionError``, and the next run is exact."""
        result = compile_source(QUOT_SOURCE)
        options = ExecutionOptions(strategy="nest", workers=2)
        plan = result.plan({"n": 8}, options)
        assert (
            "team refused: a div/mod guard may return inside the loop"
            in plan.explain()
        )
        assert not any(lp.team for lp in plan.loops.values())
        args = {"n": 8, "X": np.arange(-3, 5, dtype=np.int64), "D": np.array([0, 7])}
        reference = ExecutionOptions(backend="serial", use_kernels=False)
        for opts in (reference, options):
            with pytest.raises(ZeroDivisionError, match="integer division or modulo"):
                result.run(args, opts)
        good = {**args, "D": np.array([-2, 7])}
        want = result.run(good, reference)["B"]
        assert result.run(good, options)["B"].tobytes() == want.tobytes()
