"""The compiled in-order ``DO`` (``DO I -> nest``): bit-exact against the
tree-walking evaluator wherever it is forced, honoured or refused loudly,
and built with at most one compiler process per (module, plan).

* differential — every corpus program and a spread of generated ones,
  every sequential loop whose nest lowers hard-pinned to ``nest``, on every
  backend, in both window modes and both dialects (C and the
  exec-compiled Python text of the same walk), against the evaluator;
  a range-check failure and a zero divisor raised from *inside* a compiled
  ``DO`` are the evaluator's exact exceptions;
* the build — a cold native cache sees at most one ``cc`` per (module,
  plan), none at all for a module whose loops are too small to be worth a
  compiler run, and a second process over the same cache starts none
  (``KernelCache.stats()`` books both counts);
* degradation — no compiler, no cffi, a crashing ``cc`` and a refusing
  emitter each cost one failed attempt, after which the plan's native
  ``DO`` runs on the Python dialect (or the walk) with unchanged results.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.genprog import generate_program, program_args
from repro.core.pipeline import CompilerOptions, compile_source
from repro.core.recurrences import (
    MIXED_SOURCE,
    RECURRENCE_WORKLOADS,
    ilinrec_analyzed,
    ilinrec_args,
    mixed_analyzed,
    mixed_args,
)
from repro.errors import ExecutionError
from repro.graph.build import build_dependency_graph
from repro.machine.cost import MachineModel
from repro.plan.ir import PlanError
from repro.plan.planner import build_plan, forced_plan, valid_strategies
from repro.ps.parser import parse_module, parse_program
from repro.ps.semantics import analyze_module, analyze_program
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported
from repro.runtime.kernels import native as native_mod
from repro.schedule import fission
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernels import ALL_BACKENDS, WORKLOADS
from tests.runtime.test_native_kernels import (
    LOOKUP_CONDITIONS,
    _impose,
    native_cache_dir,  # noqa: F401  (fixture)
    needs_toolchain,
)

#: a machine on which every loop is worth a compiler run / none is
ALWAYS_C = MachineModel(native_build=0.0)
NEVER_C = MachineModel(native_build=float("inf"))

GENPROG_SEEDS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def _merged(analyzed):
    """``analyzed`` scheduled, then through the loop-merging pass."""
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


SWEEP = """\
Sweep: module (X: array[1 .. n] of int; n: int):
       [T: array[0 .. n] of int; S: array[0 .. n] of int;
        M: array[0 .. n] of int; Q: array[0 .. n] of int];
type
    I = 1 .. n;
define
    T[0] = 0;
    S[0] = 0;
    M[0] = X[1];
    Q[0] = 0;
    T[I] = T[I-1] + Damp(X[I]);
    S[I] = S[I-1] + (X[I] * X[I] - 3 * X[I] + 7);
    M[I] = max(M[I-1], X[I] * X[I] - 4 * X[I]);
    Q[I] = Q[I-1] + (X[I] - 2) * (X[I] + 2);
end Sweep;
"""

#: ``Sweep`` calling a loop-free ``Damp``, which the front end inlines: the
#: merged nest of four recurrences lowers whole
INLINED_CALL_PROGRAM = """\
Damp: module (v: int): [w: int];
define
    w = v * 3 + 1;
end Damp;

""" + SWEEP

#: ``Sweep`` calling a ``Damp`` with a loop of its own, which the front end
#: leaves as a call: the merged nest carrying it stays on the walk
LOOPED_CALL_PROGRAM = """\
Damp: module (v: int): [w: int];
type
    K = 1 .. 1;
var
    P: array [1 .. 1] of int;
define
    P[K] = v * 3 + 1;
    w = P[1];
end Damp;

""" + SWEEP


def _programs():
    """(name, analyzed, flowchart, args, outputs): the paper workloads, the
    recurrence corpus as scheduled, ``Mixed`` and the generated programs
    merged (one ``DO`` carrying several recurrences)."""
    for name, analyzed, flow, args, result in WORKLOADS:
        yield name, analyzed, flow, args, (result,)
    for name, analyzed_fn, args_fn, out in RECURRENCE_WORKLOADS:
        analyzed = analyzed_fn()
        yield name, analyzed, schedule_module(analyzed), args_fn(), (out,)
    mixed = mixed_analyzed()
    yield "mixed_merged", mixed, _merged(mixed), mixed_args(n=40), ("T", "S", "M")
    for seed in GENPROG_SEEDS:
        prog = generate_program(seed)
        analyzed = prog.analyzed()
        yield (
            f"gen{seed}", analyzed, _merged(analyzed),
            program_args(prog, 32, seed), prog.outputs,
        )


PROGRAMS = list(_programs())


def _scalars(args):
    return {k: v for k, v in args.items() if isinstance(v, int)}


def _outermost_lowerable_dos(analyzed, flow, use_windows):
    """Paths of the sequential loops a plan may pin to ``nest``: each
    ``DO`` that offers it, outermost first (a pinned root fuses the loops
    inside it)."""
    paths = []

    def walk(descs):
        for d in descs:
            if not isinstance(d, LoopDescriptor):
                continue
            if not d.parallel and "nest" in valid_strategies(
                analyzed, flow, d, use_windows
            ):
                paths.append(flow.path_of(d))
            else:
                walk(d.body)

    walk(flow.descriptors)
    return paths


def _reference(analyzed, flow, args, outputs, use_windows=False):
    res = execute_module(
        analyzed, args, flowchart=flow,
        options=ExecutionOptions(
            backend="serial", use_kernels=False, use_windows=use_windows
        ),
    )
    return {k: np.asarray(res[k]) for k in outputs}


class TestDifferential:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("use_windows", [False, True], ids=["flat", "win"])
    @pytest.mark.parametrize(
        "model", [ALWAYS_C, NEVER_C], ids=["c-dialect", "python-dialect"]
    )
    def test_forced_compiled_do_equals_the_evaluator(
        self, backend, use_windows, model
    ):
        pinned_somewhere = 0
        for name, analyzed, flow, args, outputs in PROGRAMS:
            pins = _outermost_lowerable_dos(analyzed, flow, use_windows)
            pinned_somewhere += bool(pins)
            options = ExecutionOptions(
                backend=backend, workers=2, use_windows=use_windows
            )
            plan = forced_plan(
                analyzed, flow, backend, options, _scalars(args),
                overrides={p: "nest" for p in pins}, model=model,
            )
            for path in pins:
                lp = plan.loops[path]
                assert lp.strategy == "nest" and lp.keyword == "DO", name
                native = model is ALWAYS_C and native_mod.native_refusal(
                    flow.descriptor_at(path), analyzed, flow, use_windows
                ) is None
                assert lp.dialect == ("native" if native else "python"), name
            got = execute_module(
                analyzed, args, flowchart=flow, options=options, plan=plan,
                kernel_cache=KernelCache(analyzed, flow),
            )
            want = _reference(analyzed, flow, args, outputs, use_windows)
            for k in outputs:
                assert np.array_equal(np.asarray(got[k]), want[k]), (
                    name, k, backend, use_windows,
                )
        # the corpus is mostly sequential loops: a refactor that made
        # valid_strategies stop offering "nest" must not pass vacuously
        assert pinned_somewhere >= len(PROGRAMS) - 2

    def test_the_walk_is_still_the_reference(self):
        # ``serial`` on a DO is the per-element walk — what everything
        # above is compared against must itself stay reachable.
        analyzed = ilinrec_analyzed()
        flow = schedule_module(analyzed)
        args = ilinrec_args(n=50)
        (path,) = _outermost_lowerable_dos(analyzed, flow, False)
        plan = forced_plan(
            analyzed, flow, "serial", ExecutionOptions(backend="serial"),
            _scalars(args), overrides={path: "serial"},
        )
        assert plan.loops[path].strategy == "serial"
        assert plan.loops[path].dialect is None
        got = execute_module(
            analyzed, args, flowchart=flow, plan=plan,
            options=ExecutionOptions(backend="serial"),
        )
        want = _reference(analyzed, flow, args, ("S",))
        assert np.array_equal(np.asarray(got["S"]), want["S"])


class TestMergedNests:
    """A nest the loop-merging pass built runs as written: one loop of the
    flowchart, planned like any other, never split into replica loops."""

    @pytest.mark.parametrize(
        "backend", ["serial", "vectorized", "threaded", "auto"]
    )
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=24),
    )
    def test_generated_programs_equal_the_evaluator(self, backend, seed, n):
        # Unforced plans on both kernel tiers and in both window modes,
        # uninitialised storage poisoned suite-wide: bit-equal to the
        # scalar reference evaluator.
        prog = generate_program(seed)
        res = compile_source(prog.source, CompilerOptions(merge_loops=True))
        args = program_args(prog, n, seed)
        want = _reference(res.analyzed, res.flowchart, args, prog.outputs)
        for tier in ("native", "numpy"):
            for use_windows in (False, True):
                got = res.run(args, ExecutionOptions(
                    backend=backend, workers=2, kernel_tier=tier,
                    use_windows=use_windows,
                ))
                for k in prog.outputs:
                    assert np.array_equal(np.asarray(got[k]), want[k]), (
                        k, tier, use_windows,
                    )

    @pytest.mark.parametrize("backend", ALL_BACKENDS + ["auto"])
    @pytest.mark.parametrize(
        "use_windows, debug_windows",
        [(False, False), (True, False), (True, True)],
        ids=["flat", "win", "win-debug"],
    )
    def test_merged_mixed_equals_the_evaluator(
        self, backend, use_windows, debug_windows
    ):
        # win-debug arms the fault-on-overwrite tags inside the one loop
        # that carries all three recurrences.
        analyzed = mixed_analyzed()
        flow = _merged(analyzed)
        args = mixed_args(n=300)
        options = ExecutionOptions(
            backend=backend, workers=4,
            use_windows=use_windows, debug_windows=debug_windows,
        )
        plan = build_plan(analyzed, flow, options, _scalars(args))
        assert [idx for idx, _ in plan.strategies()] == ["I"]
        got = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan,
        )
        want = _reference(analyzed, flow, args, ("T", "S", "M"))
        for k in want:
            assert np.array_equal(np.asarray(got[k]), want[k]), k

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_a_walked_nest_with_a_call_equals_the_evaluator(self, backend):
        # The call keeps the whole merged nest on the walk; the clean
        # recurrences beside it run there too, and still bit-exact.
        program = analyze_program(parse_program(LOOPED_CALL_PROGRAM))
        analyzed = program["Sweep"]
        flow = _merged(analyzed)
        (loop,) = flow.loops()
        assert len(loop.body) == 4
        args = {k: v for k, v in mixed_args(n=200).items() if k in ("X", "n")}
        options = ExecutionOptions(backend=backend, workers=4)
        plan = build_plan(analyzed, flow, options, _scalars(args))
        assert plan.strategies() == [("I", "serial")]
        got = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan,
            program=program,
        )
        want = execute_module(
            analyzed, args, flowchart=flow, program=program,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )
        for k in ("T", "S", "M", "Q"):
            assert np.array_equal(np.asarray(got[k]), np.asarray(want[k])), k

    def test_a_failure_inside_the_merged_do_leaves_the_pool_usable(
        self, monkeypatch
    ):
        # A failure raised from the compiled merged DO unwinds with the
        # original exception, and the same backend then
        # runs the module again bit-exact. On the walk: the module entry,
        # which would run the whole plan as one C call, is held back
        # (tests/runtime/test_module_entry.py fails that call instead).
        monkeypatch.setattr(KernelCache, "module_entry", lambda *_: None)

        class Exploding(ExecutionBackend):
            def __init__(self):
                super().__init__()
                self.armed = True
                self.ran = []

            def exec_nest_kernel(self, state, desc, lo, hi, env):
                self.ran.append(tuple(eq.label for eq in desc.body))
                if self.armed:
                    self.armed = False
                    raise RuntimeError("merged nest exploded mid-run")
                return super().exec_nest_kernel(state, desc, lo, hi, env)

        analyzed = mixed_analyzed()
        flow = _merged(analyzed)
        args = mixed_args(n=2000)
        options = ExecutionOptions(backend="threaded", workers=4)
        want = _reference(analyzed, flow, args, ("T", "S", "M"))
        backend = Exploding()
        try:
            with pytest.raises(RuntimeError, match="exploded mid-run"):
                execute_module(
                    analyzed, args, flowchart=flow, options=options,
                    backend=backend,
                )
            # one loop carries the three recurrences: nothing else ran
            assert backend.ran == [("eq.4", "eq.5", "eq.6")]
            got = execute_module(
                analyzed, args, flowchart=flow, options=options,
                backend=backend,
            )
            for k in want:
                assert np.array_equal(np.asarray(got[k]), want[k]), k
            assert backend.ran == [("eq.4", "eq.5", "eq.6")] * 2
        finally:
            backend.close()

    def test_compiling_planning_and_running_never_split(self, monkeypatch):
        def spy(*args):
            raise AssertionError("fission_splits was called")

        monkeypatch.setattr(fission, "fission_splits", spy)
        res = compile_source(MIXED_SOURCE, CompilerOptions(merge_loops=True))
        args = mixed_args(n=40)
        for backend in ("serial", "threaded"):
            res.run(args, ExecutionOptions(backend=backend, workers=2))
        res.kernel_cache.warm(False, tier="numpy")

    def test_kernels_are_warmed_for_the_flowchart_loops_only(self):
        # The merged nest has a legal split, but its replicas are not in
        # the flowchart: nothing resolves them, nothing builds for them.
        analyzed = mixed_analyzed()
        flow = _merged(analyzed)
        (split,) = fission.fission_splits(analyzed, flow).values()
        assert all(flow.path_of(piece) is None for piece in split.pieces)
        cache = KernelCache(analyzed, flow)
        cache.warm(False, tier="numpy")
        assert {path for path, _, _ in cache._nests} == {
            flow.path_of(d) for d in flow.loops()
        }


RANGE_SOURCE = """\
T: module (X: array[1 .. n] of int; n: int): [S: array[0 .. n] of int];
type I = 1 .. n;
define
    S[0] = 0;
    S[I] = S[I-2] + X[I];
end T;
"""

DIV_SOURCE = """\
T: module (k: int; n: int): [S: array[0 .. n] of int];
type I = 1 .. n;
define
    S[0] = 1000;
    S[I] = S[I-1] + (I * 7) div k;
end T;
"""

RECORD_SOURCE = """\
T: module (p: record x: real end; n: int): [S: array[0 .. n] of real];
type I = 1 .. n;
define
    S[0] = 0.0;
    S[I] = S[I-1] + p.x;
end T;
"""


def _forced_do(source, args, model):
    analyzed = analyze_module(parse_module(source))
    flow = schedule_module(analyzed)
    (path,) = _outermost_lowerable_dos(analyzed, flow, False)
    options = ExecutionOptions(backend="serial")
    plan = forced_plan(
        analyzed, flow, "serial", options, _scalars(args),
        overrides={path: "nest"}, model=model,
    )
    cache = KernelCache(analyzed, flow)

    def run(run_args):
        return execute_module(
            analyzed, run_args, flowchart=flow, options=options, plan=plan,
            kernel_cache=cache,
        )

    return plan.loops[path], cache, run


class TestErrorsFromInsideACompiledDo:
    @pytest.mark.parametrize(
        "model", [ALWAYS_C, NEVER_C], ids=["c-dialect", "python-dialect"]
    )
    def test_range_check_failure(self, model):
        # S[I-2] at I=1 reads S[-1]: the evaluator's out-of-range error,
        # not a wrapped negative index or a stray read.
        args = {"X": np.arange(1, 7), "n": 6}
        lp, _cache, run = _forced_do(RANGE_SOURCE, args, model)
        assert lp.strategy == "nest"
        with pytest.raises(ExecutionError, match="out of range"):
            run(args)

    @pytest.mark.parametrize(
        "model", [ALWAYS_C, NEVER_C], ids=["c-dialect", "python-dialect"]
    )
    def test_zero_divisor(self, model):
        # (a scalar divisor: with Python-int operands the evaluator's
        # ``div`` raises, which is the behaviour every tier must match)
        good, bad = {"k": 3, "n": 6}, {"k": 0, "n": 6}
        lp, cache, run = _forced_do(DIV_SOURCE, good, model)
        assert lp.strategy == "nest"
        with pytest.raises(
            ZeroDivisionError, match="integer division or modulo by zero"
        ):
            run(bad)
        if model is ALWAYS_C and native_supported():
            assert cache.stats()["native"] == 1  # C raised it, not a fallback
        # the failure poisons nothing: the same kernel then runs clean
        analyzed = analyze_module(parse_module(DIV_SOURCE))
        want = _reference(analyzed, schedule_module(analyzed), good, ("S",))
        assert np.array_equal(np.asarray(run(good)["S"]), want["S"])


class TestHonouredOrRefused:
    def _record_module(self):
        analyzed = analyze_module(parse_module(RECORD_SOURCE))
        flow = schedule_module(analyzed)
        (do,) = [d for d in flow.loops() if not d.parallel]
        return analyzed, flow, do

    def test_hard_nest_on_an_unlowerable_do_raises(self):
        analyzed, flow, do = self._record_module()
        assert valid_strategies(analyzed, flow, do) == ["serial"]
        with pytest.raises(PlanError, match="record-field access"):
            forced_plan(
                analyzed, flow, "serial", ExecutionOptions(backend="serial"),
                {"n": 5}, overrides={flow.path_of(do): "nest"},
            )

    def test_a_do_left_on_the_walk_says_why(self):
        analyzed, flow, do = self._record_module()
        plan = build_plan(
            analyzed, flow, ExecutionOptions(backend="serial"), {"n": 5},
            cpu_count=2,
        )
        assert plan.loops[flow.path_of(do)].strategy == "serial"
        text = plan.explain()
        assert "left on the walk" in text
        assert "eq.2 not kernelizable: record-field access" in text
        got = execute_module(
            analyzed, {"p.x": 2.5, "n": 5}, flowchart=flow, plan=plan,
            options=ExecutionOptions(backend="serial"),
        )
        assert np.array_equal(np.asarray(got["S"]), 2.5 * np.arange(6))

    def test_tiny_loops_stay_off_the_compiler(self):
        # A loop whose whole walk is cheaper than one native build takes
        # the Python dialect; a long one of the same module takes C.
        analyzed = ilinrec_analyzed()
        flow = schedule_module(analyzed)
        (path,) = _outermost_lowerable_dos(analyzed, flow, False)
        options = ExecutionOptions(backend="serial")
        dialects = {
            n: build_plan(analyzed, flow, options, {"n": n}, cpu_count=2)
            .loops[path].dialect
            for n in (32, 4000)
        }
        assert dialects == {32: "python", 4000: "native"}


def _count_cc(monkeypatch):
    calls = []
    real_run = native_mod.subprocess.run

    def spy(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(native_mod.subprocess, "run", spy)
    return calls


@needs_toolchain
class TestOneCompilerRunPerPlan:
    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    def test_at_most_one_cc_per_module_plan(
        self, backend, native_cache_dir, monkeypatch  # noqa: F811
    ):
        calls = _count_cc(monkeypatch)
        options = ExecutionOptions(backend=backend, workers=2)
        for name, analyzed_fn, args_fn, out in RECURRENCE_WORKLOADS:
            analyzed = analyzed_fn()
            flow = schedule_module(analyzed)
            args = args_fn(n=40) if name == "line_sweep" else args_fn(n=4000)
            plan = build_plan(
                analyzed, flow, options, _scalars(args), cpu_count=2
            )
            wanted = plan.native_kernels()
            # every corpus module has a loop worth C on the serial pin; the
            # threaded pin runs line_sweep's small DOALLs as vector spans
            assert wanted or (backend, name) == ("threaded", "line_sweep"), name
            cache = KernelCache(analyzed, flow)
            before = len(calls)
            for _ in range(2):
                execute_module(
                    analyzed, args, flowchart=flow, options=options,
                    plan=plan, kernel_cache=cache,
                )
            stats = cache.stats()
            assert len(calls) - before == stats["cc_calls"] <= 1, name
            assert stats["tus"] <= 1, name
            assert stats["native"] == len(wanted), name

    def test_no_cc_for_small_generated_modules(
        self, native_cache_dir, monkeypatch  # noqa: F811
    ):
        calls = _count_cc(monkeypatch)
        for seed in GENPROG_SEEDS:
            prog = generate_program(seed)
            analyzed = prog.analyzed()
            flow = schedule_module(analyzed)
            cache = KernelCache(analyzed, flow)
            execute_module(
                analyzed, program_args(prog, 32, seed), flowchart=flow,
                options=ExecutionOptions(workers=2), kernel_cache=cache,
            )
            stats = cache.stats()
            assert (stats["cc_calls"], stats["tus"], stats["native"]) == (
                0, 0, 0,
            ), seed
        assert calls == []
        assert not list(native_cache_dir.glob("*.so"))

    def test_a_second_process_with_the_same_cache_compiles_nothing(
        self, tmp_path
    ):
        script = (
            "import json\n"
            "from repro.core.recurrences import coupled_analyzed, coupled_args\n"
            "from repro.runtime.executor import ExecutionOptions, execute_module\n"
            "from repro.runtime.kernels import KernelCache\n"
            "from repro.runtime.kernels import native\n"
            "from repro.schedule.scheduler import schedule_module\n"
            "calls = []\n"
            "real = native.subprocess.run\n"
            "native.subprocess.run = (\n"
            "    lambda *a, **k: (calls.append(a), real(*a, **k))[1]\n"
            ")\n"
            "analyzed = coupled_analyzed()\n"
            "flow = schedule_module(analyzed)\n"
            "cache = KernelCache(analyzed, flow)\n"
            "execute_module(\n"
            "    analyzed, coupled_args(n=4000), flowchart=flow,\n"
            "    kernel_cache=cache, options=ExecutionOptions(backend='serial'),\n"
            ")\n"
            "omp = native._openmp_cache\n"
            "print(json.dumps({'cc': len(calls), 'omp': omp, **cache.stats()}))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {
            **os.environ,
            "REPRO_NATIVE_CACHE": str(tmp_path),
            "PYTHONPATH": os.pathsep.join(
                [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
            ),
        }

        def launch():
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, text=True,
                capture_output=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            return json.loads(out.stdout.splitlines()[-1])

        first, second = launch(), launch()
        # A plan over two or more cores prices a team for the native DOALLs
        # and so asks the -fopenmp probe: one more compile, whose .so the
        # cache keeps (a host without OpenMP keeps nothing and probes again)
        probe = first["omp"] is not None
        assert (first["cc"], first["cc_calls"], first["tus"]) == (1 + probe, 1, 1)
        assert second["omp"] == first["omp"]
        assert second["cc"] == (first["omp"] is False)
        assert (second["cc_calls"], second["tus"]) == (0, 1)
        assert first["native"] == second["native"] == 2


class TestDegradation:
    @pytest.mark.parametrize(
        "condition", [c for c in LOOKUP_CONDITIONS if c != "toolchain"]
    )
    def test_a_native_do_degrades_once_and_stays_exact(
        self, condition, native_cache_dir, monkeypatch  # noqa: F811
    ):
        analyzed = ilinrec_analyzed()
        flow = schedule_module(analyzed)
        args = ilinrec_args(n=4000)
        options = ExecutionOptions(backend="serial")
        plan = build_plan(analyzed, flow, options, {"n": 4000}, cpu_count=2)
        (path,) = _outermost_lowerable_dos(analyzed, flow, False)
        assert plan.loops[path].dialect == "native"  # planned before the fault
        want = _reference(analyzed, flow, args, ("S",))

        _impose(monkeypatch, condition)
        # planning already lowered the nest (specs are memoized on the
        # flowchart): drop them so a refusing emitter is really asked
        flow.__dict__.pop("_native_emit_memo", None)
        attempts = []
        real_build = native_mod.build_kernels

        def counting_build(specs, counters=None):
            attempts.append(len(specs))
            return real_build(specs, counters)

        monkeypatch.setattr(native_mod, "build_kernels", counting_build)
        cache = KernelCache(analyzed, flow)
        for _ in range(3):
            got = execute_module(
                analyzed, args, flowchart=flow, options=options, plan=plan,
                kernel_cache=cache,
            )
            assert np.array_equal(np.asarray(got["S"]), want["S"])
        stats = cache.stats()
        assert (stats["native"], stats["cc_calls"], stats["tus"]) == (0, 0, 0)
        # the failure was paid for at most once, never per run
        assert len(attempts) <= 1
        # native -> Python dialect; a refusing emitter leaves only the walk
        assert stats["nests"] == (0 if condition == "emitter-refuses" else 1)
