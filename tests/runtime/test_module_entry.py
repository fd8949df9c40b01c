"""The module entry: a plan whose top-level loops are all native nests runs
as one C call.

``run_<module>`` (:mod:`repro.runtime.kernels.native`) calls every top-level
loop's function in flowchart order and stores the equations between them
inline. These tests run every corpus program — with and without windows,
on one thread and on teams 2 and 3 wide, the suite's poison filling every
array left uninitialised — through the entry, through the walk and on the
evaluator, and require the same bytes and the same evaluation counts. A
warm run of a qualifying plan makes exactly one cffi call; a plan with a
vector loop walks; and a run the entry fails (an out-of-range subscript,
a zero divisor, an entry proof that does not hold) raises the walk's exact
exception, hands its arrays back to the store and leaves the next run
correct.
"""

import gc

import numpy as np
import pytest

from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import ExecutionError, ReproError
from repro.plan.planner import forced_plan
from repro.ps.parser import parse_module
from repro.ps.printer import format_module
from repro.ps.semantics import analyze_module
from repro.ps.types import ArrayType, RealType
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported, openmp_supported
from repro.runtime.kernels import native as native_mod
from repro.runtime.values import array_bounds
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernel_sources import CORPUS
from tests.runtime.test_team_kernels import ALWAYS_C, _evaluator

pytestmark = pytest.mark.skipif(
    not native_supported(), reason="no C compiler / cffi on this machine"
)

SIZES = {"M": 5, "maxK": 3, "n": 7, "m": 5, "r": 3, "c": 6, "k": 3}


def _compilations():
    for name, source in CORPUS.items():
        seen = set()
        for hyper in (False, True):
            try:
                result = compile_source(source, CompilerOptions(hyperplane=hyper))
            except ReproError:
                continue
            compiled = format_module(result.module)
            if compiled not in seen:
                seen.add(compiled)
                yield f"{name}/h{int(hyper)}", result


COMPILATIONS = dict(_compilations())


def _args(analyzed, seed: int = 5) -> dict:
    rng = np.random.default_rng(seed)
    args = {}
    for p in analyzed.param_names:
        t = analyzed.symbol(p).type
        if not isinstance(t, ArrayType):
            args[p] = SIZES[p] if p in SIZES else float(rng.random())
    sizes = {k: v for k, v in args.items() if isinstance(v, int)}
    for p in analyzed.param_names:
        t = analyzed.symbol(p).type
        if isinstance(t, ArrayType):
            shape = tuple(hi - lo + 1 for lo, hi in array_bounds(t, sizes))
            args[p] = (
                rng.random(shape) if t.element == RealType
                else rng.integers(-3, 4, shape)
            )
    return args


def _plan(result, args, use_windows, width):
    """Every nest compiled in C where it lowers; every ``DO`` whose team
    kernel lowers on a team ``width`` wide (1: no team). None when no
    loop takes the team."""
    flow = result.flowchart
    options = ExecutionOptions(backend="serial", workers=1, use_windows=use_windows)
    sizes = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = forced_plan(
        result.analyzed, flow, "serial", options, sizes, default="nest",
        model=ALWAYS_C,
    )
    if width > 1:
        teams = [
            lp for path, lp in plan.loops.items()
            if lp.keyword == "DO" and lp.dialect == "native"
            and native_mod.native_refusal(
                flow.descriptor_at(path), result.analyzed, flow, use_windows,
                "team",
            ) is None
        ]
        if not teams:
            return options, None
        for lp in teams:
            lp.team = width
    return options, plan


@pytest.fixture()
def states(monkeypatch):
    """Every execution state a backend runs."""
    seen = []
    real = ExecutionBackend.run

    def run(self, state):
        seen.append(state)
        return real(self, state)

    monkeypatch.setattr(ExecutionBackend, "run", run)
    return seen


def _run(result, args, options, plan, backend, cache=None):
    return execute_module(
        result.analyzed, args, flowchart=result.flowchart, options=options,
        plan=plan, kernel_cache=cache or result.kernel_cache, backend=backend,
    )


def _same(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        a, b = np.asarray(got[key]), np.asarray(value)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key


#: the compilations whose plans walk: ``sin`` stays off C
WALKED = {"arith/h0"}


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("use_windows", [False, True])
@pytest.mark.parametrize("tag", sorted(COMPILATIONS))
def test_every_corpus_program_answers_the_evaluator_and_the_walk(
    tag, use_windows, width, states, monkeypatch
):
    if width > 1 and not openmp_supported():
        pytest.skip("no OpenMP on this machine")
    result = COMPILATIONS[tag]
    args = _args(result.analyzed)
    options, plan = _plan(result, args, use_windows, width)
    if plan is None:
        pytest.skip("no DO here takes a team")
    try:
        want = _evaluator(result.analyzed, args, result.flowchart, use_windows)
    except ExecutionError as exc:
        assert use_windows and "window violation" in str(exc)
        pytest.skip("reads a plane its windows do not keep: no reference")
    counts = states[-1].eval_counts
    assert all(counts.values())

    backend = ExecutionBackend(workers=1)
    try:
        for _ in range(2):  # the second run recycles what it can
            _same(_run(result, args, options, plan, backend), want)
            assert states[-1].eval_counts == counts
        assert plan.entry.startswith("run_") == (tag not in WALKED), plan.entry
        with monkeypatch.context() as patch:
            patch.setattr(KernelCache, "module_entry", lambda *_: None)
            _, walked = _plan(result, args, use_windows, width)
            cache = KernelCache(result.analyzed, result.flowchart)
            _same(_run(result, args, options, walked, backend, cache), want)
        assert states[-1].eval_counts == counts
        assert walked.entry is None  # never asked
    finally:
        backend.close()


def _scan(n: int = 4000):
    result = compile_source(CORPUS["scan"])
    rng = np.random.default_rng(3)
    return result, {"X": rng.random(n), "a": 0.97, "n": n}


def test_a_warm_run_is_one_cffi_call():
    result, args = _scan()
    options = ExecutionOptions(backend="serial", workers=1)
    plan = result.plan({"n": args["n"]}, options)
    backend = ExecutionBackend(workers=1)
    want = _run(result, args, options, plan, backend)
    cache = result.kernel_cache
    entry = cache.module_entry(plan, False)
    assert plan.entry == f"{entry.spec.fn_name}, one native call per run"
    assert f"module entry: {plan.entry}" in plan.explain()
    calls = []
    real = entry.fn
    entry.fn = lambda *a: calls.append("entry") or real(*a)
    for key, kernel in list(cache._native.items()):
        if key[0] and kernel is not None:
            cache._native[key] = lambda *a, _k=kernel: calls.append("loop") or _k(*a)
    cache.kernel_for = lambda *a: calls.append("equation") or None
    try:
        for _ in range(3):
            _same(_run(result, args, options, plan, backend), want)
        assert calls == ["entry"] * 3
    finally:
        entry.fn = real
        del cache.kernel_for
        backend.close()


def test_a_plan_with_a_vector_loop_walks():
    result, args = _scan()
    flow = result.flowchart
    options = ExecutionOptions(backend="vectorized", workers=1)
    doall = next(d for d in flow.descriptors if isinstance(d, LoopDescriptor) and d.parallel)
    plan = forced_plan(
        result.analyzed, flow, "vectorized", options, {"n": args["n"]},
        default="nest", overrides={flow.path_of(doall): "vector"}, model=ALWAYS_C,
    )
    backend = ExecutionBackend(workers=1)
    try:
        got = _run(result, args, options, plan, backend)
    finally:
        backend.close()
    _same(got, _evaluator(result.analyzed, args, flow))
    assert plan.entry == "walked: DOALL I @(2,) runs vector [the walk]"
    assert result.kernel_cache.module_entry(plan, False) is None


def test_a_module_without_loops_starts_no_compiler():
    """An entry alone would be a compiler run of its own: a loop-free
    module walks its equations, as before."""
    analyzed = analyze_module(parse_module(
        "S: module (x: real; n: int): [y: real]; define y = x * n; end S;"
    ))
    flow = schedule_module(analyzed)
    cache = KernelCache(analyzed, flow)
    options = ExecutionOptions(backend="serial", workers=1)
    plan = forced_plan(analyzed, flow, "serial", options, {"n": 3}, model=ALWAYS_C)
    out = execute_module(
        analyzed, {"x": 0.5, "n": 3}, flowchart=flow, options=options,
        plan=plan, kernel_cache=cache,
    )
    assert out == {"y": 1.5}
    assert plan.entry == "walked: no native loop to call"
    assert cache.stats()["tus"] == cache.stats()["cc_calls"] == 0


#: an indirect read (checked per element), a guarded division and a read
#: the entry proof covers, in a recurrence after an equation outside it
FAIL_SOURCE = """\
Fail: module (X: array[1 .. n] of int; K: array[1 .. n] of int;
              D: array[1 .. n] of int; s: int; n: int):
      [T: array[0 .. n] of int];
type
    I = 1 .. n;
define
    T[0] = X[1];
    T[I] = T[I - 1] + X[K[I]] div D[I] + X[I + s];
end Fail;
"""

N = 20000  # T holds 160 KiB: from its second run on, the store's


def _fail_args(**bad):
    rng = np.random.default_rng(9)
    args = {
        "X": rng.integers(-9, 10, N), "K": rng.integers(1, N + 1, N),
        "D": rng.integers(1, 5, N), "s": 0, "n": N,
    }
    for name, (at, value) in bad.items():
        if name == "s":
            args["s"] = value
        else:
            args[name] = args[name].copy()
            args[name][at] = value
    return args


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the answer
        return type(exc), str(exc)
    raise AssertionError("no exception")


@pytest.mark.parametrize("bad", [
    {"K": (700, N + 1)},   # X[K[I]] leaves X: the per-element check
    {"D": (900, 0)},       # a zero divisor
    {"s": (None, 1)},      # X[I + s] leaves X: the entry proof fails
], ids=["subscript", "divisor", "proof"])
def test_a_failed_entry_raises_the_walks_error_and_leaks_nothing(bad, monkeypatch):
    analyzed = analyze_module(parse_module(FAIL_SOURCE))
    flow = schedule_module(analyzed)
    options = ExecutionOptions(backend="serial", workers=1)
    plan = forced_plan(
        analyzed, flow, "serial", options, {"s": 0, "n": N}, default="nest",
        model=ALWAYS_C,
    )
    cache = KernelCache(analyzed, flow)
    backend = ExecutionBackend(workers=1)

    def run(args, plan=plan, cache=cache):
        return execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan,
            kernel_cache=cache, backend=backend,
        )

    try:
        good = _fail_args()
        want = _evaluator(analyzed, good, flow)["T"]
        for _ in range(2):
            assert run(good)["T"].tobytes() == want.tobytes()
        assert plan.entry.startswith("run_Fail_")
        owners = len(backend.store._owners)
        assert owners == 1

        args = _fail_args(**bad)
        error = _raised(lambda: run(args))
        gc.collect()
        assert error == _raised(lambda: _evaluator(analyzed, args, flow))
        with monkeypatch.context() as patch:
            patch.setattr(KernelCache, "module_entry", lambda *_: None)
            walked = forced_plan(
                analyzed, flow, "serial", options, {"s": 0, "n": N},
                default="nest", model=ALWAYS_C,
            )
            assert error == _raised(lambda: run(args, walked))
        gc.collect()

        assert run(good)["T"].tobytes() == want.tobytes()
        assert len(backend.store._owners) == owners
        if "s" in bad:
            assert cache.stats()["range_unproven"] >= 1
    finally:
        backend.close()


def test_an_exception_inside_the_entry_call_unwinds_and_the_next_run_is_exact():
    result, args = _scan()
    options = ExecutionOptions(backend="serial", workers=1)
    plan = result.plan({"n": args["n"]}, options)
    backend = ExecutionBackend(workers=1)
    try:
        want = _run(result, args, options, plan, backend)
        entry = result.kernel_cache.module_entry(plan, False)
        real = entry.fn

        def explode(*a):
            entry.fn = real
            raise RuntimeError("entry exploded mid-run")

        entry.fn = explode
        with pytest.raises(RuntimeError, match="exploded mid-run"):
            _run(result, args, options, plan, backend)
        _same(_run(result, args, options, plan, backend), want)
    finally:
        backend.close()
