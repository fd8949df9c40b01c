"""Served plans price the module entry, and a warm entry run replays a
recipe.

A served ``auto`` plan on the native tier whose top-level loops are native
nests, or vector ``DOALL`` s whose ``nest`` verdict is native, is priced
both walked and as one call of ``run_<module>`` (``_Planner.price_entry``),
where a loop pays no call overhead of its own; the entry wins, and those
loops are re-emitted as ``nest``. A one-shot plan is priced as before. At
run time the facts every run of a plan at one set of sizes shares — the
arguments' layouts, the targets' storage, the entry's geometry and counter
bookings — are one :class:`~repro.runtime.backends.base.Recipe`, so a warm
run imports its arguments, allocates, and makes one cffi call. These tests
run the corpus and the generated programs of ``small_many`` at n = 32 on
served plans against the evaluator (the suite's poison filling every array
left uninitialised), spy the cffi call, run one plan from two threads, and
make the entry fail.
"""

import threading

import numpy as np
import pytest

from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import ReproError
from repro.plan.planner import _Planner, build_plan
from repro.ps.types import ArrayType, RealType
from repro.runtime.backends import ExecutionBackend
from repro.runtime.backends.base import RUN_COUNTERS
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported
from repro.runtime.values import array_bounds

from tests.runtime.test_kernel_sources import CORPUS, _generated
from tests.runtime.test_module_entry import FAIL_SOURCE, _raised, _same
from tests.runtime.test_team_kernels import _evaluator

pytestmark = pytest.mark.skipif(
    not native_supported(), reason="no C compiler / cffi on this machine"
)

#: ``small_many``'s sizes
SIZES = {"M": 8, "maxK": 4, "n": 32, "m": 16, "r": 2, "c": 32, "k": 3}


def _compilations():
    for name, source in CORPUS.items():
        for hyper in (False, True):
            try:
                yield f"{name}/h{int(hyper)}", compile_source(
                    source, CompilerOptions(hyperplane=hyper)
                )
            except ReproError:
                continue
    for name, source in _generated().items():
        yield name, compile_source(source)


COMPILATIONS = dict(_compilations())


def _args(analyzed, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    args = {
        p: SIZES[p] if p in SIZES else float(rng.random())
        for p in analyzed.param_names
        if not isinstance(analyzed.symbol(p).type, ArrayType)
    }
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


def _served(result, args, width: int, strategy=None):
    sizes = {k: v for k, v in args.items() if isinstance(v, int)}
    options = ExecutionOptions(workers=width, strategy=strategy)
    plan = build_plan(
        result.analyzed, result.flowchart, options, sizes, cpu_count=2,
        served=True,
    )
    return options, plan


def _run(result, args, options, plan, backend, cache=None):
    return execute_module(
        result.analyzed, args, flowchart=result.flowchart, options=options,
        plan=plan, kernel_cache=cache or result.kernel_cache, backend=backend,
    )


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("tag", sorted(COMPILATIONS))
def test_a_served_plan_takes_the_entry_exactly_when_the_nest_plan_does(tag, width):
    result = COMPILATIONS[tag]
    args = _args(result.analyzed)
    want = _evaluator(result.analyzed, args, result.flowchart)
    plans = {}
    for strategy in (None, "nest"):
        options, plan = plans[strategy] = _served(result, args, width, strategy)
        backend = ExecutionBackend(workers=width)
        try:
            for _ in range(2):  # the second run replays the recipe
                _same(_run(result, args, options, plan, backend), want)
        finally:
            backend.close()
    auto, nest = plans[None][1], plans["nest"][1]
    assert auto.entry.startswith("run_") == nest.entry.startswith("run_"), (
        auto.entry, nest.entry,
    )
    if auto.entry.startswith("run_"):
        assert "(entry ~" in auto.explain()
        assert all(
            lp.strategy == "nest" for path, lp in auto.loops.items() if len(path) == 1
        )


def test_the_entry_moves_vector_loops_and_explain_says_why():
    result = COMPILATIONS["jacobi/h0"]
    args = _args(result.analyzed)
    _, plan = _served(result, args, 2)
    rows = [row for row in plan.explain().splitlines() if "DOALL I @" in row]
    assert len(rows) == 2
    for row in rows:
        assert ": nest (module entry ~" in row and "*nest ~" in row, row
    entry, walked = plan.provenance["entry_cycles"]
    assert plan.cycles == entry < walked


@pytest.mark.parametrize("tag", sorted(COMPILATIONS))
def test_a_one_shot_plan_is_priced_as_before(tag, monkeypatch):
    result = COMPILATIONS[tag]
    sizes = {k: v for k, v in _args(result.analyzed).items() if isinstance(v, int)}
    texts = []
    for patched in (False, True):
        with monkeypatch.context() as patch:
            if patched:
                patch.setattr(_Planner, "price_entry", lambda self: None)
            plan = build_plan(
                result.analyzed, result.flowchart, ExecutionOptions(workers=2),
                sizes, cpu_count=2,
            )
        texts.append((plan.pretty(cycles=True), plan.explain()))
        assert "entry_cycles" not in plan.provenance
    assert texts[0] == texts[1]


def _spied(result, args, plan, options, backend, monkeypatch):
    """Run ``plan`` three times; (the last run's results, its state)."""
    states = []
    real_run = ExecutionBackend.run

    def run(self, state):
        states.append(state)
        return real_run(self, state)

    with monkeypatch.context() as patch:
        patch.setattr(ExecutionBackend, "run", run)
        for _ in range(3):
            out = _run(result, args, options, plan, backend)
    return out, states[-1]


def test_a_warm_recipe_run_is_one_cffi_call_and_books_what_the_walk_books(monkeypatch):
    result = compile_source(CORPUS["coupled"])
    args = _args(result.analyzed)
    options, plan = _served(result, args, 1)
    backend = ExecutionBackend(workers=1)
    walker = ExecutionBackend(workers=1)
    try:
        _run(result, args, options, plan, backend)
        entry = plan.recipe.entry
        assert entry is not None and plan.entry.startswith("run_")
        calls = []
        real = entry.fn
        entry.fn = lambda *a: calls.append("entry") or real(*a)
        with monkeypatch.context() as patch:
            patch.setattr(
                ExecutionBackend, "_run_kernel",
                lambda *a, **k: calls.append("kernel"),
            )
            patch.setattr(
                ExecutionBackend, "exec_descriptor",
                lambda *a, **k: calls.append("walk"),
            )
            try:
                out, state = _spied(result, args, plan, options, backend, monkeypatch)
            finally:
                entry.fn = real
        assert calls == ["entry"] * 3

        with monkeypatch.context() as patch:
            patch.setattr(KernelCache, "module_entry", lambda *_: None)
            _, walked = _served(result, args, 1)
            cache = KernelCache(result.analyzed, result.flowchart)
            _run(result, args, options, walked, walker, cache)
            want, walked_state = _spied(
                result, args, walked, options, walker, monkeypatch,
            )
        assert walked.recipe.entry is None
        _same(out, want)
        assert state.eval_counts == walked_state.eval_counts
        assert all(backend.counters[c] == walker.counters[c] for c in RUN_COUNTERS)
        assert backend.counters["arrays_uninitialised"] > 0
    finally:
        backend.close()
        walker.close()


#: a recurrence, then a real scalar the entry returns through its outs
SUM_SOURCE = """\
Sum2: module (X: array[1 .. n] of real; n: int):
      [S: array[0 .. n] of real; t: real];
type
    I = 1 .. n;
define
    S[0] = 0.0;
    S[I] = S[I - 1] * 0.5 + X[I];
    t = S[n] * 2.0;
end Sum2;
"""


def test_two_threads_replay_one_recipe_exactly():
    result = compile_source(SUM_SOURCE)
    inputs = [{"X": np.random.default_rng(s).random(32), "n": 32} for s in (1, 2)]
    wants = [_evaluator(result.analyzed, a, result.flowchart) for a in inputs]
    options, plan = _served(result, inputs[0], 1)
    backend = ExecutionBackend(workers=1)
    errors = []

    def worker(args, want):
        try:
            for _ in range(200):
                _same(_run(result, args, options, plan, backend), want)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    try:
        _run(result, inputs[0], options, plan, backend)
        assert plan.recipe.entry is not None
        threads = [threading.Thread(target=worker, args=pair) for pair in zip(inputs, wants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        backend.close()
    assert not errors, errors


@pytest.mark.parametrize("bad", [
    {"K": (7, 33)},   # X[K[I]] leaves X: the per-element check
    {"D": (9, 0)},    # a zero divisor
], ids=["subscript", "divisor"])
def test_a_failed_recipe_run_raises_the_walks_error_and_the_next_is_exact(bad):
    result = compile_source(FAIL_SOURCE)
    rng = np.random.default_rng(4)
    good = {
        "X": rng.integers(-9, 10, 32), "K": rng.integers(1, 33, 32),
        "D": rng.integers(1, 5, 32), "s": 0, "n": 32,
    }
    name, (at, value) = next(iter(bad.items()))
    args = dict(good)
    args[name] = args[name].copy()
    args[name][at] = value
    want = _evaluator(result.analyzed, good, result.flowchart)
    options, plan = _served(result, good, 1)
    backend = ExecutionBackend(workers=1)
    try:
        for _ in range(2):
            _same(_run(result, good, options, plan, backend), want)
        assert plan.recipe.entry is not None
        error = _raised(lambda: _run(result, args, options, plan, backend))
        assert error == _raised(
            lambda: _evaluator(result.analyzed, args, result.flowchart)
        )
        _same(_run(result, good, options, plan, backend), want)
    finally:
        backend.close()
