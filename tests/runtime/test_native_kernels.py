"""Native-tier parity: the cffi-compiled C kernels == the evaluator, bit
for bit, and everything degrades cleanly without a C compiler.

Every paper workload runs with the native tier forced on every backend, in
both window modes, against the kernel-less serial reference. The tests
also pin the tier mechanics: lookup order native -> NumPy -> evaluator,
the on-disk artifact cache (second compile of the same source reuses the
``.so``), the out-of-range error parity, and the no-compiler environment
(native tier silently unavailable, NumPy tier used, results unchanged).
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.genprog import generate_program, program_args
from repro.core.paper import RELAXATION_GAUSS_SEIDEL_SOURCE, jacobi_analyzed
from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import ExecutionError
from repro.machine.cost import MachineModel
from repro.plan.planner import build_plan, forced_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported
from repro.runtime.kernels import native as native_mod
from repro.runtime.values import RuntimeArray
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernel_sources import TALLSKINNY_SOURCE
from tests.runtime.test_kernels import ALL_BACKENDS, DP_SOURCE, WORKLOADS

needs_toolchain = pytest.mark.skipif(
    not native_supported(), reason="no C compiler / cffi on this machine"
)


@pytest.fixture()
def native_cache_dir(tmp_path, monkeypatch):
    """A private on-disk cache, with the in-process dlopen memo cleared so
    compilations actually hit the directory under test."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native_mod._loaded.clear()
    return tmp_path


def _options(backend, tier, use_windows=False):
    return ExecutionOptions(
        backend=backend, workers=4, kernel_tier=tier, use_windows=use_windows
    )


#: ``Y[I] = X[I + n]`` on the one iteration ``I = k``: out of range exactly
#: when ``k`` is in ``1 .. n`` — and a guard the range proof reads
SHIFT_SOURCE = """\
Shift: module (X: array[1 .. n] of real; n: int; k: int):
       [Y: array[1 .. n] of real];
type I = 1 .. n;
define
    Y[I] = if I = k then X[I + n] else X[I];
end Shift;
"""


def _module(source):
    analyzed = analyze_module(parse_module(source))
    return analyzed, schedule_module(analyzed)


def _proofs(cache):
    """(native calls whose entry range proof held, calls it failed for)."""
    stats = cache.stats()
    return stats["range_proven"], stats["range_unproven"]


def _outermost_parallel(descs):
    for d in descs:
        if not isinstance(d, LoopDescriptor):
            continue
        if d.parallel:
            yield d
        else:
            yield from _outermost_parallel(d.body)


@needs_toolchain
class TestNativeParity:
    @pytest.mark.parametrize("backend", [*ALL_BACKENDS, "auto"])
    @pytest.mark.parametrize("use_windows", [False, True])
    def test_bit_exact_on_every_workload(
        self, backend, use_windows, native_cache_dir
    ):
        for name, analyzed, flow, args, result in WORKLOADS:
            expected = execute_module(
                analyzed, args, flowchart=flow,
                options=ExecutionOptions(
                    backend="serial", use_kernels=False, use_windows=use_windows
                ),
            )[result]
            got = execute_module(
                analyzed, args, flowchart=flow,
                options=_options(backend, "native", use_windows),
            )[result]
            assert np.array_equal(got, expected), (name, backend, use_windows)

    def test_native_kernels_actually_compile(self, native_cache_dir):
        """The Jacobi nests must land on the native tier, not silently
        fall back — the cache stats prove which tier served them."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        cache = KernelCache(analyzed, flow)
        rng = np.random.default_rng(1)
        args = {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4}
        execute_module(
            analyzed, args, flowchart=flow, kernel_cache=cache,
            options=_options("serial", "native"),
        )
        assert cache.stats()["native"] > 0
        assert list(native_cache_dir.glob("*.so"))  # artifacts persisted

    def test_warm_builds_one_full_kernel_per_loop(self, native_cache_dir):
        """The warm set is every loop's ``"full"`` kernel, in one unit and
        one ``cc``: Jacobi's seven loops, seven native kernels."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        cache = KernelCache(analyzed, flow)
        cache.warm(False)
        stats = cache.stats()
        assert stats["native"] == len(flow.loops()) == 7
        assert (stats["tus"], stats["cc_calls"]) == (1, 1)
        assert {shape for _, _, shape in cache._native} == {"full"}

    def test_numpy_tier_skips_native(self, native_cache_dir):
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        cache = KernelCache(analyzed, flow)
        rng = np.random.default_rng(2)
        args = {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4}
        execute_module(
            analyzed, args, flowchart=flow, kernel_cache=cache,
            options=_options("serial", "numpy"),
        )
        assert cache.stats()["native"] == 0

    def test_evaluator_tier_uses_no_kernels(self):
        analyzed = jacobi_analyzed()
        rng = np.random.default_rng(3)
        args = {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4}
        on = execute_module(analyzed, args, options=_options("serial", "native"))
        off = execute_module(
            analyzed, args,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )
        assert np.array_equal(on["newA"], off["newA"])

    @pytest.mark.parametrize("k", [1, 32, 64], ids=["first", "middle", "last"])
    def test_out_of_range_error_parity(self, native_cache_dir, k):
        """A stray subscript raises the evaluator's exact error whatever
        tier meets it, wherever in the range it sits. On the native tier
        the kernel's entry proof fails (``X[I + n]`` under ``I = k`` is
        out of range exactly when ``k`` is an iteration), the call returns
        before its first store and is rerun on per-element checks — as a
        whole nest on the serial backend, and as a whole nest on a team of
        threads, whose proof returns before its region."""
        analyzed, flow = _module(SHIFT_SOURCE)
        n = 64
        args = {"X": np.arange(1.0, n + 1), "n": n, "k": k}
        message = (
            f"index {k + n} out of range [1, {n}] in dimension 0 of 'X'"
        )
        for tier in ({"use_kernels": False}, {"kernel_tier": "numpy"}, {}):
            cache = KernelCache(analyzed, flow)
            with pytest.raises(ExecutionError) as raised:
                execute_module(
                    analyzed, args, flowchart=flow, kernel_cache=cache,
                    options=ExecutionOptions(backend="serial", **tier),
                )
            assert str(raised.value) == message, tier
            if not tier:
                assert _proofs(cache) == (0, 1)
        if not native_mod.openmp_supported():
            return
        # The same nest on a team of four: the proof fails before the
        # region, and the rerun on the range-checked Python dialect raises.
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, {"n": n, "k": k},
            default="nest",
        )
        (lp,) = plan.loops.values()
        lp.team = 4
        cache = KernelCache(analyzed, flow)
        backend = ExecutionBackend()
        with pytest.raises(ExecutionError) as raised:
            execute_module(
                analyzed, args, flowchart=flow, kernel_cache=cache,
                options=options, plan=plan, backend=backend,
            )
        backend.close()
        assert str(raised.value) == message
        assert _proofs(cache) == (0, 1)
        assert backend.counters["team_calls"] == 1

    def test_a_bare_kernel_call_reports_the_failed_proof(self, native_cache_dir):
        """Outside a backend there is no tier to fall to: the callable
        raises :class:`RangeUnproven` (a ``KernelError``) and has stored
        nothing."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        # the second outermost DOALL is eq.3's sweep under the DO K loop —
        # the one whose A[K-1, ...] reads take K from the environment
        nest = list(_outermost_parallel(flow.descriptors))[1]
        kernel = native_mod.compile_native_nest(
            nest, analyzed, flow, use_windows=False
        )
        maxk, m = 4, 5
        storage = np.zeros((maxk, m + 2, m + 2))
        arr = RuntimeArray("A", [1, 0, 0], [maxk, m + 1, m + 1], storage, {})
        data = {"A": arr, "M": m, "maxK": maxk}
        with pytest.raises(native_mod.RangeUnproven):
            # env K=1 makes the A[K-1,...] read hit plane 0 of a 1-based dim
            kernel(data, {"K": 1}, 0, m + 1)
        assert not storage.any()
        storage[0] = 1.0
        assert kernel(data, {"K": 2}, 0, m + 1) == {"eq.3": (m + 2) ** 2}
        assert storage[1].all()

    def test_on_disk_cache_is_reused(self, native_cache_dir, monkeypatch):
        """A second cache compiles nothing: the .so is dlopened from disk
        (and within a process, the loaded library is memoized)."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        nest = next(_outermost_parallel(flow.descriptors))
        native_mod.compile_native_nest(nest, analyzed, flow, False)
        sos = list(native_cache_dir.glob("*.so"))
        assert sos

        calls = []
        real_run = native_mod.subprocess.run

        def spy(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(native_mod.subprocess, "run", spy)
        native_mod._loaded.clear()  # force a fresh dlopen path
        native_mod.compile_native_nest(nest, analyzed, flow, False)
        assert calls == []  # compiler never invoked again


class TestGracefulDegradation:
    def test_no_compiler_falls_back_to_numpy_tier(self, monkeypatch):
        """A compiler-less environment must run every workload through the
        NumPy kernels — same results, no crash, native count zero."""
        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        assert not native_mod.native_supported()
        for name, analyzed, flow, args, result in WORKLOADS:
            cache = KernelCache(analyzed, flow)
            expected = execute_module(
                analyzed, args, flowchart=flow,
                options=ExecutionOptions(backend="serial", use_kernels=False),
            )[result]
            got = execute_module(
                analyzed, args, flowchart=flow, kernel_cache=cache,
                options=_options("serial", "native"),
            )[result]
            assert np.array_equal(got, expected), name
            assert cache.stats()["native"] == 0


#: lookup -> (strategy that dispatches it, workload name); "do" is the
#: "full" shape over a sequential DO root — the compiled in-order nest
LOOKUP_SHAPES = {
    "full": ("nest", "jacobi"),
    "do": ("nest", "isum"),
}

#: condition -> tier the lookup must serve under it
LOOKUP_CONDITIONS = {
    "toolchain": "native",
    "no-compiler": "numpy",
    "no-cffi": "numpy",
    "cc-raises": "numpy",
    "emitter-refuses": None,
}


def _lookup_workload(name):
    """(analyzed, a *fresh* flowchart, args, result name, the loop looked
    up) — fresh because emitted native specs are memoized on the flowchart."""
    if name == "jacobi":
        _name, analyzed, _flow, args, result = WORKLOADS[0]
        flow = schedule_module(analyzed)
        return analyzed, flow, args, result, next(
            _outermost_parallel(flow.descriptors)
        )
    from repro.core.recurrences import isum_analyzed, isum_args

    analyzed = isum_analyzed()
    flow = schedule_module(analyzed)
    (do_loop,) = [d for d in flow.loops() if not d.parallel]
    return analyzed, flow, isum_args(), "T", do_loop


def _impose(monkeypatch, condition):
    """Put the toolchain (or the emitters) in ``condition``."""
    from repro.runtime.kernels import emit as emit_mod

    def refuse(*args, **kwargs):
        raise native_mod.KernelError("simulated refusal")

    def crash(*args, **kwargs):
        raise RuntimeError("simulated compiler crash")

    # every condition starts from nothing loaded in this process
    monkeypatch.setattr(native_mod, "_loaded", {})
    if condition == "toolchain" and not native_supported():
        pytest.skip("no C compiler / cffi on this machine")
    elif condition == "no-compiler":
        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
    elif condition == "no-cffi":
        monkeypatch.setattr(native_mod, "_ffi_module", lambda: None)
    elif condition == "cc-raises":
        monkeypatch.setattr(native_mod, "_compile_so", crash)
    elif condition == "emitter-refuses":
        for mod in (native_mod, emit_mod):
            monkeypatch.setattr(mod, "lower_nest", refuse)


class TestTieredLookup:
    """The one lookup behind every ``*_kernel_for``: native -> NumPy ->
    ``None``, whatever the shape; a failure is paid for once; and the run
    stays bit-exact on whatever tier was served."""

    @pytest.mark.parametrize("condition", LOOKUP_CONDITIONS)
    @pytest.mark.parametrize("shape", LOOKUP_SHAPES)
    def test_served_tier_memo_and_parity(
        self, shape, condition, native_cache_dir, monkeypatch
    ):
        strategy, workload = LOOKUP_SHAPES[shape]
        analyzed, flow, args, result, desc = _lookup_workload(workload)
        expected = LOOKUP_CONDITIONS[condition]
        _impose(monkeypatch, condition)

        cache = KernelCache(analyzed, flow)
        builds = []

        def counting(native, real_build):
            def build(keys):
                builds.append(native)
                return real_build(keys)

            return build

        monkeypatch.setattr(
            cache, "_build_native", counting(True, cache._build_native)
        )
        monkeypatch.setattr(
            cache, "_build_numpy", counting(False, cache._build_numpy)
        )

        def lookup():
            return cache.nest_kernel_for(desc, False)

        served = lookup()
        if expected is None:
            assert served is None
        else:
            is_native = getattr(served, "__native__", False)
            assert is_native == (expected == "native")
        assert lookup() is served
        # each tier consulted was built exactly once, refusals included
        assert sorted(builds) == sorted(set(builds))
        assert (True in builds) == (
            condition not in ("no-compiler", "no-cffi")
        )
        assert cache.stats()["native"] == (expected == "native")

        reference = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )[result]
        got = execute_module(
            analyzed, args, flowchart=flow, kernel_cache=cache,
            options=ExecutionOptions(
                backend="threaded", workers=2, strategy=strategy
            ),
        )[result]
        assert np.array_equal(got, reference)


class TestEmittability:
    def test_paper_nests_are_emittable(self):
        """Machine-independent: every Jacobi nest lowers to C regardless
        of whether this box has a compiler."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        nests = list(_outermost_parallel(flow.descriptors))
        assert nests
        for nest in nests:
            assert native_mod.native_refusal(nest, analyzed, flow, False) is None

    def test_module_calls_are_not_emittable(self):
        from repro.ps.parser import parse_program
        from repro.ps.semantics import analyze_program

        from tests.runtime.test_kernels import KEPT_CALL_PROGRAM_SOURCE

        program = analyze_program(parse_program(KEPT_CALL_PROGRAM_SOURCE))
        use = program["Use"]
        flow = schedule_module(use)
        for nest in _outermost_parallel(flow.descriptors):
            assert native_mod.native_refusal(nest, use, flow, False) is not None

    def test_transcendentals_are_not_emittable(self):
        """sin/exp NumPy SIMD rounding is not guaranteed to match libm —
        such nests must stay on the NumPy tier."""
        from repro.ps.parser import parse_module
        from repro.ps.semantics import analyze_module

        src = (
            "T: module (n: int): [B: array[1 .. n] of real];\n"
            "type I = 1 .. n;\ndefine B[I] = sin(I * 0.1);\nend T;"
        )
        analyzed = analyze_module(parse_module(src))
        flow = schedule_module(analyzed)
        nest = next(_outermost_parallel(flow.descriptors))
        assert native_mod.native_refusal(nest, analyzed, flow, False) is not None

    def test_emitted_source_is_stable(self):
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        nest = next(_outermost_parallel(flow.descriptors))
        a = native_mod.native_spec(nest, analyzed, flow, False)
        flow.__dict__.pop("_native_emit_memo")  # a second, real emission
        b = native_mod.native_spec(nest, analyzed, flow, False)
        assert a is not b
        assert a.source == b.source
        assert a.fn_name == b.fn_name
        assert "-ffp-contract=off" in " ".join(native_mod.C_FLAGS)


@needs_toolchain
class TestFlooredSemantics:
    def test_div_by_zero_raises_not_sigfpe(self, native_cache_dir):
        """A zero divisor is C undefined behaviour (SIGFPE kills the
        interpreter); the emitted guard must report it through the error
        channel and raise the evaluator's exact ZeroDivisionError."""
        from repro.ps.parser import parse_module
        from repro.ps.semantics import analyze_module

        src = (
            "T: module (k: int; n: int): [B: array[1 .. n] of int];\n"
            "type I = 1 .. n;\n"
            "define B[I] = I div k;\nend T;"
        )
        analyzed = analyze_module(parse_module(src))
        flow = schedule_module(analyzed)
        cache = KernelCache(analyzed, flow)
        with pytest.raises(
            ZeroDivisionError, match="integer division or modulo by zero"
        ):
            execute_module(
                analyzed, {"k": 0, "n": 6}, flowchart=flow,
                kernel_cache=cache, options=_options("serial", "native"),
            )
        assert cache.stats()["native"] > 0  # the C tier, not a fallback
        out = execute_module(
            analyzed, {"k": 3, "n": 6}, flowchart=flow, kernel_cache=cache,
            options=_options("serial", "native"),
        )["B"]
        ref = execute_module(
            analyzed, {"k": 3, "n": 6}, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        assert np.array_equal(out, ref)

    def test_div_mod_on_negative_operands(self, native_cache_dir):
        """PS div/mod are floored (Python semantics); the C tier must not
        inherit C's truncation — the prelude's ``ps_fdiv`` / ``ps_mod``."""
        from repro.ps.parser import parse_module
        from repro.ps.semantics import analyze_module

        src = (
            "T: module (n: int): [B: array[1 .. n] of int];\n"
            "type I = 1 .. n;\n"
            "define B[I] = (I - 4) div 3 + (I - 4) mod 3;\nend T;"
        )
        analyzed = analyze_module(parse_module(src))
        flow = schedule_module(analyzed)
        args = {"n": 9}
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        cache = KernelCache(analyzed, flow)
        got = execute_module(
            analyzed, args, flowchart=flow, kernel_cache=cache,
            options=_options("serial", "native"),
        )["B"]
        assert cache.stats()["native"] > 0
        assert np.array_equal(got, expected)


#: ``Y[I] = if <guard> then <then> else X[I]`` over ``I = 1 .. n`` with
#: ``X: array[1 .. n]`` — each guard form the facts stack reads, once with
#: the guarded reference exactly in range and once one element out
GUARD_FORMS = [
    ("I < n", "X[I + 1]", True),
    ("I <= n", "X[I + 1]", False),
    ("I > 1", "X[I - 1]", True),
    ("I >= 1", "X[I - 1]", False),
    ("k < I", "X[I - k]", True),            # mirrored; k = 1
    ("k <= I", "X[I - k]", False),
    ("not (I = 1 or I = n)", "X[I - 1] + X[I + 1]", True),
    ("not (I = 1)", "X[I - 1] + X[I + 1]", False),
    ("I <> 1 and I <> n", "X[I - 1] + X[I + 1]", True),
    ("I <> n and I <> 1", "X[I - 1] + X[I + 1]", True),
    ("I = 1 or I = n", "X[n + 1 - I]", True),
    ("I = 1 or I = n", "X[I + 1]", False),
    ("I = n", "X[I - n + 1]", True),
    ("k > 1", "X[I + k]", True),            # index-free: never taken
    ("k > 0", "X[I + k]", False),
    # linear facts: a scaled index, an index with an offset on its side
    ("I + 1 < n", "X[I + 1]", True),
    ("I + 1 <= n", "X[I + 2]", False),
    ("2 * I <= n", "X[2 * I]", True),
    ("2 * I <= n + 1", "X[2 * I]", False),
    ("not (n - I < 2)", "X[I + 2 - k]", True),
    # a partly unread guard: what sits below it keeps its inline check,
    # so the stray subscript is reported by the loop, not by the proof
    ("I > 1 and X[I - 1] > 0.0", "X[I - 1]", True),
    ("I > 1 or X[I] > 0.0", "X[I + 1]", None),
]


def _guarded(guard, then):
    return f"""\
Guarded: module (X: array[1 .. n] of real; n: int; k: int):
         [Y: array[1 .. n] of real];
type I = 1 .. n;
define
    Y[I] = if {guard} then {then} else X[I];
end Guarded;
"""


def _outcome(analyzed, flow, args, options, **kwargs):
    """("ok", results) or ("error", message) of one execution."""
    try:
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, **kwargs
        )
    except ExecutionError as exc:
        return "error", str(exc)
    return "ok", {name: np.asarray(value).tobytes() for name, value in out.items()}


@needs_toolchain
class TestRangeProof:
    """The entry range proof (``repro.runtime.kernels.ranges``): sound —
    nothing out of range is ever addressed, the evaluator's error comes out
    — and exact — a program that runs never pays for a failed proof."""

    @pytest.mark.parametrize("guard, then, in_range", GUARD_FORMS)
    def test_guard_forms_are_sound_and_exact(
        self, native_cache_dir, guard, then, in_range
    ):
        analyzed, flow = _module(_guarded(guard, then))
        n = 9
        args = {"X": np.arange(1.0, n + 1), "n": n, "k": 1}
        reference = _outcome(
            analyzed, flow, args,
            ExecutionOptions(backend="serial", use_kernels=False),
        )
        assert (reference[0] == "ok") == bool(in_range)
        cache = KernelCache(analyzed, flow)
        got = _outcome(
            analyzed, flow, args,
            ExecutionOptions(backend="serial", kernel_tier="native"),
            kernel_cache=cache,
        )
        assert got == reference
        assert cache.stats()["native"] == 1
        # exact: the proof fails only for the programs that raise (through
        # a reference it covers)
        assert _proofs(cache) == ((0, 1) if in_range is False else (1, 0))

    def test_paper_grids_prove_every_call(self, native_cache_dir):
        grids = [
            (jacobi_analyzed(), {"M": 6, "maxK": 4}, (8, 8)),
            (analyze_module(parse_module(TALLSKINNY_SOURCE)),
             {"r": 2, "c": 9, "maxK": 3}, (4, 11)),
        ]
        for analyzed, scalars, shape in grids:
            flow = schedule_module(analyzed)
            args = {**scalars, "InitialA": np.random.default_rng(4).random(shape)}
            expected = execute_module(
                analyzed, args, flowchart=flow,
                options=ExecutionOptions(backend="serial", use_kernels=False),
            )["newA"]
            for use_windows in (False, True):
                cache = KernelCache(analyzed, flow)
                got = execute_module(
                    analyzed, args, flowchart=flow, kernel_cache=cache,
                    options=_options("serial", "native", use_windows),
                )["newA"]
                assert np.array_equal(got, expected)
                proven, unproven = _proofs(cache)
                assert proven > 0 and unproven == 0, (analyzed.name, use_windows)

    def test_one_function_serves_both_window_modes(self, native_cache_dir):
        """The window mapping is chosen at entry from the storage the call
        is handed, so a module run in both modes builds its sweep once."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        (sweep,) = [d for d in flow.loops() if d.index == "K"]
        off, on = (
            native_mod.native_spec(sweep, analyzed, flow, w, "full")
            for w in (False, True)
        )
        assert off.source == on.source
        assert "% 2" in off.function

    def test_a_wrapped_bound_proves_nothing(self, native_cache_dir):
        """``I + k`` with ``k = 2**63 - 2`` wraps for every ``I >= 2``:
        the wrapped upper end lies far *below* the array, which must not
        count as in range."""
        analyzed, flow = _module("""\
Far: module (X: array[1 .. n] of real; n: int; k: int):
     [Y: array[1 .. n] of real];
type I = 1 .. n;
define
    Y[I] = X[I + k];
end Far;
""")
        n, k = 8, 2**63 - 2
        args = {"X": np.arange(1.0, n + 1), "n": n, "k": k}
        reference = _outcome(
            analyzed, flow, args,
            ExecutionOptions(backend="serial", use_kernels=False),
        )
        assert reference == (
            "error",
            f"index {1 + k} out of range [1, {n}] in dimension 0 of 'X'",
        )
        cache = KernelCache(analyzed, flow)
        got = _outcome(
            analyzed, flow, args,
            ExecutionOptions(backend="serial", kernel_tier="native"),
            kernel_cache=cache,
        )
        assert got == reference
        assert _proofs(cache) == (0, 1)

    def test_offsets_with_div_or_mod_are_not_provable_form(self):
        analyzed, flow = _module("""\
Half: module (X: array[1 .. n] of real; n: int): [Y: array[1 .. n] of real];
type I = 1 .. n;
define
    Y[I] = X[I - n div 2 + n div 2];
end Half;
""")
        (loop,) = flow.loops()
        spec = native_mod.native_spec(loop, analyzed, flow, False, "full")
        assert (spec.checks, spec.proven) == (2, 1)  # the store proves
        assert [ref for ref, _why in spec.inline] == ["X[I - n div 2 + n div 2]"]

    def test_empty_boxes_prove_trivially_and_execute_nothing(
        self, native_cache_dir
    ):
        """An empty root range or an empty inner range owes nothing, even
        where every subscript of the (never executed) body is out of
        range."""
        analyzed, flow = _module("""\
Box: module (X: array[1 .. 2, 1 .. 2] of real; n: int; m: int):
     [Y: array[1 .. 2, 1 .. 2] of real];
type I = 1 .. n; J = 1 .. m;
define
    Y[I, J] = X[I + 7, J + 7];
end Box;
""")
        (nest,) = [d for d in flow.descriptors if isinstance(d, LoopDescriptor)]
        kernel = native_mod.compile_native_nest(nest, analyzed, flow, False)

        def data(n, m):
            return {
                "X": RuntimeArray("X", [1, 1], [2, 2], np.ones((2, 2)), {}),
                "Y": RuntimeArray("Y", [1, 1], [2, 2], np.zeros((2, 2)), {}),
                "n": n, "m": m,
            }

        # no evaluation, so no count: the walk books none either
        assert kernel(data(2, 2), {}, 2, 1) == {}   # empty root
        assert kernel(data(2, 0), {}, 1, 2) == {}   # empty inner
        with pytest.raises(native_mod.RangeUnproven):
            kernel(data(2, 2), {}, 1, 2)

    @pytest.mark.parametrize("maxk", [1, 2, 3])
    def test_short_windows_run_and_match(self, native_cache_dir, maxk):
        """A grid swept fewer times than its window is deep: the windowed
        dimension is allocated at its full (one- or two-plane) extent."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        args = {
            "InitialA": np.random.default_rng(maxk).random((6, 6)),
            "M": 4, "maxK": maxk,
        }
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["newA"]
        for use_windows in (False, True):
            cache = KernelCache(analyzed, flow)
            got = execute_module(
                analyzed, args, flowchart=flow, kernel_cache=cache,
                options=_options("serial", "native", use_windows),
            )["newA"]
            assert np.array_equal(got, expected)
            assert cache.stats()["range_unproven"] == 0

    def test_an_unread_guard_keeps_its_per_element_checks(self):
        """``I mod 2 = 0`` is not a comparison of an index with an
        index-free expression: references below it stay checked in the
        loop text, byte for byte as before, and the plan says so."""
        analyzed, flow = _module(_guarded("I mod 2 = 0", "X[I - 1]"))
        (loop,) = flow.loops()
        spec = native_mod.native_spec(loop, analyzed, flow, False, "full")
        assert (spec.checks, spec.proven) == (3, 1)
        assert spec.inline == (
            ("X[I - 1]", "under a guard the proof does not read"),
            ("X[I]", "under a guard the proof does not read"),
        )
        assert spec.function.count("return 1; }") == 2
        assert (
            "if (_i5 < X_lo0 || _i5 > X_hi0) "
            "{ err[0] = _i5; err[1] = 0; err[2] = 1; return 1; }"
        ) in spec.function
        plan = build_plan(
            analyzed, flow, ExecutionOptions(backend="serial"), {"n": 64},
            cpu_count=2,
        )
        assert (
            "range checks: 1 of 3 at entry, 2 per element "
            "(X[I - 1]: under a guard the proof does not read)"
        ) in plan.explain()

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 40), which=st.integers(0, 7),
        use_windows=st.booleans(),
    )
    def test_generated_programs_with_a_declaration_one_short(
        self, seed, which, use_windows
    ):
        """A ``core.genprog`` module with one array declared one element
        short: the evaluator and the native tier raise the same message or
        return the same bits — whichever array was cut."""
        prog = generate_program(seed)
        pieces = prog.source.split(".. n]")
        cut = which % (len(pieces) - 1)
        source = (
            ".. n]".join(pieces[: cut + 1]) + ".. n - 1]"
            + ".. n]".join(pieces[cut + 1:])
        )
        analyzed, flow = _module(source)
        n = 12
        args = program_args(prog, n, seed)
        for name in ("X", "C"):
            if f"{name}: array[1 .. n - 1]" in source:
                args[name] = args[name][: n - 1]
        reference = _outcome(
            analyzed, flow, args,
            ExecutionOptions(
                backend="serial", use_kernels=False, use_windows=use_windows
            ),
        )
        options = ExecutionOptions(
            backend="serial", kernel_tier="native", use_windows=use_windows
        )
        cache = KernelCache(analyzed, flow)
        got = _outcome(
            analyzed, flow, args, options, kernel_cache=cache,
            # every loop worth a compiler run, so the C tier meets the cut
            plan=build_plan(
                analyzed, flow, options, {"n": n},
                model=MachineModel(native_build=0.0), cpu_count=2,
            ),
        )
        assert got == reference
        assert cache.stats()["native"] > 0


#: ``Y[I, J] = if <guard> then X[<s1>] else X[<s2>]`` over ``I = 1 .. n``,
#: ``J = 1 .. m``, with ``X`` declared ``xlo .. xhi`` at run time
LINEAR_SOURCE = """\
Lin: module (X: array[xlo .. xhi] of real; n: int; m: int; xlo: int; xhi: int):
     [Y: array[1 .. n, 1 .. m] of real];
type I = 1 .. n; J = 1 .. m;
define
    Y[I, J] = if {guard} then X[{then}] else X[{orelse}];
end Lin;
"""

#: the subscripts the property draws: (PS text, value at (I, J, c)) — two
#: indices, a form stored negated (``J - I``), and one index bounded only
#: through what a linear guard implies for it
LINEAR_SUBSCRIPTS = [
    ("I + J + {c}", lambda i, j, c: i + j + c),
    ("I - J + {c}", lambda i, j, c: i - j + c),
    ("2 * I - J", lambda i, j, c: 2 * i - j),
    ("J - I + {c}", lambda i, j, c: j - i + c),
    ("{c} - I", lambda i, j, c: c - i),
    ("I + {c}", lambda i, j, c: i + c),
    ("J + {c}", lambda i, j, c: j + c),
]

_PY_OPS = {
    "<": lambda x, y: x < y, "<=": lambda x, y: x <= y,
    ">": lambda x, y: x > y, ">=": lambda x, y: x >= y,
    "=": lambda x, y: x == y, "<>": lambda x, y: x != y,
}


def _linear_term(a, b):
    """``a * I + b * J`` as PS text (``a``, ``b`` not both zero)."""
    text = ""
    for k, name in ((a, "I"), (b, "J")):
        if k == 0:
            continue
        mag = name if abs(k) == 1 else f"{abs(k)} * {name}"
        text += (" - " if k < 0 else " + ") + mag if text else (
            f"- {mag}" if k < 0 else mag
        )
    return text


_atoms = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.sampled_from(sorted(_PY_OPS)),
    st.integers(-3, 6),
).filter(lambda t: t[0] or t[1])


@st.composite
def _linear_programs(draw):
    """(source, reached): a guard of one or two linear atoms under ``and``
    / ``or`` / ``not`` choosing between two linear subscripts of ``X``;
    ``reached(n, m)`` lists the subscripts the evaluation reads."""
    atoms = draw(st.lists(_atoms, min_size=1, max_size=2))
    joiner = draw(st.sampled_from(["and", "or"]))
    negate = draw(st.booleans())
    subs = [
        (draw(st.sampled_from(LINEAR_SUBSCRIPTS)), draw(st.integers(-2, 3)))
        for _ in range(2)
    ]

    def reached(n, m):
        out = []
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                values = [_PY_OPS[op](a * i + b * j, c) for a, b, op, c in atoms]
                held = (all if joiner == "and" else any)(values) != negate
                (_pat, value), c = subs[0 if held else 1]
                out.append(value(i, j, c))
        return out

    text = f" {joiner} ".join(
        f"{_linear_term(a, b)} {op} {c}" for a, b, op, c in atoms
    )
    if negate:
        text = f"not ({text})"
    then, orelse = (pat.format(c=c) for (pat, _f), c in subs)
    return LINEAR_SOURCE.format(guard=text, then=then, orelse=orelse), reached


def _native_against_evaluator(analyzed, flow, args, use_windows):
    """(evaluator outcome, native outcome, native cache) of one run, every
    loop the nest kernel takes forced onto it, on the C tier."""
    reference = _outcome(
        analyzed, flow, args,
        ExecutionOptions(
            backend="serial", use_kernels=False, use_windows=use_windows
        ),
    )
    options = ExecutionOptions(
        backend="serial", kernel_tier="native", use_windows=use_windows,
        strategy="nest",
    )
    cache = KernelCache(analyzed, flow)
    sizes = {k: v for k, v in args.items() if isinstance(v, int)}
    got = _outcome(
        analyzed, flow, args, options, kernel_cache=cache,
        plan=build_plan(
            analyzed, flow, options, sizes,
            model=MachineModel(native_build=0.0), cpu_count=2,
        ),
    )
    return reference, got, cache


@needs_toolchain
class TestLinearFacts:
    """Range proofs over linear forms in several indices: guards like
    ``a * I + b * J op c`` record an interval and tighten the box, and
    subscripts like ``I - J + c`` are proven from it — soundly (the
    evaluator's answer or its error, never a stray read) and, on the §4
    hyperplane programs, completely."""

    @settings(max_examples=80, deadline=None)
    @given(
        program=_linear_programs(),
        sizes=st.lists(
            st.tuples(st.integers(2, 6), st.integers(2, 6)),
            min_size=3, max_size=3,
        ),
        use_windows=st.booleans(),
    )
    def test_generated_two_index_programs_match_the_evaluator(
        self, program, sizes, use_windows
    ):
        """One kernel, several grids, and ``X`` declared exactly over what
        each grid reads, or one element short at one end and generous at
        the other — so a bound the proof got too wide there cannot hide
        one it got too narrow here: the same bits or the same message as
        the evaluator."""
        source, reached = program
        analyzed, flow = _module(source)
        for n, m in sizes:
            lo, hi = min(reached(n, m)), max(reached(n, m))
            for cut in ("none", "lo", "hi")[: 3 if lo < hi else 1]:
                xlo = {"none": lo, "lo": lo + 1, "hi": lo - 32}[cut]
                xhi = {"none": hi, "lo": hi + 32, "hi": hi - 1}[cut]
                args = {
                    "X": np.arange(1.0, xhi - xlo + 2), "n": n, "m": m,
                    "xlo": xlo, "xhi": xhi,
                }
                reference, got, cache = _native_against_evaluator(
                    analyzed, flow, args, use_windows
                )
                assert got == reference, (n, m, cut)
                assert cache.stats()["native"] > 0

    @pytest.mark.parametrize("s", [2**62, 2**62 + 7, 2**63 - 4])
    @pytest.mark.parametrize("d", [0, 2, -1])
    def test_scalars_near_the_int64_edge_never_give_wrong_bits(self, s, d):
        """``s`` and ``t = s - d`` near 2**62 and 2**63: the guard's side
        ``2 * I - J + s`` wraps in C for the largest ``s``, and the
        subscript ``I + J + s - t`` is small only as an exact sum. The
        call is proven and right, or unproven and rerun a tier down —
        never the C kernel's wrapped answer."""
        source = """\
Far: module (X: array[1 .. 12] of real; n: int; s: int; t: int):
     [Y: array[1 .. n, 1 .. n] of real];
type I = 1 .. n; J = 1 .. n;
define
    Y[I, J] = if 2 * I - J + s > t then X[I + J + s - t] else X[J];
end Far;
"""
        args = {"X": np.arange(1.0, 13.0), "n": 5, "s": s, "t": s - d}
        reference, got, cache = _native_against_evaluator(
            *_module(source), args, False
        )
        assert got == reference
        proven, unproven = _proofs(cache)
        assert proven + unproven == 1
        if s + 2 * 5 - 1 > 2**63 - 1:  # a side of the guard wraps
            assert unproven == 1

    def test_a_wrapped_linear_subscript_proves_nothing(self):
        """``I + J + s`` with ``s = 2**63 - 3`` wraps for ``I + J >= 3``;
        the exact ends of the ``__int128`` sum lie past the array, so the
        call is unproven and the evaluator's message comes out."""
        source = """\
Wrap: module (X: array[1 .. 8] of real; n: int; s: int):
      [Y: array[1 .. n, 1 .. n] of real];
type I = 1 .. n; J = 1 .. n;
define
    Y[I, J] = X[I + J + s];
end Wrap;
"""
        s = 2**63 - 3
        args = {"X": np.arange(1.0, 9.0), "n": 2, "s": s}
        reference, got, cache = _native_against_evaluator(
            *_module(source), args, False
        )
        assert reference == (
            "error", f"index {2 + s} out of range [1, 8] in dimension 0 of 'X'"
        )
        assert got == reference
        assert _proofs(cache) == (0, 1)

    @pytest.mark.parametrize("program, checks", [
        ("gs_hyper", {"Kp": (20, 20), "I": (5, 5)}),
        ("align_hyper", {"Ip": (10, 10)}),
    ])
    def test_hyperplane_kernels_prove_every_check_at_entry(
        self, program, checks
    ):
        source = {
            "gs_hyper": RELAXATION_GAUSS_SEIDEL_SOURCE,
            "align_hyper": DP_SOURCE,
        }[program]
        result = compile_source(source, CompilerOptions(hyperplane=True))
        flow = result.flowchart
        for desc in flow.descriptors:
            if not isinstance(desc, LoopDescriptor):
                continue
            for w in (False, True):
                spec = native_mod.native_spec(desc, result.analyzed, flow, w)
                assert (spec.checks, spec.proven) == checks[desc.index]
                assert spec.inline == ()
                assert "return 1; }" not in spec.function


class TestPersistPlan:
    def test_plan_saved_next_to_the_unit_it_builds(self, tmp_path, monkeypatch):
        """``repro plan --save`` writes what is actually built: the plan's
        single translation unit — byte for byte the text ``build_kernels``
        hands to ``cc`` — and one ``cc`` line."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        specs = [
            native_mod.native_spec(desc, analyzed, flow, False, shape)
            for desc in _outermost_parallel(flow.descriptors)
            for shape in ("full", "full")
        ]
        names = {spec.fn_name for spec in specs}
        assert 1 < len(names) < len(specs)  # one function per distinct text
        out = native_mod.persist_plan("Relaxation", "plan text", specs)
        assert (out / "plan.txt").read_text() == "plan text"
        assert [p.name for p in out.glob("*.c")] == ["Relaxation.c"]
        unit = (out / "Relaxation.c").read_text()
        assert unit == native_mod.unit_source(specs)
        assert unit.count("#include <math.h>") == 1
        defined = [
            line.split("(")[0].split()[1]
            for line in unit.splitlines() if line.startswith("int k_")
        ]
        assert defined == sorted(names)
        build = (out / "build.sh").read_text().splitlines()
        assert [ln for ln in build if ln.startswith("cc ")] == [
            f'cc {" ".join(native_mod.C_FLAGS)} -shared -o "Relaxation.so" '
            f'"Relaxation.c" -lm'
        ]
        # idempotent: same text lands in the same keyed directory
        assert native_mod.persist_plan("Relaxation", "plan text", specs) == out

    def test_a_plan_without_native_kernels_saves_no_c(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        out = native_mod.persist_plan("Relaxation", "spans only", [])
        assert not list(out.glob("*.c"))
        assert "cc " not in (out / "build.sh").read_text()
