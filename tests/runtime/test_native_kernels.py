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

from repro.core.paper import jacobi_analyzed
from repro.errors import ExecutionError
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported
from repro.runtime.kernels import native as native_mod
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernels import ALL_BACKENDS, WORKLOADS

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
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
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
            analyzed, args, options=_options("serial", "evaluator")
        )
        assert np.array_equal(on["newA"], off["newA"])

    def test_out_of_range_error_parity(self, native_cache_dir):
        """The C kernel reports the evaluator's exact out-of-range error
        through its error channel."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        # the second outermost DOALL is eq.3's sweep under the DO K loop —
        # the one whose A[K-1, ...] reads take K from the environment
        nest = list(_outermost_parallel(flow.descriptors))[1]
        kernel = native_mod.compile_native_nest(
            nest, analyzed, flow, use_windows=False
        )
        from repro.runtime.values import RuntimeArray

        maxk, m = 4, 5
        arr = RuntimeArray(
            "A", [1, 0, 0], [maxk, m + 1, m + 1],
            np.zeros((maxk, m + 2, m + 2)), {},
        )
        init = RuntimeArray(
            "InitialA", [0, 0], [m + 1, m + 1], np.zeros((m + 2, m + 2)), {}
        )
        data = {"A": arr, "InitialA": init, "M": m, "maxK": maxk}
        with pytest.raises(ExecutionError, match=r"out of range \[1, 4\]"):
            # env K=0 makes the A[K-1,...] read hit plane 0 of a 1-based dim
            kernel(data, {"K": 0}, 0, m + 1)

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

    def test_process_pool_inherits_native_kernels(self, native_cache_dir):
        """warm() loads the shared objects pre-fork; pool workers execute
        native chunks bit-exactly."""
        name, analyzed, flow, args, result = WORKLOADS[0]
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )[result]
        got = execute_module(
            analyzed, args, flowchart=flow,
            options=_options("process", "native"),
        )[result]
        assert np.array_equal(got, expected)


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


#: shape -> (strategy that dispatches it, workload name); "do" is the
#: "full" shape over a sequential DO root — the compiled in-order nest
LOOKUP_SHAPES = {
    "full": ("nest", "jacobi"),
    "flat": ("collapse", "jacobi"),
    "span": ("chunk", "jacobi"),
    "scan": ("scan", "isum"),
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
    from repro.schedule.scan_detect import scan_loops

    analyzed = isum_analyzed()
    flow = schedule_module(analyzed)
    (path,) = scan_loops(analyzed, flow, False)
    return analyzed, flow, isum_args(), "T", flow.descriptor_at(path)


def _impose(monkeypatch, condition):
    """Put the toolchain (or the emitters) in ``condition``."""
    from repro.runtime.kernels import emit as emit_mod
    from repro.runtime.kernels import scan as scan_mod

    def refuse(*args, **kwargs):
        raise native_mod.KernelError("simulated refusal")

    def crash(*args, **kwargs):
        raise RuntimeError("simulated compiler crash")

    # every condition starts from nothing loaded in this process
    monkeypatch.setattr(native_mod, "_loaded", {})
    monkeypatch.setattr(scan_mod, "_native_lib", False)
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
        for name in ("native_kernels", "numpy_kernels"):
            monkeypatch.setattr(scan_mod, name, refuse)


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
        if shape == "span" and expected == "numpy":
            # the NumPy tier distributes spans through the per-equation
            # vector kernels: nothing to serve, the caller walks
            expected = None
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
            if shape == "scan":
                return cache.scan_kernel_for(desc, False)
            return cache.nest_kernel_for(
                desc, False, variant="full" if shape == "do" else shape
            )

        served = lookup()
        if expected is None:
            assert served is None
        else:
            is_native = getattr(served, "__native__", False) or getattr(
                served, "native", False
            )
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
            assert native_mod.native_emittable(nest, analyzed, flow, False)

    def test_module_calls_are_not_emittable(self):
        from repro.ps.parser import parse_program
        from repro.ps.semantics import analyze_program

        from tests.runtime.test_kernels import CALL_PROGRAM_SOURCE

        program = analyze_program(parse_program(CALL_PROGRAM_SOURCE))
        use = program["Use"]
        flow = schedule_module(use)
        for nest in _outermost_parallel(flow.descriptors):
            assert not native_mod.native_emittable(nest, use, flow, False)

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
        assert not native_mod.native_emittable(nest, analyzed, flow, False)

    def test_emitted_source_is_stable(self):
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        nest = next(_outermost_parallel(flow.descriptors))
        (a,) = native_mod.native_specs(nest, analyzed, flow, False)
        flow.__dict__.pop("_native_emit_memo")  # a second, real emission
        (b,) = native_mod.native_specs(nest, analyzed, flow, False)
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
        inherit C's truncation — regression for the cgen bug the native
        tier's shared prelude fixes."""
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


class TestPersistPlan:
    def test_plan_saved_next_to_generated_c(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        sources = native_mod.emittable_nest_sources(analyzed, flow)
        assert sources  # Jacobi nests emit in both variants
        out = native_mod.persist_plan("Relaxation", "plan text", sources)
        assert (out / "plan.txt").read_text() == "plan text"
        assert len(list(out.glob("*.c"))) == len(sources)
        # idempotent: same text lands in the same keyed directory
        again = native_mod.persist_plan("Relaxation", "plan text", sources)
        assert again == out
