"""Chunk kernels: every chunk of a DOALL is one call of the loop's own
``"full"`` C kernel over its part of the subrange.

The chunked backends split a ``chunk``-planned DOALL into contiguous
subranges and call the nest's one compiled function for each — the same
function the ``nest`` strategy calls for the whole subrange. These tests
pin:

* bit-exact parity — every paper workload, chunk-forced on every chunked
  backend, in both window modes, against the kernel-less serial reference,
  on the native *and* NumPy tiers;
* a DOALL over a sequential ``DO`` (the ``rec`` program) chunks on its
  native kernel, where per-equation kernels could not lower it;
* one kernel call per chunk, however many equations the loop holds;
* a chunk whose entry range proof fails reruns alone on the nest's
  range-checked Python dialect, and the evaluator's error comes out after
  its sibling chunks have finished;
* genuine parallelism — a Python thread keeps running while another sits
  inside a GIL-released native kernel.
"""

import os
import queue
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import ExecutionError
from repro.plan.planner import forced_plan, valid_strategies
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.ps.types import RealType
from repro.runtime.backends import instantiate_backend
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported
from repro.runtime.kernels import native as native_mod
from repro.runtime.values import RuntimeArray
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernels import WORKLOADS

CHUNKED_BACKENDS = ["threaded", "process"]

needs_toolchain = pytest.mark.skipif(
    not native_supported(), reason="no C compiler / cffi on this machine"
)

#: a DOALL whose body is a sequential DO (W[I, J] carries a dependence
#: along J): its chunks run the whole DO per row, in order
REC_SOURCE = """\
Rec: module (n: int): [Y: array[1 .. n] of int];
type
    I = 1 .. n; J = 1 .. n;
var
    W: array [1 .. n, 0 .. n] of int;
define
    W[I, 0] = 1;
    W[I, J] = W[I, J-1] + I;
    Y[I] = W[I, n];
end Rec;
"""

#: two equations over one DOALL once the loops are merged
TWO_SOURCE = """\
Two: module (X: array[1 .. n] of real; n: int):
     [Y: array[1 .. n] of real; Z: array[1 .. n] of real];
type I = 1 .. n;
define
    Y[I] = X[I] * 2.0;
    Z[I] = X[I] + 1.0;
end Two;
"""

#: ``X[I + 1]`` leaves ``X`` on the last iteration only
SHIFT_SOURCE = """\
Shift: module (X: array[1 .. n] of real; n: int): [Y: array[1 .. n] of real];
type I = 1 .. n;
define
    Y[I] = X[I + 1];
end Shift;
"""

#: an arithmetic-heavy single-equation nest for the concurrency test —
#: enough C work per call that thread overlap is measurable
HEAVY_SOURCE = """\
Heavy: module (n: int): [s: real];
type
    I = 1 .. n; J = 1 .. n;
var
    A: array [1 .. n, 1 .. n] of real;
define
    A[I, J] = ((I * 0.5 + J * 0.25) * (I * 0.125 + J * 0.0625)
               + (I - J) * (I + J) * 0.001
               + abs(I * 1.0 - J) * 0.01
               + min(I * 2.0, J * 3.0)) * 0.001;
    s = A[n, n];
end Heavy;
"""


@pytest.fixture(scope="module")
def span_cache(tmp_path_factory):
    """One on-disk cache for the whole module: each kernel compiles once
    and later tests reload the memoized library."""
    d = tmp_path_factory.mktemp("native-chunk-cache")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(d)
    yield d
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


def _chunk_forced_plan(analyzed, flow, backend, options, scalars):
    """Force ``chunk`` on every loop where it is valid (outermost wins) so
    the run exercises the chunk dispatch path regardless of what the
    cost-driven planner would pick at these tiny sizes."""
    overrides = {}

    def walk(path, descs):
        for i, d in enumerate(descs):
            p = path + (i,)
            if not isinstance(d, LoopDescriptor):
                continue
            if "chunk" in valid_strategies(
                analyzed, flow, d, options.use_windows
            ):
                overrides[p] = "chunk"
            else:
                walk(p, d.body)

    walk((), flow.descriptors)
    return forced_plan(
        analyzed, flow, backend, options, scalars, overrides=overrides
    )


def _scalars(args):
    return {k: int(v) for k, v in args.items() if isinstance(v, int)}


def _chunked(plan):
    return [path for path, lp in plan.loops.items() if lp.strategy == "chunk"]


def _run_two(cache, n=40):
    """Run ``TWO_SOURCE`` (merged) chunk-forced on two threads through
    ``cache``; check the results and return (the run's state, ``n``)."""
    analyzed, flow = cache.analyzed, cache.flowchart
    args = {"X": np.linspace(0.0, 1.0, n), "n": n}
    options = ExecutionOptions(backend="threaded", workers=2)
    plan = forced_plan(analyzed, flow, "threaded", options, {"n": n}, default="chunk")
    assert plan.loops[(0,)].parts == 2
    backend = instantiate_backend("threaded", workers=2)
    states = []
    original = backend.run

    def run(state):
        states.append(state)
        original(state)

    backend.run = run
    try:
        got = execute_module(
            analyzed, dict(args), flow, options, kernel_cache=cache,
            plan=plan, backend=backend,
        )
    finally:
        backend.close()
    assert np.array_equal(got["Y"], args["X"] * 2.0)
    assert np.array_equal(got["Z"], args["X"] + 1.0)
    return states[0], n


def _two_cache():
    result = compile_source(TWO_SOURCE, CompilerOptions(merge_loops=True))
    (loop,) = result.flowchart.loops()
    assert len(loop.nested_equations()) == 2
    return KernelCache(result.analyzed, result.flowchart)


@needs_toolchain
class TestSpanParity:
    @pytest.mark.parametrize("use_windows", [False, True])
    @pytest.mark.parametrize("backend", CHUNKED_BACKENDS)
    @pytest.mark.parametrize(
        "workload", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_bit_exact_chunk_forced(
        self, workload, backend, use_windows, span_cache
    ):
        """Chunk-forced execution on the native tier == the kernel-less
        serial reference == the NumPy tier, bit for bit."""
        name, analyzed, flow, args, out = workload
        ref = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(
                backend="serial", use_windows=use_windows, use_kernels=False
            ),
        )
        for tier in ("native", "numpy"):
            options = ExecutionOptions(
                backend=backend, workers=3, use_windows=use_windows,
                kernel_tier=tier,
            )
            plan = _chunk_forced_plan(
                analyzed, flow, backend, options, _scalars(args)
            )
            got = execute_module(
                analyzed, dict(args), flow, options, plan=plan
            )
            r, g = ref[out], got[out]
            if isinstance(r, np.ndarray):
                assert np.array_equal(r, g), (name, backend, tier)
            else:
                assert r == g, (name, backend, tier)

    def test_auto_plan_stays_bit_exact(self, span_cache):
        """The cost-driven plan (whatever it picks) matches the reference
        on the threaded backend too."""
        name, analyzed, flow, args, out = WORKLOADS[0]
        ref = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(backend="serial", use_kernels=False),
        )
        got = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(backend="threaded", workers=3),
        )
        assert np.array_equal(ref[out], got[out])


@needs_toolchain
class TestChunkOnTheFullKernel:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("use_windows", [False, True], ids=["flat", "win"])
    @pytest.mark.parametrize("backend", CHUNKED_BACKENDS)
    def test_doall_over_a_do_chunks_natively(
        self, backend, use_windows, workers, span_cache
    ):
        """``rec`` chunk-forced: every chunked loop — with windows off the
        ``DOALL I (DO J ...)`` too — is served by its native kernel, and
        the answer is the evaluator's, bit for bit, with uninitialised
        storage poisoned."""
        analyzed = analyze_module(parse_module(REC_SOURCE))
        flow = schedule_module(analyzed)
        n = 37
        ref = execute_module(
            analyzed, {"n": n}, flow,
            ExecutionOptions(
                backend="serial", use_windows=use_windows, use_kernels=False
            ),
        )
        options = ExecutionOptions(
            backend=backend, workers=workers, use_windows=use_windows
        )
        plan = _chunk_forced_plan(analyzed, flow, backend, options, {"n": n})
        chunked = _chunked(plan)
        assert ((1,) in chunked) == (not use_windows)
        cache = KernelCache(analyzed, flow)
        got = execute_module(
            analyzed, {"n": n}, flow, options, kernel_cache=cache, plan=plan
        )
        assert np.array_equal(got["Y"], ref["Y"])
        assert chunked == [path for path, _ in plan.native_kernels()]
        assert all(
            cache._native[(path, use_windows, "full")] is not None
            for path in chunked
        )

    def test_one_kernel_call_per_chunk(self, span_cache):
        """A chunk of a two-equation loop is one C call that stores both
        equations — not one call per equation. Every call with an entry
        proof reports its verdict once: the spy counts the calls."""
        cache = _two_cache()
        calls = []
        cache._book_proof = calls.append
        state, n = _run_two(cache)
        assert calls == [True, True]
        assert state.eval_counts == {"eq.1": n, "eq.2": n}


@needs_toolchain
class TestUnprovenChunk:
    def test_reruns_on_the_python_full_kernel_counting_once(
        self, span_cache, monkeypatch
    ):
        """A chunk whose native call reports a failed entry proof has
        stored nothing; it alone runs again, on the nest's range-checked
        Python dialect — not on vector spans — and each element is counted
        exactly once."""
        real_bind = native_mod.bind_kernel

        def unproven_from_21(spec, on_proof=None):
            kernel = real_bind(spec, on_proof)

            def fails(data, env, lo, hi, *width):
                if lo == 21:
                    raise native_mod.RangeUnproven("simulated")
                return kernel(data, env, lo, hi, *width)

            fails.__native__ = True
            return fails

        monkeypatch.setattr(native_mod, "bind_kernel", unproven_from_21)
        cache = _two_cache()
        lookups = []
        real_lookup = cache.nest_kernel_for

        def lookup(desc, use_windows, variant="full", tier="native", **kw):
            lookups.append((variant, tier, kw.get("numpy", True)))
            return real_lookup(desc, use_windows, variant, tier, **kw)

        cache.nest_kernel_for = lookup
        state, n = _run_two(cache)
        assert state.eval_counts == {"eq.1": n, "eq.2": n}
        # both chunks asked for the C kernel alone; the failed one then
        # asked for the Python dialect of the same shape
        assert sorted(lookups) == [
            ("full", "native", False), ("full", "native", False),
            ("full", "numpy", True),
        ]

    @pytest.mark.parametrize("backend_name", CHUNKED_BACKENDS)
    def test_a_real_stray_raises_the_evaluator_error_after_its_siblings(
        self, backend_name, span_cache, monkeypatch
    ):
        """``X[I + 1]`` leaves ``X`` at ``I = n`` only: the last chunk's
        proof fails, its rerun on the Python dialect raises the evaluator's
        exact error, and the other chunks have run to completion by the
        time it reaches the caller."""
        analyzed = analyze_module(parse_module(SHIFT_SOURCE))
        flow = schedule_module(analyzed)
        n = 30
        args = {"X": np.arange(1.0, n + 1), "n": n}
        with pytest.raises(ExecutionError) as expected:
            execute_module(
                analyzed, dict(args), flow,
                ExecutionOptions(backend="serial", kernel_tier="evaluator"),
            )
        options = ExecutionOptions(backend=backend_name, workers=3)
        plan = forced_plan(
            analyzed, flow, backend_name, options, {"n": n}, default="chunk"
        )
        backend = instantiate_backend(backend_name, workers=3)
        done = (
            backend._ctx.SimpleQueue() if backend_name == "process"
            else queue.SimpleQueue()
        )
        original = ExecutionBackend.run_chunk

        def run_chunk(self, state, desc, strategy, lo, hi, env, fuse):
            if lo == 1:
                time.sleep(0.2)  # the in-range sibling finishes last
            original(self, state, desc, strategy, lo, hi, env, fuse)
            done.put(lo)

        monkeypatch.setattr(ExecutionBackend, "run_chunk", run_chunk)
        cache = KernelCache(analyzed, flow)
        real_lookup = cache.nest_kernel_for

        def lookup(desc, use_windows, variant="full", tier="native", **kw):
            done.put((variant, tier))
            return real_lookup(desc, use_windows, variant, tier, **kw)

        cache.nest_kernel_for = lookup
        try:
            with pytest.raises(ExecutionError) as raised:
                execute_module(
                    analyzed, dict(args), flow, options, kernel_cache=cache,
                    plan=plan, backend=backend,
                )
        finally:
            backend.close()
        assert str(expected.value) in str(raised.value)
        heard = []
        while not done.empty():
            heard.append(done.get())
        finished = sorted(x for x in heard if isinstance(x, int))
        assert finished == [1, 11]  # both in-range chunks joined
        # three chunks asked for the C kernel; the failed one, then, for
        # the Python dialect
        assert sorted(x for x in heard if isinstance(x, tuple)) == [
            ("full", "native"), ("full", "native"), ("full", "native"),
            ("full", "numpy"),
        ]
        if backend_name == "threaded":
            stats = cache.stats()
            assert (stats["range_proven"], stats["range_unproven"]) == (2, 1)


@needs_toolchain
class TestGilRelease:
    def test_python_thread_progresses_during_the_c_call(self, span_cache):
        """cffi's ABI mode releases the GIL around the C call, shown by a
        handshake rather than a clock. With the switch interval raised far
        past the test's length, the calling thread never hands the GIL on
        while it runs Python, so a second thread woken just before the
        kernel call can take its one step only while the caller sits in C
        with the GIL released — on any host, loaded or not; a call that
        ends before the step is simply made again."""
        n = 2500
        analyzed = analyze_module(parse_module(HEAVY_SOURCE))
        flow = schedule_module(analyzed)
        outer = next(
            d for d in flow.descriptors
            if isinstance(d, LoopDescriptor) and d.parallel
        )
        kern = native_mod.compile_native_nest(
            outer, analyzed, flow, use_windows=False, variant="full"
        )
        arr = RuntimeArray.allocate("A", RealType, [(1, n), (1, n)])
        data = {"A": arr, "n": n}
        kern(data, {}, 1, n)  # warm-up: dlopen + page-in

        go, finish = threading.Event(), threading.Event()
        steps = []

        def step():
            go.wait()
            steps.append(1)
            finish.wait()

        ticker = threading.Thread(target=step, daemon=True)
        ticker.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1000.0)
        try:
            go.set()
            calls = 0
            while not steps and calls < 20:
                kern(data, {}, 1, n)
                calls += 1
            stepped = bool(steps)
        finally:
            sys.setswitchinterval(interval)
            finish.set()
            ticker.join(timeout=10)
        assert stepped, (
            f"a Python thread took no step during {calls} kernel calls "
            f"(GIL apparently held)"
        )
