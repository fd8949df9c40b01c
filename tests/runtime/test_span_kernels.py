"""Native span-kernel parity and GIL-free threaded execution.

The span tier compiles one C function per (enclosing-chain, equation) pair
of a chunk-dispatchable DOALL subtree; the chunked backends call it for a
subrange instead of the per-equation NumPy spans. These tests pin:

* bit-exact parity — every paper workload, chunk-forced on every chunked
  backend, in both window modes, against
  the kernel-less serial reference, on the native *and* NumPy tiers;
* the emission rules — one spec per equation, sequential inner ``DO``
  rejects the whole span (per-equation distribution would reorder its
  cross-iteration dependences), all-or-nothing on lowering failures;
* the cache contract — ``warm()`` covers the span shapes (memoization and
  degradation are rows of ``test_native_kernels.TestTieredLookup``);
* genuine parallelism — a Python thread keeps running while another sits
  inside a GIL-released native span kernel.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.plan.planner import forced_plan, valid_strategies
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.ps.types import RealType
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

#: a DOALL whose body is a sequential DO — the shape the span tier must
#: refuse (W[I, J] carries a cross-iteration dependence along J)
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

#: an arithmetic-heavy single-equation nest for the concurrency test —
#: enough C work per span call that thread overlap is measurable
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
    """One on-disk cache for the whole module: each span kernel compiles
    once and later tests reload the memoized library."""
    d = tmp_path_factory.mktemp("native-span-cache")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(d)
    yield d
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


def _chunk_forced_plan(analyzed, flow, backend, options, scalars):
    """Force ``chunk`` on every loop where it is valid (outermost wins) so
    the run exercises the span dispatch path regardless of what the
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


class TestSpanEmission:
    def test_one_spec_per_equation(self):
        """A two-deep DOALL nest with one equation lowers to one span
        spec whose root loop runs ``nlo .. nhi``."""
        name, analyzed, flow, args, out = WORKLOADS[0]  # jacobi
        outer = next(
            d for d in flow.descriptors
            if isinstance(d, LoopDescriptor) and d.parallel
        )
        specs = native_mod.native_specs(
            outer, analyzed, flow, use_windows=False, shape="span"
        )
        assert len(specs) == len(outer.nested_equations()) == 1
        assert "nlo" in specs[0].source and "nhi" in specs[0].source

    def test_sequential_inner_do_rejects_span(self):
        """DOALL I ( DO J ( eq ) ): per-equation distribution across the
        sequential J loop would reorder its cross-iteration dependences —
        the whole span is non-emittable."""
        analyzed = analyze_module(parse_module(REC_SOURCE))
        flow = schedule_module(analyzed)
        loops = [
            d for d in flow.descriptors
            if isinstance(d, LoopDescriptor) and d.parallel
        ]
        rec = next(
            d for d in loops
            if any(
                isinstance(b, LoopDescriptor) and not b.parallel
                for b in d.body
            )
        )
        assert native_mod.native_refusal(
            rec, analyzed, flow, use_windows=False, shape="span"
        ) is not None
        flat = [d for d in loops if d is not rec]
        assert flat and all(
            native_mod.native_refusal(d, analyzed, flow, False, "span") is None
            for d in flat
        )

    def test_non_doall_root_rejected(self):
        from repro.runtime.kernels import KernelError

        name, analyzed, flow, args, out = WORKLOADS[0]
        do_k = next(
            d for d in flow.descriptors
            if isinstance(d, LoopDescriptor) and not d.parallel
        )
        with pytest.raises(KernelError):
            native_mod.native_specs(do_k, analyzed, flow, False, "span")


class TestSpanCache:
    @needs_toolchain
    def test_warm_covers_span_shapes(self, span_cache):
        """Session.warm()'s path — KernelCache.warm(tier="native") — must
        pre-compile the span kernels, not only the fused nests (the
        pool-inheritance and daemon warm paths rely on it)."""
        name, analyzed, flow, args, out = WORKLOADS[0]
        cache = KernelCache(analyzed, flow)
        cache.warm(use_windows=False, tier="native")
        spans = [
            key for key in cache._native
            if len(key) == 3 and key[2] == "span"
        ]
        assert spans, "warm() compiled no span kernels"
        assert all(cache._native[k] is not None for k in spans)


@needs_toolchain
class TestGilRelease:
    def test_python_thread_progresses_during_the_c_call(self, span_cache):
        """cffi's ABI mode releases the GIL around the C call: while one
        thread sits in a heavy span kernel, a pure-Python thread keeps
        running. With the GIL held it would stand still for the whole call
        (measured: its longest stall is 0.7-0.95 of a GIL-holding call of
        this length); released, the longest stall is a scheduler time
        slice (0.1-0.25 of the call, on one core or two). Not "two kernel
        calls overlap": two threads storing into memory-sized arrays are
        bandwidth-bound on a small box whatever the GIL does."""
        n = 2500
        analyzed = analyze_module(parse_module(HEAVY_SOURCE))
        flow = schedule_module(analyzed)
        outer = next(
            d for d in flow.descriptors
            if isinstance(d, LoopDescriptor) and d.parallel
        )
        kern = native_mod.compile_native_nest(
            outer, analyzed, flow, use_windows=False, variant="span"
        )
        arr = RuntimeArray.allocate("A", RealType, [(1, n), (1, n)])
        data = {"A": arr, "n": n}
        kern(data, {}, 1, n)  # warm-up: dlopen + page-in

        stop = threading.Event()
        longest = [0.0]  # the ticker's longest pause between two iterations

        def tick():
            last = time.perf_counter()
            while not stop.is_set():
                now = time.perf_counter()
                if now - last > longest[0]:
                    longest[0] = now - last
                last = now

        ticker = threading.Thread(target=tick, daemon=True)
        ticker.start()
        try:
            # Retry before failing: the property is physical, but a loaded
            # CI box deserves a second chance.
            stalls = []
            for _ in range(3):
                longest[0] = 0.0
                t0 = time.perf_counter()
                kern(data, {}, 1, n)
                stalls.append(longest[0] / (time.perf_counter() - t0))
                if stalls[-1] < 0.5:
                    return
        finally:
            stop.set()
            ticker.join(timeout=10)
        pytest.fail(
            f"a Python thread stood still for {min(stalls):.0%} of a kernel "
            f"call (GIL apparently held)"
        )
