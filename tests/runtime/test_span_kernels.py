"""Full kernels on a ``DOALL``: the whole subrange as one call of the
loop's own kernel, or one NumPy span.

Covered here:

* bit-exact parity — every paper workload with ``vector`` or ``nest``
  forced, on both kernel tiers, windows off and on, against the
  kernel-less serial reference;
* a ``DOALL`` over a sequential ``DO`` (the ``rec`` program) runs on its
  native kernel;
* the kernel shapes a ``DOALL`` asks the cache for, the retired ``"flat"``
  shape's refusal, and an empty inner range;
* the C call releases the GIL.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.plan.planner import forced_plan, valid_strategies
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.ps.types import RealType
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, KernelError, native_supported
from repro.runtime.kernels import native as native_mod
from repro.runtime.kernels.emit import emit_nest_kernel_source
from repro.runtime.kernels.native import native_refusal
from repro.runtime.values import RuntimeArray
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernels import WORKLOADS

needs_toolchain = pytest.mark.skipif(
    not native_supported(), reason="no C compiler / cffi on this machine"
)

#: a DOALL whose body is a sequential DO (W[I, J] carries a dependence
#: along J): each iteration runs the whole DO over its row, in order
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
    d = tmp_path_factory.mktemp("native-span-cache")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(d)
    yield d
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


#: a perfect two-deep nest
SCALE_SOURCE = """\
Scale: module (A: array[1 .. r, 1 .. c] of real; r: int; c: int):
       [B: array[1 .. r, 1 .. c] of real];
type
    I = 1 .. r; J = 1 .. c;
define
    B[I, J] = A[I, J] * 2.0 + 1.0;
end Scale;
"""

#: a perfect three-deep nest
CUBE_SOURCE = """\
Cube: module (n: int): [B: array[1 .. n, 1 .. n, 1 .. n] of int];
type
    I = 1 .. n; J = 1 .. n; K = 1 .. n;
define
    B[I, J, K] = I * 10000 + J * 100 + K;
end Cube;
"""

#: one DOALL, one equation
VEC_SOURCE = """\
Vec: module (A: array[1 .. n] of real; n: int):
     [B: array[1 .. n] of real];
type
    I = 1 .. n;
define
    B[I] = A[I] + 1.0;
end Vec;
"""


def _setup(source):
    analyzed = analyze_module(parse_module(source))
    return analyzed, schedule_module(analyzed)


def _scalars(args):
    return {k: int(v) for k, v in args.items() if isinstance(v, int)}


@needs_toolchain
class TestSpanParity:
    @pytest.mark.parametrize("strategy", ["vector", "nest"])
    @pytest.mark.parametrize("use_windows", [False, True])
    @pytest.mark.parametrize(
        "workload", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_bit_exact_forced(self, workload, use_windows, strategy, span_cache):
        """Every loop the strategy applies to forced onto it, on the native
        and the NumPy tier: the kernel-less serial reference, bit for
        bit."""
        name, analyzed, flow, args, out = workload
        ref = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(
                backend="serial", use_windows=use_windows, use_kernels=False
            ),
        )
        for tier in ("native", "numpy"):
            options = ExecutionOptions(
                backend="threaded", workers=3, use_windows=use_windows,
                kernel_tier=tier,
            )
            plan = forced_plan(
                analyzed, flow, "threaded", options, _scalars(args),
                default=strategy,
            )
            assert strategy in {s for _, s in plan.strategies()}
            got = execute_module(
                analyzed, dict(args), flow, options, plan=plan
            )
            r, g = ref[out], got[out]
            if isinstance(r, np.ndarray):
                assert np.array_equal(r, g), (name, tier)
            else:
                assert r == g, (name, tier)

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
class TestTheFullKernel:
    @pytest.mark.parametrize("use_windows", [False, True], ids=["flat", "win"])
    def test_doall_over_a_do_runs_natively(self, use_windows, span_cache):
        """``rec`` with ``nest`` forced: the ``DOALL I (DO J ...)`` is
        served by its native kernel, and the answer is the evaluator's,
        bit for bit, with uninitialised storage poisoned."""
        analyzed, flow = _setup(REC_SOURCE)
        n = 37
        ref = execute_module(
            analyzed, {"n": n}, flow,
            ExecutionOptions(
                backend="serial", use_windows=use_windows, use_kernels=False
            ),
        )
        options = ExecutionOptions(
            backend="serial", workers=1, use_windows=use_windows
        )
        plan = forced_plan(
            analyzed, flow, "serial", options, {"n": n}, default="nest"
        )
        assert ((1,), "full") in plan.native_kernels()
        cache = KernelCache(analyzed, flow)
        got = execute_module(
            analyzed, {"n": n}, flow, options, kernel_cache=cache, plan=plan
        )
        assert np.array_equal(got["Y"], ref["Y"])
        assert cache._native[((1,), use_windows, "full")] is not None


class TestNestKernelShapes:
    def test_a_doall_offers_the_three_strategies(self):
        analyzed, flow = _setup(VEC_SOURCE)
        (loop,) = flow.loops()
        assert valid_strategies(analyzed, flow, loop) == ["serial", "vector", "nest"]

    def test_the_python_nest_kernel_loops_over_the_root_subrange(self):
        analyzed, flow = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        source, _ = emit_nest_kernel_source(
            outer, analyzed, flow, use_windows=False
        )
        assert "for _v_I in range(_nlo, _nhi + 1):" in source
        assert "np.arange" not in source

    def test_the_retired_flat_shape_is_refused(self):
        analyzed, flow = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        cache = KernelCache(analyzed, flow)
        with pytest.raises(KernelError, match="unknown nest-kernel variant 'flat'"):
            cache.nest_kernel_for(outer, False, variant="flat")
        assert native_refusal(outer, analyzed, flow, False, "flat") == (
            "unknown nest-kernel variant 'flat'"
        )

    def test_a_team_request_on_the_numpy_tier_serves_the_full_kernel(self):
        analyzed, flow = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        cache = KernelCache(analyzed, flow)
        full = cache.nest_kernel_for(outer, False, tier="numpy")
        assert full is not None
        assert cache.nest_kernel_for(outer, False, tier="numpy") is full
        assert cache.nest_kernel_for(outer, False, variant="team", tier="numpy") is full

    def test_warm_builds_the_full_shape_of_every_loop(self):
        analyzed, flow = _setup(CUBE_SOURCE)
        cache = KernelCache(analyzed, flow)
        cache.warm(False, tier="numpy")
        assert sorted(cache._nests) == sorted(
            (flow.path_of(d), False, "full") for d in flow.loops()
        )

    @pytest.mark.usefixtures("span_cache")
    @pytest.mark.parametrize("strategy", ["vector", "nest"])
    def test_empty_inner_range(self, strategy):
        """A zero-extent inner loop: the nest stores nothing, so neither the
        span nor the nest kernel allocates a target or runs — exactly what
        the reference walk does."""
        analyzed, flow = _setup(SCALE_SOURCE)
        args = {"A": np.zeros((3, 0)), "r": 3, "c": 0}
        expected = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, {"r": 3, "c": 0}, default=strategy
        )
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert (out is None and expected is None) or np.array_equal(out, expected)


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
