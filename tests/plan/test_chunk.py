"""Chunked DOALLs: the one way a plan divides a loop among workers.

The ``chunk`` strategy only ever changes *how* a DOALL executes — its root
subrange split into contiguous chunks, each one call of the loop's
``"full"`` kernel (or a NumPy vector span where no kernel builds) — never
what it computes. Covered here: forced-chunk parity on every plan label
(fused and unfused), two- and three-deep nests, eval-count exactness,
uneven splits, empty ranges, pool re-entrancy, the kernel shapes a chunk
asks the cache for, and the retired ``"flat"`` shape's refusal.
"""

import numpy as np
import pytest

from repro.plan.planner import forced_plan, valid_strategies
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, KernelError
from repro.runtime.kernels.emit import emit_nest_kernel_source
from repro.runtime.kernels.native import native_refusal
from repro.schedule.flowchart import split_range
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_dispatch import SCALE_SOURCE, _scale_args, _setup

#: three-deep perfect nest
CUBE_SOURCE = """\
Cube: module (n: int): [B: array[1 .. n, 1 .. n, 1 .. n] of int];
type
    I = 1 .. n; J = 1 .. n; K = 1 .. n;
define
    B[I, J, K] = I * 10000 + J * 100 + K;
end Cube;
"""

VEC_SOURCE = """\
Vec: module (A: array[1 .. n] of real; n: int):
     [B: array[1 .. n] of real];
type
    I = 1 .. n;
define
    B[I] = A[I] + 1.0;
end Vec;
"""


def _reference(analyzed, flow, args, result="B"):
    return execute_module(
        analyzed, dict(args), flowchart=flow,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )[result]


def _run_counted(analyzed, flow, options, plan, data):
    """Run ``plan`` on a bare engine and return the execution state."""
    from repro.runtime.backends import ExecutionBackend
    from repro.runtime.backends.base import ExecutionState
    from repro.runtime.evaluator import Evaluator

    state = ExecutionState(
        analyzed, flow, options, data, Evaluator(data),
        kernels=KernelCache(analyzed, flow), plan=plan,
    )
    backend = ExecutionBackend(workers=options.workers)
    try:
        backend.run(state)
    finally:
        backend.close()
    return state


class TestChunkSafety:
    def test_both_levels_of_a_perfect_nest_chunk(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        for loop in flow.loops():
            assert "chunk" in valid_strategies(analyzed, flow, loop)

    def test_a_doall_offers_the_four_strategies(self):
        analyzed, flow, _ = _setup(VEC_SOURCE)
        (loop,) = flow.loops()
        assert valid_strategies(analyzed, flow, loop) == [
            "serial", "vector", "nest", "chunk",
        ]


@pytest.mark.usefixtures("pinned_host")
class TestChunkExecution:
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "threaded"])
    def test_forced_chunk_parity(self, backend):
        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=5, c=67)
        args = _scale_args(5, 67)
        options = ExecutionOptions(backend=backend, workers=4)
        plan = forced_plan(
            analyzed, flow, backend, options, scalars, default="chunk"
        )
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert np.array_equal(out, _reference(analyzed, flow, args))

    def test_unfused_chunk_parity(self):
        """With fusion off every chunk runs a NumPy vector span — same
        chunks, no kernel."""
        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=5, c=67)
        args = _scale_args(5, 67)
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default="chunk"
        )
        for lp in plan.loops.values():
            lp.fuse = False
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert np.array_equal(out, _reference(analyzed, flow, args))

    def test_three_deep_chunk_parity(self):
        analyzed, flow, scalars = _setup(CUBE_SOURCE, n=7)
        args = {"n": 7}
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default="chunk"
        )
        assert plan.loops[(0,)].strategy == "chunk"
        assert plan.loops[(0,)].parts == 4
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert np.array_equal(out, _reference(analyzed, flow, args))

    def test_eval_counts_exact(self):
        """Every element is computed exactly once across the chunks."""
        from repro.runtime.values import RuntimeArray

        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=4, c=130)
        args = _scale_args(4, 130)
        options = ExecutionOptions(backend="threaded", workers=8)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default="chunk"
        )
        data = {
            "r": 4, "c": 130,
            "A": RuntimeArray.from_numpy(
                "A", np.asarray(args["A"]), [(1, 4), (1, 130)]
            ),
        }
        state = _run_counted(analyzed, flow, options, plan, data)
        assert state.eval_counts == {"eq.1": 4 * 130}

    def test_rows_split_unevenly(self):
        """10 rows over 4 workers: 3/3/2/2, each row in exactly one
        chunk."""
        spans = split_range(1, 10, 4)
        assert spans == [(1, 3), (4, 6), (7, 8), (9, 10)]

    @pytest.mark.parametrize("strategy", ["chunk", "nest"])
    def test_empty_inner_range(self, strategy):
        """A zero-extent inner loop: the nest stores nothing, so neither the
        chunk nor the nest kernel allocates a target or runs — exactly what
        the reference walk does."""
        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=3, c=0)
        args = {"A": np.zeros((3, 0)), "r": 3, "c": 0}
        expected = _reference(analyzed, flow, args)
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default=strategy
        )
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert (out is None and expected is None) or np.array_equal(out, expected)


@pytest.mark.usefixtures("pinned_host")
class TestChunkAtEveryDepth:
    @pytest.mark.parametrize("depth", [0, 1, 2], ids=["I", "J", "K"])
    def test_one_chunked_loop_of_a_three_deep_nest(self, depth):
        """What ``collapse`` used to flatten, ``chunk`` divides at any one
        level: the loops above it walk (one wavefront per iteration), the
        ones below run inside each chunk. Bit-exact, every element
        evaluated once."""
        analyzed, flow, scalars = _setup(CUBE_SOURCE, n=5)
        path = (0,) + (0,) * depth
        options = ExecutionOptions(backend="threaded", workers=3)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars,
            default="serial", overrides={path: "chunk"},
        )
        assert [lp.strategy for lp in plan.loops.values()][: depth + 1] == (
            ["serial"] * depth + ["chunk"]
        )
        state = _run_counted(analyzed, flow, options, plan, {"n": 5})
        assert state.eval_counts == {"eq.1": 5 ** 3}
        assert np.array_equal(
            state.data["B"].to_numpy(), _reference(analyzed, flow, {"n": 5})
        )


class TestSpanReentrancy:
    def test_unfused_chunk_with_inner_doall_does_not_redispatch(self):
        """A chunked DOALL whose body holds a further DOALL beside an
        equation: the unfused chunk runs a vector span inside pool workers,
        so the body DOALL must broadcast inside it — re-entering chunk
        dispatch would block on the already-saturated pool."""
        import dataclasses

        from repro.schedule.flowchart import Flowchart, NodeDescriptor

        src = """\
Mix: module (n: int): [B: array[1 .. n, 1 .. n] of int;
                       W: array[1 .. n, 1 .. n, 1 .. n] of int];
type
    I = 1 .. n; J = 1 .. n; K = 1 .. n;
define
    W[I, J, K] = (I + J) * K;
    B[I, J] = I * 10 + J;
end Mix;
"""
        analyzed = analyze_module(parse_module(src))
        flow = schedule_module(analyzed)
        loops = {d.index: d for d in flow.loops()}
        eq_nodes = {
            d.node.equation.label: d
            for d in flow.walk()
            if isinstance(d, NodeDescriptor) and d.node.is_equation
        }
        # Hand-assemble DOALL I { DOALL J { eq.2, DOALL K { eq.1 } } }.
        kloop = dataclasses.replace(loops["K"], body=[eq_nodes["eq.1"]])
        jloop = dataclasses.replace(loops["J"], body=[eq_nodes["eq.2"], kloop])
        iloop = dataclasses.replace(loops["I"], body=[jloop])
        hand = Flowchart(descriptors=[iloop])

        options = ExecutionOptions(backend="threaded", workers=2)
        plan = forced_plan(
            analyzed, hand, "threaded", options, {"n": 6},
            overrides={(0,): "chunk"},
        )
        for lp in plan.loops.values():
            lp.fuse = False
        state = _run_counted(analyzed, hand, options, plan, {"n": 6})
        w = state.data["W"].to_numpy()
        b = state.data["B"].to_numpy()
        for i in range(1, 7):
            for j in range(1, 7):
                assert b[i - 1, j - 1] == i * 10 + j
                for k in range(1, 7):
                    assert w[i - 1, j - 1, k - 1] == (i + j) * k
        assert state.eval_counts == {"eq.1": 6 * 6 * 6, "eq.2": 6 * 6}


class TestChunkKernels:
    def test_the_python_nest_kernel_loops_over_the_root_subrange(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        source, _ = emit_nest_kernel_source(
            outer, analyzed, flow, use_windows=False
        )
        assert "for _v_I in range(_nlo, _nhi + 1):" in source
        assert "np.arange" not in source

    def test_the_retired_flat_shape_is_refused(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        cache = KernelCache(analyzed, flow)
        with pytest.raises(KernelError, match="unknown nest-kernel variant 'flat'"):
            cache.nest_kernel_for(outer, False, variant="flat")
        assert native_refusal(outer, analyzed, flow, False, "flat") == (
            "unknown nest-kernel variant 'flat'"
        )

    def test_a_team_request_on_a_doall_serves_its_full_kernel(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        cache = KernelCache(analyzed, flow)
        full = cache.nest_kernel_for(outer, False, tier="numpy")
        assert full is not None
        assert cache.nest_kernel_for(outer, False, tier="numpy") is full
        assert cache.nest_kernel_for(outer, False, variant="team", tier="numpy") is full

    def test_warm_builds_the_full_shape_of_every_loop(self):
        analyzed, flow, _ = _setup(CUBE_SOURCE)
        cache = KernelCache(analyzed, flow)
        cache.warm(False, tier="numpy")
        assert sorted(cache._nests) == sorted(
            (flow.path_of(d), False, "full") for d in flow.loops()
        )
