"""Collapse-aware planning: flattened DOALL nests with fused flat chunks.

The collapse strategy only ever changes *how* a perfect DOALL chain
executes — one linearized iteration space split into flat chunks, each run
by a chunk-parameterized fused kernel — never what it computes. Covered
here: safety detection, forced-collapse parity on every backend (fused and
per-equation fallback), eval-count exactness, mid-row chunk boundaries,
the flat kernel's emitted shape, and degenerate geometries.
"""

import numpy as np
import pytest

from repro.plan.ir import PlanError
from repro.plan.planner import build_plan, forced_plan, valid_strategies
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache
from repro.runtime.kernels.emit import emit_nest_kernel_source
from repro.schedule.flowchart import (
    collapse_chain,
    loop_collapse_safe,
    split_range,
)
from repro.schedule.scheduler import schedule_module

SCALE_SOURCE = """\
Scale: module (A: array[1 .. r, 1 .. c] of real; r: int; c: int):
       [B: array[1 .. r, 1 .. c] of real];
type
    I = 1 .. r; J = 1 .. c;
define
    B[I, J] = A[I, J] * 2.0 + 1.0;
end Scale;
"""

#: three-deep perfect nest
CUBE_SOURCE = """\
Cube: module (n: int): [B: array[1 .. n, 1 .. n, 1 .. n] of int];
type
    I = 1 .. n; J = 1 .. n; K = 1 .. n;
define
    B[I, J, K] = I * 10000 + J * 100 + K;
end Cube;
"""


def _setup(source, **scalars):
    analyzed = analyze_module(parse_module(source))
    flow = schedule_module(analyzed)
    return analyzed, flow, scalars


def _scale_args(rows, cols, seed=3):
    rng = np.random.default_rng(seed)
    return {"A": rng.random((rows, cols)), "r": rows, "c": cols}


class TestCollapseSafety:
    def test_scale_nest_is_collapse_safe(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        assert loop_collapse_safe(outer, analyzed, flow.windows, False)
        chain, body = collapse_chain(outer)
        assert [loop.index for loop in chain] == ["I", "J"]
        assert len(body) == 1

    def test_single_doall_is_not_collapsible(self):
        analyzed, flow, _ = _setup(
            """\
Vec: module (A: array[1 .. n] of real; n: int):
     [B: array[1 .. n] of real];
type
    I = 1 .. n;
define
    B[I] = A[I] + 1.0;
end Vec;
"""
        )
        loop = next(d for d in flow.loops() if d.parallel)
        assert not loop_collapse_safe(loop, analyzed, flow.windows, False)
        assert "collapse" not in valid_strategies(analyzed, flow, loop)

    def test_forcing_collapse_on_single_doall_raises(self):
        analyzed, flow, _ = _setup(
            """\
Vec: module (A: array[1 .. n] of real; n: int):
     [B: array[1 .. n] of real];
type
    I = 1 .. n;
define
    B[I] = A[I] + 1.0;
end Vec;
"""
        )
        loop = next(d for d in flow.loops() if d.parallel)
        with pytest.raises(PlanError, match="not a collapse-safe"):
            forced_plan(
                analyzed, flow, "threaded",
                overrides={flow.path_of(loop): "collapse"}, cpu_count=4,
            )

    def test_three_deep_chain(self):
        analyzed, flow, _ = _setup(CUBE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        chain, _ = collapse_chain(outer)
        assert [loop.index for loop in chain] == ["I", "J", "K"]
        assert loop_collapse_safe(outer, analyzed, flow.windows, False)


@pytest.mark.usefixtures("pinned_host")
class TestCollapseExecution:
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "threaded"])
    def test_forced_collapse_parity(self, backend):
        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=5, c=67)
        args = _scale_args(5, 67)
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        options = ExecutionOptions(backend=backend, workers=4)
        plan = forced_plan(
            analyzed, flow, backend, options, scalars, default="collapse"
        )
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert np.array_equal(out, expected)

    def test_unfused_collapse_walk_parity(self):
        """With fusion off the flat chunks run the per-equation walk —
        same chunks, per-element reference semantics."""
        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=5, c=67)
        args = _scale_args(5, 67)
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default="collapse"
        )
        for lp in plan.loops.values():
            lp.fuse = False
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert np.array_equal(out, expected)

    def test_three_deep_collapse_parity(self):
        analyzed, flow, scalars = _setup(CUBE_SOURCE, n=7)
        args = {"n": 7}
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default="collapse"
        )
        outer = plan.loops[(0,)]
        assert outer.strategy == "collapse"
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert np.array_equal(out, expected)

    def test_eval_counts_exact(self):
        """Every flat element is computed exactly once across chunks."""
        from repro.runtime.backends import ExecutionBackend
        from repro.runtime.backends.base import ExecutionState
        from repro.runtime.evaluator import Evaluator
        from repro.runtime.values import RuntimeArray

        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=4, c=130)
        args = _scale_args(4, 130)
        options = ExecutionOptions(backend="threaded", workers=8)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default="collapse"
        )
        data = {
            "r": 4, "c": 130,
            "A": RuntimeArray.from_numpy(
                "A", np.asarray(args["A"]), [(1, 4), (1, 130)]
            ),
        }
        state = ExecutionState(
            analyzed, flow, options, data, Evaluator(data),
            kernels=KernelCache(analyzed, flow), plan=plan,
        )
        backend = ExecutionBackend(workers=8)
        try:
            backend.run(state)
        finally:
            backend.close()
        assert state.eval_counts == {"eq.1": 4 * 130}

    def test_chunks_split_mid_row(self):
        """520 elements over 8 workers -> 65-element chunks that cross the
        130-column row boundary; delinearization keeps them disjoint."""
        spans = split_range(0, 4 * 130 - 1, 8)
        assert len(spans) == 8
        assert any(lo % 130 != 0 for lo, _ in spans[1:])

    def test_empty_inner_range(self):
        """A zero-extent inner loop makes the flat space empty — collapse
        must do exactly what the reference walk does (nothing)."""
        analyzed, flow, scalars = _setup(SCALE_SOURCE, r=3, c=0)
        args = {"A": np.zeros((3, 0)), "r": 3, "c": 0}
        expected = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = forced_plan(
            analyzed, flow, "threaded", options, scalars, default="collapse"
        )
        out = execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan
        )["B"]
        assert (out is None and expected is None) or np.array_equal(out, expected)


class TestWalkReentrancy:
    def test_unfused_walk_with_inner_doall_does_not_redispatch(self):
        """A collapse chain whose body holds a further DOALL (imperfect
        below the chain): the unfused flat walk runs inside pool workers,
        so the body DOALL must execute strictly serially — re-entering
        chunk dispatch would block on the already-saturated pool."""
        from repro.runtime.backends import ExecutionBackend
        from repro.runtime.backends.base import ExecutionState
        from repro.runtime.evaluator import Evaluator
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
        # Hand-assemble DOALL I { DOALL J { eq.2, DOALL K { eq.1 } } }:
        # the chain is [I, J]; the K DOALL lands in the chain body.
        import dataclasses

        kloop = dataclasses.replace(loops["K"], body=[eq_nodes["eq.1"]])
        jloop = dataclasses.replace(loops["J"], body=[eq_nodes["eq.2"], kloop])
        iloop = dataclasses.replace(loops["I"], body=[jloop])
        hand = Flowchart(descriptors=[iloop])

        options = ExecutionOptions(backend="threaded", workers=2)
        plan = forced_plan(
            analyzed, hand, "threaded", options, {"n": 6},
            overrides={(0,): "collapse"},
        )
        for lp in plan.loops.values():
            lp.fuse = False
        data = {"n": 6}
        state = ExecutionState(
            analyzed, hand, options, data, Evaluator(data),
            kernels=KernelCache(analyzed, hand), plan=plan,
        )
        backend = ExecutionBackend(workers=2)
        try:
            backend.run(state)
        finally:
            backend.close()
        w = state.data["W"].to_numpy()
        b = state.data["B"].to_numpy()
        for i in range(1, 7):
            for j in range(1, 7):
                assert b[i - 1, j - 1] == i * 10 + j
                for k in range(1, 7):
                    assert w[i - 1, j - 1, k - 1] == (i + j) * k
        assert state.eval_counts == {"eq.1": 6 * 6 * 6, "eq.2": 6 * 6}


class TestFlatKernelSource:
    def test_flat_variant_delinearizes_rows(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        source, _ = emit_nest_kernel_source(
            outer, analyzed, flow, use_windows=False, variant="flat"
        )
        # rows of the flat space, clipped to the chunk at both ends
        assert "_row0, _off0 = divmod(_nlo, _n1)" in source
        assert "for _row in range(_row0, _row1 + 1):" in source
        assert "_v_I = _r + _lo0" in source
        # the innermost chain index runs as a NumPy span
        assert "_v_J = np.arange(_jlo, _jhi + 1)" in source

    def test_three_deep_flat_divmods_middle_index(self):
        analyzed, flow, _ = _setup(CUBE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        source, _ = emit_nest_kernel_source(
            outer, analyzed, flow, use_windows=False, variant="flat"
        )
        assert "_v_J = _r % _n1 + _lo1" in source
        assert "_r //= _n1" in source
        assert "_v_K = np.arange(_jlo, _jhi + 1)" in source

    def test_full_variant_unchanged_shape(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        source, _ = emit_nest_kernel_source(
            outer, analyzed, flow, use_windows=False, variant="full"
        )
        assert "for _v_I in range(_nlo, _nhi + 1):" in source
        assert "_row" not in source

    def test_unknown_variant_rejected(self):
        from repro.runtime.kernels import KernelError

        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        with pytest.raises(KernelError, match="unknown nest-kernel variant"):
            emit_nest_kernel_source(
                outer, analyzed, flow, use_windows=False, variant="diagonal"
            )

    def test_cache_keys_variants_separately(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        outer = next(d for d in flow.loops() if d.parallel)
        cache = KernelCache(analyzed, flow)
        full = cache.nest_kernel_for(outer, False)
        flat = cache.nest_kernel_for(outer, False, variant="flat")
        assert full is not None and flat is not None
        assert full is not flat
        assert cache.nest_kernel_for(outer, False, variant="flat") is flat


class TestPlannerChoice:
    def test_auto_still_prefers_vectorized_small(self):
        """Collapse must not leak into configurations it cannot win."""
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="auto", workers=2),
            {"r": 8, "c": 8}, cpu_count=2,
        )
        assert all(lp.strategy != "collapse" for lp in plan.loops.values())

    def test_collapse_respects_kernels_off(self):
        analyzed, flow, _ = _setup(SCALE_SOURCE)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="threaded", workers=8, use_kernels=False),
            {"r": 4, "c": 4096}, cpu_count=8,
        )
        assert all(lp.strategy != "collapse" for lp in plan.loops.values())
