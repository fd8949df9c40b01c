"""Compiled-kernel parity: the kernel path == the evaluator path, bit for bit.

Every workload is executed with kernels enabled and disabled on every
backend, with and without window storage. Results must be *bit-exact*
(``np.array_equal``): the kernels emit the same operation sequence over the
same storage elements the evaluator touches, so even floating point agrees
exactly. Also covered: boundary ``if`` equations (lazy scalar semantics vs
``np.where`` clipping), the non-kernelizable fallback (module calls, atomic
equations stay on the evaluator), evaluation-count statistics, and the
per-compilation kernel cache.
"""

import numpy as np
import pytest

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.core.pipeline import compile_source
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module, parse_program
from repro.ps.semantics import analyze_module, analyze_program
from repro.runtime.executor import (
    ExecutionOptions,
    execute_module,
    execute_program_module,
)
from repro.runtime.kernels import (
    KernelCache,
    emit_kernel_source,
    kernelizable,
)
from repro.runtime.kernels.runtime import affine_gather, affine_scatter
from repro.runtime.values import RuntimeArray, SelectedLaneClipped
from repro.schedule.scheduler import schedule_module

ALL_BACKENDS = ["serial", "vectorized", "threaded"]

DP_SOURCE = """\
Align: module (CostA: array[1 .. n] of real;
               CostB: array[1 .. n] of real;
               gap: real; n: int):
       [score: real];
type
    I, J = 1 .. n;
var
    D: array [0 .. n, 0 .. n] of real;
define
    D[0] = 0.0;
    D[I, 0] = I * gap;
    D[I, J] = min(D[I-1, J-1] + abs(CostA[I] - CostB[J]),
                  min(D[I-1, J] + gap, D[I, J-1] + gap));
    score = D[n, n];
end Align;
"""

PATHS_INT_SOURCE = """\
Paths: module (n: int): [Y: array[0 .. n] of int];
type
    I = 1 .. n; J = 1 .. n;
var
    W: array [0 .. n, 0 .. n] of int;
define
    W[0] = 1;
    W[I, 0] = 1;
    W[I, J] = W[I-1, J] + W[I, J-1];
    Y = W[n];
end Paths;
"""

#: a per-element call of a loop-free scalar module: the front end inlines it
CALL_PROGRAM_SOURCE = """\
Scale: module (x: real): [y: real]; define y = x * 2.0; end Scale;
Use: module (A: array[1 .. n] of real; n: int): [B: array[1 .. n] of real];
type I = 1 .. n;
define B[I] = Scale(A[I]) + 1.0;
end Use;
"""

#: the same call of a module with a loop of its own: the call stays a call,
#: and its equation stays on the evaluator
KEPT_CALL_PROGRAM_SOURCE = """\
Scale: module (x: real): [y: real];
type K = 1 .. 1;
var P: array [1 .. 1] of real;
define P[K] = x * 2.0; y = P[1];
end Scale;
Use: module (A: array[1 .. n] of real; n: int): [B: array[1 .. n] of real];
type I = 1 .. n;
define B[I] = Scale(A[I]) + 1.0;
end Use;
"""


def _workloads():
    rng = np.random.default_rng(7)
    jac = jacobi_analyzed()
    yield (
        "jacobi",
        jac,
        schedule_module(jac),
        {"InitialA": rng.random((10, 10)), "M": 8, "maxK": 5},
        "newA",
    )
    gs = gauss_seidel_analyzed()
    yield (
        "gauss_seidel",
        gs,
        schedule_module(gs),
        {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4},
        "newA",
    )
    hgs = hyperplane_transform(gauss_seidel_analyzed()).transformed
    yield (
        "hyperplane_gs",
        hgs,
        schedule_module(hgs),
        {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4},
        "newA",
    )
    dp = analyze_module(parse_module(DP_SOURCE))
    yield (
        "dp",
        dp,
        schedule_module(dp),
        {"CostA": rng.random(9), "CostB": rng.random(9), "gap": 0.4, "n": 9},
        "score",
    )
    paths = analyze_module(parse_module(PATHS_INT_SOURCE))
    yield ("paths_int", paths, schedule_module(paths), {"n": 9}, "Y")


WORKLOADS = list(_workloads())


def _options(backend, kernels, use_windows=False):
    return ExecutionOptions(
        backend=backend,
        workers=4,
        use_kernels=kernels,
        use_windows=use_windows,
    )


class TestKernelParity:
    @pytest.mark.parametrize("backend", [*ALL_BACKENDS, "auto"])
    @pytest.mark.parametrize("use_windows", [False, True])
    def test_bit_exact_on_every_workload(self, backend, use_windows):
        for name, analyzed, flow, args, result in WORKLOADS:
            expected = execute_module(
                analyzed, args, flowchart=flow,
                options=_options("serial", kernels=False, use_windows=use_windows),
            )[result]
            got = execute_module(
                analyzed, args, flowchart=flow,
                options=_options(backend, kernels=True, use_windows=use_windows),
            )[result]
            assert np.array_equal(got, expected), (name, backend, use_windows)

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_boundary_if_semantics(self, backend):
        """The Jacobi boundary ``if`` reads out of range in its untaken
        branch: the scalar kernel must stay lazy (never touch it), the
        vector kernel must clip exactly like the ``np.where`` evaluator."""
        analyzed = jacobi_analyzed()
        rng = np.random.default_rng(3)
        args = {"InitialA": rng.random((12, 12)), "M": 10, "maxK": 6}
        off = execute_module(analyzed, args, options=_options(backend, False))
        on = execute_module(analyzed, args, options=_options(backend, True))
        assert np.array_equal(on["newA"], off["newA"])

    def test_out_of_range_error_parity(self):
        """An unguarded out-of-range subscript raises the evaluator's
        ExecutionError on the kernel path too (no silent negative-index
        wrap-around on the reference backend)."""
        from repro.errors import ExecutionError

        src = (
            "T: module (A: array[1 .. n] of real; n: int):"
            " [B: array[1 .. n] of real];\n"
            "type I = 1 .. n;\ndefine B[I] = A[I-1];\nend T;"
        )
        analyzed = analyze_module(parse_module(src))
        args = {"A": np.arange(1.0, 6.0), "n": 5}
        for kernels in (False, True):
            with pytest.raises(ExecutionError, match="out of range"):
                execute_module(
                    analyzed, args, options=_options("serial", kernels)
                )

    def test_eval_counts_match(self):
        """The kernels maintain the same per-equation statistics."""
        from repro.plan.planner import build_plan
        from repro.runtime.backends import ExecutionBackend, ExecutionState

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        rng = np.random.default_rng(5)
        args = {"InitialA": rng.random((7, 7)), "M": 5, "maxK": 4}
        counts = {}
        for kernels in (False, True):
            from repro.runtime.evaluator import Evaluator

            opts = _options("vectorized", kernels)
            data = dict(args)
            data["InitialA"] = RuntimeArray.from_numpy(
                "InitialA", np.asarray(args["InitialA"]), [(0, 6), (0, 6)]
            )
            state = ExecutionState(
                analyzed, flow, opts, data, Evaluator(data),
                build_plan(analyzed, flow, opts, {"M": 5, "maxK": 4}),
                kernels=KernelCache(analyzed, flow) if kernels else None,
            )
            backend = ExecutionBackend()
            try:
                backend.run(state)
            finally:
                backend.close()
            counts[kernels] = state.eval_counts
        assert counts[True] == counts[False]


class TestKernelizability:
    def test_paper_equations_are_kernelizable(self):
        analyzed = jacobi_analyzed()
        for eq in analyzed.equations:
            assert kernelizable(eq, analyzed)

    def test_module_calls_are_not(self):
        program = analyze_program(parse_program(KEPT_CALL_PROGRAM_SOURCE))
        use = program["Use"]
        eq = use.equations[0]
        assert not kernelizable(eq, use)
        cache = KernelCache(use, schedule_module(use))
        assert cache.kernel_for(eq, vector=True, use_windows=False) is None

    def test_module_call_fallback_is_exact(self):
        """Non-kernelizable equations run on the evaluator and still agree."""
        program = analyze_program(parse_program(KEPT_CALL_PROGRAM_SOURCE))
        rng = np.random.default_rng(11)
        args = {"A": rng.random(6), "n": 6}
        off = execute_program_module(
            program, "Use", args, options=_options("vectorized", False)
        )
        on = execute_program_module(
            program, "Use", args, options=_options("vectorized", True)
        )
        assert np.array_equal(on["B"], off["B"])

    def test_emitted_source_is_stable(self):
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        eq = analyzed.equations[2]
        a, _ = emit_kernel_source(eq, analyzed, flow, vector=True, use_windows=False)
        b, _ = emit_kernel_source(eq, analyzed, flow, vector=True, use_windows=False)
        assert a == b
        assert "np.where" in a
        s, _ = emit_kernel_source(eq, analyzed, flow, vector=False, use_windows=False)
        assert " if " in s and "np.where" not in s  # lazy reference semantics


class TestKernelCache:
    def test_compile_result_reuses_cache(self):
        from repro.core.paper import RELAXATION_JACOBI_SOURCE

        result = compile_source(RELAXATION_JACOBI_SOURCE)
        rng = np.random.default_rng(2)
        args = {"InitialA": rng.random((6, 6)), "M": 4, "maxK": 3}
        r1 = result.run(args)
        stats = result.kernel_cache.stats()
        assert stats["compiled"] > 0
        r2 = result.run(args, ExecutionOptions.resolve(backend="serial"))
        # Same cache object, no growth beyond the two variants per equation.
        assert result.kernel_cache.stats()["entries"] >= stats["entries"]
        assert np.array_equal(r1["newA"], r2["newA"])

    def test_non_kernelizable_is_cached_as_none(self):
        program = analyze_program(parse_program(KEPT_CALL_PROGRAM_SOURCE))
        use = program["Use"]
        cache = KernelCache(use, schedule_module(use))
        eq = use.equations[0]
        assert cache.kernel_for(eq, True, False) is None
        assert cache.kernel_for(eq, True, False) is None
        assert cache.stats() == {
            "entries": 1, "compiled": 0, "nests": 0, "native": 0,
            "tus": 0, "cc_calls": 0, "range_proven": 0, "range_unproven": 0,
        }

    def test_callee_runtime_is_memoized_across_calls(self):
        """Module calls reuse one schedule + kernel cache per callee —
        a per-element call must not re-schedule or re-compile anything."""
        program = analyze_program(parse_program(KEPT_CALL_PROGRAM_SOURCE))
        rng = np.random.default_rng(4)
        args = {"A": rng.random(8), "n": 8}
        execute_program_module(
            program, "Use", args, options=_options("serial", True)
        )
        memo = program._runtime_memo
        entry = memo["Scale"]
        assert entry[1].stats()["compiled"] >= 1
        execute_program_module(
            program, "Use", args, options=_options("serial", True)
        )
        assert memo["Scale"] is entry  # same flowchart + cache, no rebuild

    def test_use_kernels_off_matches_default(self):
        analyzed = jacobi_analyzed()
        rng = np.random.default_rng(9)
        args = {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4}
        on = execute_module(analyzed, args, options=ExecutionOptions())
        off = execute_module(
            analyzed, args, options=ExecutionOptions(use_kernels=False)
        )
        assert np.array_equal(on["newA"], off["newA"])


class TestAffineHelpers:
    """The slice-based fast paths against the evaluator's own gather."""

    def test_gather_matches_clipped_get(self):
        rng = np.random.default_rng(0)
        dense = rng.random((5, 7))
        arr = RuntimeArray.from_numpy("A", dense, [(2, 6), (-3, 3)])
        i = np.arange(1, 8)[:, None]  # deliberately out of range both ends
        j = np.arange(-4, 3)
        expected = arr.get([np.clip(i, 2, 6), np.clip(j - 1, -3, 3)], clip=True)
        got = affine_gather(arr, ((i, 0), (j, -1)), clip=True)
        assert np.array_equal(got, expected)
        assert got.shape == expected.shape

    def test_gather_out_of_range_raises_unless_clipped(self):
        """An unguarded read is live on every lane: it raises like ``get``."""
        from repro.errors import ExecutionError

        arr = RuntimeArray.from_numpy("A", np.arange(3.0), [(0, 2)])
        with pytest.raises(ExecutionError, match="out of range"):
            affine_gather(arr, ((np.arange(0, 3), 1),))
        with pytest.raises(ExecutionError, match="out of range"):
            affine_gather(arr, ((5, 0),))
        assert np.array_equal(affine_gather(arr, ((np.arange(0, 3), 1),), clip=True), [1, 2, 2])

    def test_guarded_gather_raises_only_on_a_selected_clipped_lane(self):
        """Guards name the lanes a branch selects: a clipped lane among
        them raises, like ``get`` under the same guards; a clipped lane
        outside them is clipped as before."""
        arr = RuntimeArray.from_numpy("A", np.arange(3.0), [(0, 2)])
        i = np.arange(0, 3)
        for cond, selected, raises in [
            (i > 1, True, True), (i < 2, False, True),
            (i < 2, True, False), (i > 1, False, False),
        ]:
            guards = ((cond, selected),)
            if raises:
                with pytest.raises(SelectedLaneClipped):
                    affine_gather(arr, ((i, 1),), clip=guards)
                with pytest.raises(SelectedLaneClipped):
                    arr.get([i + 1], clip=guards)
            else:
                assert np.array_equal(affine_gather(arr, ((i, 1),), clip=guards), [1, 2, 2])
                assert np.array_equal(arr.get([i + 1], clip=guards), [1, 2, 2])
        # a scalar subscript clips every lane
        with pytest.raises(SelectedLaneClipped):
            affine_gather(arr, ((5, 0),), clip=((i > 1, True),))
        assert affine_gather(arr, ((5, 0),), clip=((i > 5, True),)) == 2

    def test_gather_scalar_axes(self):
        rng = np.random.default_rng(1)
        dense = rng.random((4, 6))
        arr = RuntimeArray.from_numpy("A", dense, [(0, 3), (0, 5)])
        j = np.arange(0, 6)
        expected = arr.get([2, j], clip=True)
        got = affine_gather(arr, ((2, 0), (j, 0)))
        assert np.array_equal(got, expected)

    def test_scatter_matches_set(self):
        rng = np.random.default_rng(2)
        a1 = RuntimeArray.from_numpy("A", np.zeros((4, 5)), [(1, 4), (0, 4)])
        a2 = RuntimeArray.from_numpy("A", np.zeros((4, 5)), [(1, 4), (0, 4)])
        i = np.arange(1, 5)[:, None]
        j = np.arange(0, 5)
        value = rng.random((4, 5))
        a1.set([i, j], value)
        affine_scatter(a2, ((i, 0), (j, 0)), value)
        assert np.array_equal(a1.storage, a2.storage)

    def test_scatter_out_of_range_raises(self):
        from repro.errors import ExecutionError

        arr = RuntimeArray.from_numpy("A", np.zeros((3,)), [(0, 2)])
        with pytest.raises(ExecutionError, match="out of range"):
            affine_scatter(arr, ((np.arange(0, 3), 1),), np.ones(3))
        with pytest.raises(ExecutionError, match="out of range"):
            affine_scatter(arr, ((5, 0),), 1.0)


class TestSharedLowering:
    def test_every_kernel_dialect_shares_the_lowerer(self):
        """The Python and C dialects must subclass the one expression walk."""
        from repro.codegen.clower import CExprLowerer
        from repro.codegen.exprlower import ExprLowerer
        from repro.runtime.kernels.emit import _ScalarLowerer, _VectorLowerer

        assert issubclass(CExprLowerer, ExprLowerer)
        assert issubclass(_ScalarLowerer, ExprLowerer)
        assert issubclass(_VectorLowerer, ExprLowerer)
