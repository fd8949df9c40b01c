"""Backend parity: serial == vectorized == threaded == process.

Every workload is executed on the serial reference backend and on each of
the other backends (with enough workers to force real chunking), with and
without window storage. Integer results must be bit-exact; floating-point
results must agree to within a tight tolerance (element-wise expressions
evaluate the same tree per element, so they are in practice bit-exact too).
"""

import numpy as np
import pytest

import repro
from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.errors import ExecutionError
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends import available_backends, instantiate_backend
from repro.runtime.executor import ExecutionOptions, execute_module

PARALLEL_BACKENDS = ["vectorized", "threaded", "process"]

#: Needleman-Wunsch-style DP table (the wavefront example module).
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

#: Integer lattice-path counts: bit-exactness is meaningful here.
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


def options_for(backend: str, use_windows: bool = False) -> ExecutionOptions:
    return ExecutionOptions(
        backend=backend,
        workers=4,
        use_windows=use_windows,
        debug_windows=use_windows,
    )


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == [
            "free-threading", "process", "process-fork", "serial",
            "threaded", "vectorized",
        ]

    def test_unknown_backend_raises(self):
        with pytest.raises(ExecutionError, match="unknown execution backend"):
            instantiate_backend("gpu")

    def test_unknown_backend_raises_at_execution(self):
        with pytest.raises(ExecutionError, match="unknown execution backend"):
            execute_module(
                jacobi_analyzed(),
                {"InitialA": np.zeros((3, 3)), "M": 1, "maxK": 2},
                options=ExecutionOptions(backend="gpu"),
            )


class TestJacobiParity:
    """The quickstart workload: the paper's Figure-1 Relaxation module."""

    @pytest.fixture(scope="class")
    def setup(self):
        analyzed = jacobi_analyzed()
        m, maxk = 8, 6
        rng = np.random.default_rng(42)
        args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
        ref = execute_module(analyzed, args, options=options_for("serial"))
        return analyzed, args, ref

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("use_windows", [False, True])
    def test_matches_serial(self, setup, backend, use_windows):
        analyzed, args, ref = setup
        out = execute_module(
            analyzed, args, options=options_for(backend, use_windows)
        )
        np.testing.assert_allclose(
            out["newA"], ref["newA"], rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_quickstart_pipeline_run(self, backend):
        """The compile-then-run path used by examples/quickstart.py."""
        result = repro.compile_source(repro.RELAXATION_JACOBI_SOURCE)
        m, maxk = 6, 5
        rng = np.random.default_rng(0)
        args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
        ref = result.run(args, ExecutionOptions.resolve(backend="serial"))
        out = result.run(
            args, ExecutionOptions.resolve(backend=backend, workers=4)
        )
        np.testing.assert_allclose(
            out["newA"], ref["newA"], rtol=1e-12, atol=1e-12
        )


class TestGaussSeidelParity:
    """The fully iterative Figure-7 schedule (no DOALLs to chunk) and its
    hyperplane-transformed wavefront variant."""

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("use_windows", [False, True])
    def test_naive_schedule(self, backend, use_windows):
        analyzed = gauss_seidel_analyzed()
        m, maxk = 5, 4
        rng = np.random.default_rng(7)
        args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
        ref = execute_module(analyzed, args, options=options_for("serial"))
        out = execute_module(
            analyzed, args, options=options_for(backend, use_windows)
        )
        np.testing.assert_allclose(
            out["newA"], ref["newA"], rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_hyperplane_wavefronts(self, backend):
        """After the section-4 transformation the schedule has real DOALL
        wavefronts; every backend must agree on them."""
        res = hyperplane_transform(gauss_seidel_analyzed())
        m, maxk = 6, 5
        rng = np.random.default_rng(3)
        args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
        ref = execute_module(res.transformed, args, options=options_for("serial"))
        out = execute_module(res.transformed, args, options=options_for(backend))
        np.testing.assert_allclose(
            out["newA"], ref["newA"], rtol=1e-12, atol=1e-12
        )


class TestWavefrontDPParity:
    """The wavefront example module (Needleman-Wunsch DP)."""

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_dp_score(self, backend):
        analyzed = analyze_module(parse_module(DP_SOURCE))
        rng = np.random.default_rng(11)
        n = 10
        args = {
            "CostA": rng.random(n),
            "CostB": rng.random(n),
            "gap": 0.45,
            "n": n,
        }
        ref = execute_module(analyzed, args, options=options_for("serial"))
        out = execute_module(analyzed, args, options=options_for(backend))
        assert out["score"] == pytest.approx(ref["score"], abs=1e-12)


class TestIntegerBitExact:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_lattice_paths_bit_exact(self, backend):
        analyzed = analyze_module(parse_module(PATHS_INT_SOURCE))
        ref = execute_module(analyzed, {"n": 12}, options=options_for("serial"))
        out = execute_module(analyzed, {"n": 12}, options=options_for(backend))
        assert out["Y"].dtype == ref["Y"].dtype == np.int64
        np.testing.assert_array_equal(out["Y"], ref["Y"])
        # C(24, 12) — the recurrence really ran.
        assert out["Y"][-1] == 2704156


class TestChunkedExecution:
    """The chunked backends must agree with serial whatever the worker
    count, including degenerate splits (more workers than iterations)."""

    @pytest.mark.parametrize("backend", ["threaded", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 16])
    def test_worker_counts(self, backend, workers):
        analyzed = jacobi_analyzed()
        m, maxk = 6, 4
        rng = np.random.default_rng(1)
        args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
        ref = execute_module(analyzed, args, options=options_for("serial"))
        out = execute_module(
            analyzed,
            args,
            options=ExecutionOptions(backend=backend, workers=workers),
        )
        np.testing.assert_allclose(
            out["newA"], ref["newA"], rtol=1e-12, atol=1e-12
        )

    def test_eval_counts_preserved_across_chunks(self):
        """Worker chunks report their element-evaluation statistics back."""
        from repro.runtime.backends.base import ExecutionState
        from repro.runtime.backends.threaded import ThreadedBackend
        from repro.runtime.evaluator import Evaluator
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        flowchart = schedule_module(analyzed)
        m, maxk = 6, 4
        rng = np.random.default_rng(2)
        initial = rng.random((m + 2, m + 2))
        from repro.runtime.values import RuntimeArray

        data = {
            "M": m,
            "maxK": maxk,
            "InitialA": RuntimeArray.from_numpy(
                "InitialA", initial, [(0, m + 1), (0, m + 1)]
            ),
        }
        options = ExecutionOptions(backend="threaded", workers=4)
        state = ExecutionState(
            analyzed, flowchart, options, data, Evaluator(data)
        )
        backend = ThreadedBackend(workers=4)
        try:
            backend.run(state)
        finally:
            backend.close()
        # eq.3 evaluates every grid point of every iteration exactly once.
        assert state.eval_counts["eq.3"] == (maxk - 1) * (m + 2) * (m + 2)
