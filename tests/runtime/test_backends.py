"""Backend-label parity: serial == vectorized == threaded == auto.

Every workload is executed under a serial reference plan and under each of
the other plan labels (at four workers), with and without window storage,
on the one execution engine. Integer results must be bit-exact;
floating-point results must agree to within a tight tolerance
(element-wise expressions evaluate the same tree per element, so they are
in practice bit-exact too).
"""

import threading

import numpy as np
import pytest

import repro
from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.errors import ExecutionError
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module

#: the parallel backends, and ``auto``: whatever the planner picks per loop
#: must agree with the serial reference too
PARALLEL_BACKENDS = ["vectorized", "threaded", "auto"]

#: registry names that were retired (the pool of forked workers over shared
#: memory, the fork-per-wavefront pool and the thread pool's second name),
#: the last two built from parts so no live code spells them
RETIRED_BACKENDS = [
    "process", "-".join(("process", "fork")), "-".join(("free", "threading")),
]
SURVIVORS = "serial, vectorized, threaded"

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
    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_retired_name_fails_loudly_naming_the_survivors(self, name):
        from repro.plan.planner import build_plan
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        with pytest.raises(ExecutionError, match="unknown execution backend") as exc:
            build_plan(
                analyzed, schedule_module(analyzed),
                ExecutionOptions(backend=name), {"M": 4, "maxK": 3},
            )
        assert str(exc.value).endswith(f"available: {SURVIVORS}")

    def test_unknown_backend_raises(self):
        from repro.plan.planner import build_plan
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        with pytest.raises(ExecutionError, match="unknown execution backend 'gpu'"):
            build_plan(
                analyzed, schedule_module(analyzed),
                ExecutionOptions(backend="gpu"), {"M": 4, "maxK": 3},
            )

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


    def test_one_engine_runs_every_label(self):
        """One engine runs Jacobi under a ``serial``, a ``vectorized`` and a
        ``threaded`` plan: every output is bit-equal to the evaluator, and
        no run starts a Python thread — a team's threads live inside its
        C call."""
        from repro.plan.planner import build_plan
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        m, maxk = 16, 4
        sizes = {"M": m, "maxK": maxk}
        rng = np.random.default_rng(16)
        args = {"InitialA": rng.random((m + 2, m + 2)), **sizes}
        ref = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(backend="serial", use_kernels=False),
        )["newA"]
        runs = []
        for label in ("serial", "vectorized", "threaded"):
            options = ExecutionOptions(backend=label, workers=2)
            runs.append((options, build_plan(analyzed, flow, options, sizes)))
        before = set(threading.enumerate())
        engine = ExecutionBackend()
        try:
            for options, plan in runs:
                out = execute_module(
                    analyzed, dict(args), flow, options, plan=plan, backend=engine
                )
                assert np.array_equal(out["newA"], ref), plan.backend
                assert set(threading.enumerate()) <= before
        finally:
            engine.close()


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
    """The parallel labels must agree with serial whatever the worker
    count, including more workers than iterations."""

    @pytest.mark.parametrize("backend", ["threaded", "auto"])
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
        """A ``threaded`` plan at four workers counts every element
        evaluation exactly once."""
        from repro.plan.planner import build_plan
        from repro.runtime.backends import ExecutionState
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
            analyzed, flowchart, options, data, Evaluator(data),
            build_plan(analyzed, flowchart, options, {"M": m, "maxK": maxk}),
        )
        backend = ExecutionBackend()
        try:
            backend.run(state)
        finally:
            backend.close()
        # eq.3 evaluates every grid point of every iteration exactly once.
        assert state.eval_counts["eq.3"] == (maxk - 1) * (m + 2) * (m + 2)


class TestWindowDebugWalk:
    @staticmethod
    def _walked(m, maxk):
        """Jacobi planned on the tag-checking walk everywhere, and its
        sweep (the ``DOALL`` inside ``DO K``)."""
        from repro.plan.planner import forced_plan
        from repro.schedule.flowchart import LoopDescriptor
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        options = ExecutionOptions(
            backend="threaded", workers=4, use_windows=True, debug_windows=True,
        )
        do_k = next(
            d for d in flow.descriptors
            if isinstance(d, LoopDescriptor) and not d.parallel
        )
        plan = forced_plan(
            analyzed, flow, "threaded", options, {"M": m, "maxK": maxk},
            default="serial",
        )
        return analyzed, flow, options, plan, do_k.body[0]

    def test_runs_twice_on_one_backend(self):
        """A window-debug run checks and stamps the fault-on-overwrite tags
        on the walk; a second run on the same instance matches ``serial``
        bit for bit too."""
        m, maxk = 8, 6
        analyzed, flow, options, plan, _sweep = self._walked(m, maxk)
        backend = ExecutionBackend()
        try:
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
                ref = execute_module(analyzed, dict(args), options=options_for("serial"))
                out = execute_module(
                    analyzed, dict(args), flow, options, plan=plan, backend=backend
                )
                assert np.array_equal(out["newA"], ref["newA"]), seed
        finally:
            backend.close()

    def test_a_poisoned_tag_is_caught_on_the_walk(self):
        """A clean run first; then, before each sweep, every plane of ``A``
        is marked overwritten: the walk reads ``A[K-1]`` under the boundary
        ``if`` and must report the window violation."""
        m, maxk = 4, 4
        analyzed, flow, options, plan, sweep = self._walked(m, maxk)
        rng = np.random.default_rng(0)
        args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
        ref = execute_module(analyzed, dict(args), options=options_for("serial"))
        backend = ExecutionBackend()
        poison, sweeps = [], []
        walk = backend.exec_sequential_loop

        def spy(state, desc, lo, hi, env, vector_names):
            if desc is sweep:
                sweeps.append(lo)
                if poison:
                    state.data["A"].tags[...] = -1
            walk(state, desc, lo, hi, env, vector_names)

        backend.exec_sequential_loop = spy
        try:
            out = execute_module(
                analyzed, dict(args), flow, options, plan=plan, backend=backend
            )
            assert np.array_equal(out["newA"], ref["newA"])
            poison.append(True)
            with pytest.raises(ExecutionError, match="window violation"):
                execute_module(
                    analyzed, dict(args), flow, options, plan=plan, backend=backend
                )
        finally:
            backend.close()
        # one sweep per K = 2 .. maxK, then the poisoned run's first
        assert len(sweeps) == maxk
