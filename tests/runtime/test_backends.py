"""Backend-label parity: serial == vectorized == threaded == auto.

Every workload is executed under a serial reference plan and under each of
the other plan labels (with enough workers to force real chunking), with
and without window storage, on the one execution engine. Integer results
must be bit-exact; floating-point results must agree to within a tight
tolerance (element-wise expressions evaluate the same tree per element, so
they are in practice bit-exact too).
"""

import threading
import time

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
        ``threaded`` plan, then a ``threaded`` plan with ``chunk`` forced:
        every output is bit-equal to the evaluator, and the pool starts
        only for the ``threaded`` plan that sends it chunks."""
        from repro.plan.planner import build_plan, forced_plan
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
        options = ExecutionOptions(backend="threaded", workers=2)
        chunked = forced_plan(analyzed, flow, "threaded", options, sizes, default="chunk")
        assert "chunk" in {s for _, s in chunked.strategies()}
        runs.append((options, chunked))
        engine = ExecutionBackend(workers=2)
        pools = []
        try:
            for options, plan in runs:
                out = execute_module(
                    analyzed, dict(args), flow, options, plan=plan, backend=engine
                )
                assert np.array_equal(out["newA"], ref), plan.backend
                pools.append(engine._pool)
        finally:
            engine.close()
        assert pools[:2] == [None, None]
        assert pools[3] is not None


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

    @pytest.mark.parametrize("case", ["serial-chunk", "callee"])
    def test_only_a_threaded_plan_starts_the_pool(self, monkeypatch, case):
        """A ``chunk`` forced onto a ``serial`` plan runs its wavefronts
        inline, and so does a module call's callee, whose plan is never
        ``threaded``: no engine builds a pool, no ``repro-doall`` thread
        starts, and the results are the evaluator's."""
        from repro.plan.planner import forced_plan
        from repro.ps.parser import parse_program
        from repro.ps.semantics import analyze_program
        from repro.schedule.scheduler import schedule_module

        from tests.runtime.test_module_call_kernels import PROGRAM

        pools = []
        ensure_pool = ExecutionBackend._ensure_pool

        def spy(self):
            pools.append(self)
            return ensure_pool(self)

        monkeypatch.setattr(ExecutionBackend, "_ensure_pool", spy)
        options = ExecutionOptions(backend="serial", workers=2)
        if case == "serial-chunk":
            program, analyzed, out = None, jacobi_analyzed(), "newA"
            sizes = {"M": 8, "maxK": 4}
            args = {"InitialA": np.random.default_rng(8).random((10, 10)), **sizes}
        else:
            program = analyze_program(parse_program(PROGRAM))
            analyzed, out = program["Grid"], "B"
            sizes = {"n": 12}
            args = {"A": np.random.default_rng(12).random((12, 12)), "base": 0.5, **sizes}
        flow = schedule_module(analyzed)
        plan = forced_plan(analyzed, flow, "serial", options, sizes, default="chunk")
        assert "chunk" in {s for _, s in plan.strategies()}
        ref = execute_module(
            analyzed, dict(args), flow,
            ExecutionOptions(backend="serial", use_kernels=False), program=program,
        )
        before = {t for t in threading.enumerate() if t.name.startswith("repro-doall")}
        engine = ExecutionBackend(workers=2)
        try:
            got = execute_module(
                analyzed, dict(args), flow, options, plan=plan, backend=engine,
                program=program,
            )
            assert engine._pool is None
        finally:
            engine.close()
        after = {t for t in threading.enumerate() if t.name.startswith("repro-doall")}
        assert pools == [] and after <= before
        assert np.array_equal(got[out], ref[out])

    def test_eval_counts_preserved_across_chunks(self):
        """Worker chunks report their element-evaluation statistics back."""
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
        backend = ExecutionBackend(workers=4)
        try:
            backend.run(state)
        finally:
            backend.close()
        # eq.3 evaluates every grid point of every iteration exactly once.
        assert state.eval_counts["eq.3"] == (maxk - 1) * (m + 2) * (m + 2)


#: one DOALL, two chunks at two workers: [1, 32] and [33, 64]
DOUBLE_SOURCE = """\
Double: module (X: array[1 .. n] of real; n: int): [Y: array[1 .. n] of real];
type
    I = 1 .. n;
define
    Y[I] = X[I] * 2.0;
end Double;
"""


class _SlowSiblingBackend(ExecutionBackend):
    """While armed, chunk 0 fails at once as it reaches its kernel, and
    chunk 1 finishes 0.2 s later, setting ``sibling_done``."""

    def __init__(self, workers=None):
        super().__init__(workers)
        self.armed = True
        self.sibling_done = threading.Event()

    def _run_loop_kernel(self, state, desc, shape, env, lo, hi, numpy=True):
        if self.armed:
            if lo == 1:
                raise RuntimeError("chunk 0 failed")
            time.sleep(0.2)
            self.sibling_done.set()
        return super()._run_loop_kernel(state, desc, shape, env, lo, hi, numpy)


class TestOneJoin:
    def test_a_failed_wave_joins_every_chunk_before_raising(self):
        """The first failure is re-raised only after its sibling chunks
        finished, so nothing of a failed run is left on the pool; the same
        instance then runs bit-equal to the evaluator."""
        from repro.plan.planner import forced_plan
        from repro.schedule.scheduler import schedule_module

        analyzed = analyze_module(parse_module(DOUBLE_SOURCE))
        flow = schedule_module(analyzed)
        options = ExecutionOptions(backend="threaded", workers=2)
        plan = forced_plan(analyzed, flow, "threaded", options, {"n": 64}, default="chunk")
        args = {"X": np.random.default_rng(5).random(64), "n": 64}
        ref = execute_module(
            analyzed, dict(args),
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )
        backend = _SlowSiblingBackend(workers=2)
        try:
            with pytest.raises(RuntimeError, match="chunk 0 failed"):
                execute_module(analyzed, dict(args), flow, options, plan=plan, backend=backend)
            assert backend.sibling_done.is_set()
            backend.armed = False
            out = execute_module(analyzed, dict(args), flow, options, plan=plan, backend=backend)
        finally:
            backend.close()
        assert np.array_equal(out["Y"], ref["Y"])


class TestWindowDebugOnThePool:
    @pytest.mark.parametrize("placement", ["chunk", "inner-chunk"])
    @pytest.mark.parametrize("use_windows", [False, True], ids=["flat", "win"])
    def test_runs_on_the_persistent_pool(self, placement, use_windows):
        """A window-debug run streams its wavefronts through the thread
        pool the backend builds once, and the chunks check and stamp the
        same fault-on-overwrite tags as the caller's walk: the sweeps run
        on the pool — the sweep's ``DOALL I`` chunked, or (``inner-chunk``)
        walked with its ``DOALL J`` chunked, one wave per row — the copy-in
        and copy-out loops on the tag-checking walk, which reads what the
        chunks wrote. The second run on the instance reuses the pool; both
        match ``serial`` bit for bit."""
        from repro.plan.planner import forced_plan
        from repro.schedule.flowchart import LoopDescriptor
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        m, maxk, workers = 8, 6, 4
        options = ExecutionOptions(
            backend="threaded", workers=workers,
            use_windows=use_windows, debug_windows=True,
        )
        do_k = next(
            d for d in flow.descriptors
            if isinstance(d, LoopDescriptor) and not d.parallel
        )
        sweep = flow.path_of(do_k.body[0])
        overrides = {sweep: "chunk"}
        if placement == "inner-chunk":
            overrides = {sweep: "serial", sweep + (0,): "chunk"}
        plan = forced_plan(
            analyzed, flow, "threaded", options, {"M": m, "maxK": maxk},
            default="serial", overrides=overrides,
        )
        backend = ExecutionBackend(workers=workers)
        pools = []
        try:
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                args = {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}
                ref = execute_module(analyzed, dict(args), options=options_for("serial"))
                out = execute_module(
                    analyzed, dict(args), flow, options, plan=plan, backend=backend
                )
                assert np.array_equal(out["newA"], ref["newA"]), seed
                pools.append(backend._pool)
        finally:
            backend.close()
        assert pools[0] is not None and pools[1] is pools[0]
