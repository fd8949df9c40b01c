"""The Session contract: compile-once/run-many amortization, warm state,
per-request input isolation, persistent pools, and clean teardown."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.runtime.kernels.cache as cache_mod
from repro.core.paper import RELAXATION_JACOBI_SOURCE
from repro.core.recurrences import COUPLED_SOURCE, SCAN_SOURCE
from repro.errors import SessionError
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.serve import Session

SIZES = {"M": 8, "maxK": 3}


def make_input(seed: int, m: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).random((m + 2, m + 2))


def serial_reference(session: Session, name: str, args: dict) -> dict:
    result = session.result_for(name)
    return execute_module(
        result.analyzed,
        dict(args),
        flowchart=result.flowchart,
        options=ExecutionOptions(backend="serial"),
    )


class TestLoading:
    def test_load_returns_module_name(self):
        with Session() as s:
            assert s.load(RELAXATION_JACOBI_SOURCE) == "Relaxation"
            assert s.modules() == ["Relaxation"]

    def test_reload_same_source_dedups(self):
        with Session() as s:
            s.load(RELAXATION_JACOBI_SOURCE)
            first = s.result_for("Relaxation")
            s.load(RELAXATION_JACOBI_SOURCE)
            assert s.result_for("Relaxation") is first
            assert s.modules() == ["Relaxation"]

    def test_different_source_same_name_collides(self):
        with Session() as s:
            s.load(RELAXATION_JACOBI_SOURCE)
            with pytest.raises(SessionError, match="already served"):
                s.load(RELAXATION_JACOBI_SOURCE + "\n")

    def test_explicit_name_resolves_collision(self):
        with Session() as s:
            s.load(RELAXATION_JACOBI_SOURCE)
            served = s.load(RELAXATION_JACOBI_SOURCE + "\n", name="Relax2")
            assert served == "Relax2"
            assert s.modules() == ["Relax2", "Relaxation"]

    def test_unknown_module_is_session_error(self):
        with Session() as s:
            with pytest.raises(SessionError, match="unknown module"):
                s.run("Nope", {})

    def test_describe_signature(self):
        with Session() as s:
            s.load(RELAXATION_JACOBI_SOURCE)
            desc = s.describe("Relaxation")
            assert desc["module"] == "Relaxation"
            assert desc["results"] == ["newA"]
            by_name = {p["name"]: p for p in desc["params"]}
            assert by_name["InitialA"]["kind"] == "array"
            assert by_name["InitialA"]["rank"] == 2
            assert by_name["M"]["kind"] == "scalar"


class TestExecution:
    @pytest.fixture()
    def session(self):
        with Session() as s:
            s.load(RELAXATION_JACOBI_SOURCE)
            yield s

    def test_run_bit_exact_vs_serial(self, session):
        args = {**SIZES, "InitialA": make_input(0)}
        out = session.run("Relaxation", args)
        ref = serial_reference(session, "Relaxation", args)
        assert np.array_equal(out["newA"], ref["newA"])

    def test_inputs_never_mutated(self, session):
        original = make_input(1)
        args = {**SIZES, "InitialA": original}
        before = original.copy()
        session.run("Relaxation", args)
        assert np.array_equal(original, before)

    def test_second_run_after_warm_compiles_nothing(self, session, monkeypatch):
        """warm() does all compilation up front: a subsequent run() must
        never reach any kernel compiler (NumPy exec tier, fused nest tier,
        or the cffi native tier)."""
        session.warm("Relaxation", SIZES)
        args = {**SIZES, "InitialA": make_input(2)}
        # reference computed first: it uses a fresh kernel cache and is
        # allowed to compile — only the warmed session is not
        ref = serial_reference(session, "Relaxation", args)

        def forbid(name):
            def _fail(*a, **k):
                raise AssertionError(f"{name} ran after warm()")

            return _fail

        monkeypatch.setattr(
            cache_mod, "compile_kernel", forbid("compile_kernel")
        )
        monkeypatch.setattr(
            cache_mod, "compile_nest_kernel", forbid("compile_nest_kernel")
        )
        monkeypatch.setattr(
            cache_mod.native_mod,
            "compile_native_nest",
            forbid("compile_native_nest"),
        )
        out = session.run("Relaxation", args)
        assert np.array_equal(out["newA"], ref["newA"])

    @pytest.mark.parametrize(
        "source", [SCAN_SOURCE, COUPLED_SOURCE], ids=["Scan", "Coupled"]
    )
    def test_warm_primes_modules_with_real_scalar_parameters(self, source):
        """Priming fills every parameter the sizes leave out — real
        scalars as well as arrays — so the throwaway run has its inputs."""
        with Session() as s:
            name = s.load(source)
            s.warm(name, {"n": 16})
            assert s.stats().runs == 1

    def test_window_debug_warm_builds_no_kernels(self):
        """A window-debug run never calls a kernel (kernels skip the
        fault-on-overwrite tags), so warming one compiles none: no ``cc``
        translation unit, no exec-compiled equation — and the primed run
        still matches the evaluator."""
        options = ExecutionOptions(use_windows=True, debug_windows=True)
        with Session(execution=options) as s:
            s.load(RELAXATION_JACOBI_SOURCE)
            report = s.warm("Relaxation", SIZES)["Relaxation"]
            assert report["tus"] == 0
            assert report["compiled"] == 0
            args = {**SIZES, "InitialA": make_input(4)}
            out = s.run("Relaxation", args)
            ref = serial_reference(s, "Relaxation", args)
            assert np.array_equal(out["newA"], ref["newA"])
            assert s.result_for("Relaxation").kernel_cache.stats()["tus"] == 0

    def test_plan_coalesces_concurrent_lookups(self, session):
        barrier = threading.Barrier(8)

        def lookup(_):
            barrier.wait()
            return session.plan("Relaxation", SIZES)

        with ThreadPoolExecutor(8) as pool:
            plans = list(pool.map(lookup, range(8)))
        assert all(p is plans[0] for p in plans)
        stats = session.stats()
        assert stats.plan_requests >= 8
        assert stats.plans_built == 1

    def test_concurrent_runs_isolated_and_bit_exact(self, session):
        """Eight concurrent clients with different inputs each get exactly
        the answer a serial run of their own input produces."""
        session.warm("Relaxation", SIZES)
        inputs = [make_input(100 + i) for i in range(8)]
        pristine = [a.copy() for a in inputs]
        expected = [
            serial_reference(
                session, "Relaxation", {**SIZES, "InitialA": a}
            )["newA"]
            for a in inputs
        ]
        barrier = threading.Barrier(8)

        def client(i):
            barrier.wait()
            return session.run(
                "Relaxation", {**SIZES, "InitialA": inputs[i]}
            )["newA"]

        with ThreadPoolExecutor(8) as pool:
            outputs = list(pool.map(client, range(8)))
        for i in range(8):
            assert np.array_equal(outputs[i], expected[i]), f"client {i}"
            assert np.array_equal(inputs[i], pristine[i]), f"client {i} input"

    def test_stats_counts_runs(self, session):
        session.run("Relaxation", {**SIZES, "InitialA": make_input(3)})
        session.run("Relaxation", {**SIZES, "InitialA": make_input(4)})
        stats = session.stats()
        assert stats.runs == 2
        assert stats.modules == ["Relaxation"]

    def test_stats_count_borrowed_bytes_and_allocations(self, session):
        before = session.stats()
        a = make_input(5)
        session.run("Relaxation", {**SIZES, "InitialA": a})
        session.run("Relaxation", {**SIZES, "InitialA": a.astype(np.float32)})
        after = session.stats()
        assert after.arg_bytes_borrowed - before.arg_bytes_borrowed == a.nbytes
        assert after.arg_bytes_converted - before.arg_bytes_converted == a.nbytes
        allocated = (
            after.arrays_uninitialised + after.arrays_zeroed
            - before.arrays_uninitialised - before.arrays_zeroed
        )
        assert allocated == 4  # A and newA, twice
        assert set(after.to_dict()) >= {
            "arg_bytes_borrowed", "arg_bytes_converted",
            "arrays_uninitialised", "arrays_zeroed",
        }


class TestLifecycle:
    def test_close_is_idempotent_and_final(self):
        s = Session()
        s.load(RELAXATION_JACOBI_SOURCE)
        s.close()
        s.close()
        with pytest.raises(SessionError, match="closed"):
            s.run("Relaxation", {**SIZES, "InitialA": make_input(0)})
        with pytest.raises(SessionError, match="closed"):
            s.load(RELAXATION_JACOBI_SOURCE)

    def test_context_manager_closes(self):
        with Session() as s:
            s.load(RELAXATION_JACOBI_SOURCE)
        assert s.closed


class TestPersistentBackends:
    def _session(self, workers: int = 2) -> Session:
        s = Session(execution=ExecutionOptions(backend="threaded", workers=workers))
        s.load(RELAXATION_JACOBI_SOURCE)
        return s

    def test_backend_survives_across_runs_and_sizes(self):
        with self._session() as s:
            s.warm("Relaxation", {"M": 16, "maxK": 3})
            (backend,) = s._backends.values()
            for seed, m in [(0, 16), (1, 24), (2, 16)]:
                args = {"M": m, "maxK": 3, "InitialA": make_input(seed, m)}
                out = s.run("Relaxation", args)
                ref = serial_reference(s, "Relaxation", args)
                assert np.array_equal(out["newA"], ref["newA"])
            assert list(s._backends.values()) == [backend]

    def test_concurrent_runs_are_correct(self):
        with self._session() as s:
            s.warm("Relaxation", {"M": 12, "maxK": 3})
            inputs = [make_input(i, 12) for i in range(4)]
            expected = [
                serial_reference(
                    s, "Relaxation", {"M": 12, "maxK": 3, "InitialA": a}
                )["newA"]
                for a in inputs
            ]

            def client(i):
                return s.run(
                    "Relaxation", {"M": 12, "maxK": 3, "InitialA": inputs[i]}
                )["newA"]

            with ThreadPoolExecutor(4) as pool:
                outputs = list(pool.map(client, range(4)))
            for i in range(4):
                assert np.array_equal(outputs[i], expected[i])
