"""Fission execution: bit-exactness of split plans against the reference
evaluator on every backend in both window modes, property-based
equivalence over randomly generated programs, and the poison-protocol
regression (a mid-run failure inside one fissioned piece unwinds with the
original exception and leaves the pool usable)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.genprog import generate_program, program_args
from repro.core.recurrences import mixed_analyzed, mixed_args
from repro.graph.build import build_dependency_graph
from repro.runtime.backends.threaded import ThreadedBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module

ALL_BACKENDS = ("serial", "vectorized", "threaded", "process")


def _merged(analyzed):
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


def _reference(analyzed, args, outs):
    res = execute_module(
        analyzed, args,
        options=ExecutionOptions(
            backend="serial", use_kernels=False, use_fission=False
        ),
    )
    return {k: np.asarray(res[k]) for k in outs}


def _backend_available(backend):
    if backend == "process":
        from repro.runtime.backends.process import _fork_available

        return _fork_available()
    return True


class TestFissionParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "use_windows, debug_windows",
        [(False, False), (True, False), (True, True)],
        ids=["flat", "win", "win-debug"],
    )
    def test_forced_fission_bit_exact(self, backend, use_windows, debug_windows):
        # win-debug arms the fault-on-overwrite tags: each fissioned piece
        # stamps and checks them wherever it runs (on threaded the pieces
        # are pipelined on the pool).
        if not _backend_available(backend):
            pytest.skip("fork unavailable")
        analyzed = mixed_analyzed()
        chart = _merged(analyzed)
        args = mixed_args(n=300)
        ref = _reference(analyzed, args, ("T", "S", "M"))
        res = execute_module(
            analyzed, args, flowchart=chart,
            options=ExecutionOptions(
                backend=backend, workers=4, strategy="fission",
                use_windows=use_windows, debug_windows=debug_windows,
            ),
        )
        for k, want in ref.items():
            assert np.array_equal(np.asarray(res[k]), want)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_auto_bit_exact(self, backend):
        # No force: whatever the pricing decides (threaded picks fission
        # on merit at this size, serial may not) must match the reference.
        if not _backend_available(backend):
            pytest.skip("fork unavailable")
        analyzed = mixed_analyzed()
        chart = _merged(analyzed)
        args = mixed_args(n=300)
        ref = _reference(analyzed, args, ("T", "S", "M"))
        res = execute_module(
            analyzed, args, flowchart=chart,
            options=ExecutionOptions(backend=backend, workers=4),
        )
        for k, want in ref.items():
            assert np.array_equal(np.asarray(res[k]), want)

    def test_no_fission_escape_hatch_bit_exact(self):
        analyzed = mixed_analyzed()
        chart = _merged(analyzed)
        args = mixed_args(n=300)
        ref = _reference(analyzed, args, ("T", "S", "M"))
        res = execute_module(
            analyzed, args, flowchart=chart,
            options=ExecutionOptions(
                backend="threaded", workers=4, use_fission=False
            ),
        )
        for k, want in ref.items():
            assert np.array_equal(np.asarray(res[k]), want)

    def test_eval_counts_match_the_unfissioned_walk(self):
        # Each equation lands in exactly one replica over the full
        # subrange, so element-evaluation statistics are identical.
        from repro.runtime.backends.base import ExecutionState
        from repro.runtime.backends.serial import SerialBackend
        from repro.runtime.evaluator import Evaluator
        from repro.runtime.values import RuntimeArray

        analyzed = mixed_analyzed()
        chart = _merged(analyzed)
        n = 50
        args = mixed_args(n=n)
        counts = {}
        for use_fission in (True, False):
            data = {"n": n}
            for k in ("X", "A", "B"):
                data[k] = RuntimeArray.from_numpy(
                    k, np.asarray(args[k]), [(1, n)]
                )
            options = ExecutionOptions(
                backend="serial", use_kernels=False, use_fission=use_fission,
                strategy="fission" if use_fission else None,
            )
            state = ExecutionState(
                analyzed, chart, options, data, Evaluator(data)
            )
            backend = SerialBackend()
            try:
                backend.run(state)
            finally:
                backend.close()
            counts[use_fission] = dict(state.eval_counts)
        assert counts[True] == counts[False]


class TestFissionProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=24),
    )
    def test_generated_programs_fissioned_equals_evaluator(self, seed, n):
        # Random unit mixes (maps, scans, linear recurrences, coupled
        # pairs; local targets may be windowed): a soft-forced fission
        # plan computes exactly what the scalar reference evaluator
        # computes, on every backend, in both window modes — whether the
        # split applies, is hazard-rejected, or does not exist.
        prog = generate_program(seed)
        analyzed = prog.analyzed()
        chart = _merged(analyzed)
        args = program_args(prog, n, seed)
        ref = _reference(analyzed, args, prog.outputs)
        for backend in ("serial", "vectorized", "threaded"):
            for use_windows in (False, True):
                res = execute_module(
                    analyzed, args, flowchart=chart,
                    options=ExecutionOptions(
                        backend=backend, workers=2, strategy="fission",
                        use_windows=use_windows,
                    ),
                )
                for k, want in ref.items():
                    assert np.array_equal(np.asarray(res[k]), want), (
                        f"{k} mismatch on {backend} "
                        f"(use_windows={use_windows})"
                    )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_generated_programs_unfissioned_agrees(self, seed):
        # The escape hatch and the split must agree with each other too.
        prog = generate_program(seed)
        analyzed = prog.analyzed()
        chart = _merged(analyzed)
        args = program_args(prog, 16, seed)
        fissioned = execute_module(
            analyzed, args, flowchart=chart,
            options=ExecutionOptions(
                backend="threaded", workers=2, strategy="fission"
            ),
        )
        plain = execute_module(
            analyzed, args, flowchart=chart,
            options=ExecutionOptions(
                backend="threaded", workers=2, use_fission=False
            ),
        )
        for k in prog.outputs:
            assert np.array_equal(
                np.asarray(fissioned[k]), np.asarray(plain[k])
            )


class _ExplodingBackend(ThreadedBackend):
    """Raises inside the middle fissioned piece (the eq.5 replica)
    mid-run, exactly once — whichever strategy that replica planned."""

    name = "threaded"

    def __init__(self, workers=None):
        super().__init__(workers)
        self.armed = True

    def _explode(self, desc):
        if self.armed and desc.body and (
            getattr(desc.body[0], "label", "") == "eq.5"
        ):
            self.armed = False
            raise RuntimeError("fission piece exploded mid-run")

    def exec_seq_block(self, state, desc, lo, hi, env):
        if lo > 1:
            self._explode(desc)
        super().exec_seq_block(state, desc, lo, hi, env)

    def exec_scan_loop(self, state, desc, lo, hi, env):
        self._explode(desc)
        super().exec_scan_loop(state, desc, lo, hi, env)

    def exec_sequential_loop(self, state, desc, lo, hi, env, vector_names):
        self._explode(desc)
        super().exec_sequential_loop(state, desc, lo, hi, env, vector_names)


class TestFissionPoison:
    def test_piece_failure_leaves_the_pool_usable(self):
        # A failure inside one replica loop of a fissioned plan must
        # unwind with the original exception and leave the same backend
        # instance (and its pools) able to run the next execution
        # bit-exact — the pipeline poison protocol covers replica groups.
        analyzed = mixed_analyzed()
        chart = _merged(analyzed)
        args = mixed_args(n=2000)
        opts = ExecutionOptions(
            backend="threaded", workers=4, strategy="fission"
        )
        ref = _reference(analyzed, args, ("T", "S", "M"))
        backend = _ExplodingBackend(workers=4)
        try:
            with pytest.raises(RuntimeError, match="piece exploded mid-run"):
                execute_module(
                    analyzed, args, flowchart=chart, options=opts,
                    backend=backend,
                )
            res = execute_module(
                analyzed, args, flowchart=chart, options=opts,
                backend=backend,
            )
            for k, want in ref.items():
                assert np.array_equal(np.asarray(res[k]), want)
        finally:
            backend.close()
