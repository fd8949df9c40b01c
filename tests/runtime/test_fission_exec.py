"""Fission execution: bit-exactness of split plans against the reference
evaluator on every backend in both window modes, property-based
equivalence over randomly generated programs, and the poison-protocol
regression (a mid-run failure inside one fissioned piece, run by the
``fission`` strategy's ``execute``, unwinds with the original exception and
leaves the pool usable)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.genprog import generate_program, program_args
from repro.core.recurrences import mixed_analyzed, mixed_args
from repro.graph.build import build_dependency_graph
from repro.plan.planner import forced_plan
from repro.plan.strategy import LOOP_STRATEGIES
from repro.runtime.backends.threaded import ThreadedBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.fission import fission_splits
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module

ALL_BACKENDS = ("serial", "vectorized", "threaded", "process")


def _merged(analyzed):
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


def _reference(analyzed, args, outs):
    res = execute_module(
        analyzed, args,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )
    return {k: np.asarray(res[k]) for k in outs}


def _unfissioned(analyzed, chart, options, args):
    """The plan with every loop that has a legal split pinned ``serial``:
    no loop of it is split."""
    scalars = {k: v for k, v in args.items() if isinstance(v, int)}
    return forced_plan(
        analyzed, chart, options.backend, options, scalars,
        overrides=dict.fromkeys(fission_splits(analyzed, chart), "serial"),
    )


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
        # stamps and checks them wherever it runs.
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
        options = ExecutionOptions(backend="threaded", workers=4)
        plan = _unfissioned(analyzed, chart, options, args)
        assert ("I", "fission") not in plan.strategies()
        res = execute_module(
            analyzed, args, flowchart=chart, options=options, plan=plan,
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
        for split in (True, False):
            data = {"n": n}
            for k in ("X", "A", "B"):
                data[k] = RuntimeArray.from_numpy(
                    k, np.asarray(args[k]), [(1, n)]
                )
            options = ExecutionOptions(
                backend="serial", use_kernels=False,
                strategy="fission" if split else None,
            )
            plan = None if split else _unfissioned(analyzed, chart, options, args)
            state = ExecutionState(
                analyzed, chart, options, data, Evaluator(data), plan=plan,
            )
            backend = SerialBackend()
            try:
                backend.run(state)
            finally:
                backend.close()
            counts[split] = dict(state.eval_counts)
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
        options = ExecutionOptions(backend="threaded", workers=2)
        plain = execute_module(
            analyzed, args, flowchart=chart, options=options,
            plan=_unfissioned(analyzed, chart, options, args),
        )
        for k in prog.outputs:
            assert np.array_equal(
                np.asarray(fissioned[k]), np.asarray(plain[k])
            )


class _ExplodingBackend(ThreadedBackend):
    """Raises inside the middle fissioned piece (the eq.5 replica)
    mid-run, exactly once — from the compiled ``DO`` that replica plans
    as, after the eq.4 replica has run — and records what ran."""

    name = "threaded"

    def __init__(self, workers=None):
        super().__init__(workers)
        self.armed = True
        self.ran = []

    def exec_nest_kernel(self, state, desc, lo, hi, env):
        label = desc.body[0].label
        self.ran.append(label)
        if self.armed and label == "eq.5":
            self.armed = False
            raise RuntimeError("fission piece exploded mid-run")
        return super().exec_nest_kernel(state, desc, lo, hi, env)


class TestFissionPoison:
    def test_piece_failure_leaves_the_pool_usable(self, monkeypatch):
        # A failure inside one replica loop of a fissioned plan must
        # unwind with the original exception — out of the ``fission``
        # strategy's execute, which runs the pieces — and leave the same
        # backend instance (and its pools) able to run the next execution
        # bit-exact.
        fission = LOOP_STRATEGIES["fission"]
        splits = []

        def execute(backend, state, desc, lo, hi, env):
            splits.append(desc.index)
            type(fission).execute(fission, backend, state, desc, lo, hi, env)

        monkeypatch.setattr(fission, "execute", execute)
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
            # each replica plans as its own compiled DO: eq.4's ran, eq.5's
            # raised, eq.6's never started
            assert backend.ran == ["eq.4", "eq.5"]
            assert splits == ["I"]
            res = execute_module(
                analyzed, args, flowchart=chart, options=opts,
                backend=backend,
            )
            for k, want in ref.items():
                assert np.array_equal(np.asarray(res[k]), want)
            assert splits == ["I", "I"]
        finally:
            backend.close()
