"""The three-phase scan engine at run time: bit-exactness for int and
min/max scans against the kernel-less reference evaluator, the in-order
fallback on backends without the engine, float gating behind
``allow_reassoc``, and the all-or-nothing failure protocol (a worker
failing mid-phase unwinds with the original exception and leaves the
pool usable — the same contract as the pipeline engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recurrences import (
    RECURRENCE_WORKLOADS,
    ilinrec_analyzed,
    ilinrec_args,
    isum_analyzed,
    isum_args,
)
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends.threaded import ThreadedBackend
from repro.runtime.executor import ExecutionOptions, execute_module

SCAN_WORKLOADS = [w for w in RECURRENCE_WORKLOADS
                  if w[0] in ("isum", "runmax", "ilinrec")]

FSUM_SOURCE = """\
FSum: module (X: array[1 .. n] of real; n: int):
      [S: array[0 .. n] of real];
type
    I = 1 .. n;
define
    S[0] = 0.0;
    S[I] = S[I-1] + X[I];
end FSum;
"""


def _reference(analyzed, args, out):
    res = execute_module(
        analyzed, args,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )
    return np.asarray(res[out])


class TestScanParity:
    @pytest.mark.parametrize(
        "workload", SCAN_WORKLOADS, ids=[w[0] for w in SCAN_WORKLOADS]
    )
    @pytest.mark.parametrize("backend", ["threaded"])
    @pytest.mark.parametrize("use_windows", [False, True], ids=["flat", "win"])
    def test_forced_scan_bit_exact(self, workload, backend, use_windows):
        name, analyzed_fn, args_fn, out = workload
        analyzed = analyzed_fn()
        args = args_fn(n=3000)
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend=backend, workers=4, strategy="scan",
                use_windows=use_windows,
            ),
        )
        assert np.array_equal(
            np.asarray(res[out]), _reference(analyzed, args, out)
        )

    @pytest.mark.parametrize(
        "workload", SCAN_WORKLOADS, ids=[w[0] for w in SCAN_WORKLOADS]
    )
    def test_auto_threaded_bit_exact(self, workload):
        # No force: at n=3000 the pricing picks scan by itself (pinned in
        # tests/plan/test_scan_plan.py); whatever it picks must match.
        name, analyzed_fn, args_fn, out = workload
        analyzed = analyzed_fn()
        args = args_fn(n=3000)
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(backend="threaded", workers=4),
        )
        assert np.array_equal(
            np.asarray(res[out]), _reference(analyzed, args, out)
        )

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_inline_fallback_backends_bit_exact(self, backend):
        # Backends without the scan engine run a forced scan preference
        # through the base in-order walk — same answers, no pool.
        analyzed = ilinrec_analyzed()
        args = ilinrec_args(n=500)
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend=backend, workers=4, strategy="scan"
            ),
        )
        assert np.array_equal(
            np.asarray(res["S"]), _reference(analyzed, args, "S")
        )

    def test_numpy_tier_bit_exact(self):
        # kernel_tier="numpy" skips the C library: the ufunc-accumulate /
        # NumPy-scalar bundle must produce the same bits.
        analyzed = isum_analyzed()
        args = isum_args(n=3000)
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend="threaded", workers=4, strategy="scan",
                kernel_tier="numpy",
            ),
        )
        assert np.array_equal(
            np.asarray(res["T"]), _reference(analyzed, args, "T")
        )

    def test_eval_counts_cover_the_swept_range(self):
        from repro.runtime.backends.base import ExecutionState
        from repro.runtime.evaluator import Evaluator
        from repro.runtime.values import RuntimeArray
        from repro.schedule.scheduler import schedule_module

        analyzed = isum_analyzed()
        flowchart = schedule_module(analyzed)
        n = 3000
        args = isum_args(n=n)
        data = {
            "n": n,
            "X": RuntimeArray.from_numpy("X", np.asarray(args["X"]), [(1, n)]),
        }
        options = ExecutionOptions(backend="threaded", workers=4,
                                   strategy="scan")
        state = ExecutionState(
            analyzed, flowchart, options, data, Evaluator(data)
        )
        backend = ThreadedBackend(workers=4)
        try:
            backend.run(state)
        finally:
            backend.close()
        assert state.eval_counts["eq.2"] == n


class TestFloatGating:
    def test_float_sum_stays_in_order_by_default(self):
        # Soft-forcing scan on a float + recurrence without allow_reassoc
        # degrades to the serial in-order plan — bit-exact, no surprise
        # reassociation.
        analyzed = analyze_module(parse_module(FSUM_SOURCE))
        args = {"X": np.random.default_rng(7).random(3000), "n": 3000}
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend="threaded", workers=4, strategy="scan"
            ),
        )
        assert np.array_equal(
            np.asarray(res["S"]), _reference(analyzed, args, "S")
        )

    def test_float_sum_parallelizes_under_allow_reassoc(self):
        analyzed = analyze_module(parse_module(FSUM_SOURCE))
        n = 3000
        args = {"X": np.random.default_rng(7).random(n), "n": n}
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend="threaded", workers=4, strategy="scan",
                allow_reassoc=True,
            ),
        )
        # Documented tolerance: reassociating a float sum perturbs rounding
        # by O(eps * n) relative — far inside 1e-8 at this size.
        assert np.allclose(
            np.asarray(res["S"]), _reference(analyzed, args, "S"),
            rtol=1e-8, atol=0,
        )

    def test_hard_forced_float_scan_raises_without_optin(self):
        from repro.plan.ir import PlanError
        from repro.plan.planner import forced_plan
        from repro.schedule.scheduler import schedule_module

        analyzed = analyze_module(parse_module(FSUM_SOURCE))
        flow = schedule_module(analyzed)
        with pytest.raises(PlanError, match="allow-reassoc"):
            forced_plan(
                analyzed, flow, "threaded",
                ExecutionOptions(workers=4), {"n": 3000}, default="scan",
            )


class _ExplodingScanBackend(ThreadedBackend):
    """Raises inside one fix-up block of phase 3 — after the block sweep
    and the carry pass completed — exactly once."""

    name = "threaded"

    def __init__(self, workers=None):
        super().__init__(workers)
        self.armed = True

    def exec_scan_fix(self, kern, t, incoming, ap=None):
        if self.armed:
            self.armed = False
            raise RuntimeError("scan worker exploded mid-phase")
        super().exec_scan_fix(kern, t, incoming, ap)


class TestScanPoison:
    def test_worker_failure_unwinds_with_original_exception(self):
        analyzed = ilinrec_analyzed()
        args = ilinrec_args(n=3000)
        opts = ExecutionOptions(backend="threaded", workers=4,
                                strategy="scan")
        backend = _ExplodingScanBackend(workers=4)
        try:
            with pytest.raises(RuntimeError, match="exploded mid-phase"):
                execute_module(analyzed, args, options=opts, backend=backend)

            # All-or-nothing: every phase task was joined before the raise,
            # so the same pool instance must run cleanly now, bit-exact.
            res = execute_module(analyzed, args, options=opts, backend=backend)
            assert np.array_equal(
                np.asarray(res["S"]), _reference(analyzed, args, "S")
            )
        finally:
            backend.close()


class TestScanProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
        workload=st.sampled_from(["isum", "runmax", "ilinrec"]),
    )
    def test_property_forced_scan_bit_exact(self, n, seed, workload):
        # Any size (including trips below one block per worker, and trips
        # that leave a ragged final block) and any input data: the blocked
        # engine computes exactly what the scalar reference computes.
        table = {w[0]: w for w in SCAN_WORKLOADS}
        _, analyzed_fn, args_fn, out = table[workload]
        analyzed = analyzed_fn()
        args = args_fn(n=n, seed=seed)
        res = execute_module(
            analyzed, args,
            options=ExecutionOptions(
                backend="threaded", workers=4, strategy="scan"
            ),
        )
        assert np.array_equal(
            np.asarray(res[out]), _reference(analyzed, args, out)
        )
