"""Any plan, same answer: hand-forced plans stay bit-exact.

The planner only ever chooses *how* a DOALL executes, never what it
computes — so every valid assignment of strategies to loops must reproduce
the serial reference evaluator bit for bit, on every workload. Covered:
the all-serial plan, the all-vectorized plan, and seeded-random plans
drawing a valid strategy per loop (including forced chunking and nest
fusion where safe). And ``auto``, which prices every strategy per loop on
one walk, never predicts a plan dearer than the cheapest pin (up to its
tie rule), on generated programs as well as the workloads."""

import random

import numpy as np
import pytest

from repro.core.genprog import generate_program
from repro.plan.ir import KNOWN_BACKENDS, PlanError
from repro.plan.planner import AUTO_TIE, build_plan, forced_plan, valid_strategies
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.flowchart import LoopDescriptor
from repro.schedule.scheduler import schedule_module

from tests.plan.conftest import WORKLOADS

#: each row a running sum, only the last row's last element escapes: the
#: rows are a DOALL, and window mode keeps one row
ROWS_SOURCE = """\
Rows: module (X: array[0 .. n, 0 .. n] of int; n: int): [y: int];
type
    I = 0 .. n; J = 0 .. n;
var
    A: array [0 .. n, 0 .. n] of int;
define
    A[I, J] = if J = 0 then X[I, 0] else A[I, J-1] + X[I, J];
    y = A[n, n];
end Rows;
"""

# every test here runs the reference evaluator through the runtime
pytestmark = pytest.mark.usefixtures("pinned_host")


def _reference(analyzed, flow, args, result):
    return execute_module(
        analyzed, args, flowchart=flow,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )[result]


def _run_forced(analyzed, flow, args, backend, **kwargs):
    options = ExecutionOptions(backend=backend, workers=4)
    plan = forced_plan(analyzed, flow, backend, options, **kwargs)
    return plan, execute_module(
        analyzed, args, flowchart=flow, options=options, plan=plan
    )


class TestForcedPlansStayExact:
    @pytest.mark.parametrize("default", ["serial", "vector"])
    def test_uniform_plans(self, workload, default):
        name, analyzed, flow, args, result = workload
        expected = _reference(analyzed, flow, args, result)
        backend = "serial" if default == "serial" else "vectorized"
        plan, out = _run_forced(
            analyzed, flow, args, backend, default=default
        )
        assert all(
            lp.strategy == default
            for lp in plan.loops.values()
            if lp.keyword == "DOALL" and lp.reason == "forced"
        )
        assert np.array_equal(out[result], expected), (name, default)

    def test_random_plans(self, workload):
        """Seeded random strategy per parallel loop, executed on the
        threaded backend (whose base dispatch supports every strategy)."""
        name, analyzed, flow, args, result = workload
        expected = _reference(analyzed, flow, args, result)
        rng = random.Random(f"plans-{name}")
        loops = [d for d in flow.loops() if d.parallel]
        for trial in range(4):
            overrides = {}
            for desc in loops:
                choices = valid_strategies(analyzed, flow, desc)
                path = flow.path_of(desc)
                overrides[path] = rng.choice(choices)
            plan, out = _run_forced(
                analyzed, flow, args, "threaded", overrides=overrides
            )
            assert np.array_equal(out[result], expected), (
                name, trial, sorted(overrides.items()),
            )

    def test_forced_chunk_on_unsafe_loop_raises(self):
        """A DOALL over a windowed dimension writes every row into one
        plane — chunking it under windows is rejected, not silently
        planned."""
        analyzed = analyze_module(parse_module(ROWS_SOURCE))
        flow = schedule_module(analyzed)
        assert flow.window_of("A") == {0: 1, 1: 2}
        options = ExecutionOptions(backend="threaded", use_windows=True)
        unsafe = None
        for desc in flow.loops():
            if desc.parallel and "chunk" not in valid_strategies(
                analyzed, flow, desc, use_windows=True
            ):
                unsafe = desc
                break
        assert unsafe is not None, "expected a chunk-unsafe DOALL"
        with pytest.raises(PlanError, match="not chunk-safe"):
            forced_plan(
                analyzed, flow, "threaded", options,
                overrides={flow.path_of(unsafe): "chunk"},
            )

    def test_forced_nest_on_unfusable_loop_raises(self):
        name, analyzed, flow, args, result = WORKLOADS[0]
        options = ExecutionOptions(backend="serial", use_kernels=False)
        doall = next(d for d in flow.loops() if d.parallel)
        with pytest.raises(
            PlanError, match=f"cannot force 'nest' on DOALL {doall.index}: kernels off"
        ):
            forced_plan(
                analyzed, flow, "serial", options,
                overrides={flow.path_of(doall): "nest"},
            )

    def test_unknown_strategy_raises(self):
        name, analyzed, flow, args, result = WORKLOADS[0]
        doall = next(d for d in flow.loops() if d.parallel)
        with pytest.raises(PlanError, match="unknown forced strategy"):
            forced_plan(
                analyzed, flow, "serial",
                overrides={flow.path_of(doall): "gpu"},
            )


class TestValidStrategies:
    def test_jacobi_nest_is_on_offer(self, workload):
        name, analyzed, flow, args, result = workload
        for desc in flow.loops():
            if not isinstance(desc, LoopDescriptor) or not desc.parallel:
                continue
            choices = valid_strategies(analyzed, flow, desc)
            assert "serial" in choices and "vector" in choices

    def test_do_loops_offer_walk_and_nest(self):
        name, analyzed, flow, args, result = WORKLOADS[1]  # gauss_seidel
        do = next(d for d in flow.loops() if not d.parallel)
        assert valid_strategies(analyzed, flow, do) == ["serial", "nest"]


#: generated programs the auto-versus-pins property is checked on, and the
#: sizes each is planned at
GENERATED_SEEDS = range(60)
GENERATED_SIZES = (4, 32, 2000)


def _auto_cases():
    """(tag, analyzed, flowchart, sizes): every generated program at every
    size, then the five plan workloads at their own."""
    for seed in GENERATED_SEEDS:
        analyzed = generate_program(seed).analyzed()
        flow = schedule_module(analyzed)
        for n in GENERATED_SIZES:
            yield f"gen{seed}/n{n}", analyzed, flow, {"n": n}
    for name, analyzed, flow, args, _ in WORKLOADS:
        sizes = {k: v for k, v in args.items() if isinstance(v, int)}
        yield name, analyzed, flow, sizes


AUTO_CASES = list(_auto_cases())


class TestAutoNeverWorseThanAPin:
    """``auto`` prices on one walk every strategy any pin would offer, so
    its predicted cost is never above the cheapest pinned plan's — up to
    the tie rule, which may give up ``AUTO_TIE`` at every level of loop
    nesting to build no native function."""

    @pytest.mark.parametrize("served", [False, True], ids=["first", "served"])
    @pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"p{w}")
    def test_auto_predicts_no_worse_than_the_cheapest_pin(
        self, workers, served, monkeypatch
    ):
        def reached():
            raise AssertionError("a plan here read the host's cpu count")

        monkeypatch.setattr("repro.plan.planner.host_cpu_count", reached)
        for tag, analyzed, flow, sizes in AUTO_CASES:
            cycles = {
                backend: build_plan(
                    analyzed, flow,
                    ExecutionOptions(backend=backend, workers=workers), sizes,
                    cpu_count=workers, served=served,
                ).cycles
                for backend in ("auto", *KNOWN_BACKENDS)
            }
            depth = max((len(flow.path_of(d)) for d in flow.loops()), default=0)
            best_pin = min(cycles[label] for label in KNOWN_BACKENDS)
            assert cycles["auto"] <= (1 + AUTO_TIE) ** depth * best_pin, tag
