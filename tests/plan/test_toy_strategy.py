"""A strategy is one object: a toy ``reverse`` strategy, registered in
``LOOP_STRATEGIES`` from this file alone, is offered, forced, printed and
run by every backend without a change anywhere else."""

import numpy as np
import pytest

from repro.core.paper import jacobi_analyzed
from repro.plan.planner import forced_plan, valid_strategies
from repro.plan.strategy import IN_ORDER, LOOP_STRATEGIES, SerialStrategy
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module

SIZES = {"M": 6, "maxK": 4}


class ReverseStrategy(SerialStrategy):
    """``reverse``: a ``DOALL`` walked from its last iteration to its first
    — legal because a ``DOALL``'s iterations are unordered. Priced and
    emitted as the walk; offered only when forced."""

    name = "reverse"

    def __init__(self):
        #: (loop index, first iteration run) per execution
        self.ran = []

    def recognise(self, planner, desc, forced=False):
        if not desc.parallel:
            return IN_ORDER
        return None if forced else "offered only when forced"

    def execute(self, backend, state, desc, lo, hi, env):
        self.ran.append((desc.index, hi))
        for i in range(hi, lo - 1, -1):
            env2 = dict(env)
            env2[desc.index] = i
            for d in desc.body:
                backend.exec_descriptor(state, d, env2, [])


@pytest.fixture()
def reverse(monkeypatch):
    strategy = ReverseStrategy()
    monkeypatch.setitem(LOOP_STRATEGIES, strategy.name, strategy)
    return strategy


def _jacobi():
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    return analyzed, flow


def test_valid_strategies_offer_it_on_a_doall_only(reverse):
    analyzed, flow = _jacobi()
    for desc in flow.loops():
        assert ("reverse" in valid_strategies(analyzed, flow, desc)) == desc.parallel


def test_forced_plan_honours_it_and_pretty_prints_it(reverse):
    analyzed, flow = _jacobi()
    doall = next(d for d in flow.loops() if d.parallel)
    path = flow.path_of(doall)
    plan = forced_plan(
        analyzed, flow, "threaded", ExecutionOptions(workers=2), SIZES,
        overrides={path: "reverse"}, cpu_count=2,
    )
    assert plan.loops[path].strategy == "reverse"
    assert f"DOALL {doall.index} -> reverse; trip 8; forced" in plan.pretty()


@pytest.mark.usefixtures("pinned_host")
@pytest.mark.parametrize("backend", ["serial", "vectorized", "threaded"])
def test_every_backend_runs_it_bit_equal_to_the_evaluator(reverse, backend):
    analyzed, flow = _jacobi()
    args = {"InitialA": np.random.default_rng(3).random((8, 8)), **SIZES}
    want = execute_module(
        analyzed, dict(args), flowchart=flow,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )["newA"]
    options = ExecutionOptions(backend=backend, workers=2)
    plan = forced_plan(
        analyzed, flow, backend, options, SIZES, default="reverse", cpu_count=2,
    )
    got = execute_module(
        analyzed, dict(args), flowchart=flow, options=options, plan=plan,
    )["newA"]
    assert np.array_equal(got, want)
    # every DOALL on the walk ran backwards (the DO K walks in order)
    assert ("I", 7) in reverse.ran and ("J", 7) in reverse.ran
