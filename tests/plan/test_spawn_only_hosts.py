"""Plans and runs on a host whose ``multiprocessing`` cannot fork.

Every backend runs inside the caller's process — threads at most — so
neither the planner nor a run has any business asking the host which
``multiprocessing`` start methods it offers. These tests simulate a
spawn-only platform (macOS's default, Windows) by replacing the probes
with recording fakes, and pin that: no probe is ever made, every plan has
the text it has anywhere else, ``compare_plans`` measures ``auto`` and every label,
and a run of each backend matches the serial reference.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.paper import jacobi_analyzed
from repro.machine.report import compare_plans
from repro.plan.ir import KNOWN_BACKENDS
from repro.plan.planner import build_plan
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module

from tests.plan.conftest import WORKLOADS

REQUESTS = ["auto", *KNOWN_BACKENDS]
WORKLOAD_BY_NAME = {w[0]: w for w in WORKLOADS}


def _simulate_spawn_only(monkeypatch) -> list[str]:
    """Make ``spawn`` the only start method; returns the list every probe
    of the start methods appends to."""
    probes = []

    def get_all_start_methods():
        probes.append("get_all_start_methods")
        return ["spawn"]

    def get_start_method(allow_none=False):
        probes.append("get_start_method")
        return "spawn"

    real_get_context = multiprocessing.get_context

    def get_context(method=None):
        probes.append(f"get_context({method})")
        if method not in (None, "spawn"):
            raise ValueError(f"cannot find context for {method!r}")
        return real_get_context("spawn")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", get_all_start_methods)
    monkeypatch.setattr(multiprocessing, "get_start_method", get_start_method)
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return probes


@pytest.fixture()
def spawn_only(monkeypatch):
    return _simulate_spawn_only(monkeypatch)


def _scalars(args):
    return {k: v for k, v in args.items() if isinstance(v, (int, float))}


def _plan_text(name, backend):
    _, analyzed, flow, args, _ = WORKLOAD_BY_NAME[name]
    plan = build_plan(
        analyzed, flow, ExecutionOptions(backend=backend, workers=4),
        _scalars(args), cpu_count=4,
    )
    return plan.pretty()


@pytest.mark.parametrize("backend", REQUESTS)
@pytest.mark.parametrize("name", list(WORKLOAD_BY_NAME))
def test_plans_do_not_probe_the_start_methods(monkeypatch, name, backend):
    """The plan built on a spawn-only host is the plan built here, and
    building it asked nothing of ``multiprocessing``."""
    expected = _plan_text(name, backend)
    with monkeypatch.context() as mp:
        probes = _simulate_spawn_only(mp)
        assert _plan_text(name, backend) == expected
    assert probes == []


@pytest.mark.parametrize("backend", REQUESTS)
def test_every_backend_runs(pinned_host, spawn_only, backend):
    analyzed = jacobi_analyzed()
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4}
    ref = execute_module(
        analyzed, dict(args),
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )
    out = execute_module(
        analyzed, dict(args),
        options=ExecutionOptions(backend=backend, workers=4),
    )
    assert np.array_equal(out["newA"], ref["newA"])
    assert spawn_only == []


def test_compare_plans_measures_every_backend(pinned_host, spawn_only):
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    rng = np.random.default_rng(3)
    args = {"InitialA": rng.random((6, 6)), "M": 4, "maxK": 3}
    cmp = compare_plans(analyzed, flow, args, workers=2, repeats=1)
    assert [r["backend"] for r in cmp.rows] == ["auto", *KNOWN_BACKENDS]
    assert cmp.auto_seconds == cmp.rows[0]["seconds"]
    assert spawn_only == []
