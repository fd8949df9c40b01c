"""Shared workloads for the plan-layer tests: the five paper workloads the
parity and kernel suites already exercise (Jacobi, naive Gauss-Seidel, the
hyperplane-transformed Gauss-Seidel, the alignment DP table, and the
integer lattice-path count)."""

import numpy as np
import pytest

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.schedule.scheduler import schedule_module

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


def _workloads():
    rng = np.random.default_rng(7)
    jac = jacobi_analyzed()
    yield (
        "jacobi", jac, schedule_module(jac),
        {"InitialA": rng.random((10, 10)), "M": 8, "maxK": 4}, "newA",
    )
    gs = gauss_seidel_analyzed()
    yield (
        "gauss_seidel", gs, schedule_module(gs),
        {"InitialA": rng.random((10, 10)), "M": 8, "maxK": 4}, "newA",
    )
    hgs = hyperplane_transform(gauss_seidel_analyzed()).transformed
    yield (
        "hyperplane_gs", hgs, schedule_module(hgs),
        {"InitialA": rng.random((10, 10)), "M": 8, "maxK": 4}, "newA",
    )
    dp = analyze_module(parse_module(DP_SOURCE))
    yield (
        "dp", dp, schedule_module(dp),
        {"CostA": rng.random(6), "CostB": rng.random(6), "gap": 0.4, "n": 6},
        "score",
    )
    paths = analyze_module(parse_module(PATHS_INT_SOURCE))
    yield ("paths_int", paths, schedule_module(paths), {"n": 6}, "Y")


WORKLOADS = list(_workloads())


@pytest.fixture(params=WORKLOADS, ids=[w[0] for w in WORKLOADS])
def workload(request):
    return request.param


@pytest.fixture(autouse=True)
def _no_host_cpu_count(monkeypatch):
    """Plans, goldens and gates never depend on the host: any plan test
    whose planning reaches ``os.cpu_count()`` fails — pass ``cpu_count=``
    to ``build_plan`` / ``forced_plan``, or use :func:`pinned_host`."""

    def reached():
        raise AssertionError(
            "the planner read os.cpu_count(); pass cpu_count= or use the "
            "pinned_host fixture"
        )

    monkeypatch.setattr("repro.plan.planner.host_cpu_count", reached)


@pytest.fixture(autouse=True)
def _no_host_openmp(monkeypatch):
    """Nor on whether the host has OpenMP: plan tests plan as a host
    without it would — no team kernels — unless they ask for
    :func:`openmp_host`."""
    monkeypatch.setattr(
        "repro.runtime.kernels.native.openmp_supported", lambda: False
    )


@pytest.fixture()
def openmp_host(_no_host_openmp, monkeypatch):
    """A host whose compiler builds OpenMP: ``DO`` over ``DOALL`` nests
    may plan a team."""
    monkeypatch.setattr(
        "repro.runtime.kernels.native.openmp_supported", lambda: True
    )


@pytest.fixture()
def pinned_host(_no_host_cpu_count, monkeypatch):
    """For tests that *execute* through the runtime, which plans
    internally and takes no ``cpu_count=``: a fixed two-core host."""
    monkeypatch.setattr("repro.plan.planner.host_cpu_count", lambda: 2)
