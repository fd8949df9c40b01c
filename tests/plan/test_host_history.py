"""Plans ignore what this host measured before.

A plan is a function of the module, its options, its sizes and the core
count — in every process, the serve daemon included. Older versions kept a
store of measured seconds (``calibration-cpu{n}-v2.json``) beside the
native kernels, keyed by module name alone, and let it re-rank ``auto``:
a Gauss–Seidel module then planned from the stopwatch of a Jacobi module
that shares its name. A store left on disk by such a version is never
read, and nothing writes one.
"""

import json
import os

import numpy as np

from repro.core.paper import (
    RELAXATION_GAUSS_SEIDEL_SOURCE,
    RELAXATION_JACOBI_SOURCE,
)
from repro.core.pipeline import compile_source
from repro.machine.report import compare_plans
from repro.runtime.executor import ExecutionOptions

SIZES = {"M": 32, "maxK": 8}
SOURCES = {
    "jacobi": RELAXATION_JACOBI_SOURCE,
    "gauss_seidel": RELAXATION_GAUSS_SEIDEL_SOURCE,
}
#: the backend the planted records make fastest; ``auto`` never picks it
PLANTED = "threaded"


def _plant_store(cache) -> None:
    """An older version's store: ``Relaxation`` at ``SIZES`` on two
    workers, where :data:`PLANTED` ran in a tenth of a millisecond and
    every other backend took ten seconds."""
    cpus = os.cpu_count() or 1
    records = [
        {
            "module": "Relaxation",
            "sizes": [[k, v] for k, v in sorted(SIZES.items())],
            "workers": 2,
            "backend": backend,
            "seconds": 1e-4 if backend == PLANTED else 10.0,
            "predicted_cycles": None,
        }
        for backend in ("serial", "vectorized", "threaded")
    ]
    (cache / f"calibration-cpu{cpus}-v2.json").write_text(json.dumps({
        "cost_model_version": 2,
        "cpu_count": cpus,
        "version": len(records),
        "records": records,
    }))


def _plans(cache, monkeypatch) -> dict:
    """``pretty()`` and ``explain()`` of every plan, compiled under
    ``cache``: both relaxations, ``auto`` on both kernel tiers, one-shot
    and served."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    out = {}
    for name, source in SOURCES.items():
        result = compile_source(source)
        for tier in ("native", "numpy"):
            options = ExecutionOptions(workers=2, kernel_tier=tier)
            for served in (False, True):
                plan = result.plan(SIZES, options, served=served)
                assert plan.requested == "auto"
                out[name, tier, served] = (plan.pretty(), plan.explain())
    return out


def test_plans_ignore_a_stored_measurement(tmp_path, monkeypatch, pinned_host):
    empty, planted = tmp_path / "empty", tmp_path / "planted"
    empty.mkdir()
    planted.mkdir()
    _plant_store(planted)
    before = sorted(p.name for p in planted.iterdir())

    want = _plans(empty, monkeypatch)
    assert all(f"backend={PLANTED} " not in text for text, _ in want.values())
    assert _plans(planted, monkeypatch) == want

    # nothing this process does writes a store either
    result = compile_source(RELAXATION_JACOBI_SOURCE)
    args = {**SIZES, "InitialA": np.random.default_rng(0).random((34, 34))}
    result.run(args, ExecutionOptions(workers=2))
    compare_plans(
        result.analyzed, result.flowchart, args, workers=2, repeats=1
    )
    after = sorted(p.name for p in planted.iterdir())
    new = set(after) - set(before)
    assert not [name for name in new if name.startswith("calibration-")], new
    assert not [p for p in empty.iterdir() if p.name.startswith("calibration-")]

