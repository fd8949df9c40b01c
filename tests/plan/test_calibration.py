"""Online recalibration: measured wall clock corrects the planner.

The calibrated cost model ranks backends from one benchmark artifact; when
real hardware disagrees, ``compare_plans`` records the stopwatch into a
:class:`~repro.plan.calibration.PlanCalibration` store and the next
``auto`` plan for the same (module, sizes) ranks candidates by measurement
— a mispredicted plan is corrected on the second run.
"""

import json
import os

import numpy as np
import pytest

from repro.core.pipeline import compile_source
from repro.machine.report import compare_plans
from repro.plan.calibration import (
    COST_MODEL_VERSION,
    PlanCalibration,
    store_path,
)
from repro.plan.planner import build_plan
from repro.runtime.executor import ExecutionOptions

SCALE_SOURCE = """\
Scale: module (A: array[1 .. r, 1 .. c] of real; r: int; c: int):
       [B: array[1 .. r, 1 .. c] of real];
type
    I = 1 .. r; J = 1 .. c;
define
    B[I, J] = A[I, J] * 2.0 + 1.0;
end Scale;
"""


class TestCalibrationStore:
    def test_unmeasured_costs_pass_through(self):
        cal = PlanCalibration()
        costs = cal.adjusted_costs("M", {"n": 4}, [("serial", 10.0), ("vectorized", 5.0)])
        assert costs == [10.0, 5.0]

    def test_measured_backend_ranked_by_stopwatch(self):
        cal = PlanCalibration()
        # The model thinks vectorized is 2x cheaper; the stopwatch says
        # serial actually wins on this machine.
        cal.record("M", {"n": 4}, "serial", seconds=0.001, predicted_cycles=10.0, workers=2)
        cal.record("M", {"n": 4}, "vectorized", seconds=0.5, predicted_cycles=5.0, workers=2)
        costs = cal.adjusted_costs(
            "M", {"n": 4}, [("serial", 10.0), ("vectorized", 5.0)], workers=2
        )
        assert costs[0] < costs[1]

    def test_unmeasured_candidate_scaled_through_anchor(self):
        cal = PlanCalibration()
        cal.record("M", {"n": 4}, "serial", seconds=1.0, predicted_cycles=100.0, workers=2)
        costs = cal.adjusted_costs(
            "M", {"n": 4}, [("serial", 100.0), ("threaded", 50.0)], workers=2
        )
        # anchor = 1s / 100 cycles; threaded -> 50 * 0.01 = 0.5s-equivalent
        assert costs == [1.0, 0.5]

    def test_records_are_per_sizes(self):
        cal = PlanCalibration()
        cal.record("M", {"n": 4}, "serial", seconds=9.0, predicted_cycles=1.0, workers=2)
        assert cal.measured("M", {"n": 8}, "serial", workers=2) is None
        assert cal.measured("M", {"n": 4}, "serial", workers=2).seconds == 9.0

    def test_records_are_per_worker_count(self):
        """A 1-worker measurement must not re-rank a 16-worker plan."""
        cal = PlanCalibration()
        cal.record("M", {"n": 4}, "process", seconds=9.0, workers=1)
        assert cal.measured("M", {"n": 4}, "process", workers=16) is None
        costs = cal.adjusted_costs(
            "M", {"n": 4}, [("serial", 10.0), ("process", 5.0)], workers=16
        )
        assert costs == [10.0, 5.0]  # untouched: no evidence at 16 workers

    def test_version_bumps_on_record(self):
        cal = PlanCalibration()
        v0 = cal.version
        cal.record("M", {}, "serial", 1.0)
        assert cal.version == v0 + 1

    def test_records_survive_cpu_affinity_changes(self, monkeypatch):
        """workers=None resolves through the store's *snapshotted* core
        count: a record written under one affinity setting must stay
        reachable after the affinity (and thus os.cpu_count) changes —
        call-time resolution silently orphaned every default-workers
        record."""
        import os

        import repro.plan.calibration as calibration_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(calibration_mod.os, "cpu_count", lambda: 8)
        cal = PlanCalibration()
        cal.record("M", {"n": 4}, "serial", seconds=9.0, workers=None)
        # The machine's affinity narrows from 8 cores to 2.
        monkeypatch.setattr(calibration_mod.os, "cpu_count", lambda: 2)
        rec = cal.measured("M", {"n": 4}, "serial", workers=None)
        assert rec is not None and rec.seconds == 9.0
        # Explicit worker counts keep their own keys.
        assert cal.measured("M", {"n": 4}, "serial", workers=3) is None


class TestDurableStore:
    """The on-disk calibration store: machine-fingerprinted, atomic,
    and never able to take planning down."""

    def test_record_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "cal.json"
        cal = PlanCalibration(path=path)
        cal.record("M", {"n": 4}, "threaded", seconds=0.25,
                   predicted_cycles=100.0, workers=2)
        loaded = PlanCalibration.load(path)
        rec = loaded.measured("M", {"n": 4}, "threaded", workers=2)
        assert rec is not None
        assert rec.seconds == 0.25 and rec.predicted_cycles == 100.0
        assert loaded.version == cal.version

    def test_missing_file_yields_empty_store(self, tmp_path):
        loaded = PlanCalibration.load(tmp_path / "absent.json")
        assert loaded.records == {}
        # ...and the path is attached, so the first record persists
        loaded.record("M", {}, "serial", 1.0)
        assert (tmp_path / "absent.json").exists()

    def test_corrupt_file_never_raises(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        assert PlanCalibration.load(path).records == {}
        path.write_text(json.dumps({"cost_model_version": COST_MODEL_VERSION,
                                    "cpu_count": os.cpu_count() or 1,
                                    "records": [{"module": "M"}]}))
        assert PlanCalibration.load(path).records == {}

    def test_foreign_version_or_machine_ignored(self, tmp_path):
        path = tmp_path / "cal.json"
        row = {"module": "M", "sizes": [["n", 4]], "workers": 2,
               "backend": "serial", "seconds": 1.0,
               "predicted_cycles": None}
        path.write_text(json.dumps({
            "cost_model_version": COST_MODEL_VERSION + 1,
            "cpu_count": os.cpu_count() or 1,
            "version": 1, "records": [row],
        }))
        assert PlanCalibration.load(path).records == {}
        path.write_text(json.dumps({
            "cost_model_version": COST_MODEL_VERSION,
            "cpu_count": (os.cpu_count() or 1) + 64,
            "version": 1, "records": [row],
        }))
        assert PlanCalibration.load(path).records == {}

    def test_in_memory_store_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        cal = PlanCalibration()  # no path: directly constructed
        cal.record("M", {}, "serial", 1.0)
        assert not list(tmp_path.glob("calibration-*.json"))

    def test_store_path_fingerprints_machine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        p = store_path(cpu_count=4)
        assert p.parent == tmp_path
        assert f"cpu4-v{COST_MODEL_VERSION}" in p.name
        assert store_path(cpu_count=8) != p

    def test_default_load_lands_in_native_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        cal = PlanCalibration.load()
        cal.record("M", {"n": 2}, "serial", 0.5)
        files = list(tmp_path.glob("calibration-*.json"))
        assert len(files) == 1
        again = PlanCalibration.load()
        assert again.measured("M", {"n": 2}, "serial").seconds == 0.5


class TestMispredictionCorrected:
    def _workload(self):
        result = compile_source(SCALE_SOURCE)
        rng = np.random.default_rng(5)
        args = {"A": rng.random((6, 40)), "r": 6, "c": 40}
        return result, args

    def test_build_plan_follows_fake_measurements(self):
        """Force a 'misprediction' with doctored measurements: whatever
        auto would pick, record it as slow and a different candidate as
        fast — the next plan must switch."""
        result, args = self._workload()
        scalars = {"r": 6, "c": 40}
        options = ExecutionOptions(backend="auto", workers=2)
        first = build_plan(
            result.analyzed, result.flowchart, options, scalars, cpu_count=2
        )
        other = "serial" if first.backend != "serial" else "vectorized"
        cal = PlanCalibration()
        cal.record(
            result.analyzed.name, scalars, first.backend,
            seconds=5.0, predicted_cycles=first.cycles, workers=2,
        )
        cal.record(
            result.analyzed.name, scalars, other,
            seconds=0.0001, predicted_cycles=first.cycles, workers=2,
        )
        second = build_plan(
            result.analyzed, result.flowchart, options, scalars,
            cpu_count=2, calibration=cal,
        )
        assert second.backend == other

    @pytest.mark.usefixtures("pinned_host")
    def test_compare_plans_records_and_compile_result_replans(self):
        """End to end: compare_plans feeds the CompileResult's store, the
        plan cache keys on the store version, and the next auto plan picks
        the measured-best backend for these sizes."""
        result, args = self._workload()
        options = ExecutionOptions(backend="auto", workers=2)
        stale = result.plan(args, execution=options)
        cmp = result.calibrate(
            args, execution=options, workers=2, repeats=1
        )
        assert result._calibration.version >= len(cmp.rows)
        recalibrated = result.plan(args, execution=options)
        assert recalibrated is not stale  # version key invalidated the cache
        assert recalibrated.backend == cmp.best_backend

    @pytest.mark.usefixtures("pinned_host")
    def test_compare_plans_standalone_store(self):
        result, args = self._workload()
        cal = PlanCalibration()
        cmp = compare_plans(
            result.analyzed, result.flowchart, args,
            backends=["serial", "vectorized"], workers=2, repeats=1,
            calibration=cal,
        )
        assert {b for (_m, _s, _w, b) in cal.records} >= {"serial", "vectorized"}
        for row in cmp.rows:
            rec = cal.measured(
                result.analyzed.name, {"r": 6, "c": 40}, row["backend"],
                workers=2,
            )
            assert rec is not None and rec.seconds == row["seconds"]
