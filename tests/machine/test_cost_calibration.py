"""Cost-model calibration regression: the model must predict *this
runtime's* per-element costs, not the evaluator-era ones.

The committed ``benchmarks/baseline/BENCH_kernels.json`` artifact carries
measured evaluator-vs-kernel timings on Jacobi;
``MachineModel.from_kernel_bench`` re-derives the execution-mode overheads
from it, and the shipped defaults must stay within a small band of that
derivation. The speedup pin uses a *non-anchor* grid so the test checks
generalisation, not the calibration identity."""

import json
import pathlib

import pytest

from repro.core.paper import jacobi_analyzed
from repro.machine.cost import MachineModel, equation_cost
from repro.machine.simulator import simulate_flowchart
from repro.schedule.scheduler import schedule_module

BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "baseline" / "BENCH_kernels.json"
)


@pytest.fixture(scope="module")
def bench():
    return json.loads(BASELINE.read_text())


@pytest.fixture(scope="module")
def calibrated(bench):
    return MachineModel.from_kernel_bench(bench)


def _measured_speedup(bench, backend, grid):
    row = next(
        r for r in bench["rows"]
        if r["workload"] == "jacobi"
        and r["backend"] == backend
        and r["grid"] == grid
    )
    return row["speedup"]


def _eq3():
    analyzed = jacobi_analyzed()
    return next(eq for eq in analyzed.equations if eq.label == "eq.3")


class TestCalibration:
    def test_predicted_kernel_speedup_matches_anchor(self, bench, calibrated):
        """At the calibration anchor (largest serial grid) the predicted
        evaluator->kernel speedup reproduces the measurement closely."""
        eq = _eq3()
        predicted = calibrated.element_cost(eq, "evaluator") / calibrated.element_cost(
            eq, "kernel"
        )
        grids = [r["grid"] for r in bench["rows"]
                 if r["workload"] == "jacobi" and r["backend"] == "serial"]
        measured = _measured_speedup(bench, "serial", max(grids))
        assert predicted == pytest.approx(measured, rel=0.15)

    def test_predicted_speedup_generalises_off_anchor(self, bench, calibrated):
        """The same prediction lands within tolerance of the measured
        speedup at a grid the calibration never saw."""
        eq = _eq3()
        predicted = calibrated.element_cost(eq, "evaluator") / calibrated.element_cost(
            eq, "kernel"
        )
        grids = sorted(
            r["grid"] for r in bench["rows"]
            if r["workload"] == "jacobi" and r["backend"] == "serial"
        )
        for grid in grids[:-1]:
            measured = _measured_speedup(bench, "serial", grid)
            assert predicted == pytest.approx(measured, rel=0.5), grid

    def test_shipped_defaults_track_the_baseline(self, calibrated):
        """The constants baked into MachineModel must stay within a 2x band
        of what the committed baseline derives — the ROADMAP's 'cost model
        still predicts evaluator-era costs' failure mode cannot recur
        silently."""
        default = MachineModel()
        assert default.eval_element_overhead == pytest.approx(
            calibrated.eval_element_overhead, rel=1.0
        )

    def test_mode_ordering(self):
        """Per-element cost must rank evaluator > kernel > nest > vector —
        the orderings the planner's choices rest on. The native mode sits
        far below nest and below vector: a C nest whose range checks are
        proven at entry streams the doubles once, where a NumPy span makes
        a pass and a temporary per operator (about 0.3x, measured in
        BENCH_native.json)."""
        m = MachineModel()
        eq = _eq3()
        costs = [
            m.element_cost(eq, mode)
            for mode in ("evaluator", "kernel", "nest", "vector")
        ]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] > 10 * costs[1]  # the interpretation tax is real
        native = m.element_cost(eq, "native")
        assert native < m.element_cost(eq, "nest") / 10
        assert native < m.element_cost(eq, "vector")

    def test_compiled_factors_track_the_native_baseline(self):
        """``from_native_bench`` re-derives the native and the NumPy-span
        per-element factors from one serial Jacobi row of the committed
        BENCH_native.json; the shipped defaults must stay within a 2x band
        of that derivation (same contract as the other mode constants) —
        and so must their *ratio*, the number ``auto`` decides a compiled
        nest against a vector span on."""
        path = BASELINE.parent / "BENCH_native.json"
        payload = json.loads(path.read_text())
        derived = MachineModel.from_native_bench(payload)
        default = MachineModel()
        assert default.native_element_factor == pytest.approx(
            derived.native_element_factor, rel=1.0
        )
        assert default.vector_element_factor == pytest.approx(
            derived.vector_element_factor, rel=1.0
        )
        row = max(
            (r for r in payload["rows"]
             if r["workload"] == "jacobi" and r["backend"] == "serial"),
            key=lambda r: r["grid"],
        )
        measured = row["native_seconds"] / row["span_seconds"]
        assert derived.native_element_factor / derived.vector_element_factor == (
            pytest.approx(measured)
        )
        modelled = default.native_element_factor / default.vector_element_factor
        assert measured / 2 <= modelled <= measured * 2
        assert modelled < 1  # a C nest is priced below a NumPy span
        # native stays far below the Python nest tier after recalibration
        eq = _eq3()
        assert derived.element_cost(eq, "native") < derived.element_cost(
            eq, "nest"
        ) / 10

    def test_simulator_modes_scale_cycles(self):
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        args = {"M": 8, "maxK": 4}
        m = MachineModel()
        ev = simulate_flowchart(analyzed, flow, args, m, mode="evaluator").cycles
        kern = simulate_flowchart(analyzed, flow, args, m, mode="kernel").cycles
        abstract = simulate_flowchart(analyzed, flow, args, m).cycles
        assert ev > kern > abstract

    def test_abstract_mode_unchanged(self):
        """mode='abstract' is the paper-era machine: identical cycles to
        the pre-calibration simulator (equation cost only)."""
        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        m = MachineModel()
        r = simulate_flowchart(analyzed, flow, {"M": 4, "maxK": 3}, m)
        r2 = simulate_flowchart(
            analyzed, flow, {"M": 4, "maxK": 3}, m, mode="abstract"
        )
        assert r.cycles == r2.cycles

    def test_equation_cost_unchanged_by_calibration(self):
        """The structural cost rules (ops, memory) are untouched."""
        m = MachineModel()
        eq = _eq3()
        assert equation_cost(eq, m) == int(equation_cost(eq, m))
