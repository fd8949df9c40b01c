"""Speedup tables over processor counts, and predicted-vs-measured
comparisons of the cost model against real execution backends."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.machine.cost import MachineModel
from repro.machine.simulator import simulate_flowchart
from repro.ps.semantics import AnalyzedModule
from repro.schedule.flowchart import Flowchart


@dataclass
class SpeedupTable:
    processors: list[int]
    cycles: list[int]

    @property
    def speedups(self) -> list[float]:
        base = self.cycles[0]
        return [base / c for c in self.cycles]

    @property
    def efficiencies(self) -> list[float]:
        return [s / p for s, p in zip(self.speedups, self.processors)]

    def rows(self) -> list[tuple[int, int, float, float]]:
        return list(zip(self.processors, self.cycles, self.speedups, self.efficiencies))

    def pretty(self, title: str = "") -> str:
        lines = []
        if title:
            lines.append(title)
        lines.append(f"{'P':>4}  {'cycles':>12}  {'speedup':>8}  {'efficiency':>10}")
        for p, c, s, e in self.rows():
            lines.append(f"{p:>4}  {c:>12}  {s:>8.2f}  {e:>10.2f}")
        return "\n".join(lines)


def speedup_table(
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    args: dict[str, int],
    processors: list[int],
    model: MachineModel | None = None,
    collapse: bool = True,
) -> SpeedupTable:
    model = model or MachineModel()
    cycles = []
    for p in processors:
        result = simulate_flowchart(
            analyzed, flowchart, args, model.with_processors(p), collapse=collapse
        )
        cycles.append(result.cycles)
    return SpeedupTable(list(processors), cycles)


# ---------------------------------------------------------------------------
# Predicted vs measured: the cost model against a real execution backend
# ---------------------------------------------------------------------------


@dataclass
class BackendSpeedupReport:
    """Cost-model predictions next to measured wall-clock speedups for one
    backend over a range of worker counts. The baseline for *measured*
    speedups is the serial reference backend; *predicted* speedups come from
    the simulated MIMD machine at P = workers."""

    workload: str
    backend: str
    workers: list[int]
    seconds: list[float]
    baseline_seconds: float
    predicted: list[float]
    baseline_backend: str = "serial"
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def measured(self) -> list[float]:
        return [
            self.baseline_seconds / s if s else float("inf")
            for s in self.seconds
        ]

    def rows(self) -> list[tuple[int, float, float, float]]:
        return list(zip(self.workers, self.predicted, self.measured, self.seconds))

    def pretty(self, title: str = "") -> str:
        lines = []
        if title:
            lines.append(title)
        lines.append(
            f"baseline ({self.baseline_backend}): "
            f"{self.baseline_seconds * 1e3:.1f} ms"
        )
        lines.append(
            f"{'workers':>8}  {'predicted':>10}  {'measured':>10}  {'seconds':>10}"
        )
        for w, pred, meas, sec in self.rows():
            lines.append(f"{w:>8}  {pred:>9.2f}x  {meas:>9.2f}x  {sec:>10.4f}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form for benchmark trajectory artifacts."""
        return {
            "workload": self.workload,
            "backend": self.backend,
            "baseline_backend": self.baseline_backend,
            "baseline_seconds": self.baseline_seconds,
            "workers": list(self.workers),
            "seconds": list(self.seconds),
            "measured_speedup": self.measured,
            "predicted_speedup": list(self.predicted),
            **self.extras,
        }


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_backend_speedups(
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    run_args: dict[str, Any],
    backend: str,
    workers_counts: list[int],
    model: MachineModel | None = None,
    repeats: int = 1,
    execution=None,
    workload: str = "",
    collapse: bool = True,
) -> BackendSpeedupReport:
    """Execute ``analyzed`` on ``backend`` across ``workers_counts`` and
    pair each measured wall-clock speedup (over the serial reference
    backend) with the cost model's prediction at the same processor count.

    ``run_args`` are full execution inputs; its integer entries feed the
    simulator's loop bounds. ``execution`` supplies base ExecutionOptions
    (e.g. ``use_windows=True``)."""
    import numpy as np

    from repro.runtime.executor import ExecutionOptions, execute_module

    base = ExecutionOptions.resolve(execution)
    scalar_args = {
        k: int(v)
        for k, v in run_args.items()
        if isinstance(v, (int, np.integer))
    }

    baseline_seconds = _best_of(
        lambda: execute_module(
            analyzed,
            run_args,
            flowchart=flowchart,
            options=ExecutionOptions.resolve(base, backend="serial"),
        ),
        repeats,
    )
    model = model or MachineModel()
    serial_sim = simulate_flowchart(
        analyzed, flowchart, scalar_args, model.with_processors(1), collapse=collapse
    )
    seconds: list[float] = []
    predicted: list[float] = []
    for w in workers_counts:
        options = ExecutionOptions.resolve(base, backend=backend, workers=w)
        seconds.append(
            _best_of(
                lambda: execute_module(
                    analyzed, run_args, flowchart=flowchart, options=options
                ),
                repeats,
            )
        )
        parallel_sim = simulate_flowchart(
            analyzed,
            flowchart,
            scalar_args,
            model.with_processors(w),
            collapse=collapse,
        )
        predicted.append(parallel_sim.speedup_against(serial_sim))
    return BackendSpeedupReport(
        workload=workload or analyzed.name,
        backend=backend,
        workers=list(workers_counts),
        seconds=seconds,
        baseline_seconds=baseline_seconds,
        predicted=predicted,
    )


# ---------------------------------------------------------------------------
# Predicted vs planned vs measured: the planner against the stopwatch
# ---------------------------------------------------------------------------


@dataclass
class PlanComparison:
    """For one workload: what the calibrated model *predicted* each backend
    would cost, what the planner consequently *planned*, and what the wall
    clock *measured*. The planner is honest when the backend it picks for
    ``auto`` lands within noise of the measured-best backend."""

    workload: str
    auto_backend: str
    #: per candidate backend: predicted cycles, plan fingerprint, seconds
    rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def best_backend(self) -> str:
        return min(self.rows, key=lambda r: r["seconds"])["backend"]

    @property
    def auto_seconds(self) -> float:
        for r in self.rows:
            if r["backend"] == self.auto_backend:
                return r["seconds"]
        raise ValueError(
            f"auto-planned backend {self.auto_backend!r} was not measured "
            f"(rows: {[r['backend'] for r in self.rows]})"
        )

    @property
    def best_seconds(self) -> float:
        return min(r["seconds"] for r in self.rows)

    def pretty(self, title: str = "") -> str:
        lines = [title] if title else []
        lines.append(
            f"auto plans {self.auto_backend!r}; measured best "
            f"{self.best_backend!r}"
        )
        lines.append(f"{'backend':>12}  {'predicted':>12}  {'seconds':>10}  planned")
        for r in sorted(self.rows, key=lambda r: r["predicted_cycles"]):
            strategies = ",".join(s for _, s in r["strategies"])
            lines.append(
                f"{r['backend']:>12}  {r['predicted_cycles']:>12.0f}  "
                f"{r['seconds']:>10.4f}  {strategies}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "auto_backend": self.auto_backend,
            "best_backend": self.best_backend,
            "auto_seconds": self.auto_seconds,
            "best_seconds": self.best_seconds,
            "rows": self.rows,
        }


def compare_plans(
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    run_args: dict[str, Any],
    backends: list[str] | None = None,
    workers: int | None = None,
    execution=None,
    repeats: int = 3,
    workload: str = "",
) -> PlanComparison:
    """Plan and execute ``analyzed`` on every candidate backend, pairing
    the planner's predicted cycles with measured wall clock, and record
    which backend ``auto`` would pick. The measurements are only reported:
    nothing here feeds them back into planning."""
    import numpy as np

    from repro.plan.ir import KNOWN_BACKENDS
    from repro.plan.planner import build_plan
    from repro.runtime.executor import ExecutionOptions, execute_module

    backends = list(backends or KNOWN_BACKENDS)
    base = ExecutionOptions.resolve(execution)
    if workers is None:
        workers = base.workers
    scalars = {
        k: int(v)
        for k, v in run_args.items()
        if isinstance(v, (int, np.integer))
    }

    auto_plan = build_plan(
        analyzed, flowchart,
        ExecutionOptions.resolve(base, backend="auto", workers=workers),
        scalars,
    )
    if auto_plan.backend not in backends:
        # auto must always be measurable against its own pick
        backends.append(auto_plan.backend)
    rows: list[dict[str, Any]] = []
    for backend in backends:
        options = ExecutionOptions.resolve(
            base, backend=backend, workers=workers
        )
        plan = build_plan(analyzed, flowchart, options, scalars)
        seconds = _best_of(
            lambda options=options, plan=plan: execute_module(
                analyzed, run_args, flowchart=flowchart, options=options, plan=plan
            ),
            repeats,
        )
        rows.append(
            {
                "backend": backend,
                "predicted_cycles": plan.cycles,
                "strategies": plan.strategies(),
                "seconds": seconds,
            }
        )
    return PlanComparison(
        workload=workload or analyzed.name,
        auto_backend=auto_plan.backend,
        rows=rows,
    )

