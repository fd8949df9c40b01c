"""ExecutionPlan IR: the cost-driven planning layer.

The planner sits between the scheduler and the runtime. The scheduler
decides *what may run in parallel* (DO vs DOALL, windows); the planner
decides *how each loop nest actually executes* — which backend, whether a
DOALL is vectorised, chunked across workers (and at which nest level),
collapsed into one flattened chunked iteration space, or lowered into one
fused compiled kernel — using the calibrated
:class:`~repro.machine.cost.MachineModel`, corrected by any measured wall
clock recorded in a :class:`PlanCalibration` store. Every backend consumes
the resulting :class:`ExecutionPlan` instead of re-deriving those choices
at loop entry.
"""

from repro.plan.calibration import CalibrationRecord, PlanCalibration
from repro.plan.ir import (
    VALID_STRATEGIES,
    EquationPlan,
    ExecutionPlan,
    LoopPlan,
    PlanError,
)
from repro.plan.planner import build_plan, forced_plan

__all__ = [
    "VALID_STRATEGIES",
    "CalibrationRecord",
    "EquationPlan",
    "ExecutionPlan",
    "LoopPlan",
    "PlanCalibration",
    "PlanError",
    "build_plan",
    "forced_plan",
]
