"""ExecutionPlan IR: the cost-driven planning layer.

The planner sits between the scheduler and the runtime. The scheduler
decides *what may run in parallel* (DO vs DOALL, windows); the planner
decides *how each loop nest actually executes* — which backend, whether a
DOALL is vectorised or lowered into one fused compiled kernel, and whether
that kernel runs on a team of threads — using the calibrated
:class:`~repro.machine.cost.MachineModel` alone, so a plan depends only on
the module, its options, its sizes and the core count. The execution engine
consumes the resulting :class:`ExecutionPlan` instead of re-deriving those choices
at loop entry.
"""

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
    "EquationPlan",
    "ExecutionPlan",
    "LoopPlan",
    "PlanError",
    "build_plan",
    "forced_plan",
]
