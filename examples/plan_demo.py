"""The planning layer, end to end.

Compiles the paper's Figure-1 Jacobi Relaxation, prints the cost-driven
execution plan ``backend="auto"`` produces next to the pinned serial and
threaded plans, shows what a tall-skinny grid does with 8 workers (the
threaded pin beside ``auto``'s own plan), and finishes with a
predicted-vs-planned-vs-measured comparison across every backend.

Run: ``PYTHONPATH=src python examples/plan_demo.py``
"""

import numpy as np

from repro.core.paper import jacobi_analyzed
from repro.machine.report import compare_plans
from repro.plan.planner import build_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions
from repro.schedule.scheduler import schedule_module

TALL_SKINNY = """\
Scale: module (A: array[1 .. r, 1 .. c] of real; r: int; c: int):
       [B: array[1 .. r, 1 .. c] of real];
type
    I = 1 .. r; J = 1 .. c;
define
    B[I, J] = A[I, J] * 2.0 + 1.0;
end Scale;
"""


def main() -> None:
    analyzed = jacobi_analyzed()
    flow = schedule_module(analyzed)
    sizes = {"M": 32, "maxK": 8}

    print("=== Jacobi: what the planner decides per backend ===")
    for backend in ("auto", "serial", "threaded"):
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend=backend, workers=4), sizes,
        )
        print()
        print(plan.pretty(cycles=True))

    print()
    print("=== Tall-skinny grid (4 x 4096, 8 workers): what the workers get ===")
    scale = analyze_module(parse_module(TALL_SKINNY))
    sflow = schedule_module(scale)
    for backend in ("threaded", "auto"):
        plan = build_plan(
            scale, sflow,
            ExecutionOptions(backend=backend, workers=8),
            {"r": 4, "c": 4096},
        )
        print(plan.pretty())
        print()
    print("(4 rows cannot keep 8 workers busy: a team divides the root "
          "DOALL's rows, so at most 4 threads share the nest; the planner "
          "prices that against the span and the nest on one thread, per "
          "loop)")

    print()
    print("=== Predicted vs planned vs measured ===")
    rng = np.random.default_rng(0)
    args = {"InitialA": rng.random((34, 34)), **sizes}
    cmp = compare_plans(analyzed, flow, args, workers=2, workload="jacobi")
    print(cmp.pretty("Jacobi M=32, maxK=8:"))


if __name__ == "__main__":
    main()
