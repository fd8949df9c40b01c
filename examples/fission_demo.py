#!/usr/bin/env python3
"""Loop fission as a flowchart-level transform: splitting a poisoned nest.

The merge pass happily fuses every loop over the same subrange into one
nest — that is what Gokhale's flowchart construction is for.  But a fused
body is priced as a unit: one equation the kernel tier cannot compile (a
module call with index-dependent arguments, say) drags every sibling in
the nest down to the per-element evaluator.

Fission is the inverse transform, applied *selectively*.  The body's
units are grouped by dependence structure (an SCC condensation restricted
to the nest), the enclosing loop is replicated once per group in
topological order, and the planner prices the split pieces independently
against the fused original.  Single assignment makes the split bit-exact;
carried cycles that interlock the body, shared-target writes, and
window-mode storage hazards reject the transform outright.

Two acts:

* **Isolation** — a nest mixing a module-call recurrence with clean
  Jacobi-style update recurrences.  Unfissioned, the call poisons the
  whole body onto the evaluator.  Fissioned, the clean updates regain
  native kernels and the call piece alone bounds the runtime.
* **Declining** — the pure-recurrence ``Mixed`` nest.  Fused, it already
  runs as one compiled in-order kernel (``DO I -> nest``).  Fission could
  split it into three recurrences, but each would be its own compiled
  ``DO``: three passes over memory where one does the same work, so the
  planner keeps the fused loop and says why.

Equivalent CLI:  repro plan sweep.ps --set n=12000 --backend threaded \\
                     --workers 4 --strategy fission

Run:  python examples/fission_demo.py
"""

import time

import numpy as np

from repro.core.recurrences import mixed_analyzed, mixed_args
from repro.graph.build import build_dependency_graph
from repro.plan.planner import build_plan, forced_plan
from repro.ps.parser import parse_program
from repro.ps.semantics import analyze_program
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module

PROGRAM = """\
Damp: module (v: int): [w: int];
define
    w = v * 3 + 1;
end Damp;

Sweep: module (X: array[1 .. n] of int; n: int):
       [T: array[0 .. n] of int; S: array[0 .. n] of int;
        M: array[0 .. n] of int; Q: array[0 .. n] of int];
type
    I = 1 .. n;
define
    T[0] = 0;
    S[0] = 0;
    M[0] = X[1];
    Q[0] = 0;
    T[I] = T[I-1] + Damp(X[I]);
    S[I] = S[I-1] + (X[I] * X[I] - 3 * X[I] + 7);
    M[I] = max(M[I-1], X[I] * X[I] - 4 * X[I]);
    Q[I] = Q[I-1] + (X[I] - 2) * (X[I] + 2);
end Sweep;
"""


def _merged(analyzed):
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


def _time(analyzed, args, options, program=None, reps=2, plan=None):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = execute_module(
            analyzed, args, flowchart=_MERGED_CACHE[id(analyzed)],
            options=options, program=program, plan=plan,
        )
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


_MERGED_CACHE = {}


def main() -> None:
    print("=" * 72)
    print("Act 1 — isolation: a module call poisons the fused nest")
    print("=" * 72)
    program = analyze_program(parse_program(PROGRAM))
    sweep = program["Sweep"]
    chart = _merged(sweep)
    _MERGED_CACHE[id(sweep)] = chart
    print(chart.pretty())

    n = 12000
    rng = np.random.default_rng(3)
    args = {"X": rng.integers(-9, 10, n), "n": n}

    auto = ExecutionOptions(backend="threaded", workers=4)
    # a per-path pin fixes the loop's strategy, so nothing splits it
    (loop,) = [d for d in chart.loops() if not d.parallel]
    unfissioned = forced_plan(
        sweep, chart, "threaded", auto, {"n": n},
        overrides={chart.path_of(loop): "serial"},
    )

    print()
    print("-- unfissioned plan (the DO pinned to serial) --")
    print(unfissioned.pretty())

    print()
    print("-- auto plan: the planner takes the split on merit --")
    plan = build_plan(sweep, chart, auto, {"n": n})
    print(plan.pretty())
    for note in plan.provenance.get("fission_loops", []):
        state = "chosen" if note["chosen"] else "rejected"
        print(f"  fission: {state} ({note['why']}); pieces {note['pieces']}")
    for note in plan.provenance.get("slow_loops", []):
        print(f"  slow loop: {note['label']} — {note['reason']}; {note['fission']}")

    t_fused, ref = _time(sweep, args, auto, program, plan=unfissioned)
    t_split, res = _time(sweep, args, auto, program)
    for name in ("T", "S", "M", "Q"):
        assert np.array_equal(np.asarray(ref[name]), np.asarray(res[name])), (
            f"{name}: fissioned result diverged"
        )
    print()
    print(f"unfissioned: {t_fused * 1e3:8.1f} ms   (whole body on the evaluator)")
    print(f"fissioned:   {t_split * 1e3:8.1f} ms   (call piece alone bounds the time)")
    print(f"speedup:     {t_fused / t_split:8.2f}x  — bit-exact")
    print()
    print("The call still costs what it costs — Amdahl caps this act.  The")
    print("point is the isolation: the three update recurrences now run on")
    print("native in-order kernels instead of riding the evaluator.")

    print()
    print("=" * 72)
    print("Act 2 — declining: pure recurrences stay one compiled DO")
    print("=" * 72)
    analyzed = mixed_analyzed()
    chart = _merged(analyzed)
    _MERGED_CACHE[id(analyzed)] = chart
    print(chart.pretty())

    n = 200000
    args = mixed_args(n)
    print()
    plan = build_plan(analyzed, chart, auto, {"n": n})
    print(plan.pretty())
    for note in plan.provenance.get("fission_loops", []):
        state = "chosen" if note["chosen"] else "rejected"
        print(f"  fission: {state} ({note['why']})")

    assert plan.strategies() == [("I", "nest")], (
        "the auto plan should keep the loop whole, one compiled DO"
    )
    forced = ExecutionOptions(backend="threaded", workers=4, strategy="fission")
    _, ref = _time(analyzed, args, forced, reps=1)
    _, res = _time(analyzed, args, auto, reps=1)
    for name in ("T", "S", "M"):
        assert np.array_equal(np.asarray(ref[name]), np.asarray(res[name]))
    print()
    print("Forced, the split gives the same answer; unforced, the planner")
    print("keeps one compiled DO: one pass over memory.")


if __name__ == "__main__":
    main()
