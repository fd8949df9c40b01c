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
* **Unlocking** — the pure-recurrence ``Mixed`` nest.  Fused, it already
  runs as one compiled in-order kernel (``DO I -> nest``); fission exposes
  the three recurrences as sibling loops the pipeline pass can decouple
  into stages, one worker each.  That is a trade — three passes over
  memory plus stage hand-offs against three-way overlap — and the planner
  takes it only where its cost model says the cores pay for it.

Equivalent CLI:  repro plan sweep.ps --set n=12000 --backend threaded \\
                     --workers 4 --strategy fission

Run:  python examples/fission_demo.py
"""

import time

import numpy as np

from repro.core.recurrences import mixed_analyzed, mixed_args
from repro.graph.build import build_dependency_graph
from repro.plan.planner import build_plan
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


def _time(analyzed, args, options, program=None, reps=2):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = execute_module(
            analyzed, args, flowchart=_MERGED_CACHE[id(analyzed)],
            options=options, program=program,
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

    unfissioned = ExecutionOptions(
        backend="threaded", workers=4, use_fission=False
    )
    auto = ExecutionOptions(backend="threaded", workers=4)

    print()
    print("-- unfissioned plan (--no-fission) --")
    plan = build_plan(sweep, chart, unfissioned, {"n": n})
    print(plan.pretty())
    for note in plan.provenance.get("slow_loops", []):
        print(f"  slow loop: {note['label']} — {note['reason']}")

    print()
    print("-- auto plan: the planner takes the split on merit --")
    plan = build_plan(sweep, chart, auto, {"n": n})
    print(plan.pretty())
    for note in plan.provenance.get("fission_loops", []):
        state = "chosen" if note["chosen"] else "rejected"
        print(f"  fission: {state} ({note['why']}); pieces {note['pieces']}")
    for note in plan.provenance.get("slow_loops", []):
        print(f"  slow loop: {note['label']} — {note['fission']}")

    t_fused, ref = _time(sweep, args, unfissioned, program)
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
    print("Act 2 — unlocking: pure recurrences, fission can feed the pipeline")
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

    t_fused, ref = _time(analyzed, args, unfissioned)
    t_split, res = _time(analyzed, args, auto)
    for name in ("T", "S", "M"):
        assert np.array_equal(np.asarray(ref[name]), np.asarray(res[name])), (
            f"{name}: fissioned result diverged"
        )
    print()
    print(f"unfissioned: {t_fused * 1e3:8.1f} ms   (one compiled DO, one thread)")
    print(f"auto plan:   {t_split * 1e3:8.1f} ms")
    print(f"ratio:       {t_fused / t_split:8.1f}x  — bit-exact")


if __name__ == "__main__":
    main()
