#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (metric, workload). For an end-to-end metric the row gives
both medians, the ratio B/A (base: A) and a verdict against the metric's
bound from ``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either file (interquartile
  range over median, needs two or more runs of the workload in the file)
  is wider than the bound, so the medians cannot settle it;
* ``same`` — neither.

Per-layer metrics have no bound: their rows give the ratio, and metrics
that are exact counts (unit ``count`` / ``bytes``, except those counting
measured samples) are marked ``differs`` when the two files disagree. A
program whose ``plan.pretty()`` digest changed is listed as a plan flip,
which is usually the cause of a moved ``run_s``. Exit status 1 when any
row is ``worse``, ``unresolved`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: counts that depend on timing (how many requests failed), not on the program
MEASURED_COUNTS = {"serve.errors"}


def load(path: str) -> dict[tuple[int, str], list[dict]]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    grouped: dict[tuple[int, str], list[dict]] = {}
    for run in runs:
        grouped.setdefault((run["trace"], run["workload"]), []).append(run)
    return grouped


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def spread(vals: list[float]) -> float | None:
    """Interquartile range over median; None with fewer than two runs."""
    if len(vals) < 2:
        return None
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(statistics.median(vals))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = load(argv[1]), load(argv[2])
    bad = 0
    print(f"{'metric':30s} {'workload':15s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for wl in (w["name"] for w in spec["workloads"]):
            runs_a, runs_b = a.get((trace, wl)), b.get((trace, wl))
            if not runs_a or not runs_b:
                continue
            for d in declared:
                va, vb = values(runs_a, d["name"]), values(runs_b, d["name"])
                if not va or not vb:
                    continue
                ma, mb = statistics.median(va), statistics.median(vb)
                ratio = f"{mb / ma:8.3f}" if ma else f"{'-':>8s}"
                bound = d.get("bound")
                width, verdict = "", ""
                if bound is not None:
                    worse_by = (mb - ma) / ma if d["better"] == "lower" else (ma - mb) / ma
                    spreads = [s for s in (spread(va), spread(vb)) if s is not None]
                    width = f"{max(spreads):8.3f}" if spreads else f"{'n=1':>8s}"
                    if spreads and max(spreads) > bound:
                        verdict = "unresolved"
                    elif worse_by > bound:
                        verdict = "worse"
                    else:
                        verdict = "same"
                elif d["unit"] in ("count", "bytes") and d["name"] not in MEASURED_COUNTS:
                    verdict = "exact" if set(va) == set(vb) else "differs"
                bad += verdict in ("worse", "unresolved", "differs")
                print(f"{d['name']:30s} {wl:15s} {ma:12.6g} {mb:12.6g} {ratio} "
                      f"{width:>8s} {bound if bound is not None else '':>6}  {verdict}")
            digests_a = {p: {r["plan_digests"].get(p) for r in runs_a}
                         for p in runs_a[0]["plan_digests"]}
            for program, seen in digests_a.items():
                seen_b = {r["plan_digests"].get(program) for r in runs_b}
                if seen != seen_b:
                    print(f"plan flip: {wl}/{program}: {sorted(map(str, seen))} -> "
                          f"{sorted(map(str, seen_b))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
