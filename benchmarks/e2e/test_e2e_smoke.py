"""Smoke test of the end-to-end benchmark (run by path, not part of tier-1):

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py --quick`` untraced and traced and asserts that every
workload and every metric declared in ``BENCHMARK.json`` comes back with a
finite value and no failed operation, and that the Chrome trace loads.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_reports_every_declared_metric(tmp_path, trace, section):
    out = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick",
         "--trace", str(trace), "--out", str(out)],
        check=True, timeout=600, cwd=BENCH_DIR.parents[1],
    )
    doc = json.loads(out.read_text())
    assert {"cpu_count", "python", "numpy", "cc", "git_commit", "seed"} <= set(
        doc["provenance"]
    )
    runs = {r["workload"]: r for r in doc["runs"]}
    assert set(runs) == {w["name"] for w in SPEC["workloads"]}
    for name, run in runs.items():
        assert run["ops_attempted"] > 0 and run["ops_failed"] == 0, run["failures"]
        assert run["plan_digests"], name
        for declared in SPEC[section]:
            metric = run["metrics"][declared["name"]]
            assert metric["unit"] == declared["unit"]
            assert math.isfinite(metric["value"]), (name, declared["name"])
        if trace:
            events = json.loads(Path(run["trace_file"]).read_text())["traceEvents"]
            assert events and {"name", "ts", "dur"} <= set(events[0])
