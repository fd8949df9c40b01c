"""A fresh process from interpreter start to verified first results.

    python child.py WORKLOAD.pkl [--warm-kernels]

What ``repro run`` pays for every request of a workload: import the
package, compile each program (parse -> plan), build whatever kernels the
plans need (``cc`` when ``$REPRO_NATIVE_CACHE`` is empty, a dlopen when a
previous launch filled it), run once, check the outputs. The parent times
the whole process from outside; the phase times, peak RSS and kernel
counts printed here (one JSON line) feed the per-layer metrics.

``--warm-kernels`` (traced runs only) adds an explicit
``KernelCache.warm`` between compile and first run, so kernel build time
is a phase of its own instead of hiding inside the first run.
"""

import json
import pickle
import sys
import time

from driver import add_src_to_path
from refclock import at_reference_speed, spin


def peak_rss_kb() -> int:
    """This process's peak resident set. ``ru_maxrss`` cannot be used:
    Linux carries the launching process's high-water mark across
    ``exec``, so it would report the benchmark's own RSS."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    path, warm_kernels = argv[1], "--warm-kernels" in argv[2:]
    add_src_to_path()
    spins = [spin()]  # the parent rescales our wall time by these
    phases: dict[str, float] = {}

    def end_phase(name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        spins.append(spin())
        phases[name] = at_reference_speed(elapsed, spins[-2:])

    t = time.perf_counter()
    import repro.cli  # noqa: F401  (what the `repro` entry point imports)

    end_phase("import_s", t)

    import oracle
    from driver import open_sessions, run_request

    with open(path, "rb") as fh:
        workload = pickle.load(fh)  # written by run.py in this checkout

    failed: list[str] = []
    kernels = {"native": 0, "nests": 0, "compiled": 0}
    t = time.perf_counter()
    with open_sessions(workload) as sessions:
        end_phase("compile_s", t)
        if warm_kernels:
            t = time.perf_counter()
            for r in workload.requests:
                cache = sessions[r.compiler].result_for(r.module).kernel_cache
                cache.warm(bool(r.overrides.get("use_windows")), tier="native")
            end_phase("kernel_warm_s", t)
        t = time.perf_counter()
        for r in workload.requests:
            bad = oracle.mismatch(r, run_request(sessions, r))
            if bad:
                failed.append(bad)
            spins.append(spin())
        end_phase("first_run_s", t)
        for r in workload.programs():
            stats = sessions[r.compiler].result_for(r.module).kernel_cache.stats()
            for key in kernels:
                kernels[key] += stats[key]
    print(
        json.dumps(
            {
                "phases": phases,
                "spins": spins,
                "peak_rss_kb": peak_rss_kb(),
                "attempted": len(workload.requests),
                "failed": failed,
                "kernels": kernels,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
