"""The benchmark's programs, sizes and workloads.

A workload is a list of *requests*; a request is one (program, arguments,
execution overrides) triple plus the ``CompilerOptions`` its program is
compiled with. Inputs are drawn from ``--seed``; sizes are frozen here
(the README records how each was chosen). Nothing in this file touches
``repro`` — it only produces PS source text, NumPy inputs and option
dictionaries, so child processes can unpickle a workload before they
import the compiler.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any

import numpy as np

# -- PS sources --------------------------------------------------------------
# The paper's and the recurrence corpus' modules are imported lazily from
# ``repro.core`` (source text only); the three below exist only in
# ``benchmarks/bench_plan.py`` / ``examples/`` and are copied here so the
# benchmark's directory is self-contained.

TALLSKINNY_SOURCE = """\
Relax: module (InitialA: array[0 .. r + 1, 0 .. c + 1] of real;
               r: int; c: int; maxK: int):
       [newA: array[0 .. r + 1, 0 .. c + 1] of real];
type
    I = 1 .. r; J = 1 .. c; K = 1 .. maxK;
var
    A: array [0 .. maxK, 0 .. r + 1, 0 .. c + 1] of real;
define
    A[0, I, J] = InitialA[I, J];
    A[K, I, J] = (A[K-1, I-1, J] + A[K-1, I+1, J] +
                  A[K-1, I, J-1] + A[K-1, I, J+1]) / 4.0;
    newA[I, J] = A[maxK, I, J];
end Relax;
"""

ALIGN_SOURCE = """\
Align: module (CostA: array[1 .. n] of real;
               CostB: array[1 .. n] of real;
               gap: real; n: int):
       [score: real];
type
    I, J = 1 .. n;
var
    D: array [0 .. n, 0 .. n] of real;
define
    D[0] = 0.0;
    D[I, 0] = I * gap;
    D[I, J] = min(D[I-1, J-1] + abs(CostA[I] - CostB[J]),
                  min(D[I-1, J] + gap, D[I, J-1] + gap));
    score = D[n, n];
end Align;
"""

PATHS_SOURCE = """\
Paths: module (n: int): [Y: array[0 .. n] of int];
type
    I = 1 .. n; J = 1 .. n;
var
    W: array [0 .. n, 0 .. n] of int;
define
    W[0] = 1;
    W[I, 0] = 1;
    W[I, J] = W[I-1, J] + W[I, J-1];
    Y = W[n];
end Paths;
"""

#: compiler option sets, by key; a Session (and a serve daemon) exists per
#: key because ``repro serve`` / ``Session`` fix CompilerOptions per instance
COMPILER_OPTIONS: dict[str, dict[str, bool]] = {
    "default": {},
    "hyperplane": {"hyperplane": True},
    "merge": {"merge_loops": True},
}

#: the 14 named programs: id -> (source key, compiler key, execution overrides)
NAMED_PROGRAMS: dict[str, tuple[str, str, dict[str, Any]]] = {
    "jacobi": ("jacobi", "default", {}),
    "jacobi_win": ("jacobi", "default", {"use_windows": True}),
    "gs_hyper": ("gauss_seidel", "hyperplane", {}),
    "tallskinny": ("tallskinny", "default", {}),
    "align_hyper": ("align", "hyperplane", {}),
    "scan": ("scan", "default", {}),
    "coupled": ("coupled", "default", {}),
    "isum": ("isum", "default", {}),
    "runmax": ("runmax", "default", {}),
    "ilinrec": ("ilinrec", "default", {}),
    "linesweep": ("linesweep", "default", {}),
    "mixed": ("mixed", "merge", {}),
    "align": ("align", "default", {}),
    "paths": ("paths", "default", {}),
}

RECURRENCES = (
    "scan", "coupled", "isum", "runmax", "ilinrec", "linesweep", "mixed",
)
DP2D = ("align", "paths")

#: generated modules in ``small_many``: this many per unit count 2..6, so
#: the amount of source compiled does not drift with the seed
GENERATED_PER_UNIT_COUNT = {2: 7, 3: 7, 4: 8, 5: 7, 6: 7}
GENERATED_N = 32  # at n=64 genprog's ``coupled`` units overflow int64


def _sources() -> dict[str, str]:
    from repro.core import paper, recurrences

    return {
        "jacobi": paper.RELAXATION_JACOBI_SOURCE,
        "gauss_seidel": paper.RELAXATION_GAUSS_SEIDEL_SOURCE,
        "tallskinny": TALLSKINNY_SOURCE,
        "align": ALIGN_SOURCE,
        "paths": PATHS_SOURCE,
        "scan": recurrences.SCAN_SOURCE,
        "coupled": recurrences.COUPLED_SOURCE,
        "isum": recurrences.ISUM_SOURCE,
        "runmax": recurrences.RUNMAX_SOURCE,
        "ilinrec": recurrences.ILINREC_SOURCE,
        "linesweep": recurrences.LINE_SWEEP_SOURCE,
        "mixed": recurrences.MIXED_SOURCE,
    }


@dataclass
class Request:
    """One unit of work: run ``program`` (served as ``module`` by the
    session of ``compiler``) on ``args`` under ``overrides``."""

    program: str
    module: str
    source: str
    compiler: str
    args: dict[str, Any]
    overrides: dict[str, Any] = field(default_factory=dict)
    #: oracle outputs (filled by ``oracle.attach_expected``)
    expected: dict[str, Any] = field(default_factory=dict)
    #: ``runtime.run_ms.<bucket>`` this request's run time is reported under
    bucket: str = ""


@dataclass
class Workload:
    name: str
    why: str
    backend: str
    workers: int
    requests: list[Request]

    def execution(self) -> dict[str, Any]:
        return {"backend": self.backend, "workers": self.workers}

    def programs(self) -> list[Request]:
        """One request per distinct compiled module (compile passes walk
        these; ``jacobi``/``jacobi_win`` share one)."""
        seen: dict[tuple[str, str], Request] = {}
        for r in self.requests:
            seen.setdefault((r.compiler, r.module), r)
        return list(seen.values())


# -- inputs ------------------------------------------------------------------


def named_args(program: str, size: dict[str, int], rng) -> dict[str, Any]:
    """Seeded inputs for a named program at ``size``."""
    n = size.get("n", 0)
    if program in ("jacobi", "jacobi_win", "gs_hyper"):
        m = size["M"]
        return {"InitialA": rng.random((m + 2, m + 2)), **size}
    if program == "tallskinny":
        return {"InitialA": rng.random((size["r"] + 2, size["c"] + 2)), **size}
    if program in ("align", "align_hyper"):
        return {
            "CostA": rng.random(n), "CostB": rng.random(n), "gap": 0.4, "n": n,
        }
    if program == "paths":
        return {"n": n}
    if program == "scan":
        return {"X": rng.random(n), "a": 0.97, "n": n}
    if program == "coupled":
        return {
            "X": rng.random(n),
            "c1": 0.45, "c2": 0.25, "c3": 0.35, "c4": 0.15, "n": n,
        }
    if program == "isum":
        return {"X": rng.integers(-1000, 1000, n), "n": n}
    if program == "runmax":
        return {"X": rng.random(n), "n": n}
    if program == "ilinrec":
        return {
            "A": rng.integers(0, 2, n), "B": rng.integers(-1000, 1000, n),
            "n": n,
        }
    if program == "linesweep":
        m = size["m"]
        return {"G": rng.random((n + 1, m + 2)), "n": n, "m": m}
    if program == "mixed":
        return {
            "X": rng.integers(-9, 10, n), "A": rng.integers(-1, 2, n),
            "B": rng.integers(-9, 10, n), "n": n,
        }
    raise KeyError(program)


def _named_request(program: str, size: dict[str, int], rng) -> Request:
    source_key, compiler, overrides = NAMED_PROGRAMS[program]
    return Request(
        program=program,
        # jacobi_win is the jacobi module run with windows: one compilation
        module="jacobi" if program == "jacobi_win" else program,
        source=_sources()[source_key],
        compiler=compiler,
        args=named_args(program, size, rng),
        overrides=dict(overrides),
        bucket=program,
    )


def _generated_requests(seed: int, rng) -> list[Request]:
    """Generated modules, a fixed number per unit count: candidate genprog
    seeds are drawn from ``seed`` and kept while their stratum has room."""
    from repro.core.genprog import generate_program, program_args

    want = dict(GENERATED_PER_UNIT_COUNT)
    draw = random.Random(seed)
    out: list[Request] = []
    while any(want.values()):
        gseed = draw.randrange(1 << 30)
        prog = generate_program(gseed)
        units = len(prog.kinds)
        if not want.get(units):
            continue
        want[units] -= 1
        name = f"Gen{len(out):02d}"
        out.append(
            Request(
                program=name,
                module=name,
                source=re.sub(r"\bGenProg\b", name, prog.source),
                compiler="default",
                args=program_args(
                    prog, GENERATED_N, seed=int(rng.integers(1 << 30))
                ),
                bucket="small",
            )
        )
    return out


# -- sizes -------------------------------------------------------------------

SIZES: dict[str, dict[str, dict[str, int]]] = {
    "grid_doall": {
        "jacobi": {"M": 128, "maxK": 40},
        "jacobi_win": {"M": 128, "maxK": 40},
        "gs_hyper": {"M": 96, "maxK": 8},
        "tallskinny": {"r": 4, "c": 4096, "maxK": 20},
        "align_hyper": {"n": 256},
    },
    "recurrence_par": {
        **{p: {"n": 200000} for p in RECURRENCES},
        "linesweep": {"n": 400, "m": 400},
    },
    "recurrence_seq": {
        **{p: {"n": 4000} for p in RECURRENCES},
        "linesweep": {"n": 200, "m": 200},
        "align": {"n": 64},
        "paths": {"n": 64},
    },
    "small_many": {
        **{p: {"M": 8, "maxK": 4} for p in ("jacobi", "jacobi_win", "gs_hyper")},
        "tallskinny": {"r": 2, "c": 32, "maxK": 4},
        **{p: {"n": 32} for p in (*RECURRENCES, "align_hyper", *DP2D)},
        "linesweep": {"n": 16, "m": 16},
    },
}

#: sizes of the evaluator cross-check (and of ``--quick``)
TINY: dict[str, dict[str, int]] = {
    **{p: {"M": 6, "maxK": 4} for p in ("jacobi", "jacobi_win", "gs_hyper")},
    "tallskinny": {"r": 2, "c": 12, "maxK": 3},
    **{p: {"n": 24} for p in (*RECURRENCES, "align_hyper", *DP2D)},
    "linesweep": {"n": 8, "m": 8},
}

WHY = {
    "grid_doall": (
        "the paper's own DOALL nests (Jacobi, windows, hyperplane "
        "Gauss-Seidel, tall-skinny, DP wavefront): time sits in "
        "nest/vector/chunk/collapse kernels and the native tier"
    ),
    "recurrence_par": (
        "large 1-D recurrences at 2 workers: pipeline, scan and fission "
        "plus threaded orchestration do the work, and MB-sized arrays "
        "make serving wire-bound"
    ),
    "recurrence_seq": (
        "the same recurrences plus untransformed 2-D ones on the serial "
        "backend with 1 worker: best sequential code, where a parallel-only "
        "change must show no change"
    ),
    "small_many": (
        "50 tiny programs (14 named + 36 generated): kernels do almost "
        "nothing, so front end, scheduler, planner and per-request serve "
        "overhead dominate"
    ),
}

_EXECUTION = {
    "grid_doall": ("auto", 2),
    "recurrence_par": ("auto", 2),
    "recurrence_seq": ("serial", 1),
    "small_many": ("auto", 2),
}

WORKLOAD_NAMES = tuple(SIZES)


def build_workload(name: str, seed: int, quick: bool = False) -> Workload:
    """The requests of workload ``name`` with inputs drawn from ``seed``.
    ``quick`` swaps every size for its tiny one (smoke mode)."""
    # one stream per (seed, workload): zlib-free, stable across processes
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    sizes = SIZES[name]
    requests = [
        _named_request(p, TINY[p] if quick else sizes[p], rng)
        for p in NAMED_PROGRAMS
        if p in sizes
    ]
    if name == "small_many":
        requests += _generated_requests(seed, rng)
    backend, workers = _EXECUTION[name]
    return Workload(name, WHY[name], backend, workers, requests)


def tiny_requests(workload: Workload, seed: int) -> list[Request]:
    """The workload's programs at cross-check size (generated programs are
    already tiny and are reused as they are)."""
    rng = np.random.default_rng([seed, 99])
    out = []
    for r in workload.requests:
        if r.program in NAMED_PROGRAMS:
            out.append(_named_request(r.program, TINY[r.program], rng))
        else:
            out.append(r)
    return out
