"""A small recurrence-workload corpus: the loops the paper's DOALL focus
leaves serial.

Each module here schedules into a run of sibling loops over the same
iteration space in which at least one loop is a genuine recurrence (a
``DO`` the hyperplane rewrite cannot remove) feeding downstream ``DOALL``
consumers — exactly the shape :mod:`repro.schedule.pipeline_stages`
partitions into a sequential stage plus replicated stages. The parity
suites run them against every backend, and ``benchmarks/bench_pipeline.py``
uses the coupled recurrence as its gate workload.

* :func:`scan_analyzed` — a first-order linear scan feeding a pointwise
  consumer: ``seq + par``.
* :func:`coupled_analyzed` — two mutually recursive sequences (one SCC,
  so the scheduler fuses them into a single ``DO`` body) feeding a
  consumer: ``seq + par``.
* :func:`line_sweep_analyzed` — a Gauss–Seidel-style line sweep (each row
  relaxed from the previous row, rows sequential, columns DOALL) feeding
  two chained diagnostics whose dependence is identity — they coalesce
  into one replicated stage: ``seq + par(2 loops)``.

Three standalone scans and linear recurrences — no consumer siblings, so
the loop meets the planner alone rather than as a pipeline stage, and
plans as the compiled sequential ``DO``:

* :func:`isum_analyzed` — an integer sum reduction.
* :func:`runmax_analyzed` — a running maximum over reals.
* :func:`ilinrec_analyzed` — an integer first-order linear recurrence
  with *loop-varying* coefficients ``S[I] = A[I]*S[I-1] + B[I]``.
"""

from __future__ import annotations

import numpy as np

from repro.ps.parser import parse_module
from repro.ps.semantics import AnalyzedModule, analyze_module

SCAN_SOURCE = """\
(* First-order linear recurrence (scan) + pointwise consumer. *)
Scan: module (X: array[1 .. n] of real; a: real; n: int):
      [Y: array[1 .. n] of real];
type
    I = 1 .. n;
var
    S: array [0 .. n] of real;
define
    S[0] = 0.0;
    S[I] = S[I-1] * a + X[I];
    Y[I] = S[I] * S[I] + X[I];
end Scan;
"""

COUPLED_SOURCE = """\
(* Two mutually recursive sequences — one SCC, one DO loop — feeding a
   pointwise consumer. *)
Coupled: module (X: array[1 .. n] of real;
                 c1: real; c2: real; c3: real; c4: real; n: int):
         [R: array[1 .. n] of real];
type
    I = 1 .. n;
var
    P: array [0 .. n] of real;
    Q: array [0 .. n] of real;
define
    P[0] = 0.0;
    Q[0] = 1.0;
    P[I] = P[I-1] * c1 + Q[I-1] * c2 + X[I];
    Q[I] = Q[I-1] * c3 + P[I] * c4;
    R[I] = P[I] * Q[I] + X[I];
end Coupled;
"""

LINE_SWEEP_SOURCE = """\
(* Line sweep: each row relaxed from the previous row's neighbourhood
   (rows sequential, columns DOALL), then two chained per-row
   diagnostics. *)
LineSweep: module (G: array[0 .. n, 0 .. m+1] of real; n: int; m: int):
           [Mout: array[1 .. n, 0 .. m+1] of real];
type
    I = 1 .. n;
    J = 0 .. m+1;
var
    L: array [0 .. n, 0 .. m+1] of real;
    D: array [1 .. n, 0 .. m+1] of real;
define
    L[0,J] = G[0,J];
    L[I,J] = if (J = 0) or (J = m+1) then G[I,J]
             else (L[I-1,J-1] + L[I-1,J] + L[I-1,J+1]) / 3.0 + G[I,J];
    D[I,J] = L[I,J] - G[I,J];
    Mout[I,J] = D[I,J] * D[I,J];
end LineSweep;
"""


ISUM_SOURCE = """\
(* Integer sum reduction: the running-total form of sum(X). *)
ISum: module (X: array[1 .. n] of int; n: int):
      [T: array[0 .. n] of int];
type
    I = 1 .. n;
define
    T[0] = 0;
    T[I] = T[I-1] + X[I];
end ISum;
"""

RUNMAX_SOURCE = """\
(* Running maximum over reals. *)
RunMax: module (X: array[1 .. n] of real; n: int):
        [M: array[0 .. n] of real];
type
    I = 1 .. n;
define
    M[0] = X[1];
    M[I] = max(M[I-1], X[I]);
end RunMax;
"""

ILINREC_SOURCE = """\
(* Integer first-order linear recurrence with loop-varying
   coefficients. *)
ILinRec: module (A: array[1 .. n] of int; B: array[1 .. n] of int;
                 n: int):
         [S: array[0 .. n] of int];
type
    I = 1 .. n;
define
    S[0] = 0;
    S[I] = A[I] * S[I-1] + B[I];
end ILinRec;
"""

MIXED_SOURCE = """\
(* Three independent integer recurrences over one subrange. The
   loop-merging pass fuses them into a single DO nest, which is the
   fission gate workload: the split recovers one replica loop per
   recurrence, and the replicas decouple as pipeline stages. *)
Mixed: module (X: array[1 .. n] of int; A: array[1 .. n] of int;
               B: array[1 .. n] of int; n: int):
       [T: array[0 .. n] of int; S: array[0 .. n] of int;
        M: array[0 .. n] of int];
type
    I = 1 .. n;
define
    T[0] = 0;
    S[0] = 0;
    M[0] = X[1];
    T[I] = T[I-1] + X[I];
    S[I] = A[I] * S[I-1] + B[I];
    M[I] = max(M[I-1], X[I]);
end Mixed;
"""


def scan_analyzed() -> AnalyzedModule:
    return analyze_module(parse_module(SCAN_SOURCE))


def coupled_analyzed() -> AnalyzedModule:
    return analyze_module(parse_module(COUPLED_SOURCE))


def line_sweep_analyzed() -> AnalyzedModule:
    return analyze_module(parse_module(LINE_SWEEP_SOURCE))


def isum_analyzed() -> AnalyzedModule:
    return analyze_module(parse_module(ISUM_SOURCE))


def runmax_analyzed() -> AnalyzedModule:
    return analyze_module(parse_module(RUNMAX_SOURCE))


def ilinrec_analyzed() -> AnalyzedModule:
    return analyze_module(parse_module(ILINREC_SOURCE))


def mixed_analyzed() -> AnalyzedModule:
    return analyze_module(parse_module(MIXED_SOURCE))


def scan_args(n: int = 64, seed: int = 11) -> dict:
    rng = np.random.default_rng(seed)
    return {"X": rng.random(n), "a": 0.97, "n": n}


def coupled_args(n: int = 64, seed: int = 12) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "X": rng.random(n),
        "c1": 0.45, "c2": 0.25, "c3": 0.35, "c4": 0.15,
        "n": n,
    }


def line_sweep_args(n: int = 12, m: int = 8, seed: int = 13) -> dict:
    rng = np.random.default_rng(seed)
    return {"G": rng.random((n + 1, m + 2)), "n": n, "m": m}


def isum_args(n: int = 64, seed: int = 14) -> dict:
    rng = np.random.default_rng(seed)
    return {"X": rng.integers(-1000, 1000, n), "n": n}


def runmax_args(n: int = 64, seed: int = 15) -> dict:
    rng = np.random.default_rng(seed)
    return {"X": rng.random(n), "n": n}


def mixed_args(n: int = 64, seed: int = 17) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "X": rng.integers(-9, 10, n),
        "A": rng.integers(-1, 2, n),
        "B": rng.integers(-9, 10, n),
        "n": n,
    }


def ilinrec_args(n: int = 64, seed: int = 16) -> dict:
    # a in {0, 1} keeps the products bounded (any int coefficient would be
    # *correct* under two's-complement wraparound, but bounded values make
    # golden outputs humanly checkable); b is loop-varying.
    rng = np.random.default_rng(seed)
    return {
        "A": rng.integers(0, 2, n),
        "B": rng.integers(-1000, 1000, n),
        "n": n,
    }


#: (name, analyzed-builder, args-builder, result key) — the parity tests
#: and examples iterate this
RECURRENCE_WORKLOADS = (
    ("scan", scan_analyzed, scan_args, "Y"),
    ("coupled", coupled_analyzed, coupled_args, "R"),
    ("line_sweep", line_sweep_analyzed, line_sweep_args, "Mout"),
    ("isum", isum_analyzed, isum_args, "T"),
    ("runmax", runmax_analyzed, runmax_args, "M"),
    ("ilinrec", ilinrec_analyzed, ilinrec_args, "S"),
    ("mixed", mixed_analyzed, mixed_args, "S"),
)
