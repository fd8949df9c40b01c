"""Independent references for the benchmark's programs.

Each ``ref_*`` function is a hand-written NumPy / plain-Python statement
of what a program computes, taken from its PS equations and sharing no
code with the compiler. Every reference performs each element's
arithmetic in the program's own operand order, so for all 14 programs
float results are compared **bit-for-bit** and integer results with
``array_equal`` — no program needs a tolerance (a reference that had to
reassociate would have to state a relative bound). ``paths`` overflows
int64 on purpose and both sides wrap in two's complement.

Generated programs have no hand-written reference: their expected output
is the tree-walking evaluator's (``backend="serial", use_kernels=False``),
which is also cross-checked against every reference here at tiny size
(``cross_check``) — it is far too slow to be the oracle at benchmark size
(20.7 s for Jacobi 128x10).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from workloads import Request


def ref_jacobi(InitialA, M, maxK):
    a = np.array(InitialA, dtype=np.float64)
    for _ in range(2, maxK + 1):
        new = a.copy()  # boundary points carry over
        new[1:-1, 1:-1] = (
            a[1:-1, :-2] + a[:-2, 1:-1] + a[1:-1, 2:] + a[2:, 1:-1]
        ) / 4
        a = new
    return {"newA": a}


def ref_gauss_seidel(InitialA, M, maxK):
    old = [list(map(float, row)) for row in InitialA]
    for _ in range(2, maxK + 1):
        new = [row[:] for row in old]
        for i in range(1, M + 1):
            row, north, cur, south = new[i], new[i - 1], old[i], old[i + 1]
            for j in range(1, M + 1):
                row[j] = (row[j - 1] + north[j] + cur[j + 1] + south[j]) / 4
        old = new
    return {"newA": np.array(old)}


def ref_tallskinny(InitialA, r, c, maxK):
    # only the interior is ever defined; everything else stays zero
    a = np.zeros((r + 2, c + 2))
    a[1:-1, 1:-1] = InitialA[1:-1, 1:-1]
    for _ in range(maxK):
        new = np.zeros_like(a)
        new[1:-1, 1:-1] = (
            a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
        ) / 4.0
        a = new
    return {"newA": a}


def ref_align(CostA, CostB, gap, n):
    ca, cb = [float(x) for x in CostA], [float(x) for x in CostB]
    prev = [0.0] * (n + 1)
    for i in range(1, n + 1):
        row = [i * gap] + [0.0] * n
        a = ca[i - 1]
        for j in range(1, n + 1):
            row[j] = min(
                prev[j - 1] + abs(a - cb[j - 1]),
                min(prev[j] + gap, row[j - 1] + gap),
            )
        prev = row
    return {"score": prev[n]}


def ref_paths(n):
    w = np.ones(n + 1, dtype=np.int64)
    for _ in range(n):
        # W[I,J] = W[I-1,J] + W[I,J-1], W[I,0] = 1  (int64 wraps)
        w = np.concatenate(([1], 1 + np.cumsum(w[1:], dtype=np.int64)))
    return {"Y": w}


def ref_scan(X, a, n):
    s, y = 0.0, np.empty(n)
    for i, x in enumerate(X.tolist()):
        s = s * a + x
        y[i] = s * s + x
    return {"Y": y}


def ref_coupled(X, c1, c2, c3, c4, n):
    p, q, r = 0.0, 1.0, np.empty(n)
    for i, x in enumerate(X.tolist()):
        p = p * c1 + q * c2 + x
        q = q * c3 + p * c4
        r[i] = p * q + x
    return {"R": r}


def ref_isum(X, n):
    return {"T": np.concatenate(([0], np.cumsum(X, dtype=np.int64)))}


def ref_runmax(X, n):
    return {"M": np.concatenate((X[:1], np.maximum.accumulate(X)))}


def _linrec(A, B):
    s, out = 0, [0]
    for a, b in zip(A.tolist(), B.tolist()):
        s = a * s + b
        out.append(s)
    return np.array(out, dtype=np.int64)


def ref_ilinrec(A, B, n):
    return {"S": _linrec(A, B)}


def ref_linesweep(G, n, m):
    line = np.array(G[0])
    out = np.empty((n, m + 2))
    for i in range(1, n + 1):
        new = np.array(G[i])  # J = 0 and J = m+1 take G
        new[1:-1] = (line[:-2] + line[1:-1] + line[2:]) / 3.0 + G[i, 1:-1]
        d = new - G[i]
        out[i - 1] = d * d
        line = new
    return {"Mout": out}


def ref_mixed(X, A, B, n):
    return {
        "T": ref_isum(X, n)["T"],
        "S": _linrec(A, B),
        "M": np.concatenate((X[:1], np.maximum.accumulate(X))),
    }


REFERENCES = {
    "jacobi": ref_jacobi,
    "jacobi_win": ref_jacobi,
    "gs_hyper": ref_gauss_seidel,
    "tallskinny": ref_tallskinny,
    "align_hyper": ref_align,
    "align": ref_align,
    "paths": ref_paths,
    "scan": ref_scan,
    "coupled": ref_coupled,
    "isum": ref_isum,
    "runmax": ref_runmax,
    "ilinrec": ref_ilinrec,
    "linesweep": ref_linesweep,
    "mixed": ref_mixed,
}


def evaluator_outputs(request: Request) -> dict[str, Any]:
    """What the tree-walking evaluator (the paper's semantics) computes
    for ``request`` — compiled with the request's own CompilerOptions."""
    from repro.core.pipeline import CompilerOptions, compile_source
    from repro.runtime.executor import ExecutionOptions, execute_module
    from workloads import COMPILER_OPTIONS

    result = compile_source(
        request.source,
        CompilerOptions(
            emit_c=False, emit_python=False,
            **COMPILER_OPTIONS[request.compiler],
        ),
    )
    return execute_module(
        result.analyzed,
        dict(request.args),
        flowchart=result.flowchart,
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )


def attach_expected(requests: list[Request]) -> None:
    """Fill ``request.expected``: the hand-written reference for a named
    program, the evaluator for a generated one."""
    for r in requests:
        ref = REFERENCES.get(r.program)
        r.expected = ref(**r.args) if ref else evaluator_outputs(r)


def mismatch(request: Request, outputs: dict[str, Any]) -> str | None:
    """Why ``outputs`` are wrong for ``request`` (None: correct)."""
    for key, want in request.expected.items():
        if key not in outputs:
            return f"{request.program}: result {key!r} missing"
        got, want = np.asarray(outputs[key]), np.asarray(want)
        if got.shape != want.shape:
            return f"{request.program}.{key}: shape {got.shape} != {want.shape}"
        if got.dtype.kind != want.dtype.kind or not np.array_equal(got, want):
            return f"{request.program}.{key}: values differ from the oracle"
    return None


def cross_check(tiny: list[Request]) -> list[str | None]:
    """Evaluator vs hand-written reference for every named program in
    ``tiny``: per program, why they disagree (None: the oracle and the
    paper's semantics agree)."""
    verdicts = []
    for r in tiny:
        if r.program in REFERENCES:
            r.expected = REFERENCES[r.program](**r.args)
            bad = mismatch(r, evaluator_outputs(r))
            verdicts.append(f"evaluator vs reference: {bad}" if bad else None)
    return verdicts
