"""Same programs out: every kernel source the package can emit, pinned by hash.

``kernel_sources.json`` was generated at the commit *before* the kernel
package was rebuilt around one nest walk, through the emitters that commit
had. This test recomputes every point through the current entry points and
requires the same answer — byte-identical source (so every ``.so`` digest
already in a user's on-disk native cache still hits) or the same refusal.

A point is one of

* an equation in the scalar or the vector dialect — the per-equation Python
  kernels;
* a loop in shape ``full``, in Python or C, or in shape ``team`` in C —
  the nest kernels. ``full`` over a ``DO`` is what used to be called the
  ``"seq"`` variant; ``team`` over a ``DOALL`` is one ``omp for`` over its
  root.

over 51 programs, each with and without loop merging and window storage: the
12 corpus modules and 3 shapes the kernel tests exercise (each also under the
hyperplane transform, where it applies) and 36 generated modules drawn with
the ``small_many`` stratification.

Regenerate after an *intended* change to emitted code with
``PYTHONPATH=src python -m tests.runtime.test_kernel_sources``.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core import paper, recurrences
from repro.core.genprog import generate_program
from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import ReproError
from repro.ps.parser import parse_program
from repro.ps.printer import format_module
from repro.ps.semantics import analyze_program
from repro.runtime.kernels import KernelError
from repro.runtime.kernels.emit import emit_kernel_source, emit_nest_kernel_source
from repro.runtime.kernels.native import native_spec
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_kernels import (
    CALL_PROGRAM_SOURCE,
    DP_SOURCE,
    PATHS_INT_SOURCE,
)
from tests.runtime.test_span_kernels import REC_SOURCE

MANIFEST = Path(__file__).with_name("kernel_sources.json")

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

#: integer div/mod (guarded in C) and a transcendental (refused by C)
ARITH_SOURCE = """\
Arith: module (k: int; n: int):
       [B: array[1 .. n] of int; C: array[1 .. n] of real];
type I = 1 .. n;
define
    B[I] = (I - 4) div k + (I - 4) mod 3;
    C[I] = sin(I * 0.1);
end Arith;
"""

CORPUS = {
    "jacobi": paper.RELAXATION_JACOBI_SOURCE,
    "gauss_seidel": paper.RELAXATION_GAUSS_SEIDEL_SOURCE,
    "tallskinny": TALLSKINNY_SOURCE,
    "align": DP_SOURCE,
    "paths": PATHS_INT_SOURCE,
    "scan": recurrences.SCAN_SOURCE,
    "coupled": recurrences.COUPLED_SOURCE,
    "linesweep": recurrences.LINE_SWEEP_SOURCE,
    "isum": recurrences.ISUM_SOURCE,
    "runmax": recurrences.RUNMAX_SOURCE,
    "ilinrec": recurrences.ILINREC_SOURCE,
    "mixed": recurrences.MIXED_SOURCE,
    "rec": REC_SOURCE,
    "arith": ARITH_SOURCE,
}

#: generated modules per unit count — ``benchmarks/e2e``'s ``small_many``
GENERATED_PER_UNIT_COUNT = {2: 7, 3: 7, 4: 8, 5: 7, 6: 7}


def _generated() -> dict[str, str]:
    want = dict(GENERATED_PER_UNIT_COUNT)
    draw = random.Random(1)
    out: dict[str, str] = {}
    while any(want.values()):
        prog = generate_program(draw.randrange(1 << 30))
        units = len(prog.kinds)
        if want.get(units):
            want[units] -= 1
            out[f"gen{len(out):02d}"] = prog.source
    return out


def _compilations():
    """(tag, analyzed, flowchart) for every program under every compiler
    configuration that accepts it and changes what it compiles to."""
    for name, source in {**CORPUS, **_generated()}.items():
        seen = set()
        for hyper in (False, True) if name in CORPUS else (False,):
            for merge in (False, True):
                options = CompilerOptions(
                    hyperplane=hyper, merge_loops=merge,
                    emit_c=False, emit_python=False,
                )
                try:
                    result = compile_source(source, options)
                except ReproError:
                    continue
                compiled = (format_module(result.module), result.flowchart.pretty())
                if compiled in seen:
                    continue
                seen.add(compiled)
                yield (
                    f"{name}/h{int(hyper)}m{int(merge)}",
                    result.analyzed,
                    result.flowchart,
                )
    # a per-element call of a loop-free module: inlined, so it emits
    use = analyze_program(parse_program(CALL_PROGRAM_SOURCE))["Use"]
    yield "call/h0m0", use, schedule_module(use)


def _equation_source(eq, analyzed, flow, vector, w):
    return [emit_kernel_source(eq, analyzed, flow, vector, w)[0]]


def _nest_source(desc, analyzed, flow, w):
    return [emit_nest_kernel_source(desc, analyzed, flow, w)[0]]


def _native_sources(desc, analyzed, flow, w, shape):
    return [native_spec(desc, analyzed, flow, w, shape).source]


def _digest(sources_of, *args) -> str:
    try:
        sources = sources_of(*args)
    except KernelError:
        return "KernelError"
    return hashlib.sha256("\n".join(sources).encode()).hexdigest()[:16]


def census() -> dict[str, dict[str, str]]:
    """``{compilation: {point: digest}}``."""
    out: dict[str, dict[str, str]] = {}
    for tag, analyzed, flow in _compilations():
        points = out[tag] = {}
        for w in (False, True):
            at = f"w{int(w)}"
            for eq in analyzed.equations:
                for vector in (False, True):
                    dialect = "vector" if vector else "scalar"
                    points[f"{at} eq {eq.label} {dialect}"] = _digest(
                        _equation_source, eq, analyzed, flow, vector, w
                    )
            for desc in flow.loops():
                path = ".".join(map(str, flow.path_of(desc)))
                at_loop = f"{at} loop {path} {desc.index}"
                points[f"{at_loop} full py"] = _digest(
                    _nest_source, desc, analyzed, flow, w
                )
                for shape in ("full", "team"):
                    points[f"{at_loop} {shape} c"] = _digest(
                        _native_sources, desc, analyzed, flow, w, shape
                    )
    return out


def _flat(doc) -> dict[str, str]:
    return {f"{tag} {k}": v for tag, pts in doc.items() for k, v in pts.items()}


def test_every_kernel_source_matches_the_manifest():
    expected = _flat(json.loads(MANIFEST.read_text()))
    got = _flat(census())
    assert got.keys() == expected.keys()
    changed = {k: (expected[k], v) for k, v in got.items() if expected[k] != v}
    assert not changed, f"{len(changed)} of {len(got)} points differ: " + ", ".join(
        sorted(changed)[:8]
    )
    # the manifest must keep pinning real emissions, not only refusals
    assert sum(v != "KernelError" for v in got.values()) > len(got) // 2


if __name__ == "__main__":
    doc = census()
    MANIFEST.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    points = _flat(doc)
    emitting = sum(v != "KernelError" for v in points.values())
    print(f"{len(points)} points, {emitting} emitting -> {MANIFEST}")
