"""C1 — The code generator's artifact: the listed kernels with window allocation.

Regenerates ``repro compile --emit c`` for both module variants and the
transformed module: a header with the flowchart (iterative ``DO`` /
concurrent ``DOALL`` loops) and each array's window, then the C functions
the native tier builds. Benchmarks C and Python listing.
"""

import re

from repro.codegen.cgen import generate_c
from repro.codegen.pygen import generate_python
from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.hyperplane.pipeline import hyperplane_transform


def _header(c_src: str) -> str:
    return c_src.split("*/")[0]


def _loops(head: str, keyword: str) -> int:
    return len(re.findall(rf"\b{keyword} \w+ \(", head))


def test_c1_jacobi_c(benchmark, artifact):
    analyzed = jacobi_analyzed()

    c_src = benchmark(lambda: generate_c(analyzed))

    head = _header(c_src)
    assert _loops(head, "DO") == 1 and "DO K (" in head
    assert _loops(head, "DOALL") == 6
    assert "A: dimension 0 is virtual: window of 2" in head
    assert c_src.count("\nint k_") == 3  # one C function per outermost loop
    artifact("codegen_jacobi.c", c_src)


def test_c1_gauss_seidel_c(benchmark, artifact):
    analyzed = gauss_seidel_analyzed()

    c_src = benchmark(lambda: generate_c(analyzed))

    head = _header(c_src)
    assert _loops(head, "DO") == 3
    assert _loops(head, "DOALL") == 4  # eq.1 and eq.2 nests
    assert "A: dimension 0 is virtual: window of 2" in head
    artifact("codegen_gauss_seidel.c", c_src)


def test_c1_transformed_c(benchmark, artifact):
    res = hyperplane_transform(gauss_seidel_analyzed())

    c_src = benchmark(lambda: generate_c(res.transformed))

    head = _header(c_src)
    assert _loops(head, "DO") == 1  # only the time loop
    assert "DO Kp (" in head and "Ap" in head
    artifact("codegen_transformed.c", c_src)


def test_c1_python_generation(benchmark, artifact):
    analyzed = jacobi_analyzed()

    py_src = benchmark(lambda: generate_python(analyzed))

    assert "#   DO K (" in py_src
    assert "#   A: dimension 0 is virtual: window of 2" in py_src
    assert py_src.count("def _kernel(") == 3
    artifact("codegen_jacobi.py.txt", py_src)
