"""Code-generation tests: annotated C text and executable Python."""

import numpy as np
import pytest

from repro.codegen.cgen import generate_c
from repro.codegen.pygen import compile_python, generate_python
from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.errors import CodegenError
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import execute_module


class TestCText:
    @pytest.fixture(scope="class")
    def c_src(self):
        return generate_c(jacobi_analyzed())

    def test_signature(self, c_src):
        assert "void Relaxation(" in c_src
        assert "const double *InitialA" in c_src
        assert "double *newA" in c_src

    def test_loop_annotations(self, c_src):
        """The paper: 'Each loop is annotated to indicate whether it is an
        iterative or concurrent for.'"""
        assert "/* concurrent for */" in c_src
        assert "/* iterative for */" in c_src
        assert c_src.count("/* concurrent for */") == 6  # I,J x 3 nests
        assert c_src.count("/* iterative for */") == 1  # the K loop

    def test_openmp_pragmas(self, c_src):
        assert "#pragma omp parallel for" in c_src

    def test_window_allocation(self, c_src):
        """'allocate only two instances rather than maxK instances'."""
        assert "window of 2" in c_src
        assert "malloc(sizeof(double) * 2 " in c_src

    def test_modular_window_indexing(self, c_src):
        assert "% 2" in c_src

    def test_no_window_when_disabled(self):
        c_src = generate_c(jacobi_analyzed(), use_windows=False)
        assert "window of 2" not in c_src
        assert "% 2" not in c_src

    def test_gauss_seidel_all_iterative(self):
        c_src = generate_c(gauss_seidel_analyzed())
        # eq.3 nest is a fully iterative K,I,J nest.
        assert c_src.count("/* iterative for */") == 3

    def test_transformed_module_c(self):
        res = hyperplane_transform(gauss_seidel_analyzed())
        c_src = generate_c(res.transformed)
        assert "Kp" in c_src and "Ap" in c_src
        assert c_src.count("/* iterative for */") == 1

    def test_if_becomes_ternary(self, c_src):
        assert "?" in c_src and ":" in c_src

    def test_division_is_floating(self, c_src):
        assert "(double)" in c_src


class TestPythonGeneration:
    def test_source_annotations(self):
        src = generate_python(jacobi_analyzed())
        assert "# DOALL (concurrent)" in src
        assert "# DO (iterative)" in src
        assert "window allocation" in src

    @pytest.mark.parametrize("use_windows", [True, False])
    def test_jacobi_generated_matches_interpreter(self, use_windows):
        analyzed = jacobi_analyzed()
        fn = compile_python(analyzed, use_windows=use_windows)
        rng = np.random.default_rng(1)
        m, maxk = 5, 4
        initial = rng.random((m + 2, m + 2))
        expected = execute_module(
            analyzed, {"InitialA": initial, "M": m, "maxK": maxk}
        )["newA"]
        got = fn(initial, m, maxk)
        np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("use_windows", [True, False])
    def test_gauss_seidel_generated_matches_interpreter(self, use_windows):
        analyzed = gauss_seidel_analyzed()
        fn = compile_python(analyzed, use_windows=use_windows)
        rng = np.random.default_rng(2)
        m, maxk = 4, 5
        initial = rng.random((m + 2, m + 2))
        expected = execute_module(
            analyzed, {"InitialA": initial, "M": m, "maxK": maxk}
        )["newA"]
        got = fn(initial, m, maxk)
        np.testing.assert_allclose(got, expected)

    def test_transformed_generated_matches_original(self):
        res = hyperplane_transform(gauss_seidel_analyzed())
        fn = compile_python(res.transformed)
        rng = np.random.default_rng(3)
        m, maxk = 4, 4
        initial = rng.random((m + 2, m + 2))
        expected = execute_module(
            res.original, {"InitialA": initial, "M": m, "maxK": maxk}
        )["newA"]
        got = fn(initial, m, maxk)
        np.testing.assert_allclose(got, expected)

    def test_scalar_module(self):
        analyzed = analyze_module(
            parse_module(
                "T: module (x: int): [y: int];\n"
                "var a: int;\n"
                "define a = x * 3; y = a + 1;\nend T;"
            )
        )
        fn = compile_python(analyzed)
        assert fn(5) == 16

    def test_multiple_results(self):
        analyzed = analyze_module(
            parse_module(
                "T: module (x: int): [q: int; r: int];\n"
                "define q = x div 3; r = x mod 3;\nend T;"
            )
        )
        fn = compile_python(analyzed)
        assert fn(17) == (5, 2)

    def test_builtins(self):
        analyzed = analyze_module(
            parse_module(
                "T: module (x: real): [y: real];\n"
                "define y = sqrt(abs(x)) + max(x, 0.0);\nend T;"
            )
        )
        fn = compile_python(analyzed)
        assert fn(4.0) == pytest.approx(6.0)

    def test_fibonacci_with_window(self):
        analyzed = analyze_module(
            parse_module(
                "T: module (n: int): [y: int];\n"
                "type I = 3 .. n;\n"
                "var F: array [1 .. n] of int;\n"
                "define F[1] = 1; F[2] = 1; F[I] = F[I-1] + F[I-2]; y = F[n];\nend T;"
            )
        )
        fn = compile_python(analyzed, use_windows=True)
        assert fn(20) == 6765
        src = generate_python(analyzed, use_windows=True)
        assert "% 3" in src  # window of 3 planes

    def test_module_call_rejected(self):
        from repro.ps.parser import parse_program
        from repro.ps.semantics import analyze_program

        program = analyze_program(
            parse_program(
                # a loop of its own: the call is not inlined
                "Inc: module (x: int): [y: int]; type K = 1 .. 1;\n"
                "var P: array [1 .. 1] of int;\n"
                "define P[K] = x + 1; y = P[1]; end Inc;\n"
                "Use: module (x: int): [y: int]; define y = Inc(x); end Use;"
            )
        )
        with pytest.raises(CodegenError, match="module call"):
            generate_python(program["Use"])
