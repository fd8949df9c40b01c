"""Integration tests: executing scheduled PS modules."""

import numpy as np
import pytest

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.errors import ExecutionError
from repro.ps.parser import parse_module, parse_program
from repro.ps.semantics import analyze_module, analyze_program
from repro.runtime.executor import (
    ExecutionOptions,
    execute_module,
    execute_program_module,
)


def run(src, args, **opts):
    return execute_module(
        analyze_module(parse_module(src)), args, options=ExecutionOptions(**opts)
    )


def jacobi_reference(initial: np.ndarray, maxk: int) -> np.ndarray:
    """Direct NumPy implementation of the paper's Equation 1."""
    a = initial.copy()
    for _ in range(maxk - 1):
        nxt = a.copy()
        nxt[1:-1, 1:-1] = (
            a[1:-1, :-2] + a[:-2, 1:-1] + a[1:-1, 2:] + a[2:, 1:-1]
        ) / 4
        a = nxt
    return a


def gauss_seidel_reference(initial: np.ndarray, maxk: int) -> np.ndarray:
    """Direct implementation of the revised eq.3 (Equation 2): west and
    north from the current iteration."""
    a = initial.copy()
    m2 = a.shape[0]
    for _ in range(maxk - 1):
        nxt = a.copy()
        for i in range(1, m2 - 1):
            for j in range(1, m2 - 1):
                nxt[i, j] = (
                    nxt[i, j - 1] + nxt[i - 1, j] + a[i, j + 1] + a[i + 1, j]
                ) / 4
        a = nxt
    return a


class TestScalars:
    def test_simple_scalar_equation(self):
        out = run("T: module (x: int): [y: int];\ndefine y = x * 2 + 1;\nend T;", {"x": 5})
        assert out["y"] == 11

    def test_chained_scalars(self):
        out = run(
            "T: module (x: int): [y: int];\nvar a: int; b: int;\n"
            "define b = a * 2; a = x + 1; y = b;\nend T;",
            {"x": 3},
        )
        assert out["y"] == 8

    def test_if_expression(self):
        src = "T: module (x: int): [y: int];\ndefine y = if x > 0 then x else -x;\nend T;"
        assert run(src, {"x": -7})["y"] == 7
        assert run(src, {"x": 7})["y"] == 7

    def test_builtins(self):
        out = run(
            "T: module (x: real): [y: real];\ndefine y = sqrt(x) + abs(-2.0);\nend T;",
            {"x": 9.0},
        )
        assert out["y"] == pytest.approx(5.0)

    def test_division_real(self):
        out = run("T: module (x: int): [y: real];\ndefine y = x / 4;\nend T;", {"x": 1})
        assert out["y"] == pytest.approx(0.25)

    def test_missing_argument(self):
        with pytest.raises(ExecutionError, match="missing"):
            run("T: module (x: int): [y: int];\ndefine y = x;\nend T;", {})


class TestArrays:
    def test_elementwise_copy(self):
        out = run(
            "T: module (X: array[I] of real): [Y: array[I] of real];\n"
            "type I = 0 .. 4;\ndefine Y = X;\nend T;",
            {"X": np.arange(5.0)},
        )
        np.testing.assert_allclose(out["Y"], np.arange(5.0))

    def test_elementwise_arithmetic(self):
        out = run(
            "T: module (X: array[I] of real; Y: array[I] of real):\n"
            "  [S: array[I] of real];\n"
            "type I = 0 .. 3;\ndefine S = X * 2 + Y;\nend T;",
            {"X": np.ones(4), "Y": np.arange(4.0)},
        )
        np.testing.assert_allclose(out["S"], 2 + np.arange(4.0))

    def test_origin_offset_dimension(self):
        # Subrange 1..n: origin 1.
        out = run(
            "T: module (n: int): [Y: array[1 .. n] of real];\n"
            "type I = 1 .. n;\n"
            "define Y[I] = I * 1.0;\nend T;",
            {"n": 4},
        )
        np.testing.assert_allclose(out["Y"], [1.0, 2.0, 3.0, 4.0])

    def test_first_order_recurrence(self):
        out = run(
            "T: module (n: int; x0: real): [y: real];\n"
            "type I = 2 .. n;\n"
            "var F: array [1 .. n] of real;\n"
            "define F[1] = x0; F[I] = F[I-1] * 0.5; y = F[n];\nend T;",
            {"n": 5, "x0": 16.0},
        )
        assert out["y"] == pytest.approx(1.0)

    def test_fibonacci(self):
        out = run(
            "T: module (n: int): [y: int];\n"
            "type I = 3 .. n;\n"
            "var F: array [1 .. n] of int;\n"
            "define F[1] = 1; F[2] = 1; F[I] = F[I-1] + F[I-2]; y = F[n];\nend T;",
            {"n": 10},
        )
        assert out["y"] == 55

    def test_wavefront_recurrence(self):
        out = run(
            "T: module (n: int): [y: real];\n"
            "type I = 1 .. n; J = 1 .. n;\n"
            "var W: array [0 .. n, 0 .. n] of real;\n"
            "define W[0] = 1.0;\n"
            "W[I, 0] = 1.0;\n"
            "W[I, J] = W[I-1, J] + W[I, J-1];\n"
            "y = W[n, n];\nend T;",
            {"n": 4},
        )
        # W[n,n] = C(2n, n) = 70 for n=4.
        assert out["y"] == pytest.approx(70.0)


class TestPaperModules:
    @pytest.mark.parametrize("backend", ["auto", "serial"])
    def test_jacobi_matches_reference(self, backend):
        rng = np.random.default_rng(42)
        m, maxk = 6, 5
        initial = rng.random((m + 2, m + 2))
        out = execute_module(
            jacobi_analyzed(),
            {"InitialA": initial, "M": m, "maxK": maxk},
            options=ExecutionOptions(backend=backend),
        )
        np.testing.assert_allclose(out["newA"], jacobi_reference(initial, maxk))

    @pytest.mark.parametrize("backend", ["auto", "serial"])
    def test_gauss_seidel_matches_reference(self, backend):
        rng = np.random.default_rng(7)
        m, maxk = 5, 4
        initial = rng.random((m + 2, m + 2))
        out = execute_module(
            gauss_seidel_analyzed(),
            {"InitialA": initial, "M": m, "maxK": maxk},
            options=ExecutionOptions(backend=backend),
        )
        np.testing.assert_allclose(out["newA"], gauss_seidel_reference(initial, maxk))

    def test_vector_and_scalar_agree(self):
        rng = np.random.default_rng(3)
        m, maxk = 4, 6
        initial = rng.random((m + 2, m + 2))
        args = {"InitialA": initial, "M": m, "maxK": maxk}
        fast = execute_module(
            jacobi_analyzed(), args, options=ExecutionOptions()
        )
        slow = execute_module(
            jacobi_analyzed(), args, options=ExecutionOptions(backend="serial")
        )
        np.testing.assert_allclose(fast["newA"], slow["newA"])

    def test_boundary_carried_over(self):
        m, maxk = 4, 3
        initial = np.zeros((m + 2, m + 2))
        initial[0, :] = 9.0
        out = execute_module(
            jacobi_analyzed(), {"InitialA": initial, "M": m, "maxK": maxk}
        )
        np.testing.assert_allclose(out["newA"][0, :], 9.0)


class TestWindows:
    def test_jacobi_with_window_storage(self):
        rng = np.random.default_rng(5)
        m, maxk = 5, 6
        initial = rng.random((m + 2, m + 2))
        args = {"InitialA": initial, "M": m, "maxK": maxk}
        full = execute_module(jacobi_analyzed(), args)
        windowed = execute_module(
            jacobi_analyzed(),
            args,
            options=ExecutionOptions(use_windows=True, debug_windows=True),
        )
        np.testing.assert_allclose(windowed["newA"], full["newA"])

    def test_gauss_seidel_with_window_storage(self):
        rng = np.random.default_rng(6)
        m, maxk = 4, 5
        initial = rng.random((m + 2, m + 2))
        args = {"InitialA": initial, "M": m, "maxK": maxk}
        full = execute_module(gauss_seidel_analyzed(), args)
        windowed = execute_module(
            gauss_seidel_analyzed(),
            args,
            options=ExecutionOptions(use_windows=True, debug_windows=True),
        )
        np.testing.assert_allclose(windowed["newA"], full["newA"])

    def test_window_detects_bad_access(self):
        """Failure injection: a window of 2 cannot serve a read 3 planes
        back; the debug tags must fault rather than silently alias."""
        from repro.ps.parser import parse_module as pm
        from repro.ps.semantics import analyze_module as am
        from repro.schedule.scheduler import schedule_module

        analyzed = am(
            pm(
                "T: module (n: int): [y: real];\n"
                "type I = 4 .. n;\n"
                "var F: array [1 .. n] of real;\n"
                "define F[1] = 1.0; F[2] = 1.0; F[3] = 1.0;\n"
                "F[I] = F[I-1] + F[I-3]; y = F[n];\nend T;"
            )
        )
        flow = schedule_module(analyzed)
        # Sanity: the correct window is 4 (offsets {1,3}).
        assert flow.window_of("F") == {0: 4}
        # Sabotage the window to 2 and execute with debug tags armed.
        flow.windows["F"][0] = 2
        with pytest.raises(ExecutionError, match="window violation"):
            execute_module(
                analyzed,
                {"n": 8},
                flowchart=flow,
                options=ExecutionOptions(use_windows=True, debug_windows=True),
            )


class TestModuleCalls:
    def test_scalar_call(self):
        program = analyze_program(
            parse_program(
                "Inc: module (x: int): [y: int]; define y = x + 1; end Inc;\n"
                "Use: module (x: int): [y: int]; define y = Inc(Inc(x)); end Use;"
            )
        )
        out = execute_program_module(program, "Use", {"x": 5})
        assert out["y"] == 7

    def test_multi_result_call(self):
        program = analyze_program(
            parse_program(
                "DivMod: module (a: int; b: int): [q: int; r: int];\n"
                "define q = a div b; r = a mod b; end DivMod;\n"
                "Use: module (x: int): [s: int];\n"
                "var q: int; r: int;\n"
                "define q, r = DivMod(x, 3); s = q * 10 + r; end Use;"
            )
        )
        out = execute_program_module(program, "Use", {"x": 17})
        assert out["s"] == 52

    def test_array_result_call(self):
        program = analyze_program(
            parse_program(
                "Scale: module (X: array[I] of real; f: real):\n"
                "  [Y: array[I] of real];\n"
                "type I = 0 .. 3;\n"
                "define Y = X * f; end Scale;\n"
                "Use: module (X: array[I] of real): [Z: array[I] of real];\n"
                "type I = 0 .. 3;\n"
                "define Z = Scale(X, 2.0); end Use;"
            )
        )
        out = execute_program_module(program, "Use", {"X": np.arange(4.0)})
        np.testing.assert_allclose(out["Z"], np.arange(4.0) * 2)


class TestEnums:
    def test_enum_comparison(self):
        out = run(
            "T: module (c: int): [y: int];\n"
            "type Color = (red, green, blue);\n"
            "define y = if c = 1 then 10 else 20;\nend T;",
            {"c": 1},
        )
        assert out["y"] == 10


class TestRecords:
    def test_record_fields(self):
        out = run(
            "T: module (p: record x: real; y: real end): [d: real];\n"
            "define d = sqrt(p.x * p.x + p.y * p.y);\nend T;",
            {"p.x": 3.0, "p.y": 4.0},
        )
        assert out["d"] == pytest.approx(5.0)
