"""Robustness tests: every stage fails loudly and specifically on bad
input, never silently producing a wrong artifact."""

import numpy as np
import pytest

from repro.errors import (
    ExecutionError,
    InfeasibleScheduleError,
    ParseError,
    ScheduleError,
    SemanticError,
    TransformError,
)
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import execute_module
from repro.schedule.scheduler import schedule_module


def analyze(src):
    return analyze_module(parse_module(src))


class TestFrontEndErrors:
    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_module("T: module (x: int): [y: int];\ndefine y = ;\nend T;")
        assert exc.value.line == 2

    def test_semantic_error_line(self):
        with pytest.raises(SemanticError) as exc:
            analyze("T: module (x: int): [y: int];\ndefine\ny = zz;\nend T;")
        assert exc.value.line == 3

    def test_unknown_type(self):
        with pytest.raises(SemanticError, match="unknown type"):
            analyze("T: module (x: Widget): [y: int];\ndefine y = 1;\nend T;")

    def test_bad_subrange_bound_type(self):
        with pytest.raises(SemanticError, match="non-integer"):
            analyze(
                "T: module (f: real): [y: real];\n"
                "type I = 0 .. f;\n"
                "var A: array[I] of real;\n"
                "define A[I] = 1.0; y = A[0];\nend T;"
            )

    def test_array_dim_must_be_subrange(self):
        with pytest.raises(SemanticError, match="subrange"):
            analyze(
                "T: module (x: int): [y: real];\n"
                "type C = (red, blue);\n"
                "var A: array[C] of real;\n"
                "define y = 1.0;\nend T;"
            )


class TestTransformErrors:
    def test_multi_array_component_rejected(self):
        src = (
            "T: module (n: int): [y: real];\n"
            "type I = 2 .. n;\n"
            "var P: array [1 .. n] of real; Q: array [1 .. n] of real;\n"
            "define P[1] = 1.0; Q[1] = 2.0;\n"
            "P[I] = Q[I-1] * 0.5; Q[I] = P[I-1] + 1.0;\n"
            "y = P[n];\nend T;"
        )
        with pytest.raises(TransformError, match="2 arrays; name one"):
            hyperplane_transform(analyze(src))
        with pytest.raises(TransformError, match="single recursive array"):
            hyperplane_transform(analyze(src), array="P")

    def test_non_uniform_subscript_rejected(self):
        src = (
            "T: module (n: int): [y: real];\n"
            "type I = 1 .. n;\n"
            "var S: array [0 .. n] of real;\n"
            "define S[0] = 1.0;\n"
            "S[I] = S[I div 2] + 1.0;\n"
            "y = S[n];\nend T;"
        )
        with pytest.raises((TransformError, ScheduleError)):
            res = hyperplane_transform(analyze(src))

    def test_infeasible_dependences(self):
        from repro.hyperplane.solver import solve_time_vector

        with pytest.raises(InfeasibleScheduleError):
            solve_time_vector([(1, 1), (-1, -1)])


class TestExecutionErrors:
    def test_wrong_array_shape(self):
        from repro.core.paper import jacobi_analyzed

        with pytest.raises(ExecutionError, match="shape"):
            execute_module(
                jacobi_analyzed(),
                {"InitialA": np.zeros((3, 3)), "M": 6, "maxK": 4},
            )

    def test_missing_scalar(self):
        from repro.core.paper import jacobi_analyzed

        with pytest.raises(ExecutionError, match="missing"):
            execute_module(jacobi_analyzed(), {"InitialA": np.zeros((8, 8)), "M": 6})

    def test_empty_subrange_executes_empty(self):
        # maxK = 1 means the K loop (2..1) is empty: newA = InitialA.
        from repro.core.paper import jacobi_analyzed

        initial = np.arange(16.0).reshape(4, 4)
        out = execute_module(
            jacobi_analyzed(), {"InitialA": initial, "M": 2, "maxK": 1}
        )
        np.testing.assert_allclose(out["newA"], initial)


class TestSchedulerDeterminism:
    def test_same_module_same_schedule(self):
        """Scheduling is a pure function of the module text."""
        from repro.core.paper import RELAXATION_JACOBI_SOURCE

        flows = [
            schedule_module(analyze(RELAXATION_JACOBI_SOURCE)).pretty()
            for _ in range(3)
        ]
        assert len(set(flows)) == 1

    def test_window_analysis_deterministic(self):
        from repro.core.paper import RELAXATION_GAUSS_SEIDEL_SOURCE

        windows = [
            schedule_module(analyze(RELAXATION_GAUSS_SEIDEL_SOURCE)).windows
            for _ in range(3)
        ]
        assert all(w == windows[0] for w in windows)
