"""End-to-end hyperplane transformation tests (paper section 4)."""

import sys

import numpy as np
import pytest

from repro.core.paper import (
    RELAXATION_GAUSS_SEIDEL_SOURCE,
    gauss_seidel_analyzed,
    jacobi_analyzed,
)
from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import TransformError
from repro.graph.build import build_dependency_graph
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module
from repro.ps.printer import format_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.wavefront import execute_transformed_windowed
from repro.schedule.scheduler import schedule_module


@pytest.fixture(scope="module")
def result():
    return hyperplane_transform(gauss_seidel_analyzed())


class TestDerivation:
    def test_time_equation(self, result):
        assert result.pi == (2, 1, 1)
        assert result.time_equation == "t(A[K, I, J]) = 2K + I + J"

    def test_inequalities(self, result):
        assert set(result.inequalities) == {"a > 0", "b > 0", "c > 0", "a > b", "a > c"}

    def test_transformation_matrix(self, result):
        assert result.T == [[2, 1, 1], [1, 0, 0], [0, 1, 0]]
        assert result.Tinv == [[0, 1, 0], [0, 0, 1], [1, -2, -1]]

    def test_transformed_offsets_match_paper(self, result):
        """The rewritten recurrence references A'[K'-1,I',J'],
        A'[K'-1,I',J'-1], A'[K'-1,I'-1,J'], A'[K'-1,I'-1,J'+1] (interior)
        and A'[K'-2,I'-1,J'] (boundary)."""
        mapping = dict(result.transformed_offsets())
        assert mapping[(-1, 0, 0)] == (-2, -1, 0)  # boundary carry-over
        assert mapping[(0, 0, -1)] == (-1, 0, 0)
        assert mapping[(0, -1, 0)] == (-1, 0, -1)
        assert mapping[(-1, 0, 1)] == (-1, -1, 0)
        assert mapping[(-1, 1, 0)] == (-1, -1, 1)

    def test_recurrence_window_three(self, result):
        """'The window size is three' — references only K'-1 and K'-2."""
        assert result.recurrence_window == 3


class TestTransformedSchedule:
    def test_original_schedule_fully_iterative(self, result):
        kinds = result.original_flowchart.loop_kinds()
        assert ("DO", "K") in kinds and ("DO", "I") in kinds and ("DO", "J") in kinds

    def test_transformed_schedule_figure6_shape(self, result):
        """'the schedule is identical to that of Figure 6': an outer
        iterative loop with two inner parallel loops."""
        flow = result.transformed_flowchart
        shapes = flow.shape()
        # Find the transformed recurrence nest.
        nests = [s for s in shapes if isinstance(s, tuple) and s[0] == "DO"]
        assert len(nests) == 1
        kw, idx, body = nests[0]
        assert idx == result.new_names[0]
        (inner1,) = body
        assert inner1[0] == "DOALL"
        (inner2,) = inner1[2]
        assert inner2[0] == "DOALL"

    def test_no_iterative_spatial_loops_remain(self, result):
        kinds = result.transformed_flowchart.loop_kinds()
        do_loops = [idx for kw, idx in kinds if kw == "DO"]
        assert do_loops == [result.new_names[0]]


class TestTransformedModuleSource:
    def test_round_trips_through_parser(self, result):
        text = format_module(result.transformed_module)
        reparsed = parse_module(text)
        analyze_module(reparsed)  # must stay semantically valid

    def test_new_declarations_present(self, result):
        text = format_module(result.transformed_module)
        assert "Kp" in text and "Ip" in text and "Jp" in text
        assert "Ap" in text

    def test_rotate_out_reference(self, result):
        """newA = A[maxK] becomes a reference to Ap[2*maxK + I + J, maxK, I]."""
        text = format_module(result.transformed_module)
        assert "Ap[2 * maxK + I + J, maxK, I]" in text


class TestNumericEquivalence:
    @pytest.mark.parametrize("m,maxk", [(4, 3), (5, 5), (3, 7)])
    def test_transformed_equals_original(self, result, m, maxk):
        rng = np.random.default_rng(m * 10 + maxk)
        initial = rng.random((m + 2, m + 2))
        args = {"InitialA": initial, "M": m, "maxK": maxk}
        orig = execute_module(result.original, args)
        trans = execute_module(result.transformed, args)
        np.testing.assert_allclose(trans["newA"], orig["newA"], rtol=1e-12)

    def test_transformed_scalar_and_vector_agree(self, result):
        rng = np.random.default_rng(0)
        m, maxk = 4, 4
        initial = rng.random((m + 2, m + 2))
        args = {"InitialA": initial, "M": m, "maxK": maxk}
        fast = execute_module(
            result.transformed, args, options=ExecutionOptions()
        )
        slow = execute_module(
            result.transformed, args, options=ExecutionOptions(backend="serial")
        )
        np.testing.assert_allclose(fast["newA"], slow["newA"])


class TestStorageComparison:
    def test_storage_numbers(self, result):
        """Transformed window: 3 x maxK x (M+2); untransformed: 2 x (M+2)^2;
        full: maxK x (M+2)^2."""
        comp = result.storage_comparison({"M": 8, "maxK": 20})
        mp = 10  # M + 2
        assert comp["full"] == 20 * mp * mp
        assert comp["untransformed_window"] == 2 * mp * mp
        assert comp["transformed_window"] == 3 * 20 * mp


class TestOtherRecurrences:
    def test_wavefront_recurrence_transform(self):
        analyzed = analyze_module(
            parse_module(
                "T: module (n: int; X: array[0 .. n] of real): [y: real];\n"
                "type I = 1 .. n; J = 1 .. n;\n"
                "var W: array [0 .. n, 0 .. n] of real;\n"
                "define W[0] = X;\n"
                "W[I, 0] = X[I];\n"
                "W[I, J] = W[I-1, J] + W[I, J-1];\n"
                "y = W[n, n];\nend T;"
            )
        )
        res = hyperplane_transform(analyzed)
        assert res.pi == (1, 1)
        # Numeric equivalence.
        x = np.linspace(1.0, 2.0, 7)
        orig = execute_module(analyzed, {"n": 6, "X": x})
        trans = execute_module(res.transformed, {"n": 6, "X": x})
        assert trans["y"] == pytest.approx(orig["y"])

    def test_jacobi_transform_degenerates_to_iteration(self):
        # Jacobi's dependences already satisfy t = K; the transform exists
        # and keeps a parallel interior.
        res = hyperplane_transform(jacobi_analyzed())
        assert res.pi == (1, 0, 0)
        assert res.recurrence_window == 2

    def test_no_recursive_component(self):
        analyzed = analyze_module(
            parse_module("T: module (x: int): [y: int];\ndefine y = x + 1;\nend T;")
        )
        with pytest.raises(TransformError, match="no recursive"):
            hyperplane_transform(analyzed)

    def test_named_array_not_recursive(self):
        with pytest.raises(TransformError, match="not part"):
            hyperplane_transform(gauss_seidel_analyzed(), array="InitialA")


class TestSinglePass:
    """The transform analyses its output and schedules nothing: compiling a
    section-4 program builds each module's dependency graph once and
    schedules only the transformed module, once."""

    @staticmethod
    def _spy(monkeypatch, fn, calls: list) -> None:
        def spy(analyzed, *args, **kwargs):
            calls.append(analyzed.name)
            return fn(analyzed, *args, **kwargs)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, spy)

    def test_compile_schedules_the_transformed_module_once(self, monkeypatch):
        graphs: list[str] = []
        schedules: list[str] = []
        self._spy(monkeypatch, build_dependency_graph, graphs)
        self._spy(monkeypatch, schedule_module, schedules)
        result = compile_source(
            RELAXATION_GAUSS_SEIDEL_SOURCE, CompilerOptions(hyperplane=True)
        )
        assert sorted(graphs) == ["Relaxation", "RelaxationHyper"]
        assert schedules == ["RelaxationHyper"]
        assert result.flowchart.loop_kinds()[0] == ("DO", "Kp")

    def test_flowcharts_are_made_on_first_read(self, monkeypatch):
        schedules: list[str] = []
        self._spy(monkeypatch, schedule_module, schedules)
        res = hyperplane_transform(gauss_seidel_analyzed())
        assert schedules == []
        assert res.transformed_flowchart is res.transformed_flowchart
        assert res.original_flowchart is res.original_flowchart
        assert schedules == ["RelaxationHyper", "Relaxation"]

    def test_windowed_run_reads_the_transformed_flowchart(self, monkeypatch):
        res = hyperplane_transform(gauss_seidel_analyzed())
        schedules: list[str] = []
        self._spy(monkeypatch, schedule_module, schedules)
        m, maxk = 4, 5
        args = {"InitialA": np.ones((m + 2, m + 2)), "M": m, "maxK": maxk}
        for _ in range(2):
            report = execute_transformed_windowed(res, args)
            assert report.allocated_elements["Ap"] == 3 * maxk * (m + 2)
        assert schedules == ["RelaxationHyper"]
