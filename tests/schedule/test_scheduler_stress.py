"""Scheduler stress tests: higher ranks, mixed nest kinds, dimension
selection order, and executor agreement on the resulting schedules."""

import numpy as np
import pytest

from repro.analysis.validate import validate_flowchart_order
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.schedule.scheduler import schedule_module


def setup(src):
    analyzed = analyze_module(parse_module(src))
    return analyzed, schedule_module(analyzed)


class TestMixedNests:
    SRC = (
        "T: module (n: int; X: array[R, Z] of real): [y: real];\n"
        "type R = 0 .. n; C = 1 .. n; Z = 0 .. n;\n"
        "var G: array [0 .. n, 0 .. n, 0 .. n] of real;\n"
        "define G[R, 0, Z] = X[R, Z];\n"
        "G[R, C, Z] = G[R, C-1, Z] * 0.5 + 1.0;\n"
        "y = G[n, n, n];\nend T;"
    )

    def test_doall_do_doall_nest(self):
        """Independent in R and Z, recurrent in C: the schedule is
        DOALL R (DO C (DOALL Z (...)))."""
        analyzed, flow = setup(self.SRC)
        shape = flow.shape()
        rec = [s for s in shape if isinstance(s, tuple) and "eq.2" in str(s)][0]
        assert rec[0] == "DOALL" and rec[1] == "R"
        inner = rec[2][0]
        assert inner[0] == "DO" and inner[1] == "C"
        innermost = inner[2][0]
        assert innermost[0] == "DOALL" and innermost[1] == "Z"

    def test_valid(self):
        analyzed, flow = setup(self.SRC)
        assert validate_flowchart_order(analyzed, flow, {"n": 4}) == []

    def test_vectorised_do_inside_doall(self):
        """Executes a scalar DO nested inside a vectorised DOALL, with a
        further vectorised DOALL inside that."""
        analyzed, flow = setup(self.SRC)
        n = 5
        rng = np.random.default_rng(0)
        x = rng.random((n + 1, n + 1))
        fast = execute_module(
            analyzed, {"n": n, "X": x}, options=ExecutionOptions()
        )
        slow = execute_module(
            analyzed, {"n": n, "X": x}, options=ExecutionOptions(backend="serial")
        )
        assert fast["y"] == pytest.approx(slow["y"])


class TestFourDimensional:
    SRC = (
        "T: module (n: int): [y: real];\n"
        "type T1 = 1 .. n; A1 = 0 .. n; B1 = 0 .. n; C1 = 0 .. n;\n"
        "var G: array [0 .. n, 0 .. n, 0 .. n, 0 .. n] of real;\n"
        "define G[0] = 1.0;\n"
        "G[T1, A1, B1, C1] = G[T1 - 1, A1, B1, C1] + 1.0;\n"
        "y = G[n, n, n, n];\nend T;"
    )

    def test_schedule(self):
        analyzed, flow = setup(self.SRC)
        kinds = flow.loop_kinds()
        assert ("DO", "T1") in kinds
        assert ("DOALL", "A1") in kinds
        assert ("DOALL", "B1") in kinds
        assert ("DOALL", "C1") in kinds

    def test_window(self):
        analyzed, flow = setup(self.SRC)
        assert flow.window_of("G") == {0: 2}

    def test_execution(self):
        analyzed, flow = setup(self.SRC)
        out = execute_module(analyzed, {"n": 3})
        assert out["y"] == pytest.approx(4.0)  # 1 + n


class TestDimensionSelection:
    def test_first_dimension_blocked_second_chosen(self):
        """When dimension 0 carries a forward reference, the scheduler must
        pick dimension 1 first (deterministic candidate order skips 0)."""
        src = (
            "T: module (n: int): [y: real];\n"
            "type R = 1 .. n; C = 1 .. n;\n"
            "var G: array [0 .. n+1, 0 .. n] of real;\n"
            "define G[0] = 1.0; G[n+1] = 1.0;\n"
            "G[R, 0] = 1.0;\n"
            "G[R, C] = G[R-1, C-1] + G[R+1, C-1];\n"
            "y = G[n, n];\nend T;"
        )
        analyzed, flow = setup(src)
        # Dimension 0 (R) has R+1: the C loop must be scheduled first
        # (iterative); R then becomes parallel.
        rec_loops = [l for l in flow.loops() if "C" == l.index or "R" == l.index]
        c_loop = [l for l in flow.loops() if l.index == "C"]
        r_loop = [l for l in flow.loops() if l.index == "R"]
        # C appears as an outer iterative loop containing the R loop.
        outer = [
            l for l in flow.loops()
            if l.index == "C" and any(
                getattr(d, "index", None) == "R" for d in l.body
            )
        ]
        assert outer and not outer[0].parallel
        assert outer[0].body[0].parallel

    def test_execution_of_column_major_wavefront(self):
        src = (
            "T: module (n: int): [y: real];\n"
            "type R = 1 .. n; C = 1 .. n;\n"
            "var G: array [0 .. n+1, 0 .. n] of real;\n"
            "define G[0] = 1.0; G[n+1] = 1.0;\n"
            "G[R, 0] = 1.0;\n"
            "G[R, C] = G[R-1, C-1] + G[R+1, C-1];\n"
            "y = G[n, n];\nend T;"
        )
        analyzed, flow = setup(src)
        assert validate_flowchart_order(analyzed, flow, {"n": 5}) == []
        n = 6
        fast = execute_module(analyzed, {"n": n})
        slow = execute_module(
            analyzed, {"n": n}, options=ExecutionOptions(backend="serial")
        )
        assert fast["y"] == pytest.approx(slow["y"])


class TestThreeArrayMutualRecursion:
    SRC = (
        "T: module (n: int): [y: real];\n"
        "type I = 2 .. n;\n"
        "var P: array [1 .. n] of real;\n"
        "    Q: array [1 .. n] of real;\n"
        "    R: array [1 .. n] of real;\n"
        "define P[1] = 1.0; Q[1] = 2.0; R[1] = 3.0;\n"
        "P[I] = R[I-1] * 0.5;\n"
        "Q[I] = P[I-1] + 1.0;\n"
        "R[I] = Q[I-1] - P[I];\n"
        "y = P[n] + Q[n] + R[n];\nend T;"
    )

    def test_one_shared_do_loop(self):
        analyzed, flow = setup(self.SRC)
        do_loops = [l for l in flow.loops() if not l.parallel]
        assert len(do_loops) == 1
        labels = {
            d.node.id for d in do_loops[0].body if hasattr(d, "node")
        }
        assert labels == {"eq.4", "eq.5", "eq.6"}

    def test_all_windows_detected(self):
        analyzed, flow = setup(self.SRC)
        assert flow.window_of("P") == {0: 2}
        assert flow.window_of("Q") == {0: 2}
        assert flow.window_of("R") == {0: 2}

    def test_intra_iteration_identity_reference_ordering(self):
        """R[I] reads P[I] (same iteration): the scheduler must order eq.4
        before eq.6 inside the shared loop body."""
        analyzed, flow = setup(self.SRC)
        do_loop = [l for l in flow.loops() if not l.parallel][0]
        order = [d.node.id for d in do_loop.body if hasattr(d, "node")]
        assert order.index("eq.4") < order.index("eq.6")

    def test_execution(self):
        analyzed, flow = setup(self.SRC)
        assert validate_flowchart_order(analyzed, flow, {"n": 8}) == []
        out = execute_module(analyzed, {"n": 8})
        slow = execute_module(
            analyzed, {"n": 8}, options=ExecutionOptions(backend="serial")
        )
        assert out["y"] == pytest.approx(slow["y"])

    def test_windowed_execution(self):
        analyzed, flow = setup(self.SRC)
        full = execute_module(analyzed, {"n": 10})
        windowed = execute_module(
            analyzed,
            {"n": 10},
            options=ExecutionOptions(use_windows=True, debug_windows=True),
        )
        assert windowed["y"] == pytest.approx(full["y"])
