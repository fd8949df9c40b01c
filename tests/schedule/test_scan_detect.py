"""Recognition of parallelizable recurrences (:mod:`repro.schedule.scan_detect`):
which sequential DO loops classify as associative scans or first-order
linear recurrences, and which must be rejected; every negative here is
all-or-nothing. Recognition only: every recognised loop plans as the
compiled ``DO``, and the count is what ``schedule.scan_loops`` reports."""

from repro.core.recurrences import (
    ilinrec_analyzed,
    isum_analyzed,
    line_sweep_analyzed,
    runmax_analyzed,
    scan_analyzed,
)
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.schedule.scan_detect import scan_info, scan_loops
from repro.schedule.scheduler import schedule_module


def _loops(source: str, use_windows: bool = False):
    analyzed = analyze_module(parse_module(source))
    flow = schedule_module(analyzed)
    return scan_loops(analyzed, flow, use_windows)


def _one(source: str):
    loops = _loops(source)
    assert len(loops) == 1, f"expected one recognized loop, got {loops}"
    return next(iter(loops.values()))


class TestPositives:
    def test_integer_sum_reduce(self):
        analyzed = isum_analyzed()
        flow = schedule_module(analyzed)
        (info,) = scan_loops(analyzed, flow, False).values()
        assert (info.kind, info.op, info.is_float) == ("scan", "+", False)
        assert info.target == "T"

    def test_running_max(self):
        analyzed = runmax_analyzed()
        flow = schedule_module(analyzed)
        (info,) = scan_loops(analyzed, flow, False).values()
        assert (info.kind, info.op, info.is_float) == ("scan", "max", True)

    def test_integer_linear_recurrence(self):
        analyzed = ilinrec_analyzed()
        flow = schedule_module(analyzed)
        (info,) = scan_loops(analyzed, flow, False).values()
        assert (info.kind, info.op, info.is_float) == ("linrec", None, False)
        assert info.a_expr is not None

    def test_float_linrec_with_constant_coefficient(self):
        # The recurrence corpus' scan workload: S[I] = S[I-1] * a + X[I].
        analyzed = scan_analyzed()
        flow = schedule_module(analyzed)
        (info,) = scan_loops(analyzed, flow, False).values()
        assert (info.kind, info.is_float) == ("linrec", True)

    def test_subtraction_normalizes_to_plus_scan(self):
        info = _one("""\
Sub: module (X: array[1 .. n] of real; n: int):
     [S: array[0 .. n] of real];
type
    I = 1 .. n;
define
    S[0] = 0.0;
    S[I] = S[I-1] - X[I];
end Sub;
""")
        assert (info.kind, info.op) == ("scan", "+")

    def test_product_scan(self):
        info = _one("""\
Prod: module (X: array[1 .. n] of int; n: int):
      [P: array[0 .. n] of int];
type
    I = 1 .. n;
define
    P[0] = 1;
    P[I] = P[I-1] * X[I];
end Prod;
""")
        assert (info.kind, info.op, info.is_float) == ("scan", "*", False)

    def test_descriptor_lookup_matches_table(self):
        analyzed = isum_analyzed()
        flow = schedule_module(analyzed)
        (path,) = scan_loops(analyzed, flow, False)
        desc = flow.descriptor_at(path)
        assert scan_info(analyzed, flow, desc, False) is not None


class TestNegatives:
    def test_two_carries_rejected(self):
        # Second-order recurrence: the (a, b) monoid does not cover it.
        assert _loops("""\
Fib: module (X: array[1 .. n] of int; n: int):
     [S: array[0 .. n] of int];
type
    I = 2 .. n;
define
    S[0] = 0;
    S[1] = 1;
    S[I] = S[I-1] + S[I-2] + X[I];
end Fib;
""") == {}

    def test_distance_two_carry_rejected(self):
        # A stride-2 carry interleaves two independent recurrences; the
        # blocked kernels assume distance exactly 1.
        assert _loops("""\
Skip: module (X: array[2 .. n] of int; n: int):
      [S: array[0 .. n] of int];
type
    I = 2 .. n;
define
    S[0] = 0;
    S[1] = 1;
    S[I] = S[I-2] + X[I];
end Skip;
""") == {}

    def test_module_call_in_body_rejected(self):
        # A module call may do anything (including read the carry through
        # the callee); all-or-nothing says reject.
        from repro.ps.parser import parse_program
        from repro.ps.semantics import analyze_program

        # (Helper has a loop of its own, so the call is not inlined.)
        program = analyze_program(parse_program("""\
Helper: module (x: int): [y: int];
type
    K = 1 .. 1;
var
    P: array [1 .. 1] of int;
define
    P[K] = x * 2;
    y = P[1];
end Helper;

Caller: module (X: array[1 .. n] of int; n: int):
        [S: array[0 .. n] of int];
type
    I = 1 .. n;
define
    S[0] = 0;
    S[I] = S[I-1] + Helper(X[I]);
end Caller;
"""))
        analyzed = program["Caller"]
        flow = schedule_module(analyzed)
        assert scan_loops(analyzed, flow, False) == {}

    def test_multi_equation_do_body_rejected(self):
        # Coupled P/Q recurrence: one MSCC, two equations in the DO body.
        from repro.core.recurrences import coupled_analyzed

        analyzed = coupled_analyzed()
        flow = schedule_module(analyzed)
        assert scan_loops(analyzed, flow, False) == {}

    def test_nested_loops_rejected(self):
        analyzed = line_sweep_analyzed()
        flow = schedule_module(analyzed)
        assert scan_loops(analyzed, flow, False) == {}

    def test_carry_times_carry_rejected(self):
        # x^2-type recurrences are not linear in the carry.
        assert _loops("""\
Sq: module (X: array[1 .. n] of real; n: int):
    [S: array[0 .. n] of real];
type
    I = 1 .. n;
define
    S[0] = 2.0;
    S[I] = S[I-1] * S[I-1] + X[I];
end Sq;
""") == {}

    def test_windowed_target_rejected_in_window_mode(self):
        # A reduction consumed only at its last plane gets a 2-slot window
        # in window mode: there is no full subrange for the three-phase
        # kernels to sweep. Flat mode recognizes the same loop.
        source = """\
WinSum: module (X: array[1 .. n] of int; n: int): [Y: int];
type
    I = 1 .. n;
var
    S: array [0 .. n] of int;
define
    S[0] = 0;
    S[I] = S[I-1] + X[I];
    Y = S[n];
end WinSum;
"""
        analyzed = analyze_module(parse_module(source))
        flow = schedule_module(analyzed)
        assert flow.window_of("S")
        assert scan_loops(analyzed, flow, False) != {}
        assert scan_loops(analyzed, flow, True) == {}

    def test_min_with_nonlocal_extra_arg_still_scan(self):
        # min(S[I-1], X[I]) is a scan; min with three args is not matched.
        assert _loops("""\
Min3: module (X: array[1 .. n] of real; n: int):
      [S: array[0 .. n] of real];
type
    I = 1 .. n;
define
    S[0] = 0.0;
    S[I] = min(S[I-1], min(X[I], 1.0));
end Min3;
""") != {}
