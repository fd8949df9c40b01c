"""The fission analysis behind the benchmark's split counter: SCC
grouping, replica construction, DOALL promotion, and the all-or-nothing
rejections (interlocked carries, shared-target output dependences,
window-mode hazards)."""

from repro.core.genprog import generate_program
from repro.core.recurrences import coupled_analyzed, mixed_analyzed
from repro.graph.build import build_dependency_graph
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.schedule.fission import FissionSplit, _analyze_loop, fission_splits
from repro.schedule.flowchart import Flowchart, LoopDescriptor
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module


def _merged(analyzed):
    graph = build_dependency_graph(analyzed)
    return merge_loops(schedule_module(analyzed, graph), graph)


def _analyze(source):
    return analyze_module(parse_module(source))


def _pieces(split):
    """``KEYWORD(labels)`` per replica, in replica order."""
    return [
        f"{p.keyword}({', '.join(eq.label for eq in p.nested_equations())})"
        for p in split.pieces
    ]


class TestSplitStructure:
    def test_mixed_splits_into_three_recurrence_pieces(self):
        analyzed = mixed_analyzed()
        chart = _merged(analyzed)
        splits = fission_splits(analyzed, chart)
        (split,) = splits.values()
        assert split.parts == 3
        assert split.groups == ((0,), (1,), (2,))
        assert split.promoted == (False, False, False)
        assert _pieces(split) == ["DO(eq.4)", "DO(eq.5)", "DO(eq.6)"]
        assert split.usable(False) and split.usable(True)

    def test_each_unit_lands_in_exactly_one_piece(self):
        analyzed = mixed_analyzed()
        chart = _merged(analyzed)
        (split,) = fission_splits(analyzed, chart).values()
        loop = chart.descriptor_at(split.path)
        assert sorted(u for g in split.groups for u in g) == list(
            range(len(loop.body))
        )
        # Replica bodies share the original descriptor objects.
        for piece, group in zip(split.pieces, split.groups):
            assert [id(u) for u in piece.body] == [
                id(loop.body[u]) for u in group
            ]

    def test_ordered_flow_pins_the_replica_order(self):
        # R consumes U in the same iteration: two groups, U's first.
        src = """\
Chain: module (X: array[1 .. n] of int; n: int):
       [U: array[0 .. n] of int; R: array[0 .. n] of int];
type
    I = 1 .. n;
define
    U[0] = 0;
    R[0] = 0;
    U[I] = U[I-1] + X[I];
    R[I] = R[I-1] + U[I];
end Chain;
"""
        analyzed = _analyze(src)
        chart = _merged(analyzed)
        (split,) = fission_splits(analyzed, chart).values()
        assert split.parts == 2
        assert _pieces(split) == ["DO(eq.3)", "DO(eq.4)"]  # U before R

    def test_coupled_pair_stays_in_one_group(self):
        # Mutually recursive units condense into a single two-member
        # group; the independent third unit still splits away.
        src = """\
Pair: module (X: array[1 .. n] of int; n: int):
      [P: array[0 .. n] of int; Q: array[0 .. n] of int;
       W: array[0 .. n] of int];
type
    I = 1 .. n;
define
    P[0] = 0;
    Q[0] = 1;
    W[0] = 0;
    P[I] = P[I-1] + Q[I-1];
    Q[I] = Q[I-1] + P[I];
    W[I] = W[I-1] + X[I];
end Pair;
"""
        analyzed = _analyze(src)
        chart = _merged(analyzed)
        (split,) = fission_splits(analyzed, chart).values()
        assert split.parts == 2
        assert any(len(g) == 2 for g in split.groups)

    def test_do_group_of_independent_maps_promotes_to_doall(self):
        # Hand-built DO over two carry-free units (the shape a foreign
        # flowchart builder can produce): each piece promotes to DOALL.
        src = """\
Maps: module (X: array[1 .. n] of int; n: int):
      [Y: array[1 .. n] of int; Z: array[1 .. n] of int];
type
    I = 1 .. n;
define
    Y[I] = X[I] + 1;
    Z[I] = X[I] * 2;
end Maps;
"""
        analyzed = _analyze(src)
        chart = schedule_module(analyzed)
        loops = list(chart.loops())
        hand = Flowchart(
            [LoopDescriptor(
                loops[0].subrange, loops[0].index, False,
                list(loops[0].body) + list(loops[1].body),
                dict(loops[0].windows),
            )],
            windows=dict(chart.windows),
        )
        (split,) = fission_splits(analyzed, hand).values()
        assert split.promoted == (True, True)
        assert all(p.parallel for p in split.pieces)
        assert _pieces(split) == ["DOALL(eq.1)", "DOALL(eq.2)"]


class TestRejections:
    def test_interlocked_carries_reject(self):
        # The coupled recurrence is one SCC: no legal split, and why.
        analyzed = coupled_analyzed()
        chart = _merged(analyzed)
        loop = next(d for d in chart.loops() if not d.parallel)
        path = chart.path_of(loop)
        assert path not in fission_splits(analyzed, chart)
        assert (
            _analyze_loop(loop, path, analyzed, chart)
            == "carried dependences interlock the body into one group"
        )

    def test_shared_target_output_dependence_rejects(self):
        # Two units writing one array interlock (output dependence):
        # hand-built, since single assignment keeps scheduler output free
        # of this shape.
        src = """\
Maps: module (X: array[1 .. n] of int; n: int):
      [Y: array[1 .. n] of int];
type
    I = 1 .. n;
define
    Y[I] = X[I] + 1;
end Maps;
"""
        analyzed = _analyze(src)
        chart = schedule_module(analyzed)
        loop = next(d for d in chart.loops())
        unit = loop.body[0]
        hand_loop = LoopDescriptor(
            loop.subrange, loop.index, False, [unit, unit],
            dict(loop.windows),
        )
        verdict = _analyze_loop(hand_loop, (0,), analyzed, chart)
        assert verdict == (
            "carried dependences interlock the body into one group"
        )

    def test_windowed_array_is_a_window_mode_hazard(self):
        # A local array under window allocation rotates planes as the
        # loop advances: the split stays usable with full storage and is
        # rejected in window mode.
        src = """\
WinMix: module (X: array[1 .. n] of int; n: int):
        [R: array[0 .. n] of int; Y: int];
type
    I = 1 .. n;
var
    U: array [0 .. n] of int;
define
    R[0] = 0;
    U[0] = 0;
    R[I] = R[I-1] + X[I];
    U[I] = U[I-1] + X[I];
    Y = U[n];
end WinMix;
"""
        analyzed = _analyze(src)
        chart = _merged(analyzed)
        assert chart.window_of("U"), "test premise: U must be windowed"
        (split,) = fission_splits(analyzed, chart).values()
        assert split.usable(False)
        assert not split.usable(True)
        assert split.mode_hazard[True] == "windowed array U in the nest"

    def test_single_unit_loops_are_not_considered(self):
        analyzed = coupled_analyzed()
        chart = schedule_module(analyzed)  # unmerged: loops stay small
        splits = fission_splits(analyzed, chart)
        for loop in chart.loops():
            if len(loop.body) < 2:
                assert chart.path_of(loop) not in splits


class TestGeneratedPrograms:
    def test_groups_always_partition_the_body(self):
        for seed in range(60):
            prog = generate_program(seed)
            analyzed = prog.analyzed()
            chart = _merged(analyzed)
            for path, split in fission_splits(analyzed, chart).items():
                assert isinstance(split, FissionSplit)
                loop = chart.descriptor_at(path)
                assert sorted(u for g in split.groups for u in g) == list(
                    range(len(loop.body))
                )
                assert split.parts >= 2
                assert len(split.pieces) == len(split.promoted)
