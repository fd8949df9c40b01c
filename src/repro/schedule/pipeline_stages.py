"""Recognition of DSWP-style pipeline groups — recognition only.

The scheduler fuses every recurrence into one maximal strongly connected
component, so a single ``DO`` loop's body is always one SCC — decoupling
*inside* a loop is vacuous. What the condensation DAG does expose is runs
of **consecutive sibling loops over the same iteration space**: a scan
(``DO``) feeding a consumer (``DOALL``), coupled recurrences feeding a
reduction sweep, a Gauss–Seidel line sweep feeding per-row diagnostics.
Flowchart order is a topological order of the condensation, so inter-loop
dependences only ever flow forward through such a run — exactly the shape
DSWP decouples into stages over bounded hand-off queues.

This module finds those runs and partitions them into stages:

* a ``DO`` loop (cyclic SCC) becomes a **sequential** stage;
* a ``DOALL`` loop (acyclic SCC) becomes a **replicated** stage;
* adjacent ``DOALL`` loops coalesce into one replicated stage when every
  dependence between them is *identity* (row ``i`` reads only row ``i``).

A run is only recognised when every loop is **stage-safe**: each nested
equation writes full-rank arrays whose subscripts use the run index in
exactly one *bare* position (the array's carry position — the axis a
hand-off frontier would advance along), and every read of an array
produced earlier in the run hits its carry position at ``index + delta``
with ``delta <= 0``. Anything else — forward references, index-free carry
reads, windowed arrays, atomics, scalar targets — truncates the run before
the offending loop; a run that keeps fewer than two stages is dropped.

Nothing executes these groups any more. The ``pipeline`` plan strategy
that ran them as concurrent stages on the thread pool is retired: measured
on two cores it ran at 0.78–0.95× of the compiled ``DO`` it replaced, so
such a run now plans loop by loop — the recurrence as the compiled ``DO``,
each consumer as an ordinary ``DOALL``. Nothing under ``src/`` imports this
module. It stays only because the end-to-end benchmark's traced run counts
:func:`pipeline_groups` as ``schedule.pipeline_groups``; it leaves with
that counter. The groups are computed on first call and cached on the
flowchart per window mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ps.ast import Name, expr_equal
from repro.ps.types import ArrayType
from repro.schedule.fission import _depgraph, fission_splits
from repro.schedule.flowchart import (
    Descriptor,
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
    loop_chunk_safe,
)


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: ``kind`` is ``"sequential"`` or ``"replicated"``;
    ``members`` are offsets into the owning group's loop run; ``labels``
    are the equation labels the stage evaluates (for display)."""

    kind: str
    members: tuple[int, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class PipelineGroup:
    """A maximal partitionable run of consecutive sibling loops.

    ``start`` is the offset of the first loop within its sibling list;
    ``loops`` the run itself, ``stages`` its partition (at least two)."""

    start: int
    loops: tuple[LoopDescriptor, ...]
    stages: tuple[StageSpec, ...]

    @property
    def size(self) -> int:
        return len(self.loops)

    def kinds(self) -> str:
        return "+".join(
            "seq" if s.kind == "sequential" else f"par[{len(s.members)}]"
            for s in self.stages
        )


@dataclass
class _LoopFacts:
    """Per-loop dependence facts the run scan consumes: which arrays the
    nest writes (with their carry positions) and which it reads (with the
    per-position ``(index, delta)`` classification of every textual read)."""

    writes: dict[str, int] = field(default_factory=dict)  # array -> carry pos
    #: array -> one entry per textual read: [(index, delta)] per position
    reads: dict[str, list[list[tuple[str | None, int | None]]]] = field(
        default_factory=dict
    )
    labels: tuple[str, ...] = ()


def _loop_facts(
    loop: LoopDescriptor, analyzed, flowchart: Flowchart, use_windows: bool
) -> _LoopFacts | None:
    """Stage-safety analysis for one loop; None when the loop cannot be a
    pipeline stage at all (which truncates any run at this sibling)."""
    from repro.graph.depgraph import EdgeKind

    g = _depgraph(analyzed)
    index = loop.index
    facts = _LoopFacts()
    labels: list[str] = []
    for d in loop.nested_descriptors():
        if isinstance(d, LoopDescriptor):
            continue
        assert isinstance(d, NodeDescriptor)
        if not d.node.is_equation:
            return None  # data declarations inside the nest
        eq = d.node.equation
        if eq.atomic:
            return None
        labels.append(eq.label)
        for target in eq.targets:
            sym = analyzed.symbol(target.name)
            if not isinstance(sym.type, ArrayType):
                return None  # scalar target: no carry axis to advance
            if len(target.subscripts) != sym.type.rank:
                return None
            if use_windows and flowchart.window_of(target.name):
                return None  # windowed planes are overwritten behind the frontier
            carry = None
            for pos, sub in enumerate(target.subscripts):
                if isinstance(sub, Name) and sub.ident == index:
                    if carry is not None:
                        return None  # run index in two positions
                    carry = pos
                elif _mentions(sub, index):
                    return None  # non-bare use of the run index
            if carry is None:
                return None  # the write does not advance with the run index
            if facts.writes.setdefault(target.name, carry) != carry:
                return None  # inconsistent carry position across writes
        # Reads, classified once by the dependence graph build.
        for edge in g.in_edges(eq.label):
            if edge.kind is not EdgeKind.DATA or edge.is_lhs:
                continue
            name = edge.src
            if use_windows and flowchart.window_of(name):
                return None  # frontier rows may be window-rotated away
            facts.reads.setdefault(name, []).append(
                [(info.index, info.delta) for info in edge.subscripts]
            )
    facts.labels = tuple(labels)
    return facts


def _mentions(expr, ident: str) -> bool:
    from repro.ps.ast import names_in

    return ident in names_in(expr)


def _carry_read_ok(
    facts: _LoopFacts, name: str, carry: int, index: str
) -> bool:
    """Every textual read of ``name`` in this loop's nest must hit the
    producer's carry position at ``index + delta`` with ``delta <= 0``."""
    for pairs in facts.reads.get(name, []):
        if carry >= len(pairs):
            return False  # index-free / partial reference: frontier unknown
        read_index, delta = pairs[carry]
        if read_index != index or delta is None or delta > 0:
            return False
    return True


def _bounds_equal(a: LoopDescriptor, b: LoopDescriptor) -> bool:
    return expr_equal(a.subrange.lo, b.subrange.lo) and expr_equal(
        a.subrange.hi, b.subrange.hi
    )


def _stage_partition(
    loops: list[LoopDescriptor],
    facts: list[_LoopFacts],
) -> tuple[StageSpec, ...]:
    """Coalesce the run into stages. ``DO`` loops stand alone; adjacent
    ``DOALL`` loops merge while every dependence between them is identity
    (``delta == 0``) at the producer's carry position — a lagged read needs
    a real frontier between the loops, i.e. a stage boundary."""
    stages: list[StageSpec] = []
    current: list[int] = []

    def flush() -> None:
        if current:
            labels: list[str] = []
            for m in current:
                labels.extend(facts[m].labels)
            stages.append(StageSpec("replicated", tuple(current), tuple(labels)))
            current.clear()

    for j, loop in enumerate(loops):
        if not loop.parallel:
            flush()
            stages.append(StageSpec("sequential", (j,), facts[j].labels))
            continue
        if current and not _identity_only(loops, facts, current, j):
            flush()
        current.append(j)
    flush()
    return tuple(stages)


def _identity_only(
    loops: list[LoopDescriptor],
    facts: list[_LoopFacts],
    current: list[int],
    j: int,
) -> bool:
    """True when loop ``j`` reads the arrays written by the stage under
    construction only at identity (``delta == 0``) carry offsets."""
    consumer = facts[j]
    index = loops[j].index
    for m in current:
        for name, carry in facts[m].writes.items():
            for pairs in consumer.reads.get(name, []):
                if carry >= len(pairs):
                    return False
                read_index, delta = pairs[carry]
                if read_index != index or delta != 0:
                    return False
    return True


def partition_siblings(
    siblings: list[Descriptor],
    analyzed,
    flowchart: Flowchart,
    use_windows: bool,
) -> list[PipelineGroup]:
    """All pipeline groups in one sibling list, left to right. Non-loop
    siblings, bound mismatches, and stage-unsafe loops break runs; runs
    that partition into fewer than two stages are dropped."""
    groups: list[PipelineGroup] = []
    i = 0
    n = len(siblings)
    while i < n:
        d = siblings[i]
        if not isinstance(d, LoopDescriptor):
            i += 1
            continue
        run: list[LoopDescriptor] = []
        run_facts: list[_LoopFacts] = []
        written: dict[str, tuple[int, int]] = {}  # array -> (producer, carry)
        j = i
        while j < n:
            cand = siblings[j]
            if not isinstance(cand, LoopDescriptor):
                break
            if run and not _bounds_equal(run[0], cand):
                break
            if cand.parallel and not loop_chunk_safe(
                cand, analyzed, flowchart.windows, use_windows
            ):
                break
            f = _loop_facts(cand, analyzed, flowchart, use_windows)
            if f is None:
                break
            # Single writer per array within the run.
            if any(name in written for name in f.writes):
                break
            # Every read of an upstream run array must track the frontier.
            ok = True
            for name, (_producer, carry) in written.items():
                if name in f.reads and not _carry_read_ok(
                    f, name, carry, cand.index
                ):
                    ok = False
                    break
            if not ok:
                break
            run.append(cand)
            run_facts.append(f)
            for name, carry in f.writes.items():
                written[name] = (len(run) - 1, carry)
            j += 1
        if len(run) >= 2:
            stages = _stage_partition(run, run_facts)
            if len(stages) >= 2:
                groups.append(
                    PipelineGroup(start=i, loops=tuple(run), stages=stages)
                )
                i += len(run)
                continue
        # No group here: re-scan from the next sibling (a shorter run
        # starting later may still partition).
        i += 1
    return groups


def pipeline_groups(
    analyzed,
    flowchart: Flowchart,
    use_windows: bool,
) -> dict[tuple[int, ...], list[PipelineGroup]]:
    """Every pipeline group in the flowchart, keyed by the path of the
    owning sibling list's container (``()`` for the top level, a loop path
    for a ``DO`` body). Only always-sequential contexts are scanned — the
    top level and (recursively) the bodies of ``DO`` loops, including the
    replica runs of fission splits (marker containers ``loop_path + (-1,)``).
    Cached on the flowchart per window mode."""
    memo = getattr(flowchart, "_pipeline_groups", None)
    if memo is None:
        memo = {}
        flowchart._pipeline_groups = memo
    key = bool(use_windows)
    if key in memo:
        return memo[key]

    splits = fission_splits(analyzed, flowchart)
    found: dict[tuple[int, ...], list[PipelineGroup]] = {}

    def scan(siblings: list[Descriptor], prefix: tuple[int, ...]) -> None:
        groups = partition_siblings(siblings, analyzed, flowchart, use_windows)
        if groups:
            found[prefix] = groups
        for k, d in enumerate(siblings):
            if not isinstance(d, LoopDescriptor):
                continue
            split = splits.get((*prefix, k))
            if split is not None and split.usable(use_windows):
                pieces = list(split.pieces)
                fgroups = partition_siblings(
                    pieces, analyzed, flowchart, use_windows
                )
                if fgroups:
                    found[(*prefix, k, -1)] = fgroups
                for kk, piece in enumerate(pieces):
                    if not piece.parallel:
                        scan(piece.body, (*prefix, k, -1, kk))
            if not d.parallel:
                scan(d.body, (*prefix, k))

    scan(flowchart.descriptors, ())
    memo[key] = found
    return found

