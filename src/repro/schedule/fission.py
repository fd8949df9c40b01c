"""Loop fission analysis: split a multi-unit loop body along its
dependence structure (Aubert et al., arXiv 2206.08760, adapted to the
paper's flowchart IR) — analysis only: no plan strategy, kernel or backend
acts on a split.

The scheduler never builds fissionable bodies itself — it emits one loop
per strongly connected component — but the loop-*merging* pass
(:mod:`repro.schedule.merge`) and hand-built flowcharts produce loops
whose bodies mix independent pieces. Such a loop runs as written: one
compiled ``DO`` over a merged nest of recurrences measured cheaper than a
compiled pass per dependence group. This module stays because the
end-to-end benchmark counts legal splits (``schedule.fission_splits``)
and the recognisers behind its ``schedule.scan_loops`` /
``schedule.pipeline_groups`` counters (:mod:`repro.schedule.scan_detect`,
:mod:`repro.schedule.pipeline_stages`) walk the replicas; it goes when
those counters do.

:func:`fission_splits` partitions a loop body's direct child descriptors
("units") into minimal groups by the loop-carried/loop-independent
dependence structure (the condensation of the unit dependence graph
restricted to the nest) and replicates the enclosing loop once per group,
in topological order.

Legality is all-or-nothing per unit pair, classified at the writer's
carry position (the subscript position where the loop index appears bare
in the write):

* a read of an earlier unit's array at ``index + delta`` with
  ``delta <= 0`` is an ordinary (possibly carried) flow dependence — the
  reader's group runs after the writer's;
* a read *textually before* the write at ``delta < 0`` is a backward
  carried flow — the writer's group must complete first, which fission
  may legally express by reordering the replicas;
* a loop-independent anti dependence (the read textually precedes the
  write of the same row) pins the textual order;
* forward references (``delta > 0``), output dependences (two units
  writing one array), reads through subrange *bounds*, and any read the
  subscript classifier cannot prove put the pair in one group — merging
  is always safe, and a condensation that collapses to a single group
  rejects the split entirely.

``DO`` groups whose every intra-group carried read is identity
(``delta == 0``) are *promoted* to ``DOALL`` replicas: iterations write
disjoint rows and read only completed or external data.

Splits are structural (window-mode independent) with a per-mode hazard:
windowed (virtual-dimension) storage rotates planes as the loop advances,
so splitting the interleaving would read rotated-away rows — window mode
rejects the split for any nest touching windowed arrays.

Splits are memoized on the flowchart on first request. Replica
descriptors share the original body's descriptor objects; the
recognisers key a replica by ``loop_path + (-1, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.scc import topological_sccs
from repro.ps.ast import Name, names_in
from repro.ps.types import ArrayType
from repro.schedule.flowchart import (
    Descriptor,
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
)


@dataclass(frozen=True)
class FissionSplit:
    """A legal fission of one loop into replica loops.

    ``pieces[k]`` is replica ``k`` of the loop at ``path``; its body holds
    the *shared* original unit descriptors of ``groups[k]`` in textual
    order. ``promoted[k]`` records a DO group that became a DOALL replica.
    ``mode_hazard`` maps ``use_windows`` to ``None`` (usable) or the hazard
    that rejects the split in that mode."""

    path: tuple[int, ...]
    pieces: tuple[LoopDescriptor, ...]
    groups: tuple[tuple[int, ...], ...]
    promoted: tuple[bool, ...]
    mode_hazard: dict[bool, str | None] = field(compare=False)

    @property
    def parts(self) -> int:
        return len(self.pieces)

    def usable(self, use_windows: bool) -> bool:
        return self.mode_hazard[bool(use_windows)] is None


@dataclass
class _UnitFacts:
    """Dependence facts for one body unit, aggregated over its nest."""

    #: array name -> subscript position where the loop index appears bare
    writes: dict[str, int] = field(default_factory=dict)
    #: array name -> one entry per textual read: [(index, delta)] per pos
    reads: dict[str, list[list[tuple[str | None, int | None]]]] = field(
        default_factory=dict
    )
    #: names read with unknowable positions (subrange bounds, bound edges)
    bound_reads: set[str] = field(default_factory=set)
    #: every name referenced anywhere in the unit (window-hazard check)
    touched: set[str] = field(default_factory=set)
    labels: tuple[str, ...] = ()


def _depgraph(analyzed):
    """The module dependence graph, built lazily and cached on the module —
    the scheduler builds one transiently; unit analysis re-derives it once
    per module."""
    g = getattr(analyzed, "_depgraph", None)
    if g is None:
        from repro.graph.build import build_dependency_graph

        g = build_dependency_graph(analyzed)
        analyzed._depgraph = g
    return g


def _unit_facts(
    unit: Descriptor, index: str, analyzed
) -> _UnitFacts | str:
    """The dependence facts of one unit, or a rejection reason string."""
    from repro.graph.depgraph import EdgeKind

    g = _depgraph(analyzed)
    facts = _UnitFacts()
    labels: list[str] = []
    if isinstance(unit, NodeDescriptor):
        descs: list[Descriptor] = [unit]
    else:
        descs = [unit, *unit.nested_descriptors()]
    for d in descs:
        if isinstance(d, LoopDescriptor):
            for bound in (d.subrange.lo, d.subrange.hi):
                for name in names_in(bound):
                    facts.bound_reads.add(name)
                    facts.touched.add(name)
            continue
        if not d.node.is_equation:
            return f"{d.label}: data declaration in the loop body"
        eq = d.node.equation
        if eq.atomic:
            return f"{eq.label}: atomic equation"
        labels.append(eq.label)
        for target in eq.targets:
            name = target.name
            facts.touched.add(name)
            sym = analyzed.symbol(name)
            if not isinstance(sym.type, ArrayType):
                return f"{eq.label}: scalar target {name}"
            if len(target.subscripts) != sym.type.rank:
                return f"{eq.label}: partial-rank write of {name}"
            carry = None
            for pos, sub in enumerate(target.subscripts):
                if isinstance(sub, Name) and sub.ident == index:
                    if carry is not None:
                        return (
                            f"{eq.label}: {index} in two subscript "
                            f"positions of {name}"
                        )
                    carry = pos
                elif index in names_in(sub):
                    return (
                        f"{eq.label}: non-bare use of {index} in a "
                        f"write subscript of {name}"
                    )
            if carry is None:
                return (
                    f"{eq.label}: write of {name} does not advance "
                    f"with {index}"
                )
            if facts.writes.setdefault(name, carry) != carry:
                return (
                    f"{eq.label}: inconsistent carry position for {name}"
                )
        for bname in eq.bound_uses:
            facts.bound_reads.add(bname)
            facts.touched.add(bname)
        for edge in g.in_edges(eq.label):
            if edge.kind is EdgeKind.BOUND:
                facts.bound_reads.add(edge.src)
                facts.touched.add(edge.src)
                continue
            if edge.kind is not EdgeKind.DATA or edge.is_lhs:
                continue
            facts.touched.add(edge.src)
            facts.reads.setdefault(edge.src, []).append(
                [(info.index, info.delta) for info in edge.subscripts]
            )
    facts.labels = tuple(labels)
    return facts


def _classify_reads(
    reader: _UnitFacts, name: str, carry: int, index: str
) -> tuple[bool, bool]:
    """(any read with delta < 0, any read not provably delta <= 0) over
    every textual read of ``name`` in ``reader`` at the writer's carry
    position. Bound reads are never provable."""
    lagged = False
    unproven = name in reader.bound_reads
    for pairs in reader.reads.get(name, []):
        if carry >= len(pairs):
            unproven = True
            continue
        read_index, delta = pairs[carry]
        if read_index != index or delta is None or delta > 0:
            unproven = True
        elif delta < 0:
            lagged = True
    return lagged, unproven


def _unit_edges(
    facts: list[_UnitFacts], index: str
) -> list[set[int]]:
    """Ordering edges between units: ``edges[a]`` holds every unit that
    must run in a group at or after ``a``'s. Unprovable pairs get edges
    both ways (they condense into one group)."""
    n = len(facts)
    edges: list[set[int]] = [set() for _ in range(n)]

    def both(a: int, b: int) -> None:
        edges[a].add(b)
        edges[b].add(a)

    for a in range(n):
        for b in range(a + 1, n):
            for name, carry in facts[a].writes.items():
                if name in facts[b].writes:
                    both(a, b)  # output dependence
                    continue
                if (
                    name in facts[b].reads
                    or name in facts[b].bound_reads
                ):
                    lagged, unproven = _classify_reads(
                        facts[b], name, carry, index
                    )
                    if unproven:
                        both(a, b)
                    else:
                        edges[a].add(b)  # flow, delta <= 0
            for name, carry in facts[b].writes.items():
                if name in facts[a].writes:
                    continue  # already handled as an output dependence
                if (
                    name in facts[a].reads
                    or name in facts[a].bound_reads
                ):
                    lagged, unproven = _classify_reads(
                        facts[a], name, carry, index
                    )
                    if unproven:
                        both(a, b)
                    elif lagged:
                        # Backward carried flow only when *every* read lags
                        # (delta < 0) — a same-row (delta == 0) anti
                        # dependence pins the textual order, and mixing
                        # both directions interlocks the pair. unproven is
                        # False here, so every read indexes cleanly.
                        deltas = [
                            pairs[carry][1]
                            for pairs in facts[a].reads.get(name, [])
                        ]
                        if all(d < 0 for d in deltas):
                            edges[b].add(a)
                        else:
                            both(a, b)
                    else:
                        edges[a].add(b)  # anti dependence: keep order
    return edges


def _group_promotes(
    group: list[int], facts: list[_UnitFacts], index: str
) -> bool:
    """A DO group promotes to DOALL when every in-group read of every
    in-group-written array is exactly identity at the carry position —
    iterations then write disjoint rows and read only completed data."""
    written = {
        name: facts[u].writes[name] for u in group for name in facts[u].writes
    }
    for u in group:
        f = facts[u]
        for name, carry in written.items():
            if name in f.bound_reads:
                return False
            for pairs in f.reads.get(name, []):
                if carry >= len(pairs) or pairs[carry] != (index, 0):
                    return False
    return True


def _analyze_loop(
    loop: LoopDescriptor, path: tuple[int, ...], analyzed, flowchart: Flowchart
) -> FissionSplit | str:
    """A legal split of ``loop``, or the rejection reason."""
    units = loop.body
    facts: list[_UnitFacts] = []
    for unit in units:
        f = _unit_facts(unit, loop.index, analyzed)
        if isinstance(f, str):
            return f
        facts.append(f)
    edges = _unit_edges(facts, loop.index)
    # Dependence groups: the SCCs of the unit graph in a topological order
    # of the condensation (ties broken by smallest member offset for
    # determinism), members in textual order.
    groups = [
        sorted(comp)
        for comp in topological_sccs(range(len(units)), edges.__getitem__, key=min)
    ]
    if len(groups) < 2:
        return "carried dependences interlock the body into one group"

    touched = set().union(*(f.touched for f in facts))
    windowed = sorted(
        name for name in touched if flowchart.window_of(name)
    )
    mode_hazard: dict[bool, str | None] = {
        False: None,
        True: (
            f"windowed array {windowed[0]} in the nest" if windowed else None
        ),
    }

    pieces: list[LoopDescriptor] = []
    promoted: list[bool] = []
    for group in groups:
        promote = not loop.parallel and _group_promotes(
            group, facts, loop.index
        )
        piece = LoopDescriptor(
            loop.subrange,
            loop.index,
            loop.parallel or promote,
            [units[u] for u in group],
            dict(loop.windows),
        )
        pieces.append(piece)
        promoted.append(promote)
    return FissionSplit(
        path=path,
        pieces=tuple(pieces),
        groups=tuple(tuple(g) for g in groups),
        promoted=tuple(promoted),
        mode_hazard=mode_hazard,
    )


def fission_splits(
    analyzed, flowchart: Flowchart
) -> dict[tuple[int, ...], FissionSplit]:
    """Every legal split in the flowchart, keyed by loop path. Memoized on
    the flowchart (structural — window-mode validity lives on each
    split)."""
    memo = getattr(flowchart, "_fission_splits", None)
    if memo is not None:
        return memo
    splits: dict[tuple[int, ...], FissionSplit] = {}

    def walk(descs: list[Descriptor], prefix: tuple[int, ...]) -> None:
        for i, d in enumerate(descs):
            if not isinstance(d, LoopDescriptor):
                continue
            path = prefix + (i,)
            if len(d.body) >= 2:
                result = _analyze_loop(d, path, analyzed, flowchart)
                if not isinstance(result, str):
                    splits[path] = result
            walk(d.body, path)

    walk(flowchart.descriptors, ())
    flowchart._fission_splits = splits
    return splits

