"""Maximally Strongly Connected Components and their scheduling order.

The paper's Schedule-Graph begins: "Find the MSCC's of the graph {Mi}" and
then processes them one by one — necessarily in a producer-before-consumer
(topological) order of the condensation, since the flowchart it concatenates
is executed front to back. Figure 5 numbers the Relaxation module's seven
components 1..7 in exactly that order with declaration-order tie-breaking;
:func:`condensation_order` reproduces it deterministically.

The implementation is an iterative Tarjan (no recursion limits on large
modules) followed by Kahn's algorithm over the condensation with a priority
queue. Both are graph-agnostic (:func:`sccs`, :func:`topological_sccs`: any
sortable nodes, a successor function, a tie-break key);
:func:`strongly_connected_components` / :func:`condensation_order` adapt them
to a :class:`GraphView` keyed on the smallest member node's ``order``, and
loop fission (:mod:`repro.schedule.fission`) runs them on its integer unit
graph.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable
from typing import Any, TypeVar

from repro.graph.depgraph import GraphView

N = TypeVar("N", bound=Hashable)


def sccs(
    nodes: Iterable[N], successors: Callable[[N], Iterable[N]]
) -> list[frozenset[N]]:
    """Tarjan's algorithm, iterative, over any graph given as its nodes
    (mutually sortable) and a successor function. Returns SCCs in *reverse*
    topological order (every SCC precedes its predecessors), unsorted
    otherwise."""
    index: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    result: list[frozenset[N]] = []
    counter = 0

    # Deterministic iteration order.
    for root in sorted(nodes):
        if root in index:
            continue
        # Each frame: (node, its successors, position in them).
        work: list[tuple[N, list[N], int]] = [(root, sorted(successors(root)), 0)]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, i = work.pop()
            advanced = False
            while i < len(succs):
                succ = succs[i]
                i += 1
                if succ not in index:
                    work.append((node, succs, i))
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(successors(succ)), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            # All successors done.
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                result.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result


def topological_sccs(
    nodes: Iterable[N],
    successors: Callable[[N], Iterable[N]],
    key: Callable[[frozenset[N]], Any],
) -> list[frozenset[N]]:
    """SCCs in topological (producer-first) order of the condensation:
    Kahn's algorithm, always taking the ready component with the smallest
    ``key`` — deterministic when keys are distinct."""
    adjacency = {n: list(successors(n)) for n in nodes}
    comps = sccs(adjacency, adjacency.__getitem__)
    comp_of: dict[N, int] = {}
    for ci, comp in enumerate(comps):
        for n in comp:
            comp_of[n] = ci

    n_comps = len(comps)
    out: list[set[int]] = [set() for _ in range(n_comps)]
    indegree = [0] * n_comps
    for src, dsts in adjacency.items():
        for dst in dsts:
            a, b = comp_of[src], comp_of[dst]
            if a != b and b not in out[a]:
                out[a].add(b)
                indegree[b] += 1

    ready = [(key(comps[ci]), ci) for ci in range(n_comps) if indegree[ci] == 0]
    heapq.heapify(ready)
    ordered: list[frozenset[N]] = []
    while ready:
        _, ci = heapq.heappop(ready)
        ordered.append(comps[ci])
        for nb in out[ci]:
            indegree[nb] -= 1
            if indegree[nb] == 0:
                heapq.heappush(ready, (key(comps[nb]), nb))
    if len(ordered) != n_comps:  # pragma: no cover - cannot happen post-Tarjan
        raise RuntimeError("condensation is cyclic")
    return ordered


def strongly_connected_components(view: GraphView) -> list[frozenset[str]]:
    """The SCCs of a dependency-graph view (see :func:`sccs`)."""
    return sccs(view.node_ids, view.successors)


def condensation_order(view: GraphView) -> list[frozenset[str]]:
    """SCCs in deterministic topological (producer-first) order.

    Ties are broken by the smallest ``Node.order`` in each component, which
    sorts data items by declaration order before equations by source order —
    reproducing the component numbering of the paper's Figure 5.
    """
    nodes = view.graph.nodes
    return topological_sccs(
        view.node_ids,
        view.successors,
        key=lambda comp: min(nodes[n].order for n in comp),
    )
