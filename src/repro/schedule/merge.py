"""Loop-merging improvement pass.

The paper concedes its algorithm "performs poorly in ... combining into a
single loop those equations which though not recursively related,
nevertheless depend on the same subscript(s)" and lists "improvement of the
scheduler to better merge iterative loops" as future work, citing Lu [11]
for a merging (but DO-only) scheduler. This pass supplies that improvement
as a separate, ablatable transformation on the flowchart.

Two *adjacent* loops merge when they agree on keyword, index variable and
subrange bounds, and every dependence from an array defined under the first
loop into an equation under the second is elementwise in the merged
dimension:

* for a ``DOALL``-``DOALL`` merge the reference must be exactly ``I``
  (identity) at the merged position — iterations are unordered, so reading a
  neighbour would race;
* for a ``DO``-``DO`` merge ``I - c`` is also safe, because the merged loop
  still runs low-to-high, so the referenced element was produced ``c``
  iterations earlier (the same footnote-3 argument the paper uses for edge
  deletion).

Merging is applied bottom-up and repeatedly until a fixed point.
"""

from __future__ import annotations

from repro.graph.depgraph import DependencyGraph, EdgeKind
from repro.graph.labels import SubscriptClass
from repro.ps.ast import Name
from repro.schedule.flowchart import Descriptor, Flowchart, LoopDescriptor, NodeDescriptor


def merge_loops(flowchart: Flowchart, graph: DependencyGraph) -> Flowchart:
    """Return a new flowchart with adjacent compatible loops merged."""
    merged = _merge_list(flowchart.descriptors, graph)
    return Flowchart(
        merged,
        windows=dict(flowchart.windows),
        window_refusals=dict(flowchart.window_refusals),
    )


def _merge_list(descs: list[Descriptor], graph: DependencyGraph) -> list[Descriptor]:
    out: list[Descriptor] = []
    for d in descs:
        if isinstance(d, LoopDescriptor):
            d = LoopDescriptor(
                d.subrange,
                d.index,
                d.parallel,
                _merge_list(d.body, graph),
                dict(d.windows),
            )
        out.append(d)

    _bubble_nodes(out, graph)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if (
                isinstance(a, LoopDescriptor)
                and isinstance(b, LoopDescriptor)
                and _can_merge(a, b, graph)
            ):
                fused = LoopDescriptor(
                    a.subrange,
                    a.index,
                    a.parallel,
                    _merge_list(a.body + b.body, graph),
                    {**a.windows, **b.windows},
                )
                out[i : i + 2] = [fused]
                changed = True
                break
    return out


def _bubble_nodes(out: list[Descriptor], graph: DependencyGraph) -> None:
    """Move plain equation nodes leftwards past loops they do not depend on,
    so mergeable loops separated only by independent initialisations (e.g.
    ``Q[1] = 1.0`` between two recurrence loops) become adjacent."""
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if (
                isinstance(a, LoopDescriptor)
                and isinstance(b, NodeDescriptor)
                and b.node.is_equation
                and _independent_of_loop(b, a, graph)
            ):
                out[i], out[i + 1] = b, a
                changed = True
                break


def _independent_of_loop(
    node: NodeDescriptor, loop: LoopDescriptor, graph: DependencyGraph
) -> bool:
    """True when ``node`` consumes nothing produced under ``loop``."""
    produced = {
        t.name for eq_node in _equations_under(loop) for t in eq_node.equation.targets
    }
    eq = node.node.equation
    reads = {r.name for r in eq.refs} | set(eq.bound_uses)
    return not (reads & produced)


def _equations_under(desc: Descriptor) -> list:
    if isinstance(desc, NodeDescriptor):
        return [desc.node] if desc.node.is_equation else []
    out = []
    for d in desc.body:
        out.extend(_equations_under(d))
    return out


def _can_merge(a: LoopDescriptor, b: LoopDescriptor, graph: DependencyGraph) -> bool:
    if a.parallel != b.parallel:
        return False
    if a.index != b.index:
        return False
    if not a.subrange.bounds_equal(b.subrange):
        return False

    eqs_a = _equations_under(a)
    eqs_b = _equations_under(b)
    if not eqs_a or not eqs_b:
        return False

    # Arrays defined under loop a, with the position at which the merged
    # index appears in their defining target subscripts.
    defpos: dict[str, int] = {}
    for eq_node in eqs_a:
        eq = eq_node.equation
        for target in eq.targets:
            for pos, sub in enumerate(target.subscripts):
                if isinstance(sub, Name) and sub.ident == a.index:
                    if target.name in defpos and defpos[target.name] != pos:
                        return False  # ambiguous definition position
                    defpos[target.name] = pos

    labels_b = {eq_node.id for eq_node in eqs_b}
    for name, pos in defpos.items():
        for edge in graph.out_edges(name):
            if edge.kind is not EdgeKind.DATA or edge.dst not in labels_b:
                continue
            if pos >= len(edge.subscripts):
                return False
            info = edge.subscripts[pos]
            if info.cls is SubscriptClass.IDENTITY and info.index == a.index:
                pass
            elif (
                not a.parallel
                and info.cls is SubscriptClass.OFFSET
                and info.index == a.index
            ):
                pass
            else:
                return False
            # The merged index must not appear at any other position.
            for other in edge.subscripts:
                if other.array_pos != pos and a.index in other.indices:
                    return False
    return True
