"""The scheduling algorithm — paper section 3.3.

Two mutually recursive procedures:

* **Schedule-Graph** takes a dependency (sub)graph, finds its MSCCs, and
  concatenates each component's flowchart in producer-first order;
* **Schedule-Component** schedules one MSCC: it picks an unscheduled node
  dimension whose subrange sits in a consistent position across the component
  and whose subscript expressions are all ``I`` or ``I - constant``; deletes
  the ``I - constant`` edges (making the loop *iterative*, otherwise
  *parallel*); runs the virtual-dimension analysis for local arrays in the
  component; and recurses on the reduced subgraph.

The candidate order for "pick an unscheduled node dimension" is increasing
position, which is deterministic and reproduces the paper's choices: for the
Jacobi component the first dimension (K) is picked ("The other two cannot be
chosen because of subscript expressions 'J + 1' and 'I + 1'"), and for the
Gauss-Seidel variant K, then I, then J — all iterative (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InconsistentPositionError, ScheduleError
from repro.graph.build import build_dependency_graph
from repro.graph.depgraph import DependencyGraph, EdgeKind, GraphView
from repro.graph.labels import SubscriptClass
from repro.graph.scc import condensation_order
from repro.ps.semantics import AnalyzedModule
from repro.schedule.flowchart import (
    Descriptor,
    Flowchart,
    LoopDescriptor,
    NodeDescriptor,
    annotate_flowchart,
)
from repro.schedule.virtual import virtual_window


@dataclass
class _Context:
    graph: DependencyGraph
    windows: dict[str, dict[int, int]] = field(default_factory=dict)
    window_refusals: dict[str, str] = field(default_factory=dict)
    #: the Myers & Gokhale [14] extension: accept "I - m" subscripts with a
    #: symbolic offset m as deletable backward references. The generated DO
    #: loop is only correct when m >= 1 at run time; the scheduler records
    #: each assumption it makes.
    symbolic_offsets: bool = False
    assumptions: list[str] = field(default_factory=list)


def schedule_module(
    analyzed: AnalyzedModule,
    graph: DependencyGraph | None = None,
    symbolic_offsets: bool = False,
) -> Flowchart:
    """Schedule a whole module: build its dependency graph (unless given)
    and run Schedule-Graph on it. ``symbolic_offsets`` enables the [14]
    extension (subscripts ``I - m`` with symbolic m treated as backward
    references, assumed m >= 1)."""
    if graph is None:
        graph = build_dependency_graph(analyzed)
    ctx = _Context(graph, symbolic_offsets=symbolic_offsets)
    descriptors = _schedule_graph(graph.full_view(), frozenset(), ctx)
    flow = Flowchart(
        descriptors, windows=ctx.windows, window_refusals=ctx.window_refusals
    )
    flow.assumptions = list(ctx.assumptions)
    annotate_flowchart(flow, analyzed)
    return flow


def schedule_graph_view(graph: DependencyGraph) -> Flowchart:
    """Schedule an arbitrary dependency graph (used by tests and by the
    hyperplane pipeline on transformed components)."""
    ctx = _Context(graph)
    descriptors = _schedule_graph(graph.full_view(), frozenset(), ctx)
    return Flowchart(
        descriptors, windows=ctx.windows, window_refusals=ctx.window_refusals
    )


# ---------------------------------------------------------------------------
# Schedule-Graph
# ---------------------------------------------------------------------------


def _schedule_graph(
    view: GraphView, scheduled: frozenset[int], ctx: _Context
) -> list[Descriptor]:
    flowchart: list[Descriptor] = []
    for comp in condensation_order(view):
        comp_view = view.restrict_nodes(comp)
        flowchart.extend(_schedule_component(comp_view, scheduled, ctx))
    return flowchart


# ---------------------------------------------------------------------------
# Schedule-Component
# ---------------------------------------------------------------------------


def _schedule_component(
    view: GraphView, scheduled: frozenset[int], ctx: _Context
) -> list[Descriptor]:
    nodes = view.nodes()

    # Step 1: a single data node produces a null schedule (declarations are
    # emitted separately by the code generator).
    if len(nodes) == 1 and nodes[0].is_data:
        return []

    # Step 2: pick an unscheduled node dimension.
    max_rank = max(n.rank for n in nodes)
    candidates = [d for d in range(max_rank) if d not in scheduled]

    if not candidates:
        if len(nodes) == 1:
            # Step 2b: all dimensions scheduled, single (equation) node.
            return [NodeDescriptor(nodes[0])]
        # Step 2a: "signal error and return: the equations cannot be
        # scheduled by this algorithm."
        raise ScheduleError(
            f"no unscheduled dimensions remain for component "
            f"{{{', '.join(n.id for n in nodes)}}}"
        )

    reasons: list[str] = []
    for d in candidates:
        ok, reason = _dimension_schedulable(view, d, ctx)
        if not ok:
            reasons.append(f"dim {d}: {reason}")
            continue
        return [_schedule_dimension(view, d, scheduled, ctx)]

    if len(nodes) == 1 and nodes[0].is_equation and not view.edges():
        # A singleton equation with no recursive edges but exhausted usable
        # dims cannot occur (every dim is schedulable when there are no
        # edges) — defensive.
        return [NodeDescriptor(nodes[0])]  # pragma: no cover

    detail = "; ".join(reasons)
    if any("inconsistent position" in r for r in reasons):
        raise InconsistentPositionError(
            f"cannot schedule component {{{', '.join(n.id for n in nodes)}}}: {detail}"
        )
    raise ScheduleError(
        f"cannot schedule component {{{', '.join(n.id for n in nodes)}}}: {detail}"
    )


def _deletable(info, ctx: _Context) -> bool:
    """Is this subscript a backward reference whose edge step 4 deletes?"""
    if info.cls is SubscriptClass.OFFSET:
        return True
    return ctx.symbolic_offsets and info.symbolic_offset is not None


def _acceptable(info, ctx: _Context) -> bool:
    """Step-3 admissibility of a subscript in the scheduled dimension."""
    if info.cls in (SubscriptClass.IDENTITY, SubscriptClass.OFFSET):
        return True
    return ctx.symbolic_offsets and info.symbolic_offset is not None


def _dimension_schedulable(view: GraphView, d: int, ctx: _Context) -> tuple[bool, str]:
    """Step 3 verification for dimension position ``d``."""
    nodes = view.nodes()

    # The subrange must exist at position d in each node of the component.
    for n in nodes:
        if n.rank <= d:
            return False, f"node {n.id} has no dimension {d}"

    # All equations must agree on the loop subrange at position d.
    eq_nodes = [n for n in nodes if n.is_equation]
    if not eq_nodes:
        return False, "component has no equation node"
    first = eq_nodes[0].equation.dims[d].subrange  # type: ignore[union-attr]
    for n in eq_nodes[1:]:
        sub = n.equation.dims[d].subrange  # type: ignore[union-attr]
        if not first.bounds_equal(sub):
            return False, (
                f"equations disagree on the subrange of dimension {d} "
                f"({first.name} vs {sub.name})"
            )

    # Edge-label verification: only "I" / "I - constant" at position d, and
    # the scheduled index variable may not appear at any other position (the
    # footnote's A[I,J] = A[I,J-1] + A[J,I] inconsistency).
    for edge in view.edges():
        if edge.kind is not EdgeKind.DATA:
            continue
        eq_owner = view.graph.nodes[edge.src if edge.is_lhs else edge.dst]
        assert eq_owner.is_equation
        dim_index = eq_owner.equation.dims[d].index  # type: ignore[union-attr]
        for info in edge.subscripts:
            if info.array_pos == d:
                if not _acceptable(info, ctx):
                    return False, (
                        f"subscript {info.describe()!r} at position {d} on "
                        f"{edge.src} -> {edge.dst} is not 'I' or 'I - constant'"
                    )
                if info.eq_dim != d:
                    return False, (
                        f"inconsistent position: index {info.index!r} of "
                        f"dimension {info.eq_dim} appears at position {d} "
                        f"on {edge.src} -> {edge.dst}"
                    )
            elif dim_index in info.indices:
                return False, (
                    f"inconsistent position: dimension-{d} index "
                    f"{dim_index!r} appears at position {info.array_pos} "
                    f"on {edge.src} -> {edge.dst}"
                )
    return True, ""


def _schedule_dimension(
    view: GraphView, d: int, scheduled: frozenset[int], ctx: _Context
) -> LoopDescriptor:
    """Steps 4-8 for a validated dimension position."""
    eq_node = next(n for n in view.nodes() if n.is_equation)
    dim = eq_node.equation.dims[d]  # type: ignore[union-attr]

    # Step 4: delete "I - constant" (and, with the [14] extension enabled,
    # "I - m") edges in dimension d.
    deleted: set[int] = set()
    for edge in view.edges():
        if edge.kind is not EdgeKind.DATA:
            continue
        for info in edge.subscripts:
            if info.array_pos == d and _deletable(info, ctx):
                if info.symbolic_offset is not None:
                    note = (
                        f"assumed {info.symbolic_offset} >= 1 for subscript "
                        f"{info.describe()!r} on {edge.src} -> {edge.dst}"
                    )
                    if note not in ctx.assumptions:
                        ctx.assumptions.append(note)
                deleted.add(edge.id)
                break
    iterative = bool(deleted)

    # Virtual-dimension analysis (section 3.4) — on the component as it was
    # *before* edge deletion, for each local-variable data node in it.
    windows: dict[str, tuple[int, int]] = {}
    for node in view.nodes():
        if node.is_data:
            window, refused = virtual_window(
                ctx.graph, node.id, d, view.node_ids, scheduled
            )
            if window is not None:
                windows[node.id] = (d, window)
                ctx.windows.setdefault(node.id, {})[d] = window
            elif refused is not None:
                ctx.window_refusals.setdefault(node.id, refused)

    # Steps 5-8: mark scheduled, create the descriptor, recurse, concatenate.
    body = _schedule_graph(view.without_edges(deleted), scheduled | {d}, ctx)
    return LoopDescriptor(
        subrange=dim.subrange,
        index=dim.index,
        parallel=not iterative,
        body=body,
        windows=windows,
    )
