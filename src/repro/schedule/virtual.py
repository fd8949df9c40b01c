"""Virtual-dimension (memory window) analysis — paper section 3.4.

"A data node dimension is *virtual* if the dimension is mapped to a 'window'
of elements, and the width of the window is smaller than the PS declared
size."

The scheduler marks the dimension being scheduled virtual for a local
variable ``Nr`` in component ``Mi`` when **each** edge from ``Nr`` to an
equation node is in one or both of these forms:

1. the edge has subscript expression ``I`` or ``I - constant`` in the
   dimension being scheduled, and the target is in ``Mi``;
2. the edge goes to a node outside the component, and its subscript
   expression in that dimension is the *upper bound* of the subrange defining
   the dimension (only the last element escapes the loop).

The window size is ``1 + max offset`` over the form-1 edges — two planes for
the paper's Jacobi array ``A`` (offsets {1}), three for the transformed
``A'`` of section 4 (offsets {1, 2}).

The rule as published constrains only the edges *out of* the data node,
and only in the dimension being scheduled. That is not enough, and two
more conditions hold here; a window either one refuses is reported with
the reason (:attr:`VirtualDim.refused`, ``Flowchart.window_refusals``):

* *Definitions outside the component.* An equation outside the component
  that defines the array writes its planes into the window before the
  loop starts, and one sweeping the scheduled dimension (``W[I, 0] = I``)
  leaves only the last planes it wrote. Every such definition must write
  one constant plane in ``lo - (window - 1) .. lo - 1`` of the loop's
  subrange ``lo .. hi``: the planes the loop reads before it overwrites
  them, like Jacobi's ``A[1] = InitialA`` for ``K = 2 .. maxK``.
* *Enclosing loops.* Inside a loop over an outer dimension, a form-1 read
  that is not ``I`` in that outer dimension (``D[I-1, J]`` under
  ``DO I``) reads a row an earlier outer iteration finished, and a window
  over the inner dimension has overwritten all but its last planes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.depgraph import DependencyGraph, EdgeKind
from repro.graph.labels import SubscriptClass, _literal_int
from repro.ps.printer import format_expression
from repro.ps.symbols import SymbolKind


@dataclass
class VirtualDim:
    node_id: str
    dim: int
    #: the window size; None when the window is refused
    window: int | None
    declared: str  # human-readable declared extent, e.g. "1 .. maxK"
    #: why a window the published read rule admits is refused (None when
    #: it holds)
    refused: str | None = None


def _ref(node_id: str, edge) -> str:
    subs = ", ".join(format_expression(info.expr) for info in edge.subscripts)
    return f"{node_id}[{subs}]"


def virtual_window(
    graph: DependencyGraph,
    node_id: str,
    dim: int,
    component: frozenset[str],
    outer: frozenset[int] = frozenset(),
) -> tuple[int | None, str | None]:
    """``(window, None)`` when dimension ``dim`` of ``node_id`` is virtual
    with respect to ``component``, inside loops over the dimensions
    ``outer``; ``(None, why)`` when the published read rule admits a window
    but one of the two further conditions refuses it; ``(None, None)`` when
    the read rule itself fails. Only local variables (not inputs or
    results) are eligible — inputs are caller-allocated and the result must
    be materialised in full."""
    node = graph.node(node_id)
    if node.symbol is None or node.symbol.kind is not SymbolKind.VAR:
        return None, None
    if dim >= node.rank:
        return None, None

    max_offset = 0
    crossing = None
    for edge in graph.out_edges(node_id):
        if edge.kind is not EdgeKind.DATA:
            continue
        target = graph.node(edge.dst)
        if not target.is_equation:
            continue
        if dim >= len(edge.subscripts):
            return None, None
        info = edge.subscripts[dim]
        if edge.dst in component:
            # form 1: "I" or "I - constant" into the component
            if info.cls is SubscriptClass.OFFSET:
                assert info.offset is not None
                max_offset = max(max_offset, info.offset)
            elif info.cls is not SubscriptClass.IDENTITY:
                return None, None
            if crossing is None and any(
                p >= len(edge.subscripts)
                or edge.subscripts[p].cls is not SubscriptClass.IDENTITY
                for p in outer
            ):
                crossing = edge
            continue
        # form 2: leaves the component via the subrange's upper bound
        if info.is_upper_bound:
            continue
        return None, None
    if crossing is not None:
        return None, (
            f"{crossing.dst} reads {_ref(node_id, crossing)} across "
            f"iterations of an enclosing loop, whose rows a window over "
            f"dimension {dim} would overwrite"
        )
    window = 1 + max_offset
    why = _outside_definition(graph, node_id, dim, component, window)
    return (None, why) if why is not None else (window, None)


def _outside_definition(
    graph: DependencyGraph,
    node_id: str,
    dim: int,
    component: frozenset[str],
    window: int,
) -> str | None:
    """Why a definition of ``node_id`` outside ``component`` refuses the
    window, or None when every such definition writes one constant plane
    the loop reads before overwriting it."""
    loop = next(
        (
            graph.node(n).equation.dims[dim].subrange
            for n in sorted(component)
            if graph.node(n).is_equation and dim < graph.node(n).rank
        ),
        None,
    )
    if loop is None:
        return None  # no loop over the dimension to read planes first
    lo = _literal_int(loop.lo)
    for edge in graph.in_edges(node_id):
        if edge.kind is not EdgeKind.DATA or edge.src in component:
            continue
        plane = edge.subscripts[dim].const if dim < len(edge.subscripts) else None
        if plane is not None and lo is not None and lo - window < plane < lo:
            continue
        why = f"{edge.src} defines {_ref(node_id, edge)} outside the loop over {loop.name}"
        if window == 1:
            return f"{why}, which overwrites its one plane every iteration"
        if lo is not None:
            allowed = f"{lo - window + 1} .. {lo - 1}"
        else:
            first = format_expression(loop.lo)
            allowed = f"{first} - {window - 1} .. {first} - 1"
        return f"{why}; only constant planes {allowed} of dimension {dim} may be"
    return None


def virtual_dimension_report(
    graph: DependencyGraph, components: list[frozenset[str]]
) -> list[VirtualDim]:
    """Evaluate the virtual test for *every* dimension of every local array
    inside its MSCC — used for the W1 (window) experiment table. The
    scheduler itself only records the dimension actually being scheduled
    while the array is still in the component, exactly as published. A
    dimension the read rule admits but a definition outside the component
    refuses is listed with ``window=None`` and the refusal."""
    out: list[VirtualDim] = []
    for comp in components:
        for node_id in sorted(comp):
            node = graph.node(node_id)
            if not node.is_data or node.symbol is None:
                continue
            for dim in range(node.rank):
                window, refused = virtual_window(graph, node_id, dim, comp)
                if window is not None or refused is not None:
                    sub = node.dims[dim].subrange
                    declared = (
                        f"{format_expression(sub.lo)} .. {format_expression(sub.hi)}"
                    )
                    out.append(
                        VirtualDim(node_id, dim, window, declared, refused)
                    )
    return out
