"""Flowchart IR (paper section 3.2, Figure 4).

"The flowchart is simply a list of descriptors. A descriptor may indicate
either a dependency graph node or a subrange type. ... A subrange type
descriptor also contains a list of descriptors which are contained within
the scope of the loop. Thus the flowchart is a recursive structure which
reflects the nesting structure of the generated program."

A :class:`LoopDescriptor` records whether "an iterative loop [is] to be
generated from this subrange or ... a parallel loop" — printed as ``DO`` and
``DOALL`` to match Figures 5-7.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.graph.depgraph import Node
from repro.ps.ast import Call, names_in, walk_expr
from repro.ps.types import ArrayType, SubrangeType


@dataclass
class NodeDescriptor:
    """A dependency-graph node: the code generator emits the data item's
    declaration or the equation's assignment statement."""

    node: Node

    @property
    def label(self) -> str:
        return self.node.id

    def pretty_lines(self, indent: int = 0) -> list[str]:
        return ["    " * indent + self.node.id]

    def shape(self):
        return self.node.id


@dataclass
class LoopDescriptor:
    """A subrange-type descriptor: a ``for`` loop over the subrange, either
    iterative (``DO``) or parallel (``DOALL``), with nested descriptors."""

    subrange: SubrangeType
    index: str
    parallel: bool
    body: list[Descriptor] = field(default_factory=list)
    #: arrays whose dimension scheduled by this loop is virtual:
    #: data-node id -> (dimension position, window size)
    windows: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: precomputed chunk-safety verdicts keyed by ``use_windows`` — filled at
    #: flowchart-build time by :func:`annotate_flowchart` (or lazily by the
    #: execution backends) so wavefront execution never re-derives them
    chunk_safety: dict[bool, bool] = field(default_factory=dict, repr=False, compare=False)

    @property
    def keyword(self) -> str:
        return "DOALL" if self.parallel else "DO"

    # -- chunkable-subrange metadata (parallel execution backends) ------------

    def nested_descriptors(self) -> Iterator[Descriptor]:
        """Every descriptor in this loop's nest, pre-order, self excluded."""
        stack: list[Descriptor] = list(reversed(self.body))
        while stack:
            d = stack.pop()
            yield d
            if isinstance(d, LoopDescriptor):
                stack.extend(reversed(d.body))

    def nested_loops(self) -> list[LoopDescriptor]:
        return [d for d in self.nested_descriptors() if isinstance(d, LoopDescriptor)]

    def nested_equations(self) -> list:
        """The analyzed equations inside this nest (the chunk workload)."""
        return [
            d.node.equation
            for d in self.nested_descriptors()
            if isinstance(d, NodeDescriptor) and d.node.is_equation
        ]

    def nest_indices(self) -> set[str]:
        """Index variables bound anywhere in this nest (self included)."""
        return {self.index} | {loop.index for loop in self.nested_loops()}

    @property
    def chunkable(self) -> bool:
        """Whether a backend may split this subrange into independently
        executed chunks: the loop must be parallel (``DOALL`` iterations are
        semantically unordered) and its nest must contain only equations and
        nested loops — a data-declaration node would be re-emitted per chunk.
        Backends still apply their own semantic checks (scalar targets,
        windowed dimensions) on top of this structural one."""
        if not self.parallel:
            return False
        return all(
            not isinstance(d, NodeDescriptor) or d.node.is_equation
            for d in self.nested_descriptors()
        )

    def pretty_lines(self, indent: int = 0) -> list[str]:
        pad = "    " * indent
        lines = [f"{pad}{self.keyword} {self.index} ("]
        for d in self.body:
            lines.extend(d.pretty_lines(indent + 1))
        lines.append(f"{pad})")
        return lines

    def shape(self):
        return (self.keyword, self.index, [d.shape() for d in self.body])


Descriptor = NodeDescriptor | LoopDescriptor


# -- execution metadata -------------------------------------------------------
#
# Parallel execution needs two safety verdicts per wavefront: whether an
# equation may be evaluated as one vector operation, and whether a DOALL nest
# may be split across concurrent workers. Both are static properties of the
# analyzed module and the flowchart, so they are derived once here — eagerly
# by the scheduler via :func:`annotate_flowchart`, or lazily on first use —
# instead of being re-derived on every wavefront execution.


def equation_vector_safe(eq) -> bool:
    """A module call blocks vectorisation only when its arguments mention the
    equation's index variables (then each element needs its own call). The
    verdict is cached on the equation."""
    if eq.vector_safe is None:
        from repro.ps.semantics import is_builtin

        safe = True
        index_names = set(eq.index_names)
        for n in walk_expr(eq.rhs):
            if isinstance(n, Call) and not is_builtin(n.func):
                for a in n.args:
                    if names_in(a) & index_names:
                        safe = False
                        break
            if not safe:
                break
        eq.vector_safe = safe
    return eq.vector_safe


def collapse_chain(
    desc: LoopDescriptor,
) -> tuple[list[LoopDescriptor], list[Descriptor]]:
    """The perfectly nested DOALL chain rooted at ``desc`` and the body
    below it: each chain loop's body is exactly one parallel loop until the
    innermost, whose body is the returned descriptor list. A chain of
    length 1 means there is nothing to collapse — ``desc`` stands alone."""
    chain = [desc]
    body = desc.body
    while (
        len(body) == 1
        and isinstance(body[0], LoopDescriptor)
        and body[0].parallel
    ):
        chain.append(body[0])
        body = body[0].body
    return chain, body


def compute_chunk_safety(
    desc: LoopDescriptor,
    analyzed,
    window_map: dict[str, dict[int, int]],
    use_windows: bool,
) -> bool:
    """Whether a DOALL nest may be split across concurrently executing
    workers. Beyond the structural :attr:`LoopDescriptor.chunkable` check,
    every equation must write only array elements (a scalar target would be
    an interpreter-state race), must not be atomic (atomic equations rebind
    whole arrays), and no windowed dimension of a target may be subscripted
    by a nest index (two chunks could then alias one window plane)."""
    if not desc.chunkable:
        return False
    indices = desc.nest_indices()
    for eq in desc.nested_equations():
        if eq.atomic:
            return False
        for target in eq.targets:
            sym = analyzed.symbol(target.name)
            if not isinstance(sym.type, ArrayType):
                return False
            if use_windows:
                wins = window_map.get(target.name, {})
                for d in wins:
                    if d < len(target.subscripts) and (
                        names_in(target.subscripts[d]) & indices
                    ):
                        return False
    return True


def loop_chunk_safe(
    desc: LoopDescriptor,
    analyzed,
    window_map: dict[str, dict[int, int]],
    use_windows: bool,
) -> bool:
    """The cached chunk-safety verdict, computing it on a cache miss."""
    use_windows = bool(use_windows)
    cached = desc.chunk_safety.get(use_windows)
    if cached is None:
        cached = compute_chunk_safety(desc, analyzed, window_map, use_windows)
        desc.chunk_safety[use_windows] = cached
    return cached


def annotate_flowchart(flowchart: Flowchart, analyzed) -> None:
    """Precompute every loop's chunk-safety (both window modes) and every
    equation's vector-safety at flowchart-build time."""
    for desc in flowchart.walk():
        if isinstance(desc, LoopDescriptor):
            for use_windows in (False, True):
                loop_chunk_safe(desc, analyzed, flowchart.windows, use_windows)
            for eq in desc.nested_equations():
                equation_vector_safe(eq)
        elif desc.node.is_equation:
            equation_vector_safe(desc.node.equation)


@dataclass
class Flowchart:
    """The scheduler's output for one module (or one component)."""

    descriptors: list[Descriptor] = field(default_factory=list)
    #: virtual-dimension summary: data-node id -> {dim position: window}
    windows: dict[str, dict[int, int]] = field(default_factory=dict)
    #: data-node id -> why a window the section-3.4 read rule admits is
    #: refused (a definition outside the loop writes planes it would lose)
    window_refusals: dict[str, str] = field(default_factory=dict)
    #: run-time assumptions recorded by scheduler extensions (e.g. the [14]
    #: symbolic-offset rule assumes each offset variable is >= 1)
    assumptions: list[str] = field(default_factory=list)

    def pretty(self) -> str:
        lines: list[str] = []
        for d in self.descriptors:
            lines.extend(d.pretty_lines())
        return "\n".join(lines)

    def shape(self) -> list:
        """Nested-tuple shape for structural comparison in tests:
        ``("DO", "K", [("DOALL", "I", [...])])``."""
        return [d.shape() for d in self.descriptors]

    # -- traversal helpers ----------------------------------------------------

    def walk(self) -> Iterator[Descriptor]:
        stack: list[Descriptor] = list(reversed(self.descriptors))
        while stack:
            d = stack.pop()
            yield d
            if isinstance(d, LoopDescriptor):
                stack.extend(reversed(d.body))

    def loops(self) -> list[LoopDescriptor]:
        return [d for d in self.walk() if isinstance(d, LoopDescriptor)]

    def equation_labels(self) -> list[str]:
        return [
            d.node.id
            for d in self.walk()
            if isinstance(d, NodeDescriptor) and d.node.is_equation
        ]

    def loop_kinds(self) -> list[tuple[str, str]]:
        """(keyword, index) of every loop, pre-order — a quick fingerprint."""
        return [(loop.keyword, loop.index) for loop in self.loops()]

    def window_of(self, name: str) -> dict[int, int]:
        return self.windows.get(name, {})

    def path_of(self, target: Descriptor) -> tuple[int, ...] | None:
        """The child-index path of ``target`` in the descriptor tree — the
        handle plans and kernel caches key loops by; None when ``target``
        is not in the tree."""

        def search(descs: list[Descriptor], prefix: tuple[int, ...]):
            for i, d in enumerate(descs):
                if d is target:
                    return prefix + (i,)
                if isinstance(d, LoopDescriptor):
                    found = search(d.body, prefix + (i,))
                    if found is not None:
                        return found
            return None

        return search(self.descriptors, ())

    def descriptor_at(self, path: tuple[int, ...]) -> Descriptor:
        """The descriptor named by a :meth:`path_of` path."""
        descs = self.descriptors
        desc: Descriptor | None = None
        for c in path:
            desc = descs[c]
            descs = desc.body if isinstance(desc, LoopDescriptor) else []
        if desc is None:
            raise IndexError("empty descriptor path")
        return desc
