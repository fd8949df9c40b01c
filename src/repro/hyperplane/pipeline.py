"""End-to-end hyperplane transformation (paper section 4).

:func:`hyperplane_transform` takes an analyzed module, finds the recursive
component of the named array (or the first multi-node MSCC), and carries out
the full derivation the paper performs by hand:

1. extract dependence vectors and render the strict inequalities;
2. solve for the least integer time vector (``(2,1,1)`` for the paper's
   revised relaxation);
3. complete to a unimodular coordinate change (``K' = 2K+I+J, I' = K,
   J' = I``);
4. rewrite the module in the new coordinates (executable PS source);
5. analyze the rewritten module. The pipeline schedules it — the
   transformed component now schedules as ``DO K' (DOALL I' (DOALL J'))``,
   the Figure-6 shape — and nothing is scheduled here: both flowcharts of a
   :class:`HyperplaneResult` are made the first time something reads them;
6. report window sizes and the storage comparison (window ``1 + max pi.d``
   for the transformed array: 3 planes for the example, versus 2 full grids
   for the untransformed iterative version).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import SourceError, TransformError
from repro.graph.build import build_dependency_graph
from repro.graph.depgraph import DependencyGraph
from repro.hyperplane.dependences import (
    DependenceSet,
    extract_dependences,
    find_recursive_components,
)
from repro.hyperplane.rewrite import rewrite_module
from repro.hyperplane.solver import format_inequalities, solve_time_vector
from repro.hyperplane.unimodular import Matrix, complete_to_unimodular, integer_inverse
from repro.ps.ast import Module
from repro.ps.semantics import AnalyzedModule, AnalyzedProgram, analyze_module
from repro.schedule.flowchart import Flowchart
from repro.schedule.scheduler import schedule_module


@dataclass
class HyperplaneResult:
    original: AnalyzedModule
    #: the original's dependency graph (the dependences come from it)
    graph: DependencyGraph
    array: str
    dependences: DependenceSet
    inequalities: list[str]
    pi: tuple[int, ...]
    T: Matrix
    Tinv: Matrix
    transformed_module: Module
    transformed: AnalyzedModule
    new_array: str
    #: index variables of the transformed array, the time index first
    new_names: list[str]

    @cached_property
    def original_flowchart(self) -> Flowchart:
        return schedule_module(self.original, self.graph)

    @cached_property
    def transformed_flowchart(self) -> Flowchart:
        return schedule_module(self.transformed)

    @property
    def time_equation(self) -> str:
        """Human-readable ``t(A[K,I,J]) = 2K + I + J``."""
        terms = []
        for c, name in zip(self.pi, self.dependences.dim_names):
            if c == 0:
                continue
            terms.append(name if c == 1 else f"{c}{name}")
        indices = ", ".join(self.dependences.dim_names)
        return f"t({self.array}[{indices}]) = {' + '.join(terms)}"

    @property
    def recurrence_window(self) -> int:
        """Window of the transformed array's time dimension when the
        recurrence is considered in isolation (rotate-in/rotate-out, the
        paper's preferred code shape): ``1 + max pi . d``."""
        return 1 + max(
            sum(p * d for p, d in zip(self.pi, v)) for v in self.dependences.vectors
        )

    def transformed_offsets(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(original delta, transformed delta) per distinct reference: the
        paper's rewritten-recurrence table."""
        seen: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for delta in self.dependences.deltas:
            new = tuple(
                sum(self.T[j][i] * delta[i] for i in range(len(delta)))
                for j in range(len(delta))
            )
            if (delta, new) not in seen:
                seen.append((delta, new))
        return seen

    def storage_comparison(self, bounds: dict[str, int]) -> dict[str, int]:
        """Numeric storage comparison for given parameter values: elements
        allocated by (a) the full array, (b) the untransformed window
        (2 x plane), (c) the transformed window (w x maxK x M')."""
        arr = self.original.table.symbol(self.array).type
        from repro.runtime.values import eval_bound

        extents = [
            eval_bound(d.hi, bounds) - eval_bound(d.lo, bounds) + 1 for d in arr.dims
        ]
        full = 1
        for e in extents:
            full *= e
        # Untransformed: window w0 in dimension 0 (2 for both variants).
        plane = full // extents[0]
        untransformed_window = 2 * plane
        # Transformed: window in the time dimension; the spatial extents are
        # the selected original dimensions.
        spatial = 1
        for row in self.T[1:]:
            src = row.index(1)
            spatial *= extents[src]
        transformed_window = self.recurrence_window * spatial
        return {
            "full": full,
            "untransformed_window": untransformed_window,
            "transformed_window": transformed_window,
        }


def hyperplane_transform(
    analyzed: AnalyzedModule,
    array: str | None = None,
    graph: DependencyGraph | None = None,
    program: AnalyzedProgram | None = None,
    new_module_name: str | None = None,
) -> HyperplaneResult:
    """Apply the section-4 transformation to a module's recursive array."""
    if graph is None:
        graph = build_dependency_graph(analyzed)

    components = find_recursive_components(graph)
    if not components:
        raise TransformError("module has no recursive component to transform")
    component = None
    if array is None:
        component = components[0]
        data = [n for n in sorted(component) if graph.node(n).is_data]
        if len(data) != 1:
            raise TransformError(
                f"first recursive component has {len(data)} arrays; name one"
            )
        array = data[0]
    else:
        for comp in components:
            if array in comp:
                component = comp
                break
        if component is None:
            raise TransformError(f"{array!r} is not part of a recursive component")

    deps = extract_dependences(graph, component)
    pi = solve_time_vector(deps.vectors)
    T = complete_to_unimodular(pi)
    Tinv = integer_inverse(T)
    inequalities = format_inequalities(deps.vectors)

    module2, new_array, new_names = rewrite_module(
        analyzed, deps, T, new_module_name=new_module_name
    )
    try:
        analyzed2 = analyze_module(module2, program)
    except SourceError as exc:
        raise TransformError(f"the rewritten module is not valid PS: {exc}") from exc

    return HyperplaneResult(
        original=analyzed,
        graph=graph,
        array=array,
        dependences=deps,
        inequalities=inequalities,
        pi=pi,
        T=T,
        Tinv=Tinv,
        transformed_module=module2,
        transformed=analyzed2,
        new_array=new_array,
        new_names=new_names,
    )
