#!/usr/bin/env python3
"""Quickstart: compile the paper's Figure-1 Relaxation module.

Walks the whole pipeline on the paper's running example:
parse -> analyze -> dependency graph (Figure 3) -> MSCCs (Figure 5) ->
flowchart (Figure 6) -> the C that runs -> execution.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.graph.build import build_dependency_graph
from repro.graph.dot import to_text
from repro.graph.scc import condensation_order


def main() -> None:
    print("=" * 72)
    print("PS source (paper Figure 1)")
    print("=" * 72)
    print(repro.RELAXATION_JACOBI_SOURCE)

    result = repro.compile_source(repro.RELAXATION_JACOBI_SOURCE)

    print("=" * 72)
    print("Dependency graph (paper Figure 3)")
    print("=" * 72)
    graph = build_dependency_graph(result.analyzed)
    print(to_text(graph))

    print()
    print("=" * 72)
    print("Maximally strongly connected components (paper Figure 5)")
    print("=" * 72)
    for i, comp in enumerate(condensation_order(graph.full_view()), start=1):
        print(f"  component {i}: {{{', '.join(sorted(comp))}}}")

    print()
    print("=" * 72)
    print("Flowchart (paper Figure 6)")
    print("=" * 72)
    print(result.flowchart.pretty())
    print()
    print(f"virtual dimensions / windows: {result.flowchart.windows}")

    print()
    print("=" * 72)
    print("Generated C: a header with the flowchart and window allocation,")
    print("then the C function the native tier builds for each loop nest")
    print("=" * 72)
    print(result.c_source)

    print("=" * 72)
    print("Execution")
    print("=" * 72)
    m, maxk = 6, 10
    rng = np.random.default_rng(0)
    initial = rng.random((m + 2, m + 2))
    out = result.run({"InitialA": initial, "M": m, "maxK": maxk})
    print(f"newA after {maxk} iterations (interior mean = "
          f"{out['newA'][1:-1, 1:-1].mean():.6f}):")
    with np.printoptions(precision=3, suppress=True):
        print(out["newA"])


if __name__ == "__main__":
    main()
