"""The restructuring transformation of paper section 4.

Pipeline: extract constant-offset dependence vectors from a recursive
component -> derive strict dependence inequalities over a linear time
function ``t = aK + bI + cJ`` -> find the least integer coefficients ->
complete the time row into a unimodular coordinate change -> rewrite the
module in the new coordinates -> analyze it. The compiler pipeline
schedules the output (the outer time loop is iterative, everything inside
is parallel); the transform itself schedules nothing.
"""

from repro.hyperplane.dependences import DependenceSet, extract_dependences
from repro.hyperplane.pipeline import HyperplaneResult, hyperplane_transform
from repro.hyperplane.solver import format_inequalities, solve_time_vector
from repro.hyperplane.unimodular import (
    complete_to_unimodular,
    determinant,
    integer_inverse,
)

__all__ = [
    "DependenceSet",
    "HyperplaneResult",
    "complete_to_unimodular",
    "determinant",
    "extract_dependences",
    "format_inequalities",
    "hyperplane_transform",
    "integer_inverse",
    "solve_time_vector",
]
