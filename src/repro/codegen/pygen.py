"""The Python listing: the NumPy tier's kernels, in flowchart order.

``repro compile --emit python`` prints the header of
:mod:`repro.codegen.listing`, then the Python dialect of the same walk the
C listing prints: the ``"full"`` nest kernel of every outermost loop whose
nest lowers (:func:`~repro.runtime.kernels.emit.emit_nest_kernel_source`)
and the scalar kernel of every equation met outside one
(:func:`~repro.runtime.kernels.emit.emit_kernel_source`). Each is the
``__kernel_source__`` the NumPy tier ``exec``-compiles and runs; window
allocation shapes their subscripts, so ``use_windows`` shapes the text.
"""

from __future__ import annotations

from repro.codegen.listing import entries, header
from repro.ps.semantics import AnalyzedModule
from repro.runtime.kernels.emit import emit_kernel_source, emit_nest_kernel_source
from repro.schedule.flowchart import Flowchart
from repro.schedule.scheduler import schedule_module


def generate_python(
    analyzed: AnalyzedModule,
    flowchart: Flowchart | None = None,
    use_windows: bool = True,
) -> str:
    """The Python listing of a scheduled module."""
    flowchart = flowchart or schedule_module(analyzed)
    out = ["# " + line if line else "#" for line in header(
        analyzed, flowchart, use_windows
    )]
    for depth, what, emitted, refusal in entries(
        flowchart,
        lambda d: emit_nest_kernel_source(d, analyzed, flowchart, use_windows),
        lambda eq: emit_kernel_source(
            eq, analyzed, flowchart, False, use_windows
        ),
    ):
        note = "# " + "  " * depth + what
        if emitted is None:
            out += ["", f"{note}: {refusal}"]
        else:
            out += ["", note, emitted[0].rstrip("\n")]
    return "\n".join(out) + "\n"
