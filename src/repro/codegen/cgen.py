"""The C listing (paper section 3.4 and the code-generator component).

"Using the flowchart, the code generator emits for loops and assignment
statements." Here that generator is the nest walk the runtime compiles
(:mod:`repro.runtime.kernels.nest`), so ``repro compile --emit c`` prints
what runs: a header comment with the flowchart and each array's window
allocation (:mod:`repro.codegen.listing`), then one translation unit
(:func:`~repro.runtime.kernels.native.unit_source`) holding the ``"full"``
C function of every outermost loop whose nest lowers. It is the same text
``KernelCache.warm`` builds, and it builds on its own with ``cc
-shared`` and :data:`~repro.codegen.clower.C_FLAGS`. ``DO`` / ``DOALL``
headers show inside each function as ``for`` loops; how a plan divides a
``DOALL`` among workers is ``repro plan``'s answer, and ``repro plan
--save`` writes one plan's unit, team kernels included.
"""

from __future__ import annotations

from repro.codegen.listing import entries, header
from repro.ps.semantics import AnalyzedModule
from repro.runtime.kernels.native import native_spec, unit_source
from repro.runtime.kernels.nest import KernelError
from repro.schedule.flowchart import Flowchart
from repro.schedule.scheduler import schedule_module


def generate_c(
    analyzed: AnalyzedModule,
    flowchart: Flowchart | None = None,
    use_windows: bool = True,
) -> str:
    """The C listing of a scheduled module."""
    flowchart = flowchart or schedule_module(analyzed)

    def walked(_eq):
        raise KernelError("runs on the walk (C functions hold loop nests)")

    lines = [*header(analyzed, flowchart, use_windows), "", "C functions:"]
    specs = []
    for depth, what, spec, refusal in entries(
        flowchart,
        lambda d: native_spec(d, analyzed, flowchart, use_windows),
        walked,
    ):
        if spec is not None:
            specs.append(spec)
        named = spec.fn_name if spec is not None else refusal
        lines.append("  " * (depth + 1) + f"{what}: {named}")
    comment = "\n".join(
        (" * " + line.replace("*/", "* /")).rstrip() for line in lines
    )
    return f"/*\n{comment}\n */\n" + unit_source(specs)
