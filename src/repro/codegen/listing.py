"""What ``repro compile --emit c|python`` prints: the kernels that run.

A listing is not a second translation of the flowchart. Its header holds
the flowchart (the paper's Figure 6 form) and each array's storage, with
the §3.4 windows ("allocate only two instances rather than maxK
instances"). After it come the runtime's own kernels, found by walking the
flowchart's top level in order:

* a loop whose nest lowers contributes its ``"full"`` kernel, the very
  text the runtime builds for it (:mod:`repro.runtime.kernels.nest`);
* a loop whose nest does not lower is listed with the reason, and the
  loops of its body are listed the same way;
* an equation met outside a lowered nest runs on the walk, and is listed
  as the dialect says.

Nothing here prints an expression, so a listing cannot compute anything
a run does not. :func:`repro.codegen.cgen.generate_c` and
:func:`repro.codegen.pygen.generate_python` are the two dialects.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.ps.semantics import AnalyzedEquation, AnalyzedModule
from repro.ps.types import ArrayType
from repro.runtime.kernels.nest import KernelError, static_windows
from repro.schedule.flowchart import Flowchart, LoopDescriptor


def header(
    analyzed: AnalyzedModule, flowchart: Flowchart, use_windows: bool
) -> list[str]:
    """The flowchart and each array's storage, one line each."""
    lines = [
        f"Generated from PS module {analyzed.name} (Gokhale-1987 scheduler).",
        "",
        "Flowchart:",
        *("  " + line for line in flowchart.pretty().splitlines()),
        "",
        "Storage:",
    ]
    for sym in analyzed.table.symbols.values():
        if not isinstance(sym.type, ArrayType):
            continue
        windows = static_windows(sym.name, analyzed, flowchart, use_windows)
        storage = ", ".join(
            f"dimension {d} is virtual: window of {w}"
            for d, w in sorted(windows.items())
        )
        lines.append(f"  {sym.name}: {storage or 'full storage'}")
    if lines[-1] == "Storage:":
        lines.append("  no arrays")
    return lines


def entries(
    flowchart: Flowchart,
    lower_loop: Callable[[LoopDescriptor], object],
    lower_equation: Callable[[AnalyzedEquation], object],
) -> Iterator[tuple[int, str, object | None, str | None]]:
    """``(depth, what, kernel, refusal)`` per listed loop and equation,
    in flowchart order. ``lower_*`` return a kernel or raise
    :class:`KernelError`, whose message is the refusal."""

    def visit(descriptors, depth: int):
        for d in descriptors:
            if isinstance(d, LoopDescriptor):
                what, lower, arg = f"{d.keyword} {d.index}", lower_loop, d
            elif d.node.is_equation:
                what, lower, arg = d.label, lower_equation, d.node.equation
            else:
                continue
            try:
                yield depth, what, lower(arg), None
            except KernelError as exc:
                # an equation's refusal already starts with its label
                yield depth, what, None, str(exc).removeprefix(f"{what}: ")
                if isinstance(d, LoopDescriptor):
                    yield from visit(d.body, depth + 1)

    return visit(flowchart.descriptors, 0)
