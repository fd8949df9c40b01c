"""The top-level compiler pipeline.

Mirrors the paper's three compiler components — front end, scheduler, code
generator — and adds the optional passes this repo reproduces: loop merging
(the paper's future-work item), the hyperplane transformation (section 4),
and window allocation (section 3.4).

    result = compile_source(RELAXATION_JACOBI_SOURCE)
    result.flowchart.pretty()   # Figure 6
    result.c_source             # the C kernels that run (listed on first access)
    result.run({...})           # execute on the planned backend
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.codegen.cgen import generate_c
from repro.codegen.pygen import generate_python
from repro.graph.build import build_dependency_graph
from repro.graph.depgraph import DependencyGraph
from repro.hyperplane.pipeline import HyperplaneResult, hyperplane_transform
from repro.plan.ir import ExecutionPlan
from repro.plan.planner import build_plan
from repro.ps.ast import Module
from repro.ps.parser import parse_module
from repro.ps.semantics import AnalyzedModule, AnalyzedProgram, analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache
from repro.schedule.flowchart import Flowchart
from repro.schedule.merge import merge_loops
from repro.schedule.scheduler import schedule_module


@dataclass
class CompilerOptions:
    merge_loops: bool = False  # apply the loop-merging improvement pass
    hyperplane: bool = False  # restructure recursive components (section 4)
    use_windows: bool = True  # window allocation in the Python listing
    #: whether ``CompileResult.c_source`` / ``.python_source`` may be
    #: listed at all (they are listed on first access, never during
    #: compilation; off, the property is None)
    emit_c: bool = True
    emit_python: bool = True


@dataclass
class CompileResult:
    module: Module
    analyzed: AnalyzedModule
    graph: DependencyGraph
    flowchart: Flowchart
    options: CompilerOptions
    hyperplane_result: HyperplaneResult | None = None
    warnings: list[str] = field(default_factory=list)
    #: module listings by language, filled on first access
    _sources: dict[str, str | None] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: compiled-kernel cache shared by every ``run()`` of this result —
    #: each equation is exec-compiled at most once per variant, no matter
    #: how many times (or on how many backends) the module executes
    _kernel_cache: KernelCache | None = field(
        default=None, repr=False, compare=False
    )
    #: execution plans cached per (options, scalar bindings) — the planner
    #: runs once per distinct configuration, not once per run()
    _plan_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def _generated(self, language: str, enabled: bool, generate) -> str | None:
        """The module's listing in ``language``, made on first access (only
        ``repro compile --emit`` and callers of these properties read it —
        compilation itself never pays for it)."""
        if language not in self._sources:
            self._sources[language] = generate(
                self.analyzed, self.flowchart,
                use_windows=self.options.use_windows,
            ) if enabled else None
        return self._sources[language]

    @property
    def c_source(self) -> str | None:
        """The C translation unit of the module's loop nests, under a
        header with the flowchart and window allocation."""
        return self._generated("C", self.options.emit_c, generate_c)

    @property
    def python_source(self) -> str | None:
        """The NumPy tier's kernels, under the same header."""
        return self._generated("Python", self.options.emit_python, generate_python)

    @property
    def kernel_cache(self) -> KernelCache:
        if self._kernel_cache is None:
            self._kernel_cache = KernelCache(self.analyzed, self.flowchart)
        return self._kernel_cache

    def plan(
        self,
        args: dict[str, Any] | None = None,
        execution: ExecutionOptions | None = None,
        options_key: tuple | None = None,
        served: bool = False,
    ) -> ExecutionPlan:
        """The execution plan for this compilation under the given options
        and (integer) arguments, cached across ``run()`` calls.

        ``backend="auto"`` (the default) asks the cost-driven planner to
        choose; an explicit backend pins the plan to it. ``options_key`` is
        ``execution.key()`` when the caller has already built it.
        ``served`` asks for the plan priced with the native build sunk
        (see :func:`repro.plan.planner.build_plan`), cached apart.
        """
        execution = execution or ExecutionOptions()
        scalars = {
            k: int(v)
            for k, v in (args or {}).items()
            if isinstance(v, (int, np.integer))
        }
        key = (options_key or execution.key(), tuple(sorted(scalars.items())))
        if served:
            key += ("served",)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = build_plan(
                self.analyzed, self.flowchart, execution, scalars,
                served=served,
            )
            self._plan_cache[key] = plan
        return plan

    def run(
        self,
        args: dict[str, Any],
        execution: ExecutionOptions | None = None,
        plan: ExecutionPlan | None = None,
    ) -> dict[str, Any]:
        """Execute the (possibly transformed) module on the interpreter.

        ``execution`` selects the DOALL execution backend and the rest of
        the run's options — e.g. ``result.run(args,
        ExecutionOptions.resolve(backend="threaded", workers=4))``. The
        execution follows the cached cost-driven :meth:`plan` unless a
        prebuilt ``plan`` is supplied.
        """
        execution = execution or ExecutionOptions()
        if plan is None:
            plan = self.plan(args, execution=execution)
        return execute_module(
            self.analyzed,
            args,
            flowchart=self.flowchart,
            options=execution,
            kernel_cache=self.kernel_cache,
            plan=plan,
        )


def compile_module(
    module: Module,
    options: CompilerOptions | None = None,
    program: AnalyzedProgram | None = None,
) -> CompileResult:
    """Run the full pipeline on a parsed module."""
    options = options or CompilerOptions()
    analyzed = analyze_module(module, program)
    hyper: HyperplaneResult | None = None

    if options.hyperplane:
        hyper = hyperplane_transform(analyzed, program=program)
        analyzed = hyper.transformed
        module = hyper.transformed_module

    graph = build_dependency_graph(analyzed)
    flowchart = schedule_module(analyzed, graph)
    if options.merge_loops:
        flowchart = merge_loops(flowchart, graph)

    return CompileResult(
        module=module,
        analyzed=analyzed,
        graph=graph,
        flowchart=flowchart,
        options=options,
        hyperplane_result=hyper,
        warnings=list(analyzed.warnings),
    )


def compile_source(
    source: str,
    options: CompilerOptions | None = None,
    program: AnalyzedProgram | None = None,
) -> CompileResult:
    """Parse and compile a single-module PS source text."""
    return compile_module(parse_module(source), options, program)
