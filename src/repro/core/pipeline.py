"""The top-level compiler pipeline.

Mirrors the paper's three compiler components — front end, scheduler, code
generator — and adds the optional passes this repo reproduces: loop merging
(the paper's future-work item), the hyperplane transformation (section 4),
and window allocation (section 3.4).

    result = compile_source(RELAXATION_JACOBI_SOURCE)
    result.flowchart.pretty()   # Figure 6
    result.c_source             # annotated C (generated on first access)
    result.run({...})           # execute via the interpreter
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.codegen.cgen import generate_c
from repro.codegen.pygen import compile_python, generate_python
from repro.errors import CodegenError
from repro.graph.build import build_dependency_graph
from repro.graph.depgraph import DependencyGraph
from repro.hyperplane.pipeline import HyperplaneResult, hyperplane_transform
from repro.plan.calibration import PlanCalibration
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
    use_windows: bool = True  # window allocation in generated code
    #: whether ``CompileResult.c_source`` / ``.python_source`` may be
    #: generated at all (they are generated on first access, never during
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
    #: generated module texts by language, filled on first access
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
    #: measured-wall-clock feedback for the planner (see
    #: :mod:`repro.plan.calibration`); :meth:`calibrate` fills it and the
    #: plan cache keys on its version, so new measurements replan. Loaded
    #: from (and re-saved to) the on-disk machine-fingerprinted store, so
    #: every compilation — in any process, including the serve daemon —
    #: starts from everything this machine has ever measured.
    _calibration: PlanCalibration = field(
        default_factory=PlanCalibration.load, repr=False, compare=False
    )

    def _generated(self, language: str, enabled: bool, generate) -> str | None:
        """The whole-module text in ``language``, generated on first access
        (only ``repro compile --emit`` and callers of these properties read
        it — compilation itself never pays for it). A module the generator
        cannot express yields None and a warning."""
        if language not in self._sources:
            text = None
            if enabled:
                try:
                    text = generate(
                        self.analyzed, self.flowchart,
                        use_windows=self.options.use_windows,
                    )
                except CodegenError as exc:
                    self.warnings.append(f"{language} generation skipped: {exc}")
            self._sources[language] = text
        return self._sources[language]

    @property
    def c_source(self) -> str | None:
        """The paper's annotated C for the whole module."""
        return self._generated("C", self.options.emit_c, generate_c)

    @property
    def python_source(self) -> str | None:
        return self._generated(
            "Python", self.options.emit_python, generate_python
        )

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
        # Calibration only influences the auto decision, so pinned-backend
        # entries stay valid across calibrations; an auto entry is replaced
        # (not stranded) when new measurements arrive.
        version = (
            self._calibration.version if execution.backend == "auto" else None
        )
        cached = self._plan_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        plan = build_plan(
            self.analyzed, self.flowchart, execution, scalars,
            calibration=self._calibration, served=served,
        )
        self._plan_cache[key] = (version, plan)
        return plan

    def calibrate(
        self,
        args: dict[str, Any],
        execution: ExecutionOptions | None = None,
        workers: int | None = None,
        repeats: int = 3,
    ):
        """Measure every candidate backend on ``args`` and feed the wall
        clock back into this compilation's plan calibration — the next
        ``backend="auto"`` :meth:`plan` for these sizes ranks candidates by
        the stopwatch instead of predicted cycles alone. Returns the
        :class:`~repro.machine.report.PlanComparison`."""
        from repro.machine.report import compare_plans

        return compare_plans(
            self.analyzed,
            self.flowchart,
            args,
            workers=workers,
            execution=execution,
            repeats=repeats,
            calibration=self._calibration,
        )

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

    def compile_python(self) -> Callable:
        """Exec the generated Python and return the callable."""
        return compile_python(
            self.analyzed, self.flowchart, use_windows=self.options.use_windows
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
