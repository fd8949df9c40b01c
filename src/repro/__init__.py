"""repro — reproduction of Gokhale (1987), "Exploiting Loop Level
Parallelism in Nonprocedural Dataflow Programs" (ICASE 87-23).

The package implements the PS nonprocedural dataflow language, the
dependency-graph scheduler that emits iterative (DO) and concurrent (DOALL)
loops, the virtual-dimension (memory window) analysis, and the hyperplane
restructuring transformation of section 4 — plus the execution substrates
needed to evaluate them: a flowchart interpreter, a vectorised NumPy backend,
a C code generator, and a simulated MIMD machine.

Quickstart::

    import repro
    result = repro.compile_source(repro.RELAXATION_JACOBI_SOURCE)
    print(result.flowchart.pretty())
    print(result.c_source)

Compile-once/run-many serving (the paper's premise — all parallelization
work at compile time, amortized over many executions)::

    with repro.Session() as session:
        session.load(source)
        session.warm("Relaxation", {"M": 64, "maxK": 8})
        out = session.run("Relaxation", {...})   # nothing compiles here

The blessed public surface is ``__all__``: the ``repro.*`` names listed
there (plus the lazy re-exports below) are stable across minor versions;
anything else is internal and may move without notice.
"""

from repro.errors import (
    ClientError,
    CodegenError,
    CoverageError,
    ExecutionError,
    InconsistentPositionError,
    InfeasibleScheduleError,
    LexError,
    ParseError,
    ReproError,
    ScheduleError,
    SemanticError,
    SessionError,
    SourceError,
    TransformError,
)

#: single source of truth for the package version — pyproject.toml reads
#: it via ``[tool.setuptools.dynamic]``, so the two can never drift
__version__ = "1.4.0"

__all__ = [
    "ClientError",
    "CodegenError",
    "CoverageError",
    "ExecutionError",
    "ExecutionOptions",
    "InconsistentPositionError",
    "InfeasibleScheduleError",
    "LexError",
    "ParseError",
    "ReproClient",
    "ReproDaemon",
    "ReproError",
    "ScheduleError",
    "SemanticError",
    "Session",
    "SessionError",
    "SourceError",
    "TransformError",
    "compile_source",
    "execute_module",
    "__version__",
]


def __getattr__(name):
    """Lazy re-exports of the main API, avoiding import cycles during
    package construction."""
    from importlib import import_module

    lazy = {
        "parse_module": "repro.ps.parser",
        "parse_program": "repro.ps.parser",
        "analyze_module": "repro.ps.semantics",
        "analyze_program": "repro.ps.semantics",
        "format_module": "repro.ps.printer",
        "ModuleBuilder": "repro.ps.builder",
        "build_dependency_graph": "repro.graph.build",
        "schedule_module": "repro.schedule.scheduler",
        "Flowchart": "repro.schedule.flowchart",
        "hyperplane_transform": "repro.hyperplane.pipeline",
        "compile_source": "repro.core.pipeline",
        "compile_module": "repro.core.pipeline",
        "CompilerOptions": "repro.core.pipeline",
        "RELAXATION_JACOBI_SOURCE": "repro.core.paper",
        "RELAXATION_GAUSS_SEIDEL_SOURCE": "repro.core.paper",
        "execute_module": "repro.runtime.executor",
        "ExecutionOptions": "repro.runtime.executor",
        "available_backends": "repro.runtime.backends",
        "MachineModel": "repro.machine.cost",
        "simulate_flowchart": "repro.machine.simulator",
        "predicted_speedup": "repro.machine.simulator",
        "measure_backend_speedups": "repro.machine.report",
        "compare_plans": "repro.machine.report",
        "ExecutionPlan": "repro.plan.ir",
        "LoopPlan": "repro.plan.ir",
        "build_plan": "repro.plan.planner",
        "forced_plan": "repro.plan.planner",
        "Session": "repro.serve",
        "SessionStats": "repro.serve",
        "ReproDaemon": "repro.serve",
        "DaemonThread": "repro.serve",
        "ReproClient": "repro.serve",
    }
    if name in lazy:
        return getattr(import_module(lazy[name]), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
