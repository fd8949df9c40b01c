"""Flowchart interpreter: executes a scheduled module.

The interpreter walks the flowchart exactly as the generated procedural
program would: a ``DO`` loop runs its subrange low-to-high sequentially; a
``DOALL`` loop is semantically unordered and executes on the selected
*execution backend* (see :mod:`repro.runtime.backends`):

* ``serial`` — one scalar iteration at a time (the reference semantics);
* ``vectorized`` — the whole subrange as one NumPy operation (an inner
  ``DO`` nested under a vectorised ``DOALL`` keeps its own scalar loop);
* ``threaded`` — chunked subranges on a thread pool, native and NumPy
  kernels releasing the GIL (on a no-GIL build the Python-level chunk work
  overlaps too);
* ``process`` — chunked subranges on a persistent pool of forked workers
  over shared-memory arrays.

Every parallel wavefront ends in one join: all of its chunks finish (or
fail) before the next descriptor runs, and the first failure is re-raised.

Options:

* ``backend`` / ``workers`` — backend selection; ``"auto"`` asks the
  cost-driven planner (:mod:`repro.plan.planner`) to choose, while an
  explicit backend pins the plan to it;
* ``use_windows`` — allocate virtual dimensions as windows, as the paper's
  section 3.4 directs the code generator to do;
* ``debug_windows`` — arm window tags that fault on any read of an
  overwritten plane (failure injection for schedule/window validation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ExecutionError
from repro.ps.semantics import AnalyzedModule, AnalyzedProgram
from repro.ps.types import ArrayType
from repro.runtime.backends import instantiate_backend
from repro.runtime.backends.base import ExecutionState
from repro.runtime.evaluator import Evaluator
from repro.runtime.kernels import KernelCache
from repro.runtime.values import RuntimeArray, array_bounds, dtype_for
from repro.schedule.flowchart import Flowchart
from repro.schedule.scheduler import schedule_module

if TYPE_CHECKING:  # a module-level import would cycle through the package
    # __init__ chain (plan -> machine -> runtime -> executor); the planner
    # is imported lazily at the call sites instead
    from repro.plan.ir import ExecutionPlan


@dataclass
class ExecutionOptions:
    use_windows: bool = False
    debug_windows: bool = False
    #: execution backend: "auto", "serial", "vectorized", "threaded",
    #: "process" — "auto" asks the cost-driven planner to choose;
    #: "serial" is the scalar reference path
    backend: str = "auto"
    #: worker count for the chunked backends (None: os.cpu_count())
    workers: int | None = None
    #: dispatch equations through cached exec-compiled kernels (the fast
    #: path); off, everything runs on the tree-walking reference evaluator.
    #: Window-debug runs always use the evaluator (kernels skip the
    #: fault-on-overwrite tags).
    use_kernels: bool = True
    #: highest kernel tier DOALL nests may use: "native" (cffi-compiled C,
    #: degrading to the NumPy kernels when no C compiler exists), "numpy"
    #: (exec-compiled NumPy kernels only), or "evaluator" (no kernels at
    #: all — same as ``use_kernels=False``)
    kernel_tier: str = "native"
    #: let the planner collapse perfect DOALL nests into one flattened,
    #: chunked iteration space executed by fused flat kernels (off, nests
    #: plan with the per-loop strategies only — the escape hatch)
    use_collapse: bool = True
    #: let the planner split ("fission") a sequential loop whose body
    #: partitions into independent dependence groups into one replica loop
    #: per group — pieces then plan independently (a DOALL piece regains
    #: the kernel strategies, a lone recurrence regains scan/pipeline).
    #: Off, every nest plans as scheduled (the escape hatch).
    use_fission: bool = True
    #: soft strategy preference (``repro run/plan --strategy``): every loop
    #: the strategy validly applies to takes it, everything else plans
    #: normally — unlike :func:`repro.plan.planner.forced_plan`, an
    #: inapplicable preference degrades instead of raising. ``"pipeline"``
    #: asks the planner to take every partitionable sibling-loop run as a
    #: pipeline group regardless of predicted price.
    strategy: str | None = None
    #: permit the parallel ``scan`` strategy to reassociate float ``+``/``*``
    #: recurrences (results differ from the in-order reference by rounding,
    #: typically ~1e-12 relative). Off, float scans stay in order; integer
    #: and min/max scans are bit-exact and never need this.
    allow_reassoc: bool = False

    @classmethod
    def resolve(
        cls, base: ExecutionOptions | None = None, /, **overrides: Any
    ) -> ExecutionOptions:
        """The one options-resolution path shared by the library
        (:meth:`CompileResult.run`), the CLI, and the serve daemon.

        Starts from ``base`` (or the defaults) and applies ``overrides``
        by field name; an override of ``None`` means "keep the base value"
        so callers can thread optional CLI/request parameters straight
        through. Unknown names raise ``TypeError`` — options typos must
        not silently plan a different execution.
        """
        if not overrides:
            return base if base is not None else cls()
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown execution option(s) {sorted(unknown)!r}; "
                f"valid fields: {sorted(known)}"
            )
        effective = {k: v for k, v in overrides.items() if v is not None}
        if base is None:
            return cls(**effective)
        return replace(base, **effective) if effective else base

    def key(self) -> tuple:
        """Every field's value, in declaration order — THE definition of
        "these options are the same plan" for every cache that keys on
        options (plan caches, the serve layer's backend slots). Derived
        from the dataclass fields (a subclass's included), so a new option
        cannot be left out; the class is a flat record of scalars, so no
        ``astuple`` recursion — this runs per serve request."""
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)


def execute_module(
    analyzed: AnalyzedModule,
    args: dict[str, Any],
    flowchart: Flowchart | None = None,
    options: ExecutionOptions | None = None,
    program: AnalyzedProgram | None = None,
    kernel_cache: KernelCache | None = None,
    plan: ExecutionPlan | None = None,
    backend: Any = None,
) -> dict[str, Any]:
    """Execute a module with the given inputs; returns its results.

    Array arguments are NumPy arrays shaped to the declared bounds; scalar
    arguments are Python numbers. Array arguments are *borrowed*: read in
    place for the duration of the run (copied only to convert dtype, byte
    order or layout, or into shared memory by a process backend), never
    written, and never aliased by a result. A result's bytes are the
    caller's while any view of them is held; with a ``backend`` that has run
    ``plan`` before, big results are views (``owndata`` false) of buffers
    that backend reuses once the last view is gone. ``kernel_cache`` carries
    kernels across executions of the same ``(analyzed, flowchart)`` pair (a
    :class:`~repro.core.pipeline.CompileResult` keeps one for its lifetime);
    without it a transient cache is built per call. ``plan`` supplies a
    prebuilt (possibly hand-forced) :class:`ExecutionPlan`; without it the
    cost-driven planner runs once for this execution — ``backend="auto"``
    asks it to choose, an explicit backend pins the plan.

    ``backend`` supplies a pre-instantiated
    :class:`~repro.runtime.backends.base.ExecutionBackend` whose lifetime
    the *caller* owns (a :class:`~repro.serve.session.Session` keeps worker
    pools alive across runs this way): it must match the plan's backend
    name, only per-run resources are released afterwards
    (``backend.end_run()``), and ``backend.close()`` is never called here.
    Without it a backend is instantiated for the plan and fully closed.
    """
    options = options or ExecutionOptions()
    if flowchart is None:
        flowchart = schedule_module(analyzed)

    from repro.ps.types import RecordType

    data: dict[str, Any] = {}
    # Bind scalar parameters first: array bounds may use them.
    for pname in analyzed.param_names:
        sym = analyzed.symbol(pname)
        if isinstance(sym.type, RecordType):
            # Record parameters arrive as dotted names ("p.x") or as a dict.
            if pname in args and isinstance(args[pname], dict):
                for fname, fval in args[pname].items():
                    data[f"{pname}.{fname}"] = fval
            continue
        if not isinstance(sym.type, ArrayType):
            if pname not in args:
                raise ExecutionError(f"missing argument {pname!r}")
            data[pname] = args[pname]
    scalar_env = {
        k: int(v) for k, v in data.items() if isinstance(v, (int, np.integer))
    }

    if plan is None:
        from repro.plan.planner import build_plan

        plan = build_plan(analyzed, flowchart, options, scalar_env)
    else:
        # A supplied plan may have been built against another copy of the
        # flowchart tree; re-index it on these descriptor identities.
        plan.bind(flowchart)

    owned = backend is None
    if owned:
        backend = instantiate_backend(plan.backend, workers=plan.workers)
    elif backend.name != plan.backend:
        raise ExecutionError(
            f"supplied backend {backend.name!r} does not match the plan's "
            f"backend {plan.backend!r} — resolve the plan first and hand "
            f"execute_module the matching backend instance"
        )

    try:
        # Input arrays come in through the backend: borrowed in process,
        # copied into named shared-memory segments by a process backend — a
        # persistent pool forked on an earlier run re-attaches this run's
        # inputs by name instead of relying on fork-time inheritance.
        for pname in analyzed.param_names:
            sym = analyzed.symbol(pname)
            if isinstance(sym.type, ArrayType):
                if pname not in args:
                    raise ExecutionError(f"missing argument {pname!r}")
                bounds = array_bounds(sym.type, scalar_env)
                data[pname] = RuntimeArray.from_numpy(
                    pname,
                    backend.import_array(args[pname], dtype_for(sym.type.element)),
                    bounds,
                )
        # Record parameters may arrive as dicts; flatten dotted names.
        for key, value in args.items():
            if key not in data and "." in key:
                data[key] = value

        kernels: KernelCache | None = None
        if (
            options.use_kernels
            and not options.debug_windows
            and getattr(options, "kernel_tier", "native") != "evaluator"
        ):
            kernels = kernel_cache or KernelCache(analyzed, flowchart)

        state = ExecutionState(
            analyzed,
            flowchart,
            options,
            data,
            Evaluator(data, call_fn=None, enums=_enum_env(analyzed)),
            program=program,
            kernels=kernels,
            plan=plan,
        )
        # The handler closes over the program and the options, not the
        # state: the kernel cache keeps the last handler bound (its call
        # box), and a handler holding the state would keep every array of
        # a finished run alive until the module's next run — and then only
        # until a cycle collection, state -> evaluator -> handler -> state.
        state.evaluator.call_fn = lambda name, cargs: _call_module(
            program, options, name, cargs
        )

        backend.run(state)
        results = {}
        for rname in analyzed.result_names:
            value = state.data.get(rname)
            if isinstance(value, RuntimeArray):
                value = backend.export_result(value.to_numpy())
            results[rname] = value
        return results
    finally:
        if owned:
            backend.close()
        else:
            backend.end_run()


def execute_program_module(
    program: AnalyzedProgram,
    module_name: str,
    args: dict[str, Any],
    options: ExecutionOptions | None = None,
) -> dict[str, Any]:
    """Execute a module of an analyzed program (module calls resolve)."""
    return execute_module(
        program[module_name], args, options=options, program=program
    )


def _enum_env(analyzed: AnalyzedModule) -> dict[str, int]:
    return {
        member: ordinal
        for member, (_, ordinal) in analyzed.table.enum_members.items()
    }


def _callee_runtime(program: AnalyzedProgram, name: str):
    """The callee's schedule and kernel cache, memoized on the program —
    module calls may fire once per element, and re-scheduling (let alone
    re-``exec``-compiling kernels) per call would make the call path
    slower than the plain evaluator."""
    memo = getattr(program, "_runtime_memo", None)
    if memo is None:
        memo = {}
        program._runtime_memo = memo
    entry = memo.get(name)
    if entry is None:
        callee = program[name]
        flowchart = schedule_module(callee)
        entry = (flowchart, KernelCache(callee, flowchart))
        memo[name] = entry
    return entry


def _callee_plan(
    program: AnalyzedProgram,
    name: str,
    callee,
    flowchart: Flowchart,
    options: ExecutionOptions,
    scalar_env: dict[str, int],
) -> ExecutionPlan:
    """The callee's execution plan, memoized next to its schedule — the
    planner must run once per callee, not once per element call. Trip
    counts are taken from the first call's scalar arguments; strategy
    *safety* is static, so later calls with different sizes stay correct.
    """
    memo = getattr(program, "_plan_memo", None)
    if memo is None:
        memo = {}
        program._plan_memo = memo
    key = (name, options.key())
    plan = memo.get(key)
    if plan is None:
        from repro.plan.planner import build_plan

        # Callees run in-process even under "auto": the planner must not
        # hand a per-element module call its own worker pool (nested pools
        # inside worker chunks would oversubscribe or crash).
        plan = build_plan(
            callee, flowchart, options, scalar_env,
            candidates=("serial", "vectorized"),
        )
        memo[key] = plan
    return plan


def _call_module(
    program: AnalyzedProgram | None,
    options: ExecutionOptions,
    name: str,
    cargs: list[Any],
) -> Any:
    if program is None:
        raise ExecutionError(
            f"module call {name!r} requires program-level execution"
        )
    callee = program[name]
    call_args = dict(zip(callee.param_names, cargs))
    # Callees run on the in-process backends: parallelism belongs to the
    # outermost module (nested pools/forks inside worker chunks would
    # oversubscribe or crash).
    callee_options = options
    if callee_options.backend not in ("auto", "serial", "vectorized"):
        callee_options = replace(callee_options, backend="auto")
    flowchart, kernel_cache = _callee_runtime(program, name)
    scalar_env = {
        k: int(v) for k, v in call_args.items() if isinstance(v, (int, np.integer))
    }
    plan = _callee_plan(
        program, name, callee, flowchart, callee_options, scalar_env
    )
    results = execute_module(
        callee,
        call_args,
        flowchart=flowchart,
        options=callee_options,
        program=program,
        kernel_cache=kernel_cache,
        plan=plan,
    )
    values = []
    for rname in callee.result_names:
        v = results[rname]
        rtype = callee.symbol(rname).type
        if isinstance(rtype, ArrayType):
            # Preserve the declared origin so subsequent indexing is exact.
            v = RuntimeArray.from_numpy(
                rname, np.asarray(v), array_bounds(rtype, scalar_env)
            )
        values.append(v)
    return values[0] if len(values) == 1 else tuple(values)
