"""Windowed wavefront execution of a hyperplane-transformed module.

Section 4 prefers the code shape where the program "rotate[s] the input
array into A'[...], work[s] entirely with the transformed array A' in the
recurrence, and unrotate[s] back into the return parameter" — only then does
the window-3 allocation (``3 x maxK x M'`` instead of a full
``maxK x M' x M'``) actually hold, because the extraction of ``newA`` must
read each time plane *before* the window overwrites it.

:func:`execute_transformed_windowed` implements that fusion generically:

1. the transformed array is allocated as a window of ``1 + max pi.d``
   planes over its time dimension;
2. extraction equations (those referencing the transformed array outside
   its defining loop) are pre-bucketed by the time plane they need;
3. as the outer iterative time loop retires each plane, the extraction
   points that need it run immediately.

The debug window tags verify no plane is read after being overwritten.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.hyperplane.pipeline import HyperplaneResult
from repro.ps.semantics import AnalyzedEquation
from repro.ps.types import ArrayType
from repro.runtime.evaluator import Evaluator
from repro.runtime.values import RuntimeArray, array_bounds, dtype_for, eval_bound
from repro.schedule.flowchart import Flowchart, LoopDescriptor, NodeDescriptor
from repro.schedule.scheduler import schedule_module


@dataclass
class WavefrontReport:
    results: dict[str, Any]
    allocated_elements: dict[str, int]
    window: int
    n_planes: int


def _equations_in(descs) -> list[AnalyzedEquation]:
    out = []
    for d in descs:
        if isinstance(d, NodeDescriptor):
            if d.node.is_equation:
                out.append(d.node.equation)
        else:
            out.extend(_equations_in(d.body))
    return out


def execute_transformed_windowed(
    hyper: HyperplaneResult,
    args: dict[str, Any],
    debug: bool = True,
) -> WavefrontReport:
    """Execute the transformed module with window storage for the
    transformed array and fused extraction."""
    analyzed = hyper.transformed
    flowchart: Flowchart = schedule_module(analyzed)
    new_array = hyper.new_array
    window = hyper.recurrence_window

    # Scalar environment (parameters only; the transformed modules the
    # rewriter emits draw every bound from parameters).
    scalars = {
        k: int(v) for k, v in args.items() if isinstance(v, (int, np.integer))
    }

    data: dict[str, Any] = dict(scalars)
    for pname in analyzed.param_names:
        sym = analyzed.symbol(pname)
        if isinstance(sym.type, ArrayType):
            data[pname] = RuntimeArray.from_numpy(
                pname,
                np.asarray(args[pname], dtype=dtype_for(sym.type.element)),
                array_bounds(sym.type, scalars),
            )

    evaluator = Evaluator(data)

    # Allocate the transformed array with a window on its time dimension.
    sym = analyzed.symbol(new_array)
    assert isinstance(sym.type, ArrayType)
    bounds = array_bounds(sym.type, scalars)
    data[new_array] = RuntimeArray.allocate(
        new_array, sym.type.element, bounds, windows={0: window}, debug=debug
    )

    # Locate the defining time loop and classify the other descriptors.
    time_loop: LoopDescriptor | None = None
    extraction: list[AnalyzedEquation] = []
    others: list = []
    for desc in flowchart.descriptors:
        eqs = (
            _equations_in([desc])
            if isinstance(desc, (LoopDescriptor, NodeDescriptor))
            else []
        )
        defines = any(t.name == new_array for eq in eqs for t in eq.targets)
        reads = any(r.name == new_array for eq in eqs for r in eq.refs)
        if defines:
            if not isinstance(desc, LoopDescriptor) or desc.parallel:
                raise ExecutionError(
                    "transformed recurrence is not under an iterative time loop"
                )
            time_loop = desc
        elif reads:
            extraction.extend(eqs)
        else:
            others.append(desc)

    if time_loop is None:
        raise ExecutionError(f"no defining loop for {new_array!r} found")

    # Run the independent descriptors first (there are typically none: the
    # rewriter merges initialisation into the recurrence).
    from repro.runtime.backends import instantiate_backend
    from repro.runtime.backends.base import ExecutionState
    from repro.runtime.executor import ExecutionOptions

    options = ExecutionOptions()
    backend = instantiate_backend("vectorized")
    state = ExecutionState(
        analyzed,
        flowchart,
        options,
        data,
        evaluator,
    )
    for desc in others:
        backend.exec_descriptor(state, desc, {}, [])

    # Bucket extraction points by the time plane they need.
    buckets: dict[int, list[tuple[AnalyzedEquation, dict[str, int]]]] = {}
    for eq in extraction:
        # Allocate its target (results are dense).
        for target in eq.targets:
            tsym = analyzed.symbol(target.name)
            if isinstance(tsym.type, ArrayType) and target.name not in data:
                data[target.name] = RuntimeArray.allocate(
                    target.name, tsym.type.element, array_bounds(tsym.type, scalars)
                )
        dim_ranges = [
            range(
                eval_bound(d.subrange.lo, scalars),
                eval_bound(d.subrange.hi, scalars) + 1,
            )
            for d in eq.dims
        ]
        refs = [r for r in eq.refs if r.name == new_array]
        for point in itertools.product(*dim_ranges):
            env = {d.index: v for d, v in zip(eq.dims, point)}
            planes = [
                int(evaluator.eval(r.subscripts[0], env)) for r in refs
            ]
            need = max(planes)
            if need - min(planes) >= window:
                raise ExecutionError(
                    "extraction reads planes wider apart than the window; "
                    "cannot fuse"
                )
            buckets.setdefault(need, []).append((eq, env))

    # The fused time loop.
    t_lo = eval_bound(time_loop.subrange.lo, scalars)
    t_hi = eval_bound(time_loop.subrange.hi, scalars)
    for t in range(t_lo, t_hi + 1):
        env = {time_loop.index: t}
        for d in time_loop.body:
            backend.exec_descriptor(state, d, env, [])
        for eq, point_env in buckets.pop(t, []):
            value = evaluator.eval(eq.rhs, point_env, vector=False)
            target = eq.targets[0]
            subs = [
                int(evaluator.eval(s, point_env)) for s in target.subscripts
            ]
            holder = data[target.name]
            if isinstance(holder, RuntimeArray):
                holder.set(subs, value)
            else:
                data[target.name] = value
    if buckets:
        raise ExecutionError(
            f"extraction points remained for planes {sorted(buckets)} outside "
            f"the time range [{t_lo}, {t_hi}]"
        )

    results: dict[str, Any] = {}
    for rname in analyzed.result_names:
        v = data.get(rname)
        results[rname] = v.to_numpy() if isinstance(v, RuntimeArray) else v

    allocated = {
        name: v.allocated_elements
        for name, v in data.items()
        if isinstance(v, RuntimeArray)
    }
    return WavefrontReport(
        results=results,
        allocated_elements=allocated,
        window=window,
        n_planes=t_hi - t_lo + 1,
    )
