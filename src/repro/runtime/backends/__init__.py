"""The execution engine for scheduled flowcharts.

One class, :class:`ExecutionBackend`, runs every plan::

    from repro.runtime.backends import ExecutionBackend
    backend = ExecutionBackend(workers=plan.workers)

A plan's ``backend`` — ``serial``, ``vectorized`` or ``threaded``, the
planner's choice under ``ExecutionOptions.backend="auto"`` — is a label the
planner prices loops under, not a class to instantiate: the engine reads the
plan for every decision, and only a ``threaded`` plan sends wavefronts to its
thread pool.
"""

from __future__ import annotations

from repro.runtime.backends.base import (
    ExecutionBackend,
    ExecutionState,
    free_threading_active,
)

__all__ = [
    "ExecutionBackend",
    "ExecutionState",
    "free_threading_active",
]
