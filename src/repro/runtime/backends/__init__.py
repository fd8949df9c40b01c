"""The execution engine for scheduled flowcharts.

One class, :class:`ExecutionBackend`, runs every plan::

    from repro.runtime.backends import ExecutionBackend
    backend = ExecutionBackend()

A plan's ``backend`` — ``serial``, ``vectorized`` or ``threaded``, the
planner's choice under ``ExecutionOptions.backend="auto"`` — is a label the
planner prices loops under, not a class to instantiate: the engine reads the
plan for every decision, and runs every plan on the caller's thread (a team
kernel's OpenMP threads live inside its one C call).
"""

from __future__ import annotations

from repro.runtime.backends.base import ExecutionBackend, ExecutionState

__all__ = ["ExecutionBackend", "ExecutionState"]
