"""Pluggable parallel execution backends for DOALL loops.

Registry::

    from repro.runtime.backends import instantiate_backend, available_backends
    backend = instantiate_backend("threaded", workers=4)

Four backends: ``serial`` (the scalar reference walk), ``vectorized``
(whole subranges as NumPy operations), ``threaded`` (chunks on a thread
pool) and ``process`` (chunks on a persistent pool of forked workers over
shared memory). Which backend a run uses is the planner's decision
(:mod:`repro.plan.planner` resolves ``ExecutionOptions.backend``, ``"auto"``
included); the executor instantiates ``plan.backend`` from this registry.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.runtime.backends.base import (
    ExecutionBackend,
    ExecutionState,
    equation_is_vector_safe,
)
from repro.runtime.backends.process import ProcessBackend
from repro.runtime.backends.serial import SerialBackend
from repro.runtime.backends.threaded import ThreadedBackend, free_threading_active
from repro.runtime.backends.vectorized import VectorizedBackend

BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    VectorizedBackend.name: VectorizedBackend,
    ThreadedBackend.name: ThreadedBackend,
    ProcessBackend.name: ProcessBackend,
}


def available_backends() -> list[str]:
    return sorted(BACKENDS)


def instantiate_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Registry lookup: the backend class registered under ``name``."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ExecutionError(
            f"unknown execution backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return cls(workers=workers)


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ExecutionState",
    "ProcessBackend",
    "SerialBackend",
    "ThreadedBackend",
    "VectorizedBackend",
    "available_backends",
    "equation_is_vector_safe",
    "free_threading_active",
    "instantiate_backend",
]
