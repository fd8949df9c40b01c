"""Serial backend: the scalar reference semantics.

A ``DOALL`` is semantically unordered; under a serial plan it runs
low-to-high like a ``DO``, one scalar element evaluation at a time — or,
when the planner fused the nest, as one compiled nest kernel producing the
identical element order and stores. Every other backend is cross-checked
against this one (with kernels off, the pure tree-walking evaluator).
"""

from __future__ import annotations

from repro.runtime.backends.base import ExecutionBackend


class SerialBackend(ExecutionBackend):
    name = "serial"
