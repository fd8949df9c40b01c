"""Execution substrate: runtime arrays (with window storage), an expression
evaluator (scalar reference semantics and a vectorised NumPy path for DOALL
dimensions), the flowchart interpreter, and the one execution engine that
runs every plan (``serial`` / ``vectorized`` / ``threaded`` are plan labels)."""

from repro.runtime.executor import (
    ExecutionOptions,
    execute_module,
    execute_program_module,
)
from repro.runtime.values import RuntimeArray, eval_bound

__all__ = [
    "ExecutionOptions",
    "RuntimeArray",
    "eval_bound",
    "execute_module",
    "execute_program_module",
]
