"""Execution substrate: runtime arrays (with window storage), an expression
evaluator (scalar reference semantics and a vectorised NumPy path for DOALL
dimensions), the flowchart interpreter, and the pluggable parallel execution
backends (serial / vectorized / threaded / process)."""

from repro.runtime.backends import available_backends
from repro.runtime.executor import (
    ExecutionOptions,
    execute_module,
    execute_program_module,
)
from repro.runtime.values import RuntimeArray, eval_bound

__all__ = [
    "ExecutionOptions",
    "RuntimeArray",
    "available_backends",
    "eval_bound",
    "execute_module",
    "execute_program_module",
]
