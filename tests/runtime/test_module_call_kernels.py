"""Index-independent module calls compile into kernels.

A module call whose arguments never mention the equation's loop indices
evaluates to one value per invocation; binding the execution's ``call_fn``
through the kernel cache's call box lets such equations leave the
evaluator — and stops them from forcing their whole nest onto the
per-element fallback. Index-*dependent* calls still reject. ``Offset`` has a
loop of its own, so the front end does not inline its calls (a loop-free
scalar callee would be inlined, leaving no call to compile).
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.plan.planner import forced_plan
from repro.ps.parser import parse_module, parse_program
from repro.ps.semantics import analyze_module, analyze_program
from repro.runtime.executor import (
    ExecutionOptions,
    execute_module,
    execute_program_module,
)
from repro.runtime.kernels import KernelCache, kernelizable, nest_unfusable_reason
from repro.schedule.scheduler import schedule_module

PROGRAM = """\
Offset: module (base: real): [y: real];
type
    K = 1 .. 1;
var
    P: array [1 .. 1] of real;
define
    P[K] = base * 3.0 + 1.0;
    y = P[1];
end Offset;

Grid: module (A: array[1 .. n, 1 .. n] of real; base: real; n: int):
      [B: array[1 .. n, 1 .. n] of real];
type
    I = 1 .. n; J = 1 .. n;
define
    B[I, J] = A[I, J] + Offset(base);
end Grid;
"""

INDEXED_PROGRAM = """\
Offset: module (base: real): [y: real];
type
    K = 1 .. 1;
var
    P: array [1 .. 1] of real;
define
    P[K] = base * 3.0 + 1.0;
    y = P[1];
end Offset;

Grid: module (A: array[1 .. n, 1 .. n] of real; n: int):
      [B: array[1 .. n, 1 .. n] of real];
type
    I = 1 .. n; J = 1 .. n;
define
    B[I, J] = A[I, J] + Offset(I * 1.0);
end Grid;
"""


def _program(source):
    program = analyze_program(parse_program(source))
    return program, program["Grid"]


class TestKernelizability:
    def test_index_independent_call_kernelizes(self):
        _, grid = _program(PROGRAM)
        eq = grid.equations[0]
        assert kernelizable(eq, grid)

    def test_index_dependent_call_rejected(self):
        _, grid = _program(INDEXED_PROGRAM)
        eq = grid.equations[0]
        assert not kernelizable(eq, grid)

    def test_call_nest_becomes_fusable(self):
        """The ROADMAP follow-up: module-call equations no longer force
        the whole nest onto the evaluator fallback."""
        _, grid = _program(PROGRAM)
        flow = schedule_module(grid)
        outer = next(d for d in flow.loops() if d.parallel)
        assert nest_unfusable_reason(outer, grid) is None

    def test_index_dependent_nest_still_unfusable(self):
        _, grid = _program(INDEXED_PROGRAM)
        flow = schedule_module(grid)
        outer = next(d for d in flow.loops() if d.parallel)
        assert "not kernelizable" in nest_unfusable_reason(outer, grid)


class TestExecutionParity:
    def _args(self, n=6):
        rng = np.random.default_rng(11)
        return {"A": rng.random((n, n)), "base": 0.5, "n": n}

    def _reference(self, program, args):
        return execute_program_module(
            program, "Grid", args,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "threaded"])
    def test_kernelized_call_parity(self, backend):
        program, _ = _program(PROGRAM)
        args = self._args()
        expected = self._reference(program, args)
        out = execute_program_module(
            program, "Grid", args,
            options=ExecutionOptions(backend=backend, workers=2),
        )["B"]
        assert np.array_equal(out, expected)

    def test_forced_nest_with_call_parity(self):
        program, grid = _program(PROGRAM)
        flow = schedule_module(grid)
        args = self._args()
        expected = self._reference(program, args)
        options = ExecutionOptions(backend="serial")
        plan = forced_plan(
            analyze_program(parse_program(PROGRAM))["Grid"], flow, "serial",
            options, {"n": 6}, default="nest",
        )
        out = execute_module(
            grid, args, flowchart=flow, options=options, program=program,
            plan=plan,
        )["B"]
        assert np.array_equal(out, expected)

    def test_index_dependent_call_still_correct(self):
        program, _ = _program(INDEXED_PROGRAM)
        rng = np.random.default_rng(12)
        args = {"A": rng.random((5, 5)), "n": 5}
        expected = execute_program_module(
            program, "Grid", args,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        out = execute_program_module(
            program, "Grid", args,
            options=ExecutionOptions(backend="vectorized"),
        )["B"]
        assert np.array_equal(out, expected)


class TestCallBox:
    def test_unbound_box_raises_like_evaluator(self):
        """A kernel whose call box was never bound reports the same
        'no module-call handler' error the evaluator gives."""
        _, grid = _program(PROGRAM)
        flow = schedule_module(grid)
        cache = KernelCache(grid, flow)
        eq = grid.equations[0]
        kernel = cache.kernel_for(eq, vector=False, use_windows=False)
        assert kernel is not None
        from repro.runtime.values import RuntimeArray

        data = {
            "A": RuntimeArray.from_numpy(
                "A", np.zeros((3, 3)), [(1, 3), (1, 3)]
            ),
            "B": RuntimeArray.from_numpy(
                "B", np.zeros((3, 3)), [(1, 3), (1, 3)]
            ),
            "base": 0.5,
            "n": 3,
        }
        with pytest.raises(ExecutionError, match="no module-call handler"):
            kernel(data, {"I": 1, "J": 1})

    def test_module_without_calls_unaffected(self):
        src = """\
Plain: module (A: array[1 .. n] of real; n: int):
       [B: array[1 .. n] of real];
type
    I = 1 .. n;
define
    B[I] = A[I] * 2.0;
end Plain;
"""
        analyzed = analyze_module(parse_module(src))
        flow = schedule_module(analyzed)
        rng = np.random.default_rng(1)
        args = {"A": rng.random(8), "n": 8}
        ref = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial", use_kernels=False),
        )["B"]
        out = execute_module(
            analyzed, args, flowchart=flow,
            options=ExecutionOptions(backend="serial"),
        )["B"]
        assert np.array_equal(out, ref)
