"""Process-backend platform behaviour: spawn-only platforms fail loudly,
and shared-memory segments never outlive a run — even a failing one.

The historical bugs: on platforms without the fork start method (macOS's
default, Windows) the process backends half-degraded — ``make_storage``
silently fell back to private arrays while the pool path would crash with
``AttributeError: 'NoneType' object has no attribute 'Queue'`` — and a
backend was trusted to unlink its ``SharedMemory`` segments only on the
success path. These tests pin the fixes by monkeypatching
``_fork_available`` and by spying on every segment create/unlink.
"""

import numpy as np
import pytest

import repro.runtime.backends.process as process_mod
from repro.core.paper import jacobi_analyzed
from repro.errors import ExecutionError
from repro.ps.parser import parse_program
from repro.ps.semantics import analyze_program
from repro.runtime.backends import instantiate_backend
from repro.runtime.executor import (
    ExecutionOptions,
    execute_module,
    execute_program_module,
)


@pytest.fixture()
def spawn_only(monkeypatch):
    """Simulate a platform whose only start methods are spawn-family."""
    monkeypatch.setattr(process_mod, "_fork_available", lambda: False)


class TestSpawnOnlyPlatforms:
    def test_backend_construction_fails_clearly(self, spawn_only):
        with pytest.raises(ExecutionError, match="fork.*start method"):
            instantiate_backend("process", workers=4)

    def test_explicit_backend_names_the_platform(self, spawn_only):
        import sys

        with pytest.raises(ExecutionError, match=sys.platform):
            instantiate_backend("process", workers=4)

    def test_explicit_run_fails_not_attribute_errors(self, spawn_only):
        """--backend process must raise the readable error, never the old
        AttributeError out of _ensure_pool."""
        analyzed = jacobi_analyzed()
        rng = np.random.default_rng(0)
        args = {"InitialA": rng.random((6, 6)), "M": 4, "maxK": 3}
        with pytest.raises(ExecutionError, match="fork"):
            execute_module(
                analyzed, args,
                options=ExecutionOptions(backend="process", workers=4),
            )

    def test_auto_never_selects_process(self, spawn_only):
        """The planner's auto pool consults the same ``_fork_available``
        probe as the backends — one monkeypatch covers both layers — and
        drops the process backend, so auto runs fine on a spawn-only
        platform."""
        from repro.plan.planner import build_plan
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        plan = build_plan(
            analyzed, flow,
            ExecutionOptions(backend="auto", workers=8),
            {"M": 64, "maxK": 8}, cpu_count=8,
        )
        assert plan.backend != "process"

    def test_pinned_plan_fails_clearly(self, spawn_only):
        from repro.plan.planner import build_plan
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        with pytest.raises(ExecutionError, match="fork.*start method"):
            build_plan(
                analyzed, flow,
                ExecutionOptions(backend="process", workers=4),
                {"M": 8, "maxK": 3},
            )

    def test_compare_plans_skips_process_backends(self, spawn_only):
        """calibrate()/compare_plans must measure the runnable backends
        instead of dying on the process pin."""
        from repro.machine.report import compare_plans
        from repro.schedule.scheduler import schedule_module

        analyzed = jacobi_analyzed()
        flow = schedule_module(analyzed)
        rng = np.random.default_rng(3)
        args = {"InitialA": rng.random((6, 6)), "M": 4, "maxK": 3}
        cmp = compare_plans(analyzed, flow, args, workers=2, repeats=1)
        measured = {r["backend"] for r in cmp.rows}
        assert measured
        assert "process" not in measured


#: the index-dependent module call is vector-unsafe and non-kernelizable,
#: so chunk workers run the scalar evaluator per element — whose
#: range-checked A[I+5] read raises mid-wavefront *inside the workers*
#: (an affine read on the vector path would be silently clipped instead)
FAILING_SOURCE = """\
Id: module (x: real): [y: real]; define y = x; end Id;
Use: module (A: array[1 .. n] of real; n: int): [B: array[1 .. n] of real];
type I = 1 .. n;
define B[I] = Id(A[I + 5] * I);
end Use;
"""


class _SpySharedMemory(process_mod.shared_memory.SharedMemory):
    """Counts creates and unlinks so a test can assert zero leaks."""

    created: list[str] = []
    unlinked: list[str] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if kwargs.get("create"):
            _SpySharedMemory.created.append(self.name)

    def unlink(self):
        _SpySharedMemory.unlinked.append(self.name)
        super().unlink()


@pytest.mark.skipif(
    not process_mod._fork_available(), reason="fork unavailable"
)
class TestSharedMemoryCleanup:
    def test_failing_run_leaves_no_segments(self, monkeypatch):
        """A run that raises mid-wavefront must still unlink every
        SharedMemory segment it created."""
        _SpySharedMemory.created = []
        _SpySharedMemory.unlinked = []
        monkeypatch.setattr(
            process_mod.shared_memory, "SharedMemory", _SpySharedMemory
        )
        program = analyze_program(parse_program(FAILING_SOURCE))
        args = {"A": np.arange(1.0, 9.0), "n": 8}
        with pytest.raises(ExecutionError, match="out of range"):
            execute_program_module(
                program, "Use", args,
                options=ExecutionOptions(backend="process", workers=4),
            )
        assert _SpySharedMemory.created, "expected shared-memory storage"
        leaked = set(_SpySharedMemory.created) - set(_SpySharedMemory.unlinked)
        assert not leaked

    def test_successful_run_leaves_no_segments(self, monkeypatch):
        _SpySharedMemory.created = []
        _SpySharedMemory.unlinked = []
        monkeypatch.setattr(
            process_mod.shared_memory, "SharedMemory", _SpySharedMemory
        )
        analyzed = jacobi_analyzed()
        rng = np.random.default_rng(1)
        args = {"InitialA": rng.random((8, 8)), "M": 6, "maxK": 4}
        execute_module(
            analyzed, args,
            options=ExecutionOptions(backend="process", workers=4),
        )
        assert _SpySharedMemory.created
        leaked = set(_SpySharedMemory.created) - set(_SpySharedMemory.unlinked)
        assert not leaked
