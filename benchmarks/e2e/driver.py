"""Calls into ``repro``'s public API shared by the benchmark process and
its two kinds of child process (``child.py``, ``serve_child.py``).

``repro`` is imported inside the functions, so ``child.py`` can time its
own ``import repro.cli`` after importing this module.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC = REPO_ROOT / "src"


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout (no install step);
    exits with status 2 when the checkout has no ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def open_sessions(workload, **execution_overrides):
    """One ``Session`` per distinct ``CompilerOptions`` of the workload,
    every program loaded under its own name; closed on exit."""
    from repro.core.pipeline import CompilerOptions
    from repro.runtime.executor import ExecutionOptions
    from repro.serve import Session
    from workloads import COMPILER_OPTIONS

    execution = ExecutionOptions(
        **{**workload.execution(), **execution_overrides}
    )
    with contextlib.ExitStack() as stack:
        sessions = {}
        for request in workload.programs():
            if request.compiler not in sessions:
                sessions[request.compiler] = stack.enter_context(
                    Session(
                        execution,
                        CompilerOptions(**COMPILER_OPTIONS[request.compiler]),
                    )
                )
            sessions[request.compiler].load(request.source, name=request.module)
        yield sessions


def run_request(sessions, request):
    return sessions[request.compiler].run(
        request.module, request.args, **request.overrides
    )
