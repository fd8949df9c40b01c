"""The ``repro serve`` / ``repro client`` commands, driven as real
subprocesses over a unix socket — the same round trip CI's bench-smoke
runs."""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.paper import (
    RELAXATION_GAUSS_SEIDEL_SOURCE,
    RELAXATION_JACOBI_SOURCE,
)
from repro.core.recurrences import MIXED_SOURCE, SCAN_SOURCE

REPO = Path(__file__).resolve().parents[2]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _client(*argv, sock):
    return subprocess.run(
        [sys.executable, "-m", "repro", "client", *argv, "--socket", sock],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )


@contextlib.contextmanager
def _serving(tmp_path, source, *flags):
    # unix socket paths are capped (~108 bytes); keep it in a short tmp dir
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    module = tmp_path / "module.ps"
    module.write_text(source)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(module),
            "--socket", sock, *flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        deadline = time.monotonic() + 120
        while not os.path.exists(sock):
            if proc.poll() is not None:
                raise AssertionError(
                    f"serve died before binding: {proc.stderr.read()}"
                )
            if time.monotonic() > deadline:
                raise AssertionError("serve never bound its socket")
            time.sleep(0.1)
        yield proc, sock
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=30)
        proc.stdout.close()
        proc.stderr.close()


@pytest.fixture()
def daemon_proc(tmp_path):
    with _serving(
        tmp_path, RELAXATION_JACOBI_SOURCE, "--warm", "M=6", "--warm", "maxK=2"
    ) as served:
        yield served


def test_full_round_trip_and_clean_shutdown(daemon_proc):
    proc, sock = daemon_proc

    out = _client("ping", sock=sock)
    assert out.returncode == 0 and out.stdout.strip() == "pong"

    out = _client("modules", sock=sock)
    assert out.stdout.split() == ["Relaxation"]

    out = _client(
        "run", "Relaxation", "--set", "M=6", "--set", "maxK=2", sock=sock
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("newA =")

    out = _client("stats", sock=sock)
    stats = json.loads(out.stdout)
    assert stats["runs"] >= 1

    out = _client("shutdown", sock=sock)
    assert out.returncode == 0, out.stderr
    assert proc.wait(timeout=60) == 0, "serve must exit 0 after shutdown"
    assert "serving on" in proc.stdout.read()


def test_client_error_paths(daemon_proc):
    proc, sock = daemon_proc

    out = _client("run", "Nope", "--set", "M=6", sock=sock)
    assert out.returncode == 1
    assert "unknown module" in out.stderr

    # daemon must still be alive and serving after the bad request
    out = _client("ping", sock=sock)
    assert out.stdout.strip() == "pong"


def test_client_without_daemon_reports_transport_error(tmp_path):
    out = _client("ping", sock=str(tmp_path / "nothing.sock"))
    assert out.returncode == 1
    assert "cannot connect" in out.stderr


def test_serve_compiles_with_hyperplane(tmp_path):
    """``repro serve --hyperplane`` serves the section-4 transformed
    module, as ``repro compile --hyperplane`` would emit it."""
    source = RELAXATION_GAUSS_SEIDEL_SOURCE
    with _serving(tmp_path, source, "--hyperplane") as (_, sock):
        assert _client("modules", sock=sock).stdout.split() == ["RelaxationHyper"]
        out = _client(
            "run", "RelaxationHyper", "--set", "M=6", "--set", "maxK=2", sock=sock
        )
        assert out.returncode == 0, out.stderr


def test_serve_compiles_with_merge(tmp_path):
    """``repro serve --merge``: merged nests are what fission splits."""
    with _serving(tmp_path, MIXED_SOURCE, "--merge") as (_, sock):
        out = _client(
            "plan", "Mixed", "--set", "n=200000",
            "--backend", "threaded", "--workers", "2", sock=sock,
        )
        assert out.returncode == 0, out.stderr
        # the three recurrences are one merged loop (unmerged: three)
        assert out.stdout.count("loop I:") == 1


def test_client_set_parses_by_the_declared_type(tmp_path):
    """``repro client run|plan --set`` asks the daemon for the signature,
    so a real-valued parameter parses exactly as ``repro run`` parses it."""
    with _serving(tmp_path, SCAN_SOURCE) as (_, sock):
        out = _client("run", "Scan", "--set", "n=6", "--set", "a=0.5", sock=sock)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("Y =")
        out = _client("plan", "Scan", "--set", "n=6", "--set", "a=0.5", sock=sock)
        assert out.returncode == 0, out.stderr
        out = _client("run", "Scan", "--set", "n=6", "--set", "a=half", sock=sock)
        assert out.returncode == 1
        assert "--set a: 'half' is not a valid real" in out.stderr
