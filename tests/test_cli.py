"""CLI tests (direct invocation of repro.cli.main)."""

import hashlib
import textwrap

import numpy as np
import pytest

from repro.cli import main
from repro.core.paper import RELAXATION_GAUSS_SEIDEL_SOURCE, RELAXATION_JACOBI_SOURCE
from repro.core.recurrences import SCAN_SOURCE

from tests.runtime.test_backends import RETIRED_BACKENDS


@pytest.fixture()
def jacobi_file(tmp_path):
    path = tmp_path / "relaxation.ps"
    path.write_text(RELAXATION_JACOBI_SOURCE)
    return str(path)


@pytest.fixture()
def scan_file(tmp_path):
    path = tmp_path / "scan.ps"
    path.write_text(SCAN_SOURCE)
    return str(path)


@pytest.fixture()
def gs_file(tmp_path):
    path = tmp_path / "gs.ps"
    path.write_text(RELAXATION_GAUSS_SEIDEL_SOURCE)
    return str(path)


class TestSchedule:
    def test_prints_figure6(self, jacobi_file, capsys):
        assert main(["schedule", jacobi_file]) == 0
        out = capsys.readouterr().out
        assert "DO K (" in out
        assert "DOALL I (" in out
        assert "window of 2" in out

    def test_missing_file(self, capsys):
        assert main(["schedule", "/nonexistent.ps"]) == 1
        assert "error" in capsys.readouterr().err


class TestPlan:
    def test_prints_auto_plan(self, jacobi_file, capsys):
        assert main(["plan", jacobi_file, "--set", "M=8", "--set", "maxK=4",
                     "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "plan Relaxation:" in out
        assert "[auto]" in out
        assert "trip 10" in out

    def test_pinned_backend_plan(self, jacobi_file, capsys):
        assert main(["plan", jacobi_file, "--backend", "serial",
                     "--set", "M=8", "--set", "maxK=4"]) == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out
        assert "[pinned]" in out
        assert "nest" in out

    def test_cycles_flag(self, jacobi_file, capsys):
        assert main(["plan", jacobi_file, "--set", "M=8", "--set", "maxK=4",
                     "--cycles"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_no_kernels_plan(self, jacobi_file, capsys):
        assert main(["plan", jacobi_file, "--no-kernels",
                     "--set", "M=8", "--set", "maxK=4"]) == 0
        out = capsys.readouterr().out
        assert "kernels=off" in out
        assert "[kernel=evaluator (kernels off)]" in out

    def test_kernel_tier_flag(self, jacobi_file, capsys):
        assert main(["plan", jacobi_file, "--kernel-tier", "numpy",
                     "--backend", "serial",
                     "--set", "M=8", "--set", "maxK=4"]) == 0
        out = capsys.readouterr().out
        assert "kernels=numpy" in out
        assert "kernel=native" not in out
        assert main(["plan", jacobi_file, "--backend", "serial",
                     "--set", "M=8", "--set", "maxK=4"]) == 0
        assert "kernels=native" in capsys.readouterr().out

    def test_plan_save_persists_artifacts(
        self, jacobi_file, capsys, tmp_path, monkeypatch
    ):
        cache = tmp_path / "native-cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        assert main(["plan", jacobi_file, "--backend", "serial",
                     "--set", "M=8", "--set", "maxK=4", "--save"]) == 0
        err = capsys.readouterr().err
        assert "saved plan" in err
        saved = list(cache.glob("plans/Relaxation-*/plan.txt"))
        assert len(saved) == 1
        assert "plan Relaxation:" in saved[0].read_text()
        # the plan's one translation unit, one cc line to build it
        unit = saved[0].parent / "Relaxation.c"
        assert unit.read_text().count("\nint k_") == 3  # eq.1, eq.3, eq.2 nests
        assert (saved[0].parent / "build.sh").read_text().count("\ncc ") == 1


class TestGraph:
    def test_text(self, jacobi_file, capsys):
        assert main(["graph", jacobi_file]) == 0
        out = capsys.readouterr().out
        assert "A -> eq.3" in out

    def test_dot(self, jacobi_file, capsys):
        assert main(["graph", "--dot", jacobi_file]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestCompile:
    def test_emit_c(self, jacobi_file, capsys):
        assert main(["compile", jacobi_file, "--emit", "c"]) == 0
        out = capsys.readouterr().out
        assert "A: dimension 0 is virtual: window of 2" in out
        assert "\nint k_" in out and "#include <math.h>" in out

    def test_emit_python(self, jacobi_file, capsys):
        assert main(["compile", jacobi_file, "--emit", "python"]) == 0
        assert "def _kernel(data, env, _nlo, _nhi):" in capsys.readouterr().out

    def test_emit_flowchart(self, jacobi_file, capsys):
        assert main(["compile", jacobi_file, "--emit", "flowchart"]) == 0
        assert "DOALL" in capsys.readouterr().out

    def test_hyperplane_flag(self, gs_file, capsys):
        assert main(["compile", gs_file, "--hyperplane", "--emit", "flowchart"]) == 0
        out = capsys.readouterr().out
        assert "DO Kp (" in out
        assert "DOALL Ip (" in out

    def test_no_windows(self, jacobi_file, capsys):
        assert main(["compile", jacobi_file, "--no-windows"]) == 0
        assert "A: full storage" in capsys.readouterr().out
        assert main(["compile", jacobi_file, "--no-windows",
                     "--emit", "python"]) == 0
        assert "_w_A_0" not in capsys.readouterr().out


#: ``repro transform`` on the paper's Gauss-Seidel module, both schedules
GS_TRANSFORM_REPORT = """\
    recursive array     : A
    dependence vectors  : [(1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, -1), (1, -1, 0)]
    inequalities        : a > 0; c > 0; b > 0; a > c; a > b
    time vector         : (2, 1, 1)
    time equation       : t(A[K, I, J]) = 2K + I + J
    transformation T    : [[2, 1, 1], [1, 0, 0], [0, 1, 0]]
    inverse             : [[0, 1, 0], [0, 0, 1], [1, -2, -1]]
    recurrence window   : 3

    schedule before:
    DOALL I (
        DOALL J (
            eq.1
        )
    )
    DO K (
        DO I (
            DO J (
                eq.3
            )
        )
    )
    DOALL I (
        DOALL J (
            eq.2
        )
    )

    schedule after:
    DO Kp (
        DOALL Ip (
            DOALL Jp (
                eq.1
            )
        )
    )
    DOALL I (
        DOALL J (
            eq.2
        )
    )
"""


class TestTransform:
    def test_report_is_unchanged(self, gs_file, capsys):
        assert main(["transform", gs_file]) == 0
        assert capsys.readouterr().out == textwrap.dedent(GS_TRANSFORM_REPORT)

    def test_report(self, gs_file, capsys):
        assert main(["transform", gs_file]) == 0
        out = capsys.readouterr().out
        assert "time vector         : (2, 1, 1)" in out
        assert "a > 0" in out
        assert "recurrence window   : 3" in out

    def test_emit_module(self, gs_file, capsys):
        assert main(["transform", gs_file, "--emit-module"]) == 0
        assert "RelaxationHyper: module" in capsys.readouterr().out

    def test_non_recursive_array_fails_cleanly(self, gs_file, capsys):
        assert main(["transform", gs_file, "--array", "InitialA"]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_with_random_input(self, jacobi_file, capsys):
        rc = main(["run", jacobi_file, "--set", "M=4", "--set", "maxK=3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "newA =" in captured.out
        assert "filled InitialA" in captured.err

    def test_run_with_loaded_input(self, jacobi_file, tmp_path, capsys):
        m = 4
        arr = np.ones((m + 2, m + 2))
        npy = tmp_path / "init.npy"
        np.save(npy, arr)
        rc = main(
            ["run", jacobi_file, "--set", "M=4", "--set", "maxK=3",
             "--load", f"InitialA={npy}"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "newA =" in out
        # All-ones input is a fixed point of the relaxation.
        assert "1." in out

    def test_serial_and_windows_flags(self, jacobi_file, capsys):
        rc = main(
            ["run", jacobi_file, "--set", "M=3", "--set", "maxK=3",
             "--backend", "serial", "--windows"]
        )
        assert rc == 0

    @pytest.mark.parametrize("backend", ["auto", "serial", "vectorized", "threaded"])
    def test_backend_flag(self, jacobi_file, backend, capsys):
        rc = main(
            ["run", jacobi_file, "--set", "M=3", "--set", "maxK=3",
             "--backend", backend, "--workers", "2"]
        )
        assert rc == 0
        assert "newA =" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "plan"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_refuses_non_positive_counts(
        self, jacobi_file, command, workers, capsys
    ):
        rc = main([command, jacobi_file, "--set", "M=3", "--set", "maxK=3",
                   "--workers", workers])
        assert rc == 1
        assert capsys.readouterr().err.strip().endswith(
            f"error: workers must be a positive integer; got {workers}"
        )

    def test_backend_flag_rejects_unknown(self, jacobi_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", jacobi_file, "--set", "M=3", "--set", "maxK=3",
                  "--backend", "gpu"])

    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_backend_flag_rejects_retired_names(self, jacobi_file, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", jacobi_file, "--set", "M=3", "--set", "maxK=3",
                  "--backend", name])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "'auto', 'serial', 'threaded', 'vectorized')" in err

    def test_plan_rejects_the_retired_process_backend(self, jacobi_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", jacobi_file, "--set", "M=3", "--set", "maxK=3",
                  "--backend", "process"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'process'" in err
        assert "'auto', 'serial', 'threaded', 'vectorized')" in err

    @pytest.mark.parametrize("argv", [
        ["plan", "--allow-reassoc"],
        ["run", "--allow-reassoc"],
        ["serve", "--allow-reassoc"],
        ["plan", "--strategy", "scan"],
        ["run", "--strategy", "scan"],
        ["plan", "--strategy", "pipeline"],
        ["run", "--strategy", "pipeline"],
        ["plan", "--no-collapse"],
        ["run", "--no-collapse"],
        ["serve", "--no-collapse"],
        ["plan", "--strategy", "iterate"],
        ["run", "--strategy", "iterate"],
        ["plan", "--no-fission"],
        ["run", "--no-fission"],
        ["serve", "--no-fission"],
        ["plan", "--strategy", "fission"],
        ["run", "--strategy", "fission"],
        ["plan", "--strategy", "collapse"],
        ["run", "--strategy", "collapse"],
        ["plan", "--kernel-tier", "evaluator"],
        ["run", "--kernel-tier", "evaluator"],
        ["serve", "--kernel-tier", "evaluator"],
        ["plan", "--kernel-tier", "natve"],
    ], ids=[
        "plan-option", "run-option", "serve-option", "plan-scan", "run-scan",
        "plan-pipeline", "run-pipeline", "plan-no-collapse", "run-no-collapse",
        "serve-no-collapse", "plan-iterate", "run-iterate", "plan-no-fission",
        "run-no-fission", "serve-no-fission", "plan-fission", "run-fission",
        "plan-collapse", "run-collapse",
        "plan-evaluator-tier", "run-evaluator-tier", "serve-evaluator-tier",
        "plan-unknown-tier",
    ])
    def test_retired_flags_are_usage_errors(self, jacobi_file, argv, capsys):
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, jacobi_file, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if flags[0] in ("--strategy", "--kernel-tier"):
            assert f"invalid choice: '{flags[1]}'" in err
        else:
            assert "unrecognized arguments: " + flags[0] in err

    def test_bad_set_syntax(self, jacobi_file, capsys):
        assert main(["run", jacobi_file, "--set", "M"]) == 1

    def test_set_parses_by_the_declared_type(self, scan_file, tmp_path, capsys):
        # ``a`` is declared real: 0.5 must arrive as 0.5, not fail int().
        x = np.arange(1.0, 5.0)
        np.save(tmp_path / "x.npy", x)
        rc = main(["run", scan_file, "--set", "n=4", "--set", "a=0.5",
                   "--load", f"X={tmp_path / 'x.npy'}"])
        assert rc == 0
        s, want = 0.0, []
        for v in x:
            s = s * 0.5 + v
            want.append(s * s + v)
        digest = hashlib.sha256(b"<f8 (4,)\n" + np.array(want).tobytes())
        with np.printoptions(precision=6, suppress=True):
            assert capsys.readouterr().out == (
                f"Y =\n{np.array(want)}\nsha256={digest.hexdigest()}\n"
            )

    def test_run_prints_a_digest_of_every_element(self, scan_file, tmp_path, capsys):
        """The printed grid is summarised; the digest line after it covers
        dtype, shape and every byte, so outputs that differ in one element
        out of sight differ there."""
        x = np.zeros(2000)
        outputs = []
        for at in (None, 1000):
            if at is not None:
                x[at] = 1e-9
            np.save(tmp_path / "x.npy", x)
            assert main(["run", scan_file, "--set", "n=2000", "--set", "a=0.5",
                         "--load", f"X={tmp_path / 'x.npy'}"]) == 0
            outputs.append(capsys.readouterr().out)
        grid = [out.rsplit("sha256=", 1)[0] for out in outputs]
        assert grid[0] == grid[1] and outputs[0] != outputs[1]

    @pytest.mark.parametrize("command", ["run", "plan"])
    @pytest.mark.parametrize("pair, needle", [
        ("a=half", "--set a: 'half' is not a valid real"),
        ("n=1.5", "--set n: '1.5' is not a valid int"),
        ("X=3", "parameter 'X' is array-valued"),
    ])
    def test_bad_set_value_names_the_parameter(
        self, scan_file, command, pair, needle, capsys
    ):
        assert main([command, scan_file, "--set", pair]) == 1
        assert needle in capsys.readouterr().err
