"""CLI tests (direct invocation of repro.cli.main)."""

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
        assert "evaluator" in out

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
        assert "void Relaxation(" in out
        assert "/* concurrent for */" in out

    def test_emit_python(self, jacobi_file, capsys):
        assert main(["compile", jacobi_file, "--emit", "python"]) == 0
        assert "def Relaxation(" in capsys.readouterr().out

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
        assert "% 2" not in capsys.readouterr().out


class TestTransform:
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

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "threaded", "process"])
    def test_backend_flag(self, jacobi_file, backend, capsys):
        rc = main(
            ["run", jacobi_file, "--set", "M=3", "--set", "maxK=3",
             "--backend", backend, "--workers", "2"]
        )
        assert rc == 0
        assert "newA =" in capsys.readouterr().out

    def test_backend_flag_rejects_unknown(self, jacobi_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", jacobi_file, "--set", "M=3", "--set", "maxK=3",
                  "--backend", "gpu"])

    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_backend_flag_rejects_retired_names(self, jacobi_file, name, capsys):
        with pytest.raises(SystemExit):
            main(["run", jacobi_file, "--set", "M=3", "--set", "maxK=3",
                  "--backend", name])
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "'process', 'serial', 'threaded', 'vectorized'" in err

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
        with np.printoptions(precision=6, suppress=True):
            assert capsys.readouterr().out == f"Y =\n{np.array(want)}\n"

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
