"""Tests for the top-level compile pipeline and the public API surface."""

import numpy as np
import pytest

import repro
from repro.core.paper import (
    RELAXATION_GAUSS_SEIDEL_SOURCE,
    RELAXATION_JACOBI_SOURCE,
)
from repro.core.pipeline import CompilerOptions, compile_source


class TestCompileSource:
    def test_default_pipeline(self):
        result = compile_source(RELAXATION_JACOBI_SOURCE)
        assert result.analyzed.name == "Relaxation"
        assert result.c_source and "void Relaxation(" in result.c_source
        assert result.python_source and "def Relaxation(" in result.python_source
        assert ("DO", "K") in result.flowchart.loop_kinds()

    def test_module_texts_are_generated_on_access_not_at_compile(
        self, monkeypatch
    ):
        import repro.core.pipeline as pipeline

        calls = []
        monkeypatch.setattr(
            pipeline, "generate_c", lambda *a, **k: calls.append("c") or "C!"
        )
        monkeypatch.setattr(
            pipeline, "generate_python",
            lambda *a, **k: calls.append("py") or "P!",
        )
        result = compile_source(RELAXATION_JACOBI_SOURCE)
        result.run({"InitialA": np.zeros((4, 4)), "M": 2, "maxK": 2})
        assert calls == []  # neither compiling nor running reads the texts
        assert result.c_source == result.c_source == "C!"
        assert result.python_source == "P!"
        assert calls == ["c", "py"]  # each generated once, then remembered
        off = compile_source(
            RELAXATION_JACOBI_SOURCE,
            CompilerOptions(emit_c=False, emit_python=False),
        )
        assert off.c_source is None and off.python_source is None
        assert calls == ["c", "py"]

    def test_run(self):
        result = compile_source(RELAXATION_JACOBI_SOURCE)
        rng = np.random.default_rng(0)
        m, maxk = 4, 3
        out = result.run({"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk})
        assert out["newA"].shape == (m + 2, m + 2)

    def test_compiled_python_matches_run(self):
        result = compile_source(RELAXATION_JACOBI_SOURCE)
        fn = result.compile_python()
        rng = np.random.default_rng(1)
        m, maxk = 4, 4
        initial = rng.random((m + 2, m + 2))
        out = result.run({"InitialA": initial, "M": m, "maxK": maxk})
        np.testing.assert_allclose(fn(initial, m, maxk), out["newA"])

    def test_hyperplane_option(self):
        result = compile_source(
            RELAXATION_GAUSS_SEIDEL_SOURCE, CompilerOptions(hyperplane=True)
        )
        assert result.hyperplane_result is not None
        assert result.hyperplane_result.pi == (2, 1, 1)
        assert result.analyzed.name == "RelaxationHyper"
        # The transformed pipeline still runs and matches the original.
        rng = np.random.default_rng(2)
        m, maxk = 4, 4
        initial = rng.random((m + 2, m + 2))
        plain = compile_source(RELAXATION_GAUSS_SEIDEL_SOURCE)
        a = plain.run({"InitialA": initial, "M": m, "maxK": maxk})["newA"]
        b = result.run({"InitialA": initial, "M": m, "maxK": maxk})["newA"]
        np.testing.assert_allclose(a, b)

    def test_merge_option(self):
        src = (
            "T: module (X: array[I] of real):\n"
            "   [A: array[I] of real; B: array[I] of real];\n"
            "type I = 0 .. 7;\n"
            "define A = X + 1; B = X * 2;\nend T;"
        )
        merged = compile_source(src, CompilerOptions(merge_loops=True))
        plain = compile_source(src)
        assert len(merged.flowchart.loops()) < len(plain.flowchart.loops())

    def test_windows_disabled(self):
        result = compile_source(
            RELAXATION_JACOBI_SOURCE, CompilerOptions(use_windows=False)
        )
        assert "% 2" not in result.c_source

    def test_codegen_failure_becomes_warning(self):
        src = (
            "T: module (p: record x: real end): [y: real];\n"
            "define y = p.x;\nend T;"
        )
        result = compile_source(src)
        assert result.c_source is None
        assert any("C generation skipped" in w for w in result.warnings)
        # The interpreter still runs it.
        assert result.run({"p.x": 2.5})["y"] == 2.5


class TestPublicApi:
    def test_lazy_exports(self):
        assert callable(repro.parse_module)
        assert callable(repro.compile_source)
        assert callable(repro.schedule_module)
        assert callable(repro.hyperplane_transform)
        assert callable(repro.execute_module)
        assert isinstance(repro.RELAXATION_JACOBI_SOURCE, str)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.nonexistent_thing

    def test_quickstart_docstring_flow(self):
        result = repro.compile_source(repro.RELAXATION_JACOBI_SOURCE)
        assert "DOALL" in result.flowchart.pretty()
