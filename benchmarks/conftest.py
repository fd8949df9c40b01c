"""Shared helpers for the benchmark/reproduction harness.

Every bench regenerates one paper artifact (figure, table, or derivation),
asserts its structure, writes the regenerated text to ``benchmarks/out/``
(so the reproduction is inspectable without re-running), and benchmarks the
implementing code path with pytest-benchmark.
"""

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="session", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    """Keep the native tier's compiled artifacts out of the user's real
    ``~/.cache`` during benchmark runs (same isolation as tests/)."""
    import os

    path = tmp_path_factory.mktemp("native-cache")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


@pytest.fixture()
def artifact():
    """Writer for regenerated paper artifacts: artifact(name, text)."""

    def write(name: str, text: str) -> pathlib.Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        return path

    return write
