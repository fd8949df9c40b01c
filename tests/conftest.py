"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    """Point the native kernel tier's on-disk artifact cache at a
    session-private directory: the suite must not write ``.c``/``.so``
    files into the developer's real ``~/.cache/repro/native``, and no test
    may dlopen a stale artifact left there by an earlier checkout (the
    cache is keyed by source hash, so corruption would be invisible).
    Tests that probe the cache itself override the variable per test."""
    import os

    path = tmp_path_factory.mktemp("native-cache")
    old = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_NATIVE_CACHE", None)
    else:
        os.environ["REPRO_NATIVE_CACHE"] = old


@pytest.fixture(scope="session", autouse=True)
def _poisoned_uninitialised_storage():
    """Fill every array a backend allocates *without* a zero-fill with 0xAB
    bytes, for the whole suite — from ``make_storage`` and from the buffer
    store alike. A run leaves an array uninitialised only on a proof that
    its equations define every element before anything reads it; fresh
    pages happen to be zero, and a recycled buffer usually holds the
    previous run's *correct answer*, so a wrong proof (or a kernel that
    skips an element) would pass unnoticed — poisoned, it shows as a
    mismatch against the evaluator in the differential, parity and
    generated-program suites."""
    import numpy as np

    from repro.runtime.backends.base import ExecutionBackend
    from repro.runtime.backends.process import ProcessBackend
    from repro.runtime.values import BufferStore

    originals = {
        (cls, name): getattr(cls, name)
        for cls, name in (
            (ExecutionBackend, "make_storage"),
            (ProcessBackend, "make_storage"),
            (BufferStore, "take"),
        )
    }
    for (cls, name), make in originals.items():

        def poisoned(self, shape, dtype, zero=True, _make=make):
            storage = _make(self, shape, dtype, zero)
            if not zero:
                storage.view(np.uint8)[...] = 0xAB
            return storage

        setattr(cls, name, poisoned)
    yield
    for (cls, name), make in originals.items():
        setattr(cls, name, make)
