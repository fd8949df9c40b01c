"""Arrays of finished runs are reused — only once nobody holds them.

From its second run on, a plan on any backend takes every array of
128 KiB or more from the backend's :class:`~repro.runtime.values.BufferStore`.
The contract these tests pin: a result's bytes are the caller's while *any*
view of them is alive (the array, a slice, a ``memoryview``, a transpose);
once the last one is gone the buffer serves a later run, which then touches
no new page. The suite-wide poison fixture (``tests/conftest.py``) overwrites
every recycled buffer that is handed out without a zero-fill, so a kernel
that skipped an element could not pass on the previous run's answer.
"""

import resource
import sys
import threading

import numpy as np
import pytest

from repro.core.pipeline import compile_source
from repro.core.recurrences import (
    COUPLED_SOURCE,
    MIXED_SOURCE,
    SCAN_SOURCE,
    coupled_args,
    mixed_args,
    scan_args,
)
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import native_supported
from repro.runtime.values import RECYCLE_MIN_BYTES, BufferStore
from repro.serve import Session

from tests.runtime.test_total_definition import TALLSKINNY_SOURCE

IN_PROCESS = ["serial", "vectorized", "threaded"]
TIERS = ["native", "numpy"]
#: 160 KB of reals: above the store's threshold, small enough for the NumPy
#: tier's Python loops
N = 20000

needs_toolchain = pytest.mark.skipif(
    not native_supported(), reason="no C compiler / cffi on this machine"
)


def _session(backend: str = "serial", tier: str = "native") -> Session:
    return Session(ExecutionOptions(backend=backend, workers=2, kernel_tier=tier))


def _store(session: Session) -> BufferStore:
    (backend,) = session._backends.values()
    return backend.store


def _reference(source: str, args: dict) -> dict:
    """The tree-walking evaluator on the serial backend."""
    analyzed = compile_source(source).analyzed
    return execute_module(
        analyzed, dict(args),
        options=ExecutionOptions(backend="serial", use_kernels=False),
    )


def _owner_addresses(store: BufferStore) -> set[int]:
    return {owner.ctypes.data for owner in store._owners}


@pytest.fixture(scope="module")
def scan_cases():
    """Two inputs and their evaluator answers: runs alternate between them,
    so a stale buffer never already holds the right answer."""
    cases = []
    for seed in (11, 12):
        args = scan_args(N, seed=seed)
        cases.append((args, _reference(SCAN_SOURCE, args)["Y"].tobytes()))
    return cases


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("backend", IN_PROCESS)
class TestOwnership:
    def test_a_held_result_survives_twenty_later_runs(self, backend, tier, scan_cases):
        with _session(backend, tier) as session:
            served = session.load(SCAN_SOURCE)
            first = session.run(served, scan_cases[0][0])["Y"]
            assert first.tobytes() == scan_cases[0][1]
            for i in range(1, 21):
                args, expected = scan_cases[i % 2]
                assert session.run(served, args)["Y"].tobytes() == expected, i
                assert first.tobytes() == scan_cases[0][1], i
            stats = session.stats()
        assert stats.storage_bytes_recycled > stats.storage_bytes_fresh > 0

    @pytest.mark.parametrize(
        "derive",
        [lambda y: y[100:200], memoryview, lambda y: y.T],
        ids=["slice", "memoryview", "transpose"],
    )
    def test_any_view_of_a_result_keeps_its_bytes(self, backend, tier, scan_cases, derive):
        """Only something *derived* from the result stays alive; the result
        array itself is dropped before the next run."""
        with _session(backend, tier) as session:
            served = session.load(SCAN_SOURCE)
            session.run(served, scan_cases[0][0])  # run 2 on is recycled
            held = derive(session.run(served, scan_cases[0][0])["Y"])
            snapshot = np.asarray(held).tobytes()
            for i in range(20):
                args, expected = scan_cases[(i + 1) % 2]
                assert session.run(served, args)["Y"].tobytes() == expected, i
                assert np.asarray(held).tobytes() == snapshot, i

    def test_a_dropped_result_is_the_next_runs_storage(self, backend, tier, scan_cases):
        with _session(backend, tier) as session:
            served = session.load(SCAN_SOURCE)
            session.run(served, scan_cases[0][0])
            out = session.run(served, scan_cases[0][0])["Y"]
            store = _store(session)
            assert not out.flags.owndata and out.base is not None
            assert out.ctypes.data in _owner_addresses(store)
            before, fresh = _owner_addresses(store), store.fresh
            del out
            for i in range(3):
                args, expected = scan_cases[(i + 1) % 2]
                out = session.run(served, args)["Y"]
                assert out.tobytes() == expected
                assert out.ctypes.data in before
                del out
            assert store.fresh == fresh and _owner_addresses(store) == before


@needs_toolchain
@pytest.mark.parametrize(
    "source, make_args",
    [(SCAN_SOURCE, scan_args), (COUPLED_SOURCE, coupled_args), (MIXED_SOURCE, mixed_args)],
    ids=["scan", "coupled", "mixed"],
)
def test_a_warm_run_touches_no_new_page(source, make_args):
    """749-1140 minor faults per run before the store; the third run on,
    none to speak of (the counter is exact; 50 leaves room for the
    interpreter's own small allocations)."""
    args = make_args(200000)
    with _session() as session:
        served = session.load(source)
        faults = []
        for _ in range(6):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            session.run(served, args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[2:]) < 50, faults


def test_a_never_defined_halo_reads_zero_from_a_dirty_buffer():
    """``tallskinny`` never defines the rim of ``A`` and ``newA``; both are
    zero-filled, and stay so when the bytes they get are a previous run's."""
    sizes = {"r": 2, "c": 4100, "maxK": 2}
    args = {"InitialA": np.random.default_rng(4).random((4, 4102)) + 1.0, **sizes}
    expected = _reference(TALLSKINNY_SOURCE, args)["newA"]
    assert expected.nbytes >= RECYCLE_MIN_BYTES
    with _session() as session:
        served = session.load(TALLSKINNY_SOURCE)
        for _ in range(2):
            session.run(served, args)
        store = _store(session)
        for owner in store._owners:
            owner[...] = 0xFF
        recycled = store.recycled
        out = session.run(served, args)["newA"]
        assert store.recycled - recycled >= out.nbytes
    assert out.tobytes() == expected.tobytes()
    assert not out[0].any() and not out[-1].any()
    assert not out[:, 0].any() and not out[:, -1].any()


def test_concurrent_runs_on_one_slot_never_share_an_owner(scan_cases):
    """More threads than cores, a short switch interval, results held across
    a barrier while the others run: every thread's answer must still be its
    own afterwards, and no two live results may sit on one owner."""
    threads_n, rounds = 8, 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _session("threaded") as session:
            served = session.load(SCAN_SOURCE)
            session.run(served, scan_cases[0][0])
            live: list = [None] * threads_n
            failures: list[str] = []
            barrier = threading.Barrier(threads_n)

            def work(i: int) -> None:
                args, expected = scan_cases[i % 2]
                for r in range(rounds):
                    live[i] = session.run(served, args)["Y"]
                    barrier.wait(timeout=60)
                    if live[i].tobytes() != expected:
                        failures.append(f"thread {i} round {r}: overwritten")
                    owners = [id(out.base) for out in live]
                    if len(set(owners)) != threads_n:
                        failures.append(f"round {r}: shared owner")
                    barrier.wait(timeout=60)

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not failures, failures[:3]
            assert session.stats().storage_bytes_recycled > 0
    finally:
        sys.setswitchinterval(interval)


def test_idle_bytes_never_exceed_the_largest_run():
    """A sweep over sizes leaves owners no later run fits; at every
    ``end_run`` the idle ones are cut back to what the largest run took."""
    seen: list[tuple[int, int]] = []
    with _session() as session:
        served = session.load(SCAN_SOURCE)
        for n in (50000, 100000, 200000, 400000, 200000, 50000):
            args = scan_args(n)
            for _ in range(3):
                session.run(served, args)
                store = _store(session)
                if "trim" not in vars(store):
                    trim = store.trim

                    def checked(store=store, trim=trim):
                        took = store._taken  # a run that took nothing skips it
                        trim()
                        if took:
                            seen.append((store.held(), store._keep))

                    store.trim = checked
        held = session.stats().storage_bytes_held
    largest = 2 * (8 * 400001 + (64 << 10))  # S and Y, rounded up to an owner
    assert seen and all(idle <= keep <= largest for idle, keep in seen), seen
    assert held <= 2 * largest


def test_a_plan_run_once_retains_nothing():
    with _session() as session:
        for source, make_args in ((SCAN_SOURCE, scan_args), (COUPLED_SOURCE, coupled_args)):
            out = session.run(session.load(source), make_args(200000))
            assert all(v.flags.owndata for v in out.values())
        assert _store(session)._owners == []
        stats = session.stats()
    assert stats.storage_bytes_fresh == stats.storage_bytes_recycled == 0
    assert stats.storage_bytes_held == 0


def test_without_a_gil_nothing_is_recycled(monkeypatch, scan_cases):
    """Reference counts are an ownership proof only under the GIL."""
    monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False, raising=False)
    args, expected = scan_cases[0]
    with _session() as session:
        served = session.load(SCAN_SOURCE)
        for _ in range(3):
            out = session.run(served, args)["Y"]
            assert out.flags.owndata and out.tobytes() == expected
        assert _store(session)._owners == []
        stats = session.stats()
    assert stats.storage_bytes_fresh == stats.storage_bytes_recycled == 0


def test_small_arrays_are_left_to_malloc():
    args = scan_args(1000)
    with _session() as session:
        served = session.load(SCAN_SOURCE)
        for _ in range(3):
            assert session.run(served, args)["Y"].flags.owndata
        assert _store(session)._owners == []


def test_explain_says_where_each_arrays_storage_comes_from():
    result = compile_source(SCAN_SOURCE)
    big = result.plan({"n": 200000}, ExecutionOptions(backend="serial")).explain()
    assert "  Y: uninitialised, every element is defined; recycled between runs" in big
    small = result.plan({"n": 100}, ExecutionOptions(backend="serial")).explain()
    assert "; below 128 KiB: left to malloc" in small
