"""Arguments are borrowed, results are fresh.

A run reads its array arguments in place — PS is single-assignment, so no
lowering can write one — and copies only to convert dtype, byte order or
layout (or, on the process backends, into shared memory). These tests pin
the contract from the caller's side, on every backend x kernel tier x
window mode: the caller's arrays are untouched, read-only arrays are
accepted, awkward layouts give the contiguous answer bit for bit, and no
result ever aliases an argument.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.paper import jacobi_analyzed
from repro.core.recurrences import RECURRENCE_WORKLOADS, SCAN_SOURCE
from repro.runtime.backends import instantiate_backend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.serve import Session

BACKENDS = ["serial", "vectorized", "threaded", "process"]
TIERS = ["native", "numpy", "evaluator"]


def _jacobi_args(m: int = 6, maxk: int = 4, seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    return {"InitialA": rng.random((m + 2, m + 2)), "M": m, "maxK": maxk}


#: (name, analyzed, args) — the recurrence corpus and the paper's Jacobi
WORKLOADS = [
    (name, build(), make_args())
    for name, build, make_args, _key in RECURRENCE_WORKLOADS
] + [("jacobi", jacobi_analyzed(), _jacobi_args())]


def _arrays(args: dict) -> dict[str, np.ndarray]:
    return {k: v for k, v in args.items() if isinstance(v, np.ndarray)}


def _copied(args: dict) -> dict:
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in args.items()}


def _reference(analyzed, args: dict) -> dict:
    """The tree-walking evaluator on the serial backend, on private copies."""
    return execute_module(
        analyzed, _copied(args),
        options=ExecutionOptions(backend="serial", kernel_tier="evaluator"),
    )


def _assert_same_results(out: dict, ref: dict) -> None:
    assert list(out) == list(ref)
    for name, value in ref.items():
        if isinstance(value, np.ndarray):
            assert out[name].dtype == value.dtype
            assert out[name].tobytes() == value.tobytes(), name
        else:
            assert out[name] == value, name


REFERENCES = {name: _reference(analyzed, args) for name, analyzed, args in WORKLOADS}


@pytest.mark.parametrize("use_windows", [False, True], ids=["dense", "windows"])
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_read_only_arguments_are_untouched_and_never_aliased(
    backend, tier, use_windows
):
    options = ExecutionOptions(
        backend=backend, workers=2, kernel_tier=tier, use_windows=use_windows
    )
    for name, analyzed, args in WORKLOADS:
        mine = _copied(args)
        for arr in _arrays(mine).values():
            arr.flags.writeable = False
        out = execute_module(analyzed, mine, options=options)
        _assert_same_results(out, REFERENCES[name])
        for key, arr in _arrays(mine).items():
            assert arr.tobytes() == args[key].tobytes(), (name, key)
            for rname, result in _arrays(out).items():
                assert not np.shares_memory(result, arr), (name, rname, key)
                assert result.flags.writeable and result.flags.c_contiguous


def _awkward(arr: np.ndarray, how: str) -> np.ndarray:
    """The same values in a layout or dtype a kernel cannot read in place."""
    if how == "strided":
        wide = np.repeat(arr, 2, axis=-1)
        wide[..., 1::2] = -7  # garbage between the elements
        return wide[..., ::2]
    if how == "big-endian":
        return arr.astype(arr.dtype.newbyteorder(">"))
    if how == "fortran":
        return np.asfortranarray(arr)
    assert how == "int32"
    return arr.astype(np.int32) if arr.dtype.kind == "i" else arr


@pytest.mark.parametrize("how", ["strided", "big-endian", "fortran", "int32"])
@pytest.mark.parametrize("backend", ["serial", "threaded", "process"])
def test_awkward_arguments_are_converted_bit_exactly(backend, how):
    options = ExecutionOptions(backend=backend, workers=2)
    for name, analyzed, args in WORKLOADS:
        mine = {
            k: _awkward(v, how) if isinstance(v, np.ndarray) else v
            for k, v in args.items()
        }
        before = {k: v.tobytes() for k, v in _arrays(mine).items()}
        out = execute_module(analyzed, mine, options=options)
        _assert_same_results(out, REFERENCES[name])
        assert before == {k: v.tobytes() for k, v in _arrays(mine).items()}


def test_counters_tell_borrowed_from_converted():
    name, analyzed, args = next(w for w in WORKLOADS if w[0] == "isum")
    nbytes = args["X"].nbytes
    backend = instantiate_backend("serial", workers=1)
    options = ExecutionOptions(backend="serial")
    execute_module(analyzed, args, options=options, backend=backend)
    assert backend.counters["arg_bytes_borrowed"] == nbytes
    assert backend.counters["arg_bytes_converted"] == 0
    narrow = {**args, "X": args["X"].astype(np.int32)}
    execute_module(analyzed, narrow, options=options, backend=backend)
    assert backend.counters["arg_bytes_borrowed"] == nbytes
    assert backend.counters["arg_bytes_converted"] == nbytes  # as int64
    backend.close()
    shared = instantiate_backend("process", workers=2)
    execute_module(
        analyzed, args, options=ExecutionOptions(backend="process"), backend=shared
    )
    assert shared.counters["arg_bytes_borrowed"] == 0
    assert shared.counters["arg_bytes_converted"] == nbytes  # into shared memory
    shared.close()


def test_concurrent_runs_may_share_one_argument_object():
    """Two ``Session.run`` calls handed the *same* array object at once:
    both borrow it, neither copies it, both get the serial answer."""
    n = 20000
    x = np.random.default_rng(5).random(n)
    x.flags.writeable = False
    args = {"X": x, "a": 0.97, "n": n}
    with Session(ExecutionOptions(backend="threaded", workers=2)) as session:
        served = session.load(SCAN_SOURCE)
        expected = session.run(served, dict(args), backend="serial")["Y"]
        outs: list = [None] * 4
        start = threading.Barrier(len(outs))

        def work(i: int) -> None:
            start.wait()
            outs[i] = session.run(served, args)["Y"]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(outs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = session.stats()
    for out in outs:
        assert out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, x)
    assert not any(np.shares_memory(a, b) for a in outs for b in outs if a is not b)
    assert stats.arg_bytes_converted == 0
    assert stats.arg_bytes_borrowed == (len(outs) + 1) * x.nbytes


def test_a_warm_run_allocates_nothing_input_sized():
    """``scan`` at n = 50000 on ``serial``: one local (``S``, n + 1 reals)
    and one result (``Y``, n reals) are all the array memory a warm run
    may allocate. The parent also copied ``X`` (zero-fill + assignment)."""
    n = 50000
    args = {"X": np.random.default_rng(1).random(n), "a": 0.97, "n": n}
    with Session(ExecutionOptions(backend="serial")) as session:
        served = session.load(SCAN_SOURCE)
        session.run(served, args)  # warm: plan, kernels
        tracemalloc.start()
        try:
            out = session.run(served, args)
            _, peak = tracemalloc.get_traced_memory()
            # ... and the run after it nothing array-sized at all, once the
            # caller has let go of the result: both arrays are recycled
            shape = out["Y"].shape
            del out
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            session.run(served, args)
            _, third = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert shape == (n,)
    needed = (2 * n + 1) * 8
    assert needed <= peak < needed + n * 8 // 2, (peak, needed)
    assert third - before < n * 8 // 8, (third, before)
