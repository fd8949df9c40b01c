"""The total-definition proof: which arrays a run may leave uninitialised.

``ExecutionPlan.storage`` holds the plan's half of the verdict (no window,
native kernels, nothing that can read the array early) and
``values.undefined_part`` the run's half (at these sizes the equations'
boxes tile the declared bounds). The suite-wide poison fixture
(``tests/conftest.py``) fills whatever is left uninitialised with 0xAB, so
every accepted case below is also checked against the evaluator.
"""

import numpy as np
import pytest

from repro.core.paper import (
    RELAXATION_GAUSS_SEIDEL_SOURCE,
    RELAXATION_JACOBI_SOURCE,
)
from repro.core.pipeline import CompilerOptions, compile_source
from repro.core.recurrences import COUPLED_SOURCE, SCAN_SOURCE
from repro.plan.planner import forced_plan
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import native as native_mod
from repro.runtime.values import halo_slabs, undefined_part

TALLSKINNY_SOURCE = """\
Relax: module (InitialA: array[0 .. r + 1, 0 .. c + 1] of real;
               r: int; c: int; maxK: int):
       [newA: array[0 .. r + 1, 0 .. c + 1] of real];
type
    I = 1 .. r; J = 1 .. c; K = 1 .. maxK;
var
    A: array [0 .. maxK, 0 .. r + 1, 0 .. c + 1] of real;
define
    A[0, I, J] = InitialA[I, J];
    A[K, I, J] = (A[K-1, I-1, J] + A[K-1, I+1, J] +
                  A[K-1, I, J-1] + A[K-1, I, J+1]) / 4.0;
    newA[I, J] = A[maxK, I, J];
end Relax;
"""

#: two definitions the coverage check can only warn about (symbolic bounds)
OVERLAP_SOURCE = """\
T: module (n: int; m: int): [Y: array[1 .. n] of int];
type I = 1 .. n; J = 1 .. m;
define
    Y[I] = 1;
    Y[J] = 2;
end T;
"""

OUTSIDE_SOURCE = """\
T: module (n: int; m: int): [Y: array[1 .. n] of int];
type I = 1 .. n; K = n + 1 .. m;
define
    Y[I] = 1;
    Y[K] = 2;
end T;
"""

#: defines ``Y[1 .. m]`` of ``Y[1 .. n]``: total exactly when ``m = n``
PREFIX_SOURCE = """\
T: module (n: int; m: int): [Y: array[1 .. n] of int];
type I = 1 .. m;
define
    Y[I] = I;
end T;
"""

SERIAL = ExecutionOptions(backend="serial")


def verdicts(source, sizes, options=SERIAL, **compiler) -> dict[str, str | None]:
    """Per array: None when a run at ``sizes`` leaves it uninitialised,
    else why it is zero-filled — both halves of the proof."""
    plan = compile_source(source, CompilerOptions(**compiler)).plan(sizes, options)
    out = {}
    for name, how in plan.storage.items():
        if isinstance(how, tuple):
            how = undefined_part(*how, sizes)
        out[name] = how
        line = f"  {name}: " + (
            f"zero-filled, {how}" if how else "uninitialised, every element"
        )
        assert line in plan.explain()
    return out


def run_counting(source, args, options=SERIAL, **compiler):
    """(results, backend counters) of one run, checked against the evaluator."""
    result = compile_source(source, CompilerOptions(**compiler))
    backend = ExecutionBackend(workers=2)
    try:
        out = execute_module(
            result.analyzed, args, flowchart=result.flowchart, options=options,
            kernel_cache=result.kernel_cache, backend=backend,
        )
    finally:
        backend.close()
    ref = result.run(args, ExecutionOptions(backend="serial", use_kernels=False))
    for name, value in ref.items():
        assert np.asarray(out[name]).tobytes() == np.asarray(value).tobytes(), name
    return out, backend.counters


def jacobi_args(m=6, maxk=4):
    a = np.random.default_rng(2).random((m + 2, m + 2))
    return {"InitialA": a, "M": m, "maxK": maxk}


class TestTotal:
    def test_jacobi(self):
        assert verdicts(RELAXATION_JACOBI_SOURCE, {"M": 6, "maxK": 4}) == {
            "A": None, "newA": None,
        }
        _, counters = run_counting(RELAXATION_JACOBI_SOURCE, jacobi_args())
        assert counters["arrays_uninitialised"] == 2
        assert counters["arrays_zeroed"] == 0

    def test_jacobi_auto_plan_defines_plane_one_on_the_vector_tier(self):
        """``A[1] = InitialA`` and ``newA = A[maxK]`` forced onto NumPy
        spans in an ``auto`` plan that compiles the sweep: a vector-tier
        *store* is exact, and the reader comes after every definition of
        ``A``."""
        auto = ExecutionOptions(backend="auto", workers=2, strategy="vector")
        sizes = {"M": 128, "maxK": 40}
        plan = compile_source(RELAXATION_JACOBI_SOURCE).plan(sizes, auto)
        assert plan.equations["eq.1"].kernel == "vector"
        assert plan.equations["eq.2"].kernel == "vector"
        assert plan.equations["eq.3"].kernel == "native"
        assert verdicts(RELAXATION_JACOBI_SOURCE, sizes, auto)["A"] is None

    @pytest.mark.parametrize(
        "source, arrays",
        [(SCAN_SOURCE, {"S", "Y"}), (COUPLED_SOURCE, {"P", "Q", "R"})],
    )
    def test_recurrences(self, source, arrays):
        found = verdicts(source, {"n": 100000})
        assert set(found) == arrays and set(found.values()) == {None}

    def test_a_loop_too_small_for_a_native_build_stays_zero_filled(self):
        """At n = 64 the planner keeps ``DO I`` on the Python dialect."""
        assert verdicts(SCAN_SOURCE, {"n": 64})["S"] == (
            "eq.2 [kernel=nest] may read it before every definition has run"
        )

    def test_hyperplane_target_on_an_all_native_plan(self):
        """The rewritten array is one box over its declared bounds; padding
        points are *stored* (``0.0``), not skipped."""
        sizes = {"M": 6, "maxK": 4}
        found = verdicts(RELAXATION_GAUSS_SEIDEL_SOURCE, sizes, hyperplane=True)
        assert found == {"Ap": None, "newA": None}
        _, counters = run_counting(
            RELAXATION_GAUSS_SEIDEL_SOURCE, jacobi_args(), hyperplane=True
        )
        assert counters["arrays_uninitialised"] == 2


class TestDeclines:
    def test_tallskinny_halo_is_never_defined(self):
        sizes = {"r": 2, "c": 12, "maxK": 3}
        assert verdicts(TALLSKINNY_SOURCE, sizes) == {
            "A": "[*, 0, *] never defined", "newA": "[0, *] never defined",
        }
        args = {"InitialA": np.random.default_rng(0).random((4, 14)), **sizes}
        out, counters = run_counting(TALLSKINNY_SOURCE, args)
        assert counters["arrays_zeroed"] == 2
        assert not out["newA"][0].any() and not out["newA"][:, -1].any()

    def test_tallskinny_zeroes_only_its_halo(self):
        """The definitions of ``A`` tile ``[0 .. maxK, 1 .. r, 1 .. c]``:
        the slabs to zero are exactly the rim of dimensions 1 and 2."""
        sizes = {"r": 2, "c": 5, "maxK": 3}
        plan = compile_source(TALLSKINNY_SOURCE).plan(sizes, SERIAL)
        slabs = halo_slabs(*plan.storage["A"], sizes)
        shape = (4, 4, 7)
        rim = np.ones(shape, bool)
        rim[:, 1:3, 1:6] = False
        covered = np.zeros(shape, int)
        for slab in slabs:
            covered[slab] += 1
        assert len(slabs) == 4
        assert np.array_equal(covered, rim.astype(int))
        assert halo_slabs(*plan.storage["newA"], sizes) is not None
        # overlapping or gapped definitions have no halo of their own
        for source, at in ((OVERLAP_SOURCE, {"n": 4, "m": 2}),
                           (PREFIX_SOURCE, {"n": 4, "m": 6})):
            plan = compile_source(source).plan(at, SERIAL)
            assert halo_slabs(*plan.storage["Y"], at) is None

    def test_overlapping_boxes(self):
        found = verdicts(OVERLAP_SOURCE, {"n": 4, "m": 2})
        assert found == {"Y": "two definitions overlap"}

    def test_box_outside_the_bounds(self):
        found = verdicts(OUTSIDE_SOURCE, {"n": 4, "m": 6})
        assert found == {"Y": "a definition leaves the bounds of dimension 0"}

    def test_empty_ranges(self):
        """Decided per run, with the run's sizes — a plan is reused at sizes
        it was not built for (callee plans are)."""
        plan = compile_source(SCAN_SOURCE).plan({"n": 100000}, SERIAL)
        for name in "SY":
            for n, verdict in ((100000, None), (0, "a definition range is empty")):
                assert undefined_part(*plan.storage[name], {"n": n}) == verdict
        assert "not an integer expression" in undefined_part(*plan.storage["S"], {})

    def test_one_plan_run_at_sizes_that_differ_in_the_verdict(self):
        """The verdict is remembered per (array, sizes), not per plan."""
        result = compile_source(PREFIX_SOURCE)
        plan = result.plan({"n": 50000, "m": 50000}, SERIAL)
        backend = ExecutionBackend(workers=1)
        for m, uninitialised in ((50000, 1), (20000, 1), (50000, 2), (50000, 3)):
            out = execute_module(
                result.analyzed, {"n": 50000, "m": m}, flowchart=result.flowchart,
                options=SERIAL, kernel_cache=result.kernel_cache, plan=plan,
                backend=backend,
            )["Y"]
            assert np.array_equal(out[:m], np.arange(1, m + 1)) and not out[m:].any()
            assert backend.counters["arrays_uninitialised"] == uninitialised
        backend.close()

    def test_windowed_arrays(self):
        options = ExecutionOptions(backend="serial", use_windows=True)
        found = verdicts(RELAXATION_JACOBI_SOURCE, {"M": 6, "maxK": 4}, options)
        assert found == {"A": "it has a window dimension", "newA": None}
        _, counters = run_counting(RELAXATION_JACOBI_SOURCE, jacobi_args(), options)
        assert counters["arrays_zeroed"] == 1

    def test_debug_windows_zero_fill_everything(self):
        options = ExecutionOptions(backend="serial", use_windows=True, debug_windows=True)
        _, counters = run_counting(RELAXATION_JACOBI_SOURCE, jacobi_args(), options)
        assert counters["arrays_uninitialised"] == 0

    @pytest.mark.parametrize("tier", [
        {"kernel_tier": "numpy"}, {"use_kernels": False},
    ], ids=["numpy", "off"])
    def test_plans_without_native_kernels(self, tier):
        options = ExecutionOptions(backend="serial", **tier)
        found = verdicts(RELAXATION_JACOBI_SOURCE, {"M": 6, "maxK": 4}, options)
        assert set(found.values()) == {"the plan dispatches no native kernels"}

    @pytest.mark.parametrize("hyperplane", [False, True])
    def test_vector_tier_recurrence_reads_lanes_it_discards(self, hyperplane):
        """The NumPy span of ``A[K] = if boundary then .. else ..`` gathers
        both branches — on the first plane of the hyperplane form, from the
        plane being defined — so the array keeps its zero-fill."""
        source = RELAXATION_GAUSS_SEIDEL_SOURCE if hyperplane else RELAXATION_JACOBI_SOURCE
        result = compile_source(source, CompilerOptions(hyperplane=hyperplane))
        plan = forced_plan(
            result.analyzed, result.flowchart, "vectorized",
            scalar_env={"M": 6, "maxK": 4}, default="vector",
        )
        label = "eq.1" if hyperplane else "eq.3"
        local = "Ap" if hyperplane else "A"
        assert plan.storage[local] == (
            f"{label} [kernel=vector] may read it before every definition has run"
        )

    def test_a_native_kernel_that_did_not_build(self, monkeypatch):
        """The plan says native, the toolchain says no: the run degrades to
        the NumPy tier and the arrays to their zero-fill."""
        monkeypatch.setattr(native_mod, "native_supported", lambda: False)
        _, counters = run_counting(RELAXATION_JACOBI_SOURCE, jacobi_args())
        assert counters["arrays_uninitialised"] == 0 and counters["arrays_zeroed"] == 2
