"""`repro compile --emit c|python` list the kernels that run.

A listing is a header (flowchart, window allocation) over the runtime's own
kernels. These tests hold that over the 14 named programs of the e2e
benchmark and 30 generated ones:

* every C function in ``generate_c`` is a ``native_spec(..., "full")``
  function, byte for byte, and the unit after the header is exactly
  ``unit_source`` of the outermost loops that lower;
* every Python kernel in ``generate_python`` is the ``__kernel_source__``
  the NumPy tier compiles and runs;
* the C listing builds on its own with ``cc`` and ``C_FLAGS`` and exports
  exactly the ``k_...`` functions it defines.

A probe module then checks the listed constructs where the retired
whole-module generators computed other values than a run (``abs`` of a
large int, half-even ``round``, ``round`` of NaN, a real ``/`` by zero, a
NaN ``min``): every tier is bit-equal to the evaluator.
"""

import re
import shutil
import subprocess
from functools import lru_cache

import numpy as np
import pytest

from repro.codegen.cgen import generate_c
from repro.codegen.clower import C_FLAGS
from repro.codegen.pygen import generate_python
from repro.core.genprog import generate_program
from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.core.pipeline import CompilerOptions, compile_source
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_program
from repro.ps.semantics import analyze_program
from repro.runtime.executor import ExecutionOptions
from repro.runtime.kernels import KernelCache, KernelError
from repro.runtime.kernels.native import find_compiler, native_spec, unit_source
from repro.schedule.flowchart import LoopDescriptor

from tests.runtime.test_kernel_sources import CORPUS

#: the e2e benchmark's named programs: id -> (corpus source, compiler options)
NAMED = {
    "jacobi": ("jacobi", {}),
    "jacobi_win": ("jacobi", {"use_windows": True}),
    "gs_hyper": ("gauss_seidel", {"hyperplane": True}),
    "tallskinny": ("tallskinny", {}),
    "align_hyper": ("align", {"hyperplane": True}),
    "scan": ("scan", {}),
    "coupled": ("coupled", {}),
    "isum": ("isum", {}),
    "runmax": ("runmax", {}),
    "ilinrec": ("ilinrec", {}),
    "linesweep": ("linesweep", {}),
    "mixed": ("mixed", {"merge_loops": True}),
    "align": ("align", {}),
    "paths": ("paths", {}),
}

PROGRAMS = [*NAMED, *(f"gen{seed}" for seed in range(30))]


@lru_cache(maxsize=None)
def _compiled(program: str):
    if program.startswith("gen"):
        source = generate_program(int(program[3:])).source
        return compile_source(source)
    key, options = NAMED[program]
    return compile_source(CORPUS[key], CompilerOptions(**options))


def _top_level_kernels(flowchart, lower):
    """What a listing must hold: ``lower(descriptor)`` of every outermost
    loop that lowers and of every equation outside one, in flowchart order
    (None where ``lower`` refuses; a refused loop's body follows it)."""
    found = []

    def visit(descriptors):
        for d in descriptors:
            if not isinstance(d, LoopDescriptor) and not d.node.is_equation:
                continue
            kernel = lower(d)
            found.append(kernel)
            if kernel is None and isinstance(d, LoopDescriptor):
                visit(d.body)

    visit(flowchart.descriptors)
    return [k for k in found if k is not None]


def _native_or_none(result):
    def lower(d):
        if not isinstance(d, LoopDescriptor):
            return None
        try:
            return native_spec(d, result.analyzed, result.flowchart, True)
        except KernelError:
            return None
    return lower


_C_FUNCTION = re.compile(r"^int (k_[0-9a-f]{16})\(.*?^}\n", re.M | re.S)


def _c_functions(listing: str) -> dict[str, str]:
    return {m.group(1): m.group(0) for m in _C_FUNCTION.finditer(listing)}


@pytest.mark.parametrize("program", PROGRAMS)
def test_c_listing_is_the_native_unit(program):
    result = _compiled(program)
    listing = generate_c(result.analyzed, result.flowchart, use_windows=True)
    specs = _top_level_kernels(result.flowchart, _native_or_none(result))
    head, _, unit = listing.partition("\n */\n")
    assert unit == unit_source(specs)
    every = {
        spec.fn_name: spec.function
        for desc in result.flowchart.loops()
        for spec in [_native_or_none(result)(desc)]
        if spec is not None
    }
    functions = _c_functions(listing)
    assert functions.keys() == {s.fn_name for s in specs}
    for name, text in functions.items():
        assert every[name] == text
        assert f": {name}" in head  # the header names where it came from


@pytest.mark.parametrize("use_windows", [False, True])
@pytest.mark.parametrize("program", PROGRAMS)
def test_python_listing_is_what_the_numpy_tier_runs(program, use_windows):
    result = _compiled(program)
    listing = generate_python(
        result.analyzed, result.flowchart, use_windows=use_windows
    )
    cache = KernelCache(result.analyzed, result.flowchart)

    def numpy_tier(d):
        if isinstance(d, LoopDescriptor):
            fn = cache.nest_kernel_for(d, use_windows, tier="numpy")
        else:
            fn = cache.kernel_for(d.node.equation, False, use_windows)
        return None if fn is None else fn.__kernel_source__

    sources = _top_level_kernels(result.flowchart, numpy_tier)
    listed = [
        chunk.split("\n", 1)[1].rstrip("\n") + "\n"
        for chunk in listing.split("\n\n")
        if "\ndef _kernel(" in chunk
    ]
    assert listed == sources
    assert listing.count("def _kernel(") == len(sources)


cc = find_compiler()
nm = shutil.which("nm")


@pytest.mark.skipif(cc is None or nm is None, reason="no cc / nm on this machine")
@pytest.mark.parametrize("program", PROGRAMS)
def test_c_listing_builds_standalone(program, tmp_path):
    listing = _compiled(program).c_source
    (tmp_path / "listing.c").write_text(listing)
    subprocess.run(
        [cc, *C_FLAGS, "-shared", "-o", "listing.so", "listing.c", "-lm"],
        cwd=tmp_path, check=True, capture_output=True,
    )
    symbols = subprocess.run(
        [nm, "-D", "--defined-only", "listing.so"],
        cwd=tmp_path, check=True, capture_output=True, text=True,
    ).stdout.split()
    exported = {s for s in symbols if s.startswith("k_")}
    assert exported == set(_c_functions(listing))


class TestHeader:
    def test_jacobi(self):
        c_src = generate_c(jacobi_analyzed())
        head = c_src.split("*/")[0]
        assert head.count("DO K (") == 1
        assert len(re.findall(r"\bDOALL \w+ \(", head)) == 6
        assert "A: dimension 0 is virtual: window of 2" in head
        # the three outermost loops, each one C function
        assert len(_c_functions(c_src)) == 3
        py_src = generate_python(jacobi_analyzed())
        assert "#   A: dimension 0 is virtual: window of 2" in py_src
        assert "% _w_A_0" in py_src

    def test_no_windows(self):
        """Window mode shapes the Python kernels and the header, not the
        C text: a C kernel reads its window from the run's geometry."""
        analyzed = jacobi_analyzed()
        py_src = generate_python(analyzed, use_windows=False)
        assert "A: full storage" in py_src
        assert "_w_A_0" not in py_src
        with_windows = generate_c(analyzed, use_windows=True)
        without = generate_c(analyzed, use_windows=False)
        assert "A: full storage" in without
        assert _c_functions(with_windows) == _c_functions(without)

    def test_gauss_seidel_and_its_transform(self):
        head = generate_c(gauss_seidel_analyzed()).split("*/")[0]
        assert len(re.findall(r"\bDO \w+ \(", head)) == 3
        transformed = hyperplane_transform(gauss_seidel_analyzed()).transformed
        head = generate_c(transformed).split("*/")[0]
        assert len(re.findall(r"\bDO \w+ \(", head)) == 1
        assert "DO Kp (" in head and "Ap" in head


class TestWhatDoesNotLower:
    def test_refused_loop_lists_its_body(self):
        """The outer nest calls ``sin`` (not bit-exact in C), so its inner
        ``DOALL`` is listed, and compiled, on its own."""
        result = compile_source(
            "T: module (n: int):"
            " [B: array[1 .. n, 1 .. n] of real; C: array[1 .. n] of real];\n"
            "type I = 1 .. n; J = 1 .. n;\n"
            "define B[I, J] = I * 1.0 + J; C[I] = sin(I * 0.1) + B[I, 1];\n"
            "end T;",
            CompilerOptions(merge_loops=True),
        )
        head = result.c_source.split("*/")[0]
        assert "DOALL I: builtin 'sin' is not bit-exact in C" in head
        assert re.search(r"\n \*     DOALL J: k_[0-9a-f]{16}\n", head)
        assert "eq.2: runs on the walk" in head
        assert len(_c_functions(result.c_source)) == 1
        assert "# DOALL I\ndef _kernel(" in result.python_source

    def test_atomic_equation(self):
        """A multi-result call used to make ``generate_c`` raise; now both
        listings name it and go on."""
        program = analyze_program(parse_program(
            "DivMod: module (a: int; b: int): [q: int; r: int];\n"
            "define q = a div b; r = a mod b; end DivMod;\n"
            "Use: module (x: int): [s: int];\n"
            "var q: int; r: int;\n"
            "define q, r = DivMod(x, 3); s = q + r; end Use;"
        ))
        c_src = generate_c(program["Use"])
        assert "eq.1: runs on the walk" in c_src
        assert "Storage:\n *   no arrays" in c_src
        py_src = generate_python(program["Use"])
        assert "# eq.1: atomic equation" in py_src
        assert py_src.count("def _kernel(data, env):") == 1  # eq.2

    def test_record_field(self):
        result = compile_source(
            "T: module (p: record x: real end): [y: real];\n"
            "define y = p.x;\nend T;"
        )
        assert "eq.1: runs on the walk" in result.c_source
        assert "# eq.1: record-field access" in result.python_source
        assert result.warnings == []
        assert result.run({"p.x": 2.5})["y"] == 2.5


#: the constructs the whole-module generators got wrong, over one DOALL
PROBE_SOURCE = """\
Probe: module (X: array[1 .. n] of real; K: int; Z: real; n: int):
       [A: array[1 .. n] of int; R: array[1 .. n] of int;
        D: array[1 .. n] of real; Q: array[1 .. n] of real;
        M: array[1 .. n] of real];
type I = 1 .. n;
define
    A[I] = abs(K);
    R[I] = round(X[I]);
    D[I] = X[I] / Z;
    Q[I] = 1.0 / X[I];
    M[I] = min(X[I], 1.0);
end Probe;
"""

PROBE_ARGS = {
    "X": np.array([0.5, 2.5, np.nan, 0.0, -0.0, -1.5, 3.0]),
    "K": -(2**63 - 1),
    "Z": 0.0,
    "n": 7,
}


def _probe_run(**execution):
    result = compile_source(PROBE_SOURCE)
    out = result.run(dict(PROBE_ARGS), ExecutionOptions(**execution))
    return result, out


class TestProbe:
    @pytest.fixture(scope="class")
    def reference(self):
        return _probe_run(backend="serial", use_kernels=False)[1]

    def test_reference_values(self, reference):
        assert reference["A"][0] == 2**63 - 1
        assert list(reference["R"][:2]) == [0, 2]  # half-even, not C round
        assert reference["R"][2] == np.iinfo(np.int64).min  # round(NaN)
        assert list(reference["D"][:3]) == [np.inf, np.inf, -np.inf]
        assert list(reference["Q"][3:5]) == [np.inf, np.inf]
        assert np.isnan(reference["M"][2])

    @pytest.mark.parametrize(
        "execution",
        [
            {"backend": "serial", "kernel_tier": "native"},
            {"backend": "serial", "kernel_tier": "numpy"},
            {"backend": "vectorized", "kernel_tier": "numpy"},
            {"backend": "vectorized", "use_kernels": False},
        ],
        ids=["native", "numpy-nest", "numpy-vector", "vector-evaluator"],
    )
    def test_every_tier_is_bit_equal(self, reference, execution):
        result, out = _probe_run(**execution)
        if execution.get("kernel_tier") == "native" and cc is not None:
            assert result.kernel_cache.stats()["native"] == 5
        for name, want in reference.items():
            assert out[name].dtype == want.dtype
            assert out[name].tobytes() == want.tobytes(), name

    def test_listings_print_the_runtime_helpers(self):
        result = compile_source(PROBE_SOURCE)
        c_src = result.c_source
        for helper in ("ps_abs_i(v_K)", "nearbyint(", "ps_div(", "ps_min("):
            assert helper in c_src
        assert "fabs(v_K)" not in c_src and " round(" not in c_src
        assert result.python_source.count("def _kernel(") == 5
