"""Split guards: a segmented native loop answers the evaluator's bytes.

A native kernel splits its innermost loop wherever the loop's affine index
guards keep their truth values and prints the body once per outcome, the
guards folded away (:mod:`repro.runtime.kernels.segments`). These
differential tests generate ``DO K`` nests over ``DOALL`` s whose equations
branch on random guard trees — ``J = c``, ``J <> c``, ``J < e``, ``J >= e``,
the §4 form ``K - 2 * I - J > n``, guards invariant in ``J``, guards that
stay per element (``J mod 2 = 0``, an array read), under ``and``, ``or``,
``not`` and nested ``if`` — and run them at sizes that make segments of one
element, of the whole loop and loops with no element, in the ``full`` shape
and on teams 1, 2 and 3 wide, against the evaluator, bit for bit and count
for count. The suite's poison fixture fills uninitialised storage.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.plan.planner import forced_plan
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.backends import ExecutionBackend
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.kernels import KernelCache, native_supported, openmp_supported
from repro.runtime.kernels import native as native_mod
from repro.schedule.scheduler import schedule_module

from tests.runtime.test_team_kernels import (
    ALWAYS_C,
    _evaluator,
    _team_plan,
    states,  # noqa: F401  (fixture)
)

pytestmark = pytest.mark.skipif(
    not native_supported(), reason="no C compiler / cffi on this machine"
)

SIZES = (0, 1, 2, 7)
T = 3  # steps of the DO


def _atom(rng, three: bool) -> str:
    if rng.random() < 0.2:  # a guard that stays per element
        return "J mod 2 = 0" if rng.random() < 0.5 else "X[J] > 0.5"
    outer = ["M", "M + 1", "1", "n"] + (["I", "I + 1", "n - I"] if three else [])
    c = int(rng.integers(0, 4))
    e = outer[int(rng.integers(len(outer)))]
    forms = [
        f"J = {c}", f"J <> {c}", f"J < {e}", f"J >= {e}", f"{e} > J",
        f"{c} = J", "K = 2",
        # the side falls as J rises
        f"K - J > {e}", f"{e} - J <= {c}", f"M - J < {c}", f"n - J = {c}",
    ]
    if three:
        forms += ["K - 2 * I - J > n", "K - 2 * I - J < 0", "I = 0", "I > M - 1"]
    return forms[int(rng.integers(len(forms)))]


def _cond(rng, three: bool, depth: int) -> str:
    pick = int(rng.integers(5)) if depth else 0
    if pick <= 1:
        return _atom(rng, three)
    if pick == 2:
        return f"not ({_cond(rng, three, depth - 1)})"
    op = "and" if pick == 3 else "or"
    return f"({_cond(rng, three, depth - 1)}) {op} ({_cond(rng, three, depth - 1)})"


def _value(rng, three: bool, depth: int) -> str:
    at = "K - 1, I, J" if three else "K - 1, J"
    leaves = [
        f"A[{at}] * 0.5", "X[J] + 1.0", "J * 0.25", f"A[{at}] + X[J]",
        "(K - J) * 0.125", "0.0",
    ]
    if depth == 0 or rng.random() < 0.25:
        return leaves[int(rng.integers(len(leaves)))]
    return (
        f"if {_cond(rng, three, 1)} then {_value(rng, three, depth - 1)} "
        f"else {_value(rng, three, depth - 1)}"
    )


def _source(seed: int, three: bool) -> str:
    rng = np.random.default_rng(seed + 10 * three)
    low = int(rng.integers(2))  # J = 0 .. M, or 1 .. M: empty at M = 0
    dims = "0 .. T, 0 .. M + 1, 0 .. M + 1" if three else "0 .. T, 0 .. M + 1"
    first = "A[0, L, H] = X[H];" if three else "A[0, H] = X[H];"
    target = "A[K, I, J]" if three else "A[K, J]"
    at = "K - 1, I, J" if three else "K - 1, J"
    return f"""\
G: module (X: array[0 .. M + 1] of real; M: int; n: int; T: int):
   [A: array[{dims}] of real];
type
    K = 1 .. T; I = 0 .. M + 1; J = {low} .. M; L, H = 0 .. M + 1;
define
    {first}
    {target} = A[{at}] * 0.75 + ({_value(rng, three, 3)});
end G;
"""


CASES = [(seed, three) for three in (False, True) for seed in range(8)]


@pytest.mark.parametrize("seed,three", CASES)
def test_segmented_nests_equal_the_evaluator(seed, three, states):  # noqa: F811
    analyzed = analyze_module(parse_module(_source(seed, three)))
    flow = schedule_module(analyzed)
    teams = openmp_supported() and any(
        native_mod.native_refusal(d, analyzed, flow, False, "team") is None
        for d in flow.loops()
    )
    for m in SIZES:
        rng = np.random.default_rng(100 * seed + m)
        args = {"X": rng.random(m + 2), "M": m, "n": int(rng.integers(-1, m + 3)),
                "T": T}
        want = _evaluator(analyzed, args, flow)["A"]
        counts = states[-1].eval_counts
        for width in (None, 1, 2, 3) if teams else (None,):
            if width is None:
                sizes = {k: v for k, v in args.items() if isinstance(v, int)}
                got = _native_run(analyzed, flow, args, sizes)["A"]
            else:
                options, plan = _team_plan(analyzed, flow, args, False, width)
                backend = ExecutionBackend(workers=1)
                got = execute_module(
                    analyzed, args, flowchart=flow, options=options, plan=plan,
                    kernel_cache=KernelCache(analyzed, flow), backend=backend,
                )["A"]
                backend.close()
            assert np.asarray(got).tobytes() == want.tobytes(), (m, width)
            assert states[-1].eval_counts == counts, (m, width)


def _native_run(analyzed, flow, args, sizes):
    """One run with every nest on its ``full`` C kernel."""
    options = ExecutionOptions(backend="serial", workers=1)
    plan = forced_plan(
        analyzed, flow, "serial", options, sizes, default="nest", model=ALWAYS_C
    )
    backend = ExecutionBackend(workers=1)
    try:
        return execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan,
            kernel_cache=KernelCache(analyzed, flow), backend=backend,
        )
    finally:
        backend.close()


@pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
def test_every_comparison_turns_where_the_evaluator_does(op):
    """Each comparison with the index rising (``J op n``), falling (``n -
    J op 3``), on the right (``n op J``) and offset (``J + 1 op n``), the
    last two behind an operand decided per element, at every place the
    turn can fall: before the loop, at its ends, inside it, after it."""
    analyzed = analyze_module(parse_module(f"""\
S: module (X: array[0 .. M] of real; M: int; n: int): [Y: array[0 .. M] of real];
type J = 0 .. M;
define
    Y[J] = if J {op} n then 1.0 else if n - J {op} 3 then 2.0
           else if (X[J] > 0.5) and (n {op} J) then 3.0
           else if (X[J] > 0.5) or (J + 1 {op} n) then 4.0 else 5.0;
end S;
"""))
    flow = schedule_module(analyzed)
    (root,) = flow.loops()
    assert "for (; v_J <= " in native_mod.native_spec(root, analyzed, flow, False).source
    for m in (0, 1, 6):
        x = np.random.default_rng(m).random(m + 1)
        for n in range(-2, m + 4):
            args = {"X": x, "M": m, "n": n}
            want = _evaluator(analyzed, args, flow)["Y"]
            got = _native_run(analyzed, flow, args, {"M": m, "n": n})["Y"]
            assert np.asarray(got).tobytes() == want.tobytes(), (op, m, n)


def test_a_guard_side_that_wraps_turns_where_int64_does():
    """``n - J`` wraps past ``INT64_MIN`` inside the loop: the per-element
    test compared the wrapped ``int64``, and so does the segmented loop —
    the segment ends where the side wraps."""
    analyzed = analyze_module(parse_module("""\
W: module (M: int; n: int): [Y: array[0 .. M] of real];
type J = 0 .. M;
define
    Y[J] = if n - J < 0 then 1.0 else 2.0;
end W;
"""))
    flow = schedule_module(analyzed)
    n, m = -(2**63) + 2, 6
    got = _native_run(analyzed, flow, {"M": m, "n": n}, {"M": m, "n": n})["Y"]
    with np.errstate(over="ignore"):
        side = np.int64(n) - np.arange(m + 1, dtype=np.int64)
    assert list(got) == [1.0 if v < 0 else 2.0 for v in side] == [1.0] * 3 + [2.0] * 4


def test_the_generated_nests_are_segmented():
    """The generator reaches the feature: most of its innermost loops are
    printed as segmented loops."""
    segmented = 0
    for seed, three in CASES:
        analyzed = analyze_module(parse_module(_source(seed, three)))
        flow = schedule_module(analyzed)
        root = next(d for d in flow.loops() if d.index == "K")
        source = native_mod.native_spec(root, analyzed, flow, False).source
        segmented += "for (; v_J <= " in source
    assert 2 * segmented >= len(CASES)


@pytest.mark.parametrize("name,hyper,leaves,checks", [
    ("jacobi", False, 2, 18),       # boundary copy | interior stencil
    ("gauss_seidel", True, 4, 20),  # padding | plane one | boundary | interior
    ("align", True, 3, 10),         # padding or Jp = 0 | diagonal | interior
])
def test_the_paper_kernels_split_into_their_leaves(name, hyper, leaves, checks):
    """The guard outcomes that print the same body share a leaf: Jacobi's
    four boundary tests give two leaves, the §4 relaxation four, the §4
    alignment three (its padding and ``Jp = 0`` leaves both store
    ``0.0``). The range
    checks are those of the unsplit loop, each counted once and all proven
    at entry, and the proof holds when the kernel runs: a folded guard
    still tells the proof where its branch runs."""
    from repro.core.pipeline import CompilerOptions, compile_source

    from tests.runtime.test_kernel_sources import CORPUS

    result = compile_source(CORPUS[name], CompilerOptions(hyperplane=hyper))
    analyzed, flow = result.analyzed, result.flowchart
    root = next(d for d in flow.loops() if not d.parallel)
    spec = native_mod.native_spec(root, analyzed, flow, False)
    assert spec.source.count("for (; v_") == leaves
    assert spec.proven == spec.checks == checks
    rng = np.random.default_rng(7)
    if name == "align":
        args = {"CostA": rng.random(9), "CostB": rng.random(9), "gap": 0.4, "n": 9}
    else:
        args = {"InitialA": rng.random((9, 9)), "M": 7, "maxK": 4}
    options = ExecutionOptions(backend="serial", workers=1)
    sizes = {k: v for k, v in args.items() if isinstance(v, int)}
    plan = forced_plan(
        analyzed, flow, "serial", options, sizes, default="nest", model=ALWAYS_C
    )
    cache = KernelCache(analyzed, flow)
    backend = ExecutionBackend(workers=1)
    got = execute_module(
        analyzed, args, flowchart=flow, options=options, plan=plan,
        kernel_cache=cache, backend=backend,
    )
    backend.close()
    assert cache.stats()["range_unproven"] == 0 < cache.stats()["range_proven"]
    want = _evaluator(analyzed, args, flow)
    for key, value in want.items():
        assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key


#: ``X[I * J]`` is checked per element, in the leaf of ``J = M + 1`` only;
#: at ``M = 4`` it first leaves ``X`` at ``I = 3``
ERROR_SOURCE = """\
E: module (X: array[0 .. 2 * M + 2] of real; M: int):
   [Y: array[0 .. M + 1, 0 .. M + 1] of real];
type
    I, J = 0 .. M + 1;
define
    Y[I, J] = if J = M + 1 then X[I * J] else X[J] * 0.5;
end E;
"""


def test_an_inline_check_in_a_boundary_leaf_raises_the_evaluators_error():
    analyzed = analyze_module(parse_module(ERROR_SOURCE))
    flow = schedule_module(analyzed)
    root = flow.loops()[0]
    spec = native_mod.native_spec(root, analyzed, flow, False)
    assert "for (; v_J <= " in spec.source and spec.proven < spec.checks
    args = {"X": np.arange(11.0), "M": 4}
    with pytest.raises(ExecutionError) as evaluator:
        _evaluator(analyzed, args, flow)
    options = ExecutionOptions(backend="serial", workers=1)
    plan = forced_plan(
        analyzed, flow, "serial", options, {"M": 4}, default="nest",
        model=ALWAYS_C,
    )
    assert plan.loops[flow.path_of(root)].dialect == "native"
    backend = ExecutionBackend(workers=1)
    cache = KernelCache(analyzed, flow)
    with pytest.raises(ExecutionError) as native:
        execute_module(
            analyzed, args, flowchart=flow, options=options, plan=plan,
            kernel_cache=cache, backend=backend,
        )
    backend.close()
    # the C kernel's own per-element check fired: its entry proof held
    assert (cache.stats()["range_proven"], cache.stats()["range_unproven"]) == (1, 0)
    assert str(native.value) == str(evaluator.value)
    assert "index 15 out of range [0, 10]" in str(native.value)
