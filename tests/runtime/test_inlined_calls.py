"""Inlined module calls equal the calls they replace.

The front end replaces a call of a loop-free scalar module with the
callee's result expression (``repro.ps.semantics.inline_body``), so the
calling loop compiles like any other. This property draws such callees —
``int`` and ``real`` parameters, locals, an ``if``, a nested call of a
helper module — and calls them per element from a ``DOALL`` and from a
``DO`` recurrence, with index-dependent and index-independent arguments.
Every run, on every backend and kernel tier (uninitialised storage
poisoned by ``tests/conftest.py``), must equal the evaluator running the
callee alone, element by element, exactly as a call would have. An
argument that reads out of range raises the out-of-range error everywhere,
as the call did — and so does a read inside an ``if`` branch or a lazy
operand, on every lane the branch selects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.plan.planner import forced_plan
from repro.ps.parser import parse_module, parse_program
from repro.ps.semantics import AnalyzedProgram, analyze_module, analyze_program
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.executor import (
    ExecutionOptions,
    execute_module,
    execute_program_module,
)
from repro.schedule.scheduler import schedule_module

N = 20
BACKENDS = ["serial", "vectorized", "threaded"]
TIERS = ["native", "numpy"]
#: kernel tier -> the options that select it ("off": the evaluator only)
TIER_OPTIONS = {
    "native": {"kernel_tier": "native"},
    "numpy": {"kernel_tier": "numpy"},
    "off": {"use_kernels": False},
}

#: the helper the callee may call: loop-free, so it is inlined into it
HELPER = "H: module (a: int): [b: int]; define b = 3 * a - 2; end H;\n"

#: the evaluator, calling every module it meets
EVALUATOR = ExecutionOptions(backend="serial", use_kernels=False)


@st.composite
def callees(draw):
    """(callee source, its parameter types, its result type). Every
    parameter and local is read outside the ``if``, so the callee
    qualifies for inlining."""
    xtype = draw(st.sampled_from(["int", "real"]))
    real = xtype == "real"
    one = "1.5" if real else "1"
    terms = ["x", "k"]
    local_decls, defs = [], []
    if draw(st.booleans()):
        local_decls.append(f"t: {xtype}")
        defs.append(draw(st.sampled_from([
            "t = x * 2 + k;", f"t = abs(x) + {one};", f"t = max(x, k) - {one};",
        ])))
        terms.append("t")
    if draw(st.booleans()):
        # a nested call: H takes an int, so it reads k (or x when int)
        arg = draw(st.sampled_from(["k", "x"] if not real else ["k"]))
        local_decls.append("u: int")
        defs.append(f"u = H({arg}) mod 7;")
        terms.append("u")
    cond = draw(st.sampled_from(["x > k", "k mod 2 = 0", "x <= 0"]))
    then = draw(st.sampled_from(["x", "k * 2", f"x - {one}"]))
    orelse = draw(st.sampled_from(["k", "0", f"x + {one}"]))
    body = " + ".join(terms)
    rtype = draw(st.sampled_from(["real", "int"])) if not real else "real"
    var = f"var {'; '.join(local_decls)};\n" if local_decls else ""
    source = (
        f"F: module (x: {xtype}; k: int): [y: {rtype}];\n{var}"
        f"define {' '.join(defs)} y = {body} + (if {cond} then {then} else {orelse});\n"
        f"end F;\n"
    )
    return source, xtype, rtype


#: (the call's arguments, and how to compute them for element i) — x's
#: argument is index-dependent or not, and so is k's
X_ARGS = {
    "A[I]": lambda a, c, i: a[i - 1],
    "A[I] - I": lambda a, c, i: a[i - 1] - i,
    "c": lambda a, c, i: c,
}
K_ARGS = {
    "I": lambda a, c, i: i,
    "I mod 3 - 1": lambda a, c, i: i % 3 - 1,
    "c": lambda a, c, i: c,
}


def _caller(xtype, rtype, xarg, karg, loop):
    out = "DOALL" if loop == "doall" else "DO"
    define = (
        f"B[I] = F({xarg}, {karg});"
        if out == "DOALL"
        else f"B[0] = 0; B[I] = B[I - 1] + F({xarg}, {karg});"
    )
    return (
        f"Use: module (A: array[1 .. n] of {xtype}; c: {xtype}; n: int):\n"
        f"     [B: array[0 .. n] of {rtype}];\n"
        f"type I = 1 .. n;\n"
        f"define {define}\nend Use;\n"
    )


def _reference(callee_source, xtype, rtype, xarg, karg, loop, args):
    """``B`` with every call made on the evaluator: the callee analysed as
    written (its own call of ``H`` kept), run alone per element."""
    helper = analyze_program(parse_program(HELPER))
    plain = AnalyzedProgram(dict(helper.modules))  # no inline map: calls stay
    program = AnalyzedProgram(
        {**plain.modules, "F": analyze_module(parse_module(callee_source), plain)}
    )
    a, c = args["A"], args["c"]
    b = np.zeros(N + 1, dtype=np.float64 if rtype == "real" else np.int64)
    for i in range(1, N + 1):
        y = execute_program_module(
            program, "F",
            {"x": X_ARGS[xarg](a, c, i), "k": int(K_ARGS[karg](a, c, i))},
            options=EVALUATOR,
        )["y"]
        b[i] = y if loop == "doall" else b[i - 1] + y
    return b


def _args(xtype, seed):
    rng = np.random.default_rng(seed)
    if xtype == "real":
        return {"A": rng.uniform(-4, 4, N), "c": 0.75, "n": N}
    return {"A": rng.integers(-9, 10, N), "c": 2, "n": N}


@settings(max_examples=40, deadline=None)
@given(
    callee=callees(),
    xarg=st.sampled_from(sorted(X_ARGS)),
    karg=st.sampled_from(sorted(K_ARGS)),
    loop=st.sampled_from(["doall", "do"]),
    seed=st.integers(0, 2**16),
)
def test_inlined_calls_equal_the_calls(callee, xarg, karg, loop, seed):
    source, xtype, rtype = callee
    if karg == "c" and xtype == "real":
        karg = "I"  # k is an int: a real c cannot bind it
    program = analyze_program(
        parse_program(HELPER + source + _caller(xtype, rtype, xarg, karg, loop))
    )
    assert program.inline["F"] is not None
    assert all(not eq.calls for eq in program["Use"].equations)
    args = _args(xtype, seed)
    want = _reference(source, xtype, rtype, xarg, karg, loop, args)
    for backend in BACKENDS:
        for tier in TIERS:
            got = execute_program_module(
                program, "Use", dict(args),
                options=ExecutionOptions(backend=backend, workers=2, kernel_tier=tier),
            )["B"]
            np.testing.assert_array_equal(got[1:], want[1:], f"{backend}/{tier}")


#: a callee whose every parameter is read outside its ``if``
OOR_CALLEE = (
    "F: module (x: int; k: int): [y: int]; var t: int;\n"
    "define t = x * 2; y = t + (if k > 3 then x else k); end F;\n"
)


def _outcome(source, options):
    """``B``, or the (class, message) of the error the run raised."""
    program = analyze_program(parse_program(source))
    try:
        return execute_program_module(program, "Use", _args("int", 0), options=options)["B"]
    except ExecutionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("loop", ["doall", "do"])
@pytest.mark.parametrize("backend", ["auto", *BACKENDS])
@pytest.mark.parametrize("tier", TIER_OPTIONS)
def test_an_out_of_range_argument_raises_everywhere(loop, backend, tier):
    """``A[I + 1]`` reads past ``A`` at ``I = n``. A call evaluates every
    argument on every call, so the read raises the out-of-range error on
    every backend and tier. Inlined, the read is live on every lane
    (outside any ``if`` branch), so NumPy vector rows range-check it too:
    the run raises that error, as the equation written out by hand does."""
    options = ExecutionOptions(backend=backend, workers=2, **TIER_OPTIONS[tier])
    inlined = _outcome(
        OOR_CALLEE + _caller("int", "int", "A[I + 1]", "I", loop), options
    )
    rhs = "A[I + 1] * 2 + (if I > 3 then A[I + 1] else I)"
    written = _outcome(
        OOR_CALLEE + _caller("int", "int", "A[I + 1]", "I", loop).replace(
            "F(A[I + 1], I)", rhs
        ),
        options,
    )
    assert isinstance(inlined, tuple), "the run returned instead of raising"
    # what the call raised, on every backend and tier
    assert inlined == (ExecutionError, f"index {N + 1} out of range [1, {N}] in dimension 0 of 'A'")
    assert written == inlined


#: ``B[I] = <rhs>``, every read of ``A`` inside an ``if`` branch or the
#: lazy operand of ``and`` / ``or``
GUARD = """\
Guard: module (A: array[1 .. n] of real; n: int): [B: array[1 .. n] of real];
type I = 1 .. n;
define
    B[I] = {rhs};
end Guard;
"""


def _guard(rhs, tier, backend, use_windows):
    """``B`` of ``Guard`` at ``n = 8``, or the (class, message) it raised."""
    program = analyze_program(parse_program(GUARD.format(rhs=rhs)))
    options = ExecutionOptions(
        backend=backend, workers=2, use_windows=use_windows, **TIER_OPTIONS[tier]
    )
    args = {"A": np.arange(1.0, 9.0), "n": 8}
    try:
        return execute_program_module(program, "Guard", args, options=options)["B"]
    except ExecutionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("use_windows", [False, True], ids=["dense", "windows"])
@pytest.mark.parametrize("backend", ["auto", *BACKENDS])
@pytest.mark.parametrize("tier", TIER_OPTIONS)
@pytest.mark.parametrize("rhs", [
    "if I > 3 then A[I + 1] else 0.0",
    "if I > 3 and A[I + 1] > 0.0 then 1.0 else 0.0",
], ids=["if", "and"])
def test_a_selected_guarded_read_out_of_range_raises_everywhere(
    rhs, tier, backend, use_windows
):
    """At ``I = n`` the branch is selected and reads ``A[n + 1]``. A NumPy
    vector row evaluates the branch on every lane and clips its reads; the
    clipped lane ``I = n`` is a selected one, so the span reruns on the
    scalar walk, which raises the error the serial reference raises."""
    assert _guard(rhs, tier, backend, use_windows) == (
        ExecutionError, "index 9 out of range [1, 8] in dimension 0 of 'A'"
    )


@pytest.mark.parametrize("use_windows", [False, True], ids=["dense", "windows"])
@pytest.mark.parametrize("backend", ["auto", *BACKENDS])
@pytest.mark.parametrize("tier", TIER_OPTIONS)
@pytest.mark.parametrize("rhs", [
    "if I < n then A[I + 1] else 0.0",
    "if I = n or A[I + 1] > 4.0 then 1.0 else 0.0",
], ids=["if", "or"])
def test_an_unselected_clipped_lane_stays_on_the_vector_path(
    rhs, tier, backend, use_windows, monkeypatch
):
    """The branch reads ``A[n + 1]`` only on the lane ``I = n``, which it
    does not select: the vector row's clip is harmless, the run matches the
    serial reference bit for bit, and nothing reruns on the scalar walk."""
    want = _guard(rhs, "off", "serial", False)
    assert isinstance(want, np.ndarray)

    def rerun(*_args, **_kwargs):
        raise AssertionError("an in-range span reran on the scalar walk")

    monkeypatch.setattr(ExecutionBackend, "_exec_equation_scalar_fallback", rerun)
    monkeypatch.setattr(ExecutionBackend, "_rerun_checked", rerun)
    got = _guard(rhs, tier, backend, use_windows)
    assert isinstance(got, np.ndarray), got
    assert got.tobytes() == want.tobytes()


GUARD_2D = """\
Guard: module (A: array[1 .. n, 1 .. n] of real; n: int):
       [B: array[1 .. n, 1 .. n] of real];
type I = 1 .. n; J = 1 .. n;
define
    B[I, J] = if J > 3 then A[I, J + {gap}] else 0.0;
end Guard;
"""


@pytest.mark.parametrize("strategy", ["vector", "nest"])
@pytest.mark.parametrize("tier", TIERS)
def test_a_guarded_row_reruns_on_the_walk(tier, strategy):
    """A ``nest`` runs its rows on the loop's C kernel on the native tier —
    whose entry proof fails and reruns on the Python dialect — and a
    ``vector`` span, where a selected lane that clips reruns the span on
    the scalar walk. Either way the reference error is raised; with the
    read in range both match the reference."""
    options = ExecutionOptions(backend="threaded", workers=2, kernel_tier=tier)
    reference = ExecutionOptions(backend="serial", use_kernels=False)
    args = {"A": np.arange(1.0, 65.0).reshape(8, 8), "n": 8}
    for gap in (1, 0):
        analyzed = analyze_module(parse_module(GUARD_2D.format(gap=gap)))
        flow = schedule_module(analyzed)
        plan = forced_plan(
            analyzed, flow, "threaded", options, {"n": 8}, default=strategy,
            cpu_count=2,
        )
        assert plan.strategies()[0] == ("I", strategy)
        if gap:
            with pytest.raises(ExecutionError) as raised:
                execute_module(analyzed, dict(args), flow, options, plan=plan)
            assert str(raised.value) == (
                "index 9 out of range [1, 8] in dimension 1 of 'A'"
            )
        else:
            got = execute_module(analyzed, dict(args), flow, options, plan=plan)
            want = execute_module(analyzed, dict(args), flow, reference)
            assert got["B"].tobytes() == want["B"].tobytes()
