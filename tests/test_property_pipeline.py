"""End-to-end property tests over randomly generated PS programs.

These are the strongest guarantees in the suite:

* for random constant-offset stencil modules, the vectorised executor, the
  scalar reference executor, and the generated Python code all compute the
  same values;
* when the hyperplane transformation applies, the transformed module
  computes exactly what the original does;
* schedules are always valid (no read-before-write), already covered in
  tests/analysis, here re-checked through execution equality.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.pygen import compile_python
from repro.errors import CodegenError, ScheduleError, TransformError
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.runtime.executor import ExecutionOptions, execute_module

# Strictly-past neighbour offsets for a 2-D recurrence (lexicographically
# positive dependences, so a schedule always exists).
_OFFSETS = [(-1, 0), (0, -1), (-1, -1), (-1, 1), (-2, 0), (0, -2), (-2, 1)]


@st.composite
def stencil_case(draw):
    offsets = draw(
        st.lists(st.sampled_from(_OFFSETS), min_size=1, max_size=4, unique=True)
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=len(offsets),
            max_size=len(offsets),
        )
    )
    n = draw(st.integers(min_value=4, max_value=8))
    terms = " + ".join(
        f"{w} * G[R{di:+d}, C{dj:+d}]"
        .replace("+0]", "]").replace("-0]", "]")
        .replace("R+0", "R").replace("C+0", "C")
        for w, (di, dj) in zip(weights, offsets)
    )
    back_r = max(-di for di, _ in offsets)
    back_c = max(abs(dj) for _, dj in offsets)
    total = sum(weights)
    src = (
        "T: module (n: int; Seed: array[0 .. n] of real): [Out: array[0 .. n] of real];\n"
        "type R = 0 .. n; C = 0 .. n;\n"
        "var G: array [0 .. n, 0 .. n] of real;\n"
        "define\n"
        f"G[R, C] = if (R < {back_r}) or (C < {back_c}) or (C > n - {back_c})\n"
        f"          then Seed[C] + R\n"
        f"          else ({terms}) / {total};\n"
        "Out[C] = G[n, C];\nend T;"
    )
    return src, n


class TestExecutionAgreement:
    @given(stencil_case())
    @settings(max_examples=25, deadline=None)
    def test_vectorised_equals_scalar(self, case):
        src, n = case
        analyzed = analyze_module(parse_module(src))
        try:
            rng = np.random.default_rng(n)
            args = {"n": n, "Seed": rng.random(n + 1)}
            fast = execute_module(
                analyzed, args, options=ExecutionOptions()
            )
            slow = execute_module(
                analyzed, args, options=ExecutionOptions(backend="serial")
            )
        except ScheduleError:
            return
        np.testing.assert_allclose(fast["Out"], slow["Out"], rtol=1e-10)

    @given(stencil_case())
    @settings(max_examples=15, deadline=None)
    def test_generated_python_equals_interpreter(self, case):
        src, n = case
        analyzed = analyze_module(parse_module(src))
        try:
            fn = compile_python(analyzed)
        except (ScheduleError, CodegenError):
            return
        rng = np.random.default_rng(n + 1)
        seed = rng.random(n + 1)
        expected = execute_module(analyzed, {"n": n, "Seed": seed})["Out"]
        np.testing.assert_allclose(fn(n, seed), expected, rtol=1e-10)

    @given(stencil_case())
    @settings(max_examples=15, deadline=None)
    def test_windowed_execution_equals_full(self, case):
        src, n = case
        analyzed = analyze_module(parse_module(src))
        try:
            rng = np.random.default_rng(n + 2)
            args = {"n": n, "Seed": rng.random(n + 1)}
            full = execute_module(analyzed, args)
            windowed = execute_module(
                analyzed,
                args,
                options=ExecutionOptions(use_windows=True, debug_windows=True),
            )
        except ScheduleError:
            return
        np.testing.assert_allclose(windowed["Out"], full["Out"], rtol=1e-10)


class TestHyperplaneEquivalence:
    @given(stencil_case())
    @settings(max_examples=15, deadline=None)
    def test_transformed_module_is_same_function(self, case):
        src, n = case
        analyzed = analyze_module(parse_module(src))
        try:
            res = hyperplane_transform(analyzed, array="G")
        except (TransformError, ScheduleError):
            return
        rng = np.random.default_rng(n + 3)
        args = {"n": n, "Seed": rng.random(n + 1)}
        expected = execute_module(analyzed, args)["Out"]
        got = execute_module(res.transformed, args)["Out"]
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @given(stencil_case())
    @settings(max_examples=10, deadline=None)
    def test_transformed_schedule_has_single_do(self, case):
        src, n = case
        analyzed = analyze_module(parse_module(src))
        try:
            res = hyperplane_transform(analyzed, array="G")
        except (TransformError, ScheduleError):
            return
        kinds = res.transformed_flowchart.loop_kinds()
        do_loops = [idx for kw, idx in kinds if kw == "DO"]
        # Exactly one iterative loop: the time dimension.
        assert len(do_loops) == 1

    @given(stencil_case())
    @settings(max_examples=10, deadline=None)
    def test_time_vector_satisfies_dependences(self, case):
        src, n = case
        analyzed = analyze_module(parse_module(src))
        try:
            res = hyperplane_transform(analyzed, array="G")
        except (TransformError, ScheduleError):
            return
        for v in res.dependences.vectors:
            assert sum(p * d for p, d in zip(res.pi, v)) >= 1
