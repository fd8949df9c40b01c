"""Integer ``div`` / ``mod`` by zero answer the evaluator on every path.

The scalar walk and the C tier raise ``ZeroDivisionError``; NumPy integers
would give 0. A vector span cannot know whether the dividing lane is
selected, so it hands the span to the scalar walk, which raises only
where the division is reached — never where an ``if`` discards it.
"""

import numpy as np
import pytest

from repro.core.pipeline import compile_source
from repro.runtime.executor import ExecutionOptions

HEADER = (
    "Quot: module (n: int; X: array[1 .. n] of int; D: array[1 .. 2] of int):"
    " [B: array[1 .. n] of int];\ntype I = 1 .. n;\n"
)

#: right-hand sides of ``B[I]``: a bare zero divisor, one an ``if``
#: discards on every lane, and a divisor of two scalars inside a vector span
CASES = {
    "bare": ("X[I] {op} D[1]", True),
    "guarded": ("if D[1] = 0 then 0 else X[I] {op} D[1]", False),
    "guarded_scalars": ("if D[1] = 0 then X[I] else D[2] {op} D[1]", False),
}


def source(case: str, op: str) -> str:
    rhs = CASES[case][0].format(op=op)
    return f"{HEADER}define B[I] = {rhs};\nend Quot;"


def inputs() -> dict:
    return {"n": 8, "X": np.arange(-3, 5, dtype=np.int64), "D": np.array([0, 7])}


EVALUATOR = ExecutionOptions(backend="serial", use_kernels=False)


@pytest.mark.parametrize("tier", ["native", "numpy"])
@pytest.mark.parametrize("strategy", ["vector", "nest", "serial"])
@pytest.mark.parametrize("op", ["div", "mod"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_zero_divisor_answers_the_evaluator(case, op, strategy, tier):
    result = compile_source(source(case, op))
    options = ExecutionOptions(strategy=strategy, kernel_tier=tier)
    assert result.plan({"n": 8}, options).strategies() == [("I", strategy)]
    raises = CASES[case][1]
    if raises:
        with pytest.raises(ZeroDivisionError, match="integer division or modulo"):
            result.run(inputs(), EVALUATOR)
        with pytest.raises(ZeroDivisionError, match="integer division or modulo"):
            result.run(inputs(), options)
        return
    want = result.run(inputs(), EVALUATOR)["B"]
    for _ in range(2):  # cold, then warm
        got = result.run(inputs(), options)["B"]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_nonzero_divisor_still_floors():
    result = compile_source(source("bare", "div"))
    args = {**inputs(), "D": np.array([-2, 7])}
    out = result.run(args, ExecutionOptions(strategy="vector"))["B"]
    assert list(out) == [x // -2 for x in range(-3, 5)]
