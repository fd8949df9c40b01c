"""Totality of the section-4 transform: on any module it either refuses
with :class:`TransformError` or returns a module that computes exactly
what the original computes — every result bit-equal on the evaluator.
A front-end error from the rewritten module is a transform defect."""

import numpy as np
import pytest

from repro.core import paper, recurrences
from repro.core.genprog import generate_program, program_args
from repro.errors import TransformError
from repro.hyperplane import pipeline
from repro.hyperplane.pipeline import hyperplane_transform
from repro.ps.ast import Module
from repro.ps.parser import parse_module
from repro.ps.semantics import analyze_module
from repro.ps.types import ArrayType, RealType
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.runtime.values import array_bounds

EVALUATOR = ExecutionOptions.resolve(backend="serial", use_kernels=False)
SIZES = {"M": 6, "maxK": 4, "n": 32, "m": 8}
N = 32
SEEDS = range(100)

PATHS_SOURCE = """\
Paths: module (n: int): [Y: array[0 .. n] of int];
type
    I = 1 .. n; J = 1 .. n;
var
    W: array [0 .. n, 0 .. n] of int;
define
    W[0] = 1;
    W[I, 0] = 1;
    W[I, J] = W[I-1, J] + W[I, J-1];
    Y = W[n];
end Paths;
"""

BORDERED_SOURCE = """\
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

NAMED = {
    name: source
    for corpus in (paper, recurrences)
    for name, source in vars(corpus).items()
    if name.endswith("_SOURCE")
}


def _args(analyzed, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    args: dict = {}
    for name in analyzed.param_names:
        t = analyzed.symbol(name).type
        if not isinstance(t, ArrayType):
            args[name] = SIZES[name] if name in SIZES else float(rng.random())
    for name in analyzed.param_names:
        t = analyzed.symbol(name).type
        if isinstance(t, ArrayType):
            shape = [hi - lo + 1 for lo, hi in array_bounds(t, args)]
            if t.element == RealType:
                args[name] = rng.random(shape)
            else:
                args[name] = rng.integers(-5, 6, shape)
    return args


def _transforms_or_refuses(source: str, args: dict | None = None) -> bool:
    """True when the transform applies and computes what the original
    does; False when it refuses."""
    analyzed = analyze_module(parse_module(source))
    try:
        res = hyperplane_transform(analyzed)
    except TransformError:
        return False
    args = args if args is not None else _args(analyzed, 0)
    want = execute_module(analyzed, dict(args), options=EVALUATOR)
    got = execute_module(res.transformed, dict(args), options=EVALUATOR)
    assert set(got) == set(want)
    for name, value in want.items():
        assert np.array_equal(np.asarray(got[name]), np.asarray(value)), name
    return True


class TestTotality:
    def test_generated_programs(self):
        applied = 0
        for seed in SEEDS:
            prog = generate_program(seed)
            applied += _transforms_or_refuses(
                prog.source, program_args(prog, N, seed=seed)
            )
        assert applied >= len(SEEDS) // 2  # not a property of refusals

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_paper_and_recurrence_modules(self, name):
        _transforms_or_refuses(NAMED[name])

    @pytest.mark.parametrize(
        "name", ["ISUM_SOURCE", "RUNMAX_SOURCE", "ILINREC_SOURCE", "MIXED_SOURCE"]
    )
    def test_a_recursive_result_is_rotated_out(self, name):
        assert _transforms_or_refuses(NAMED[name])

    def test_an_anonymous_implicit_dimension_gets_a_declared_name(self):
        assert _transforms_or_refuses(PATHS_SOURCE, {"n": 12})

    def test_elements_no_equation_defines_read_as_zero(self):
        # A's border is never defined: the recurrence reads it as zero
        assert _transforms_or_refuses(BORDERED_SOURCE, {
            "InitialA": np.arange(30.0).reshape(5, 6), "r": 3, "c": 4, "maxK": 3,
        })

    def test_a_rejected_rewrite_is_a_transform_error(self, monkeypatch):
        rewrite = pipeline.rewrite_module

        def drop_last_equation(*args, **kwargs):
            module, new_array, new_names = rewrite(*args, **kwargs)
            broken = Module(
                module.name, module.params, module.results, module.typedecls,
                module.vardecls, module.equations[:-1],
            )
            return broken, new_array, new_names

        monkeypatch.setattr(pipeline, "rewrite_module", drop_last_equation)
        with pytest.raises(TransformError, match="has no defining equation"):
            hyperplane_transform(analyze_module(parse_module(NAMED["ISUM_SOURCE"])))
