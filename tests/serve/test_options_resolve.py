"""ExecutionOptions.resolve — the one options-resolution path — and
ExecutionOptions.key — the one options cache key."""

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from repro.core.paper import RELAXATION_JACOBI_SOURCE
from repro.core.pipeline import compile_source
from repro.errors import ExecutionError
from repro.runtime.executor import ExecutionOptions
from repro.serve import Session

ARGS = {"M": 4, "maxK": 2}

#: the options retired so far: the blocked scan's float variant and the
#: switches that hid ``collapse`` and ``fission`` from the planner
RETIRED_OPTIONS = ["allow_reassoc", "use_collapse", "use_fission"]

SURVIVING_FIELDS = [
    "use_windows", "debug_windows", "backend", "workers", "use_kernels",
    "kernel_tier", "strategy",
]


def _session_plan(options):
    with Session() as session:
        session.load(RELAXATION_JACOBI_SOURCE)
        return session.plan("Relaxation", ARGS, options=options)


def _session_run(**overrides):
    with Session() as session:
        session.load(RELAXATION_JACOBI_SOURCE)
        args = {**ARGS, "InitialA": np.zeros((6, 6))}
        return session.run("Relaxation", args, **overrides)


class TestResolve:
    def test_no_base_no_overrides_is_defaults(self):
        assert ExecutionOptions.resolve() == ExecutionOptions()

    def test_overrides_apply_over_base(self):
        base = ExecutionOptions(backend="threaded", workers=3)
        merged = ExecutionOptions.resolve(base, backend="serial")
        assert merged.backend == "serial"
        assert merged.workers == 3

    def test_none_override_keeps_base_value(self):
        base = ExecutionOptions(backend="threaded", workers=3)
        merged = ExecutionOptions.resolve(base, backend=None, workers=None)
        assert merged == base

    def test_base_is_never_mutated(self):
        base = ExecutionOptions(backend="threaded")
        ExecutionOptions.resolve(base, backend="vectorized", workers=9)
        assert base.backend == "threaded"
        assert base.workers is None

    def test_no_effective_overrides_returns_base(self):
        base = ExecutionOptions(workers=2)
        assert ExecutionOptions.resolve(base, backend=None) is base

    def test_unknown_field_raises_with_name(self):
        with pytest.raises(TypeError, match="bogus_field"):
            ExecutionOptions.resolve(None, bogus_field=1)

    @pytest.mark.parametrize("retired", RETIRED_OPTIONS)
    @pytest.mark.parametrize(
        "resolve",
        [lambda **o: ExecutionOptions.resolve(None, **o), _session_run],
        ids=["resolve", "Session.run"],
    )
    def test_a_retired_option_is_refused_naming_the_fields(self, resolve, retired):
        assert [f.name for f in fields(ExecutionOptions)] == SURVIVING_FIELDS
        with pytest.raises(TypeError) as exc:
            resolve(**{retired: True})
        assert repr([retired]) in str(exc.value)
        assert f"valid fields: {sorted(SURVIVING_FIELDS)}" in str(exc.value)

    @pytest.mark.parametrize(
        "plan",
        [
            lambda o: compile_source(RELAXATION_JACOBI_SOURCE).plan(ARGS, o),
            _session_plan,
        ],
        ids=["CompileResult.plan", "Session.plan"],
    )
    def test_the_retired_process_backend_fails_at_plan_time(self, plan):
        options = ExecutionOptions(backend="process")
        with pytest.raises(ExecutionError) as exc:
            plan(options)
        assert "unknown execution backend 'process'" in str(exc.value)
        assert "available: serial, vectorized, threaded" in str(exc.value)

    @pytest.mark.parametrize(
        "plan",
        [
            lambda o: compile_source(RELAXATION_JACOBI_SOURCE).plan(ARGS, o),
            _session_plan,
            lambda o: _session_run(strategy=o.strategy),
        ],
        ids=["CompileResult.plan", "Session.plan", "Session.run"],
    )
    def test_the_retired_collapse_strategy_fails_at_plan_time(self, plan):
        options = ExecutionOptions(strategy="collapse")
        with pytest.raises(ExecutionError) as exc:
            plan(options)
        assert str(exc.value) == (
            "unknown strategy 'collapse'; available: serial, vector, nest"
        )

    def test_base_is_positional_only(self):
        # keyword base would silently collide with a field named "base" if
        # one ever appeared; the signature forbids it outright
        with pytest.raises(TypeError):
            ExecutionOptions.resolve(base=ExecutionOptions())

    def test_false_and_zero_are_real_overrides(self):
        base = ExecutionOptions(use_kernels=True, use_windows=True)
        merged = ExecutionOptions.resolve(base, use_kernels=False)
        assert merged.use_kernels is False
        assert merged.use_windows is True


#: a non-default value per non-boolean field; a new non-boolean option must
#: be added here, which is the point — it cannot be left out of the key
OTHER_VALUE = {
    "backend": "serial",
    "workers": 3,
    "kernel_tier": "numpy",
    "strategy": "nest",
}


def _each_field_changed():
    base = ExecutionOptions()
    for f in fields(ExecutionOptions):
        value = getattr(base, f.name)
        changed = (not value) if isinstance(value, bool) else OTHER_VALUE[f.name]
        yield f.name, replace(base, **{f.name: changed})


class TestOptionsKey:
    """``ExecutionOptions.key()`` is the one definition of "these options
    are the same plan"; every options-keyed cache uses it."""

    def test_every_field_changes_the_key(self):
        base = ExecutionOptions().key()
        for name, changed in _each_field_changed():
            assert changed.key() != base, name

    def test_a_subclass_field_is_part_of_the_key(self):
        @dataclass
        class Extended(ExecutionOptions):
            new_option: bool = False

        assert Extended(new_option=True).key() != Extended().key()
        assert len(Extended().key()) == len(ExecutionOptions().key()) + 1

    def test_every_field_gets_its_own_plan_cache_entry(self):
        """The staleness bug a hand-listed key tuple allows: an option
        missing from the key is served another option's cached plan."""
        result = compile_source(RELAXATION_JACOBI_SOURCE)
        result.plan(ARGS)
        for name, changed in _each_field_changed():
            before = len(result._plan_cache)
            result.plan(ARGS, execution=changed)
            assert len(result._plan_cache) == before + 1, name
