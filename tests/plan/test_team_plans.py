"""Team plans: a compiled ``DO`` over ``DOALL`` s on a team of threads.

Plans depend on whether the host builds OpenMP, so every test here fixes
the probe (``openmp_host``, or the suite's default of no OpenMP) as well as
``cpu_count``. Pinned:

* the Jacobi grids of ``benchmarks/e2e`` at two cores take ``team x2``
  (their one-shot copies, priced per loop, compile too), and so does
  hyperplane Gauss-Seidel now that its entry proof discharges every range
  check; the hyperplane alignment's thin planes do not pay
  for their barriers, and ``explain()`` says so;
* a one-worker plan never consults the probe, so it is the plan of a host
  without OpenMP;
* a team sits only on a ``nest`` over a ``DO`` met on the caller's thread —
  never on a chunk, span or flat kernel, never below a ``chunk`` or
  ``collapse`` loop;
* asking for a second worker never raises ``auto``'s predicted cost.
"""

import re
import textwrap

import pytest

from repro.core.paper import gauss_seidel_analyzed, jacobi_analyzed
from repro.core.pipeline import CompilerOptions, compile_source
from repro.errors import ReproError
from repro.hyperplane.pipeline import hyperplane_transform
from repro.plan.ir import KNOWN_BACKENDS
from repro.plan.planner import build_plan
from repro.runtime.executor import ExecutionOptions
from repro.schedule.scheduler import schedule_module

from tests.plan.conftest import DP_SOURCE, WORKLOADS
from tests.runtime.test_kernel_sources import CORPUS

JACOBI_TEAM = """\
    plan Relaxation: backend=serial workers=2 kernels=native windows={w} [auto]
    DOALL I -> nest; trip 130; fused nest kernel
        DOALL J -> nest; trip 130; fused
            eq.1 [kernel=native]
    DO K -> nest; trip 39; compiled in order; team x2
        DOALL I -> nest; trip 130; fused
            DOALL J -> nest; trip 130; fused
                eq.3 [kernel=native]
    DOALL I -> nest; trip 130; fused nest kernel
        DOALL J -> nest; trip 130; fused
            eq.2 [kernel=native]"""

#: cycle counts masked (``~N``): the constants behind them are refitted
JACOBI_TEAM_EXPLAIN = """\
    provenance Relaxation: auto -> serial
    pricing: native build charged to this run
      DO K @(1,): compiled nest [native, team x2], trip 39: predicted ~N vs ~N cycles on the walk (compiled in order)
      DOALL I @(0,): nest, trip 130: serial ~N, vector ~N, *nest ~N, chunk ~N, collapse ~N cycles
      DOALL I @(2,): nest, trip 130: serial ~N, vector ~N, *nest ~N, chunk ~N, collapse ~N cycles
      native full kernel @(0,) (DOALL I): range checks: 5 of 5 proven at entry
      native team kernel @(1,) (DO K): range checks: 18 of 18 proven at entry
      native full kernel @(2,) (DOALL I): range checks: 5 of 5 proven at entry
      A: {a}; recycled between runs
      newA: uninitialised, every element is defined; recycled between runs"""

GS_HYPER = """\
    plan RelaxationHyper: backend=serial workers=2 kernels=native windows=off [auto]
    DO Kp -> nest; trip 209; compiled in order; team x2
        DOALL Ip -> nest; trip 8; fused
            DOALL Jp -> nest; trip 98; fused
                eq.1 [kernel=native]
    DOALL I -> nest; trip 98; fused nest kernel
        DOALL J -> nest; trip 98; fused
            eq.2 [kernel=native]"""

GS_HYPER_EXPLAIN = """\
    provenance RelaxationHyper: auto -> serial
    pricing: native build charged to this run
      DO Kp @(0,): compiled nest [native, team x2], trip 209: predicted ~N vs ~N cycles on the walk (compiled in order)
      DOALL I @(1,): nest, trip 98: serial ~N, vector ~N, *nest ~N, chunk ~N, collapse ~N cycles
      native team kernel @(0,) (DO Kp): range checks: 20 of 20 proven at entry
      native full kernel @(1,) (DOALL I): range checks: 5 of 5 proven at entry
      Ap: uninitialised, every element is defined; recycled between runs
      newA: uninitialised, every element is defined; below 128 KiB: left to malloc"""

ALIGN_HYPER = """\
    plan AlignHyper: backend=serial workers=2 kernels=native windows=off [auto]
    DO Ip -> nest; trip 513; compiled in order
        DOALL Jp -> nest; trip 257; fused
            eq.1 [kernel=native]
    eq.2 [kernel=scalar]"""

#: a size for every integer parameter the corpus declares
SIZES = {"M": 64, "maxK": 8, "n": 4000, "m": 64, "r": 4, "c": 512, "k": 3}


def _masked(text: str) -> str:
    return re.sub(r"~\d+", "~N", text)


def _corpus():
    """(tag, analyzed, flowchart, sizes) for every corpus program, plain
    and hyperplane-transformed where that applies."""
    for name, source in CORPUS.items():
        for hyper in (False, True):
            try:
                result = compile_source(source, CompilerOptions(hyperplane=hyper))
            except ReproError:
                continue
            analyzed = result.analyzed
            sizes = {p: SIZES[p] for p in analyzed.param_names if p in SIZES}
            yield f"{name}/h{int(hyper)}", analyzed, result.flowchart, sizes


CORPUS_PLANS = list(_corpus())
CORPUS_IDS = [c[0] for c in CORPUS_PLANS]


def _plan(analyzed, flow, sizes, workers, **options):
    return build_plan(
        analyzed, flow, ExecutionOptions(workers=workers, **options), sizes,
        cpu_count=workers,
    )


class TestTeamGoldens:
    @pytest.mark.parametrize("use_windows", [False, True])
    def test_jacobi_grid_takes_a_team_of_two(self, openmp_host, use_windows):
        analyzed = jacobi_analyzed()
        plan = _plan(
            analyzed, schedule_module(analyzed), {"M": 128, "maxK": 40}, 2,
            use_windows=use_windows,
        )
        assert plan.pretty() == textwrap.dedent(JACOBI_TEAM).format(
            w="on" if use_windows else "off"
        )
        assert _masked(plan.explain()) == textwrap.dedent(
            JACOBI_TEAM_EXPLAIN
        ).format(
            a="zero-filled, it has a window dimension" if use_windows
            else "uninitialised, every element is defined"
        )
        # the team kernel replaces the sweep's full one
        assert plan.native_kernels() == [
            ((0,), "full"), ((1,), "team"), ((2,), "full"),
        ]

    def test_hyperplane_gauss_seidel_takes_a_team_of_two(self, openmp_host):
        analyzed = hyperplane_transform(gauss_seidel_analyzed()).transformed
        plan = _plan(analyzed, schedule_module(analyzed), {"M": 96, "maxK": 8}, 2)
        assert plan.pretty() == textwrap.dedent(GS_HYPER)
        assert _masked(plan.explain()) == textwrap.dedent(GS_HYPER_EXPLAIN)
        (note,) = plan.provenance["do_loops"]
        assert (note["team"], note["team_note"]) == (2, "")
        assert plan.native_kernels() == [((0,), "team"), ((1,), "full")]

    def test_hyperplane_alignment_keeps_one_thread(self, openmp_host):
        """Every check of the alignment's ``DO Ip`` is proven, so a team
        is offered — and priced dearer: 513 planes of 257 elements, each
        paying a barrier."""
        result = compile_source(DP_SOURCE, CompilerOptions(hyperplane=True))
        plan = _plan(result.analyzed, result.flowchart, {"n": 256}, 2)
        assert plan.pretty() == textwrap.dedent(ALIGN_HYPER)
        (note,) = plan.provenance["do_loops"]
        assert note["team"] is None
        assert re.fullmatch(r"team x2 not cheaper \(~\d+ cycles\)", note["team_note"])
        assert "; " + note["team_note"] in plan.explain()
        assert "range checks: 10 of 10 proven at entry" in plan.explain()

    def test_without_openmp_the_grid_plans_as_before(self):
        analyzed = jacobi_analyzed()
        plan = _plan(analyzed, schedule_module(analyzed), {"M": 128, "maxK": 40}, 2)
        assert "team" not in plan.pretty() + plan.explain()
        assert plan.native_kernels() == [
            ((0,), "full"), ((1,), "full"), ((2,), "full"),
        ]


class TestOneWorkerPlansUnchanged:
    @pytest.mark.parametrize(
        "case", CORPUS_PLANS + [w[:4] for w in WORKLOADS],
        ids=CORPUS_IDS + [w[0] for w in WORKLOADS],
    )
    @pytest.mark.parametrize("use_windows", [False, True])
    def test_one_worker_never_asks_for_openmp(self, case, use_windows, monkeypatch):
        _tag, analyzed, flow, sizes = case
        sizes = {k: v for k, v in sizes.items() if isinstance(v, int)}
        without = _plan(analyzed, flow, sizes, 1, use_windows=use_windows)

        def asked():
            raise AssertionError("a one-worker plan consulted the OpenMP probe")

        monkeypatch.setattr("repro.runtime.kernels.native.openmp_supported", asked)
        plan = _plan(analyzed, flow, sizes, 1, use_windows=use_windows)
        assert plan.pretty() == without.pretty()
        assert plan.explain() == without.explain()


class TestTeamsStayOnTheCallersThread:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("case", CORPUS_PLANS, ids=CORPUS_IDS)
    def test_a_team_is_a_nest_over_a_do_with_no_pool_around_it(
        self, openmp_host, case, workers
    ):
        _tag, analyzed, flow, sizes = case
        for backend in ("auto", *KNOWN_BACKENDS):
            plan = _plan(analyzed, flow, sizes, workers, backend=backend)
            for path, lp in plan.loops.items():
                if not lp.team:
                    continue
                assert (lp.strategy, lp.keyword) == ("nest", "DO")
                assert lp.team == workers
                assert lp.kernel_shape() == "team"
                outer = [
                    plan.loops[path[:k]] for k in range(1, len(path))
                    if path[:k] in plan.loops
                ]
                assert all(
                    o.strategy not in ("chunk", "collapse", "nest")
                    for o in outer
                ), f"team at {path} below a pool or another kernel"
            shapes = dict(plan.native_kernels())
            assert all(
                plan.loops[path].team for path, s in shapes.items() if s == "team"
            )

    def test_the_corpus_has_teams_to_check(self, openmp_host):
        teams = [
            tag for tag, analyzed, flow, sizes in CORPUS_PLANS
            if any(lp.team for lp in _plan(analyzed, flow, sizes, 2).loops.values())
        ]
        assert {"jacobi/h0", "tallskinny/h1", "align/h1"} <= set(teams)


class TestMoreWorkersNeverCostMore:
    """The host-proof half of "``auto`` with p workers is never slower than
    with 1": a prediction, so no host can fail it."""

    @pytest.mark.parametrize("openmp", [False, True])
    @pytest.mark.parametrize("case", CORPUS_PLANS, ids=CORPUS_IDS)
    def test_predicted_cost_is_monotone_in_workers(self, case, openmp, monkeypatch):
        monkeypatch.setattr(
            "repro.runtime.kernels.native.openmp_supported", lambda: openmp
        )
        _tag, analyzed, flow, sizes = case
        one = _plan(analyzed, flow, sizes, 1)
        two = _plan(analyzed, flow, sizes, 2)
        assert two.cycles <= one.cycles
