"""The ExecutionPlan IR.

An :class:`ExecutionPlan` is a per-module execution recipe produced once by
the planner (:mod:`repro.plan.planner`) and consumed by the execution
engine. It mirrors the flowchart's loop tree: one :class:`LoopPlan` per
loop descriptor (addressed by the descriptor's child-index path) plus one
:class:`EquationPlan` per equation. The plan is inspectable —
``repro plan module.ps`` pretty-prints it — and *forcible*: tests and
benchmarks build hand-forced plans to pin a strategy per loop, and any
forced plan must stay bit-exact against the serial reference evaluator.

Loop strategies
---------------

``LoopPlan.strategy`` names one entry of
:data:`repro.plan.strategy.LOOP_STRATEGIES` — ``serial`` (the reference
walk), ``vector`` (one NumPy span), ``nest`` (one compiled kernel, on a
``DOALL`` or a ``DO`` root) and ``chunk`` (a ``DOALL``'s subrange divided
among workers).
Each is one object that recognises, prices, emits and executes loops, and
its docstring is the reference; the plan reads a loop's kernel shape and
the head of its ``pretty()`` row from it. Every path a plan holds names a
loop of the flowchart's own tree.
A compiled loop's ``LoopPlan.dialect`` says which text of its kernel runs
— C (``"native"``) or the exec-compiled Python dialect (``"python"``) —
and ``LoopPlan.team`` (``team xN``) that a ``DO`` over ``DOALL`` s runs as
one C call on ``N`` OpenMP threads.

Every strategy is bit-exact against the reference evaluator: none
reassociates floating-point arithmetic. A run of sibling loops over one
subrange — a recurrence feeding its consumers — plans loop by loop: the
recurrence as the compiled ``DO`` (``nest``), each consumer as an ordinary
``DOALL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.plan.strategy import LOOP_STRATEGIES

#: valid LoopPlan.strategy values
VALID_STRATEGIES = tuple(LOOP_STRATEGIES)

#: every label ``ExecutionPlan.backend`` may carry. Each plan runs on the
#: one engine (:class:`repro.runtime.backends.ExecutionBackend`), and only
#: a ``threaded`` plan sends wavefronts to the engine's thread pool. A
#: pinned label decides which strategies the planner offers a ``DOALL``
#: (``_Planner._pin_refusal``); an ``auto`` plan offers every strategy per
#: loop and takes its label from the loops it planned.
KNOWN_BACKENDS = ("serial", "vectorized", "threaded")

#: the names per-strategy loop counts are kept under: the valid ones plus
#: the retired ``collapse`` (a perfect chain's flattened space divided
#: among workers; ``chunk`` does that job), ``iterate`` (folded into
#: ``serial``), decoupled ``pipeline``, blocked ``scan`` and
#: dependence-split ``fission``, which no plan carries and every entry
#: point refuses. The end-to-end benchmark still declares
#: ``plan.loops.<name>`` counts for them (always 0) and reads them from
#: this tuple; the retired names leave here when those rows leave the
#: benchmark.
STRATEGIES = (
    *VALID_STRATEGIES, "collapse", "iterate", "pipeline", "scan", "fission",
)

#: valid EquationPlan.kernel values — "native" marks an equation whose
#: enclosing nest lowers to the cffi-compiled C tier (degrading to the
#: NumPy "nest" kernel at runtime when no C compiler exists)
KERNEL_VARIANTS = ("scalar", "vector", "nest", "native", "evaluator")


class PlanError(ReproError):
    """An invalid or inapplicable execution plan."""


@dataclass
class EquationPlan:
    """How one equation executes under the chosen enclosing strategy."""

    label: str
    #: descriptor path of the equation's NodeDescriptor
    path: tuple[int, ...]
    #: kernel variant the equation runs on under the planned strategy
    kernel: str = "scalar"
    #: why the equation cannot leave the evaluator (when kernel=evaluator)
    reason: str = ""

    def annotation(self) -> str:
        note = f"kernel={self.kernel}"
        if self.reason:
            note += f" ({self.reason})"
        return note


@dataclass
class LoopPlan:
    """The planner's decision for one loop descriptor."""

    #: descriptor path in the flowchart tree (picklable handle)
    path: tuple[int, ...]
    index: str
    keyword: str  # "DO" | "DOALL"
    strategy: str
    #: chunk count (``chunk``)
    parts: int | None = None
    #: trip count the planner saw (None: bounds not statically evaluable)
    trip: int | None = None
    #: whether this nest is fused into one compiled kernel
    fuse: bool = False
    #: predicted cycles for the chosen strategy (calibrated model)
    cycles: float | None = None
    #: one-line rationale for the choice
    reason: str = ""
    #: which dialect of its nest kernel a kernel-dispatching loop runs
    #: (``nest`` / ``chunk`` roots):
    #: ``"native"`` — C, built before the plan's first run, degrading to
    #: the Python dialect and then the walk when the toolchain fails — or
    #: ``"python"`` — the exec-compiled kernels only; no compiler is
    #: started for this loop. ``None``: the loop dispatches no kernel.
    dialect: str | None = None
    #: how many threads the loop's C kernel runs on (a ``nest`` over a
    #: ``DO`` that holds ``DOALL`` s); ``None``: the caller's thread alone
    team: int | None = None

    def kernel_shape(self) -> str | None:
        """The nest shape (:mod:`repro.runtime.kernels.nest`) the loop's
        strategy dispatches its kernel in, None for strategies that
        dispatch none. Meaningful on a loop that carries a ``dialect``."""
        if self.team:
            return "team"
        return LOOP_STRATEGIES[self.strategy].shape

    def annotation(self) -> str:
        bits = LOOP_STRATEGIES[self.strategy].annotate(self)
        if self.trip is not None:
            bits.append(f"trip {self.trip}")
        if self.reason:
            bits.append(self.reason)
        if self.team:
            bits.append(f"team x{self.team}")
        return "; ".join(bits)


@dataclass
class PlanEntry:
    """One pre-order row of the plan tree (for pretty-printing)."""

    depth: int
    loop: LoopPlan | None = None
    equation: EquationPlan | None = None
    #: non-equation data node label (declarations pass through untouched)
    label: str | None = None


@dataclass
class ExecutionPlan:
    """The full per-module execution recipe."""

    module: str
    #: the resolved backend label, one of :data:`KNOWN_BACKENDS`
    backend: str
    #: what the user asked for ("auto" or an explicit backend)
    requested: str
    workers: int
    use_windows: bool
    use_kernels: bool
    #: highest kernel tier the plan budgets for ("native" | "numpy")
    kernel_tier: str = "native"
    entries: list[PlanEntry] = field(default_factory=list)
    #: loop plans keyed by descriptor path
    loops: dict[tuple[int, ...], LoopPlan] = field(default_factory=dict)
    #: equation plans keyed by label
    equations: dict[str, EquationPlan] = field(default_factory=dict)
    #: total predicted cycles for the planned execution (calibrated model)
    cycles: float | None = None
    #: how the planner decided each loop — every strategy a ``DOALL`` was
    #: priced or refused on, the compiled ``DO`` s against the walk — and
    #: what it proved about native kernels and storage; rendered by
    #: :meth:`explain` for ``repro plan``
    provenance: dict | None = field(default=None, repr=False, compare=False)
    #: how ``ensure_targets`` allocates each array the equations define: a
    #: string says why it is zero-filled; an ``(ArrayType, boxes)`` pair
    #: says nothing in this plan reads it early, so a run at whose sizes
    #: :func:`repro.runtime.values.undefined_part` finds it totally defined
    #: leaves it uninitialised. An array not named here is zero-filled.
    storage: dict = field(default_factory=dict, repr=False, compare=False)
    #: a run of this plan has completed: later ones recycle their arrays
    ran: bool = field(default=False, repr=False, compare=False)
    #: array name -> where its storage comes from on those later runs
    reuse: dict = field(default_factory=dict, repr=False, compare=False)
    #: array name -> why a window the section-3.4 read rule admits is
    #: refused (window-mode plans only; the array is stored in full)
    window_refusals: dict = field(default_factory=dict, repr=False, compare=False)
    #: the sizes the plan was built for (``explain`` evaluates boxes at them)
    sizes: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: how a run of the plan executes, decided once when the kernel cache
    #: builds its unit: its ``run_<module>`` entry's name, or why the runs
    #: walk the flowchart (None: not decided yet)
    entry: str | None = field(default=None, repr=False, compare=False)
    #: what every run at the last sizes run does alike — its arguments'
    #: and arrays' layouts, its module entry call
    #: (:class:`repro.runtime.backends.base.Recipe`)
    recipe: Any = field(default=None, repr=False, compare=False)
    #: id(descriptor) -> LoopPlan for O(1) lookup during execution; rebuilt
    #: by bind() — valid only against the flowchart the plan was built from
    _by_id: dict[int, LoopPlan] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: id() of the flowchart the index above was built against
    _bound_to: int | None = field(default=None, repr=False, compare=False)

    @property
    def pinned(self) -> bool:
        """True when an explicit backend label pinned the plan."""
        return self.requested != "auto"

    # -- lookup ------------------------------------------------------------

    def bind(self, flowchart) -> ExecutionPlan:
        """Index the plan against ``flowchart``'s descriptor identities so
        the engine can look up plans without recomputing paths. A no-op when
        already bound to this flowchart; otherwise the new index is built
        aside and swapped in atomically (plans are shared across runs — a
        concurrent reader must never observe a half-built index)."""
        if self._bound_to == id(flowchart) and self._by_id:
            return self
        from repro.schedule.flowchart import LoopDescriptor

        by_id: dict[int, LoopPlan] = {}
        stack = [((i,), d) for i, d in enumerate(flowchart.descriptors)]
        while stack:
            path, desc = stack.pop()
            if isinstance(desc, LoopDescriptor):
                plan = self.loops.get(path)
                if plan is not None:
                    by_id[id(desc)] = plan
                stack.extend(
                    (path + (i,), d) for i, d in enumerate(desc.body)
                )
        self._by_id = by_id
        self._bound_to = id(flowchart)
        return self

    def loop_for(self, desc) -> LoopPlan | None:
        """The plan for a loop descriptor of the bound flowchart."""
        return self._by_id.get(id(desc))

    def native_kernels(self) -> list[tuple[tuple[int, ...], str]]:
        """(descriptor path, shape) of every native kernel this plan will
        dispatch — what one translation unit per (module, plan) holds."""
        return [
            (path, lp.kernel_shape())
            for path, lp in self.loops.items()
            if lp.dialect == "native"
        ]

    def entry_shapes(self) -> tuple[str | None, str | None]:
        """``("run <shape> ...", None)`` — the kernel shape of each loop at
        the top of the flowchart, which the module's ``run_<module>`` C
        entry calls in order — when every one of them is a native nest on
        one team width — and there is one: an entry alone would start a
        compiler — else ``(None, why not)``. Whether the equations outside
        the loops lower to C is the entry's own question."""
        shapes, teams = ["run"], set()
        for path, lp in sorted(self.loops.items()):
            if len(path) > 1:
                continue
            if lp.strategy != "nest" or lp.dialect != "native":
                how = lp.dialect or "the walk"
                return None, (
                    f"{lp.keyword} {lp.index} @{path} runs {lp.strategy} "
                    f"[{how}]"
                )
            shapes.append(lp.kernel_shape())
            teams.add(lp.team)
        if len(shapes) == 1:
            return None, "no native loop to call"
        if len(teams - {None}) > 1:
            return None, "its teams differ in width"
        return " ".join(shapes), None

    # -- summaries ---------------------------------------------------------

    def strategies(self) -> list[tuple[str, str]]:
        """(index, strategy) per loop, pre-order — a quick fingerprint."""
        return [
            (e.loop.index, e.loop.strategy)
            for e in self.entries
            if e.loop is not None
        ]

    def pretty(self, cycles: bool = False) -> str:
        """Human-readable plan. ``cycles=True`` appends the calibrated
        cycle predictions (omitted by default: golden tests pin the text
        and the calibration constants may be retuned)."""
        mode = "pinned" if self.pinned else "auto"
        kernels = self.kernel_tier if self.use_kernels else "off"
        head = (
            f"plan {self.module}: backend={self.backend} "
            f"workers={self.workers} "
            f"kernels={kernels} "
            f"windows={'on' if self.use_windows else 'off'} [{mode}]"
        )
        lines = [head]
        for e in self.entries:
            pad = "    " * e.depth
            if e.loop is not None:
                lp = e.loop
                note = lp.annotation()
                if cycles and lp.cycles is not None:
                    note += f"; ~{lp.cycles:.0f} cycles"
                lines.append(f"{pad}{lp.keyword} {lp.index} -> {note}")
            elif e.equation is not None:
                lines.append(f"{pad}{e.equation.label} [{e.equation.annotation()}]")
            else:
                lines.append(f"{pad}{e.label}")
        if cycles and self.cycles is not None:
            lines.append(f"predicted total: ~{self.cycles:.0f} cycles")
        return "\n".join(lines)

    def explain(self) -> str:
        """Render the planner's provenance: per ``DOALL`` every strategy
        priced or refused and the winner, per ``DO`` the compiled nest
        against the walk, then native range proofs and storage.
        Separate from :meth:`pretty` so golden tests pinning the plan text
        stay untouched by provenance additions."""
        if not self.provenance:
            return (
                f"provenance {self.module}: none recorded "
                f"(prebuilt or forced plan)"
            )
        from repro.runtime.values import undefined_part

        p = self.provenance
        lines = [f"provenance {self.module}: {p['mode']} -> {self.backend}"]
        lines.append(
            "pricing: native build sunk (served plan)" if p.get("served")
            else "pricing: native build charged to this run"
        )
        for note in p.get("do_loops", []):
            if note["dialect"]:
                dialect = note["dialect"]
                if note.get("team"):
                    dialect += f", team x{note['team']}"
                row = (
                    f"  DO {note['loop_index']} @{note['index']}: compiled "
                    f"nest [{dialect}], trip {note['trip']}: "
                    f"predicted ~{note['cycles']:.0f} vs "
                    f"~{note['walk_cycles']:.0f} cycles on the walk"
                )
            else:
                row = (
                    f"  DO {note['loop_index']} @{note['index']}: left on "
                    f"the walk, trip {note['trip']}, "
                    f"~{note['walk_cycles']:.0f} cycles"
                )
            if note.get("why"):
                row += f" ({note['why']})"
            if note.get("team_note"):
                row += f"; {note['team_note']}"
            lines.append(row)
        for note in p.get("doall_loops", []):
            verdicts = note["verdicts"]
            priced = ", ".join(
                f"{'*' if name == note['strategy'] else ''}{name} ~{v.cycles:.0f}"
                for name, v in verdicts.items() if not isinstance(v, str)
            )
            moved = f" ({note['entry']})" if note.get("entry") else ""
            row = (
                f"  DOALL {note['loop_index']} @{note['index']}: "
                f"{note['strategy']}{moved}, trip {note['trip']}: {priced} cycles"
            )
            if verdicts[note["strategy"]].reason == "forced":
                row += "; forced"
            if note["tie"]:
                row += f"; tie: {note['tie']}"
            lines.append(row + "".join(
                f"; {name} refused ({v})"
                for name, v in verdicts.items() if isinstance(v, str)
            ))
        for note in p.get("native_nests", []):
            checks, proven = note["checks"], note["proven"]
            row = (
                f"  native {note['shape']} kernel @{note['index']} "
                f"({note['keyword']} {note['loop_index']}): range checks: "
            )
            if proven == checks:
                row += f"{proven} of {checks} proven at entry"
            else:
                ref, why = note["inline"]
                row += (
                    f"{proven} of {checks} at entry, {checks - proven} per "
                    f"element ({ref}: {why})"
                )
            lines.append(row)
        for note in p.get("slow_loops", []):
            row = (
                f"  slow loop @{note['index']} ({note['keyword']} "
                f"{note['loop_index']}): {note['label']} not kernelizable "
                f"— {note['reason']}"
            )
            lines.append(row)
        if self.entry is not None:
            row = f"  module entry: {self.entry}"
            if "entry_cycles" in p:
                row += " (entry ~{:.0f} vs walked ~{:.0f} cycles)".format(
                    *p["entry_cycles"]
                )
            lines.append(row)
        for name, how in self.storage.items():
            if isinstance(how, tuple):
                how = undefined_part(*how, self.sizes)
            line = (
                (f"  {name}: zero-filled, {how}" if how
                 else f"  {name}: uninitialised, every element is defined")
                + f"; {self.reuse[name]}"
            )
            if name in self.window_refusals:
                line += f"; window refused: {self.window_refusals[name]}"
            lines.append(line)
        return "\n".join(lines)
