"""The ExecutionPlan IR.

An :class:`ExecutionPlan` is a per-module execution recipe produced once by
the planner (:mod:`repro.plan.planner`) and consumed by every execution
backend. It mirrors the flowchart's loop tree: one :class:`LoopPlan` per
loop descriptor (addressed by the descriptor's child-index path, the same
picklable handle the process backend already uses) plus one
:class:`EquationPlan` per equation. The plan is inspectable —
``repro plan module.ps`` pretty-prints it — and *forcible*: tests and
benchmarks build hand-forced plans to pin a strategy per loop, and any
forced plan must stay bit-exact against the serial reference evaluator.

Loop strategies
---------------

``serial``
    Scalar iterations in subrange order (the reference semantics); body
    equations run on per-equation scalar kernels or the evaluator.
``nest``
    The whole nest runs as one fused compiled kernel — the per-element
    Python call of the serial path is amortised into compiled ``for``
    loops. On a ``DOALL`` root or a ``DO`` root alike: the kernel runs the
    root subrange in iteration order, so a sequential loop whose nest
    lowers is a real compiled loop (the paper's §3.4 ``DO``), not a walk.
    ``LoopPlan.dialect`` says which text of the kernel runs — C
    (``"native"``) or the exec-compiled Python dialect (``"python"``).
``vector``
    The subrange executes as one NumPy span (nested DOALLs broadcast).
``chunk``
    The subrange splits into ``parts`` contiguous chunks dispatched to
    workers; each chunk runs as a vector span.
``iterate``
    This loop's iterations run one at a time *so that an inner loop's plan
    gets the workers* — the planner emits it for a DOALL whose trip count
    is below the worker count but whose inner DOALL chunks well.
``collapse``
    A perfectly nested DOALL chain is flattened into one linearized
    iteration space, split into ``parts`` contiguous *flat* chunks; each
    chunk runs through one fused, chunk-parameterized nest kernel that
    delinearizes the flat offset back to the loop indices in its prologue
    (per-equation scalar walk when the kernel is unavailable). Collapsing
    load-balances nests whose outer trip count is small or uneven — the
    whole flat space divides over the workers regardless of shape.
``pipeline``
    DSWP-style decoupling of a *run of sibling loops* over one iteration
    space (see :mod:`repro.schedule.pipeline_stages`): sequential (``DO``)
    stages advance block by block on one worker each — through compiled
    sequential nest kernels where the nest lowers — while replicated
    (``DOALL``) stages chase the upstream frontier with chunked span
    kernels on the remaining workers. The run's *first* loop carries the
    strategy plus the :class:`StagePlan` list and the group size; the
    other member loops carry ``pipeline`` with a ``stage k/n`` reason and
    are executed by the group engine, never dispatched individually.
``scan``
    A recognized sequential recurrence (associative ``+ * min max``
    reduction/prefix scan, or a first-order linear recurrence — see
    :mod:`repro.schedule.scan_detect`) runs as a three-phase Blelloch
    blocked scan: ``parts`` per-block partial sweeps in parallel, a
    serial exclusive scan of the block carries, and a parallel per-block
    fix-up sweep. Int and min/max scans are bit-exact; float ``+``/``*``
    requires ``allow_reassoc``. Backends without a scan engine fall back
    to the in-order walk.
``fission``
    A multi-unit loop body splits along its dependence structure into
    ``parts`` replica loops over the same subrange, one per minimal
    dependence group (see :mod:`repro.schedule.fission`), each planned
    independently: pieces that come out all-DOALL regain
    ``nest``/``chunk``/``collapse``, lone recurrences regain ``scan``,
    and the replica run itself may plan as a ``pipeline`` group. Replica
    LoopPlans live at marker paths ``loop_path + (-1, k)``; the original
    loop carries the ``fission`` strategy and is executed by planning its
    replicas in order, each equation exactly once over the full subrange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

#: valid LoopPlan.strategy values
STRATEGIES = (
    "serial", "nest", "vector", "chunk", "iterate", "collapse", "pipeline",
    "scan", "fission",
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
class StagePlan:
    """One stage of a pipeline group (attached to the group head's
    :class:`LoopPlan`)."""

    #: "sequential" | "replicated" | "scan" (a sequential stage whose
    #: single member loop runs as a parallel blocked scan before the
    #: decoupled engine starts)
    kind: str
    #: offsets of the member loops within the group's sibling run
    members: tuple[int, ...]
    #: equation labels the stage evaluates (for display)
    labels: tuple[str, ...]
    #: workers assigned to the stage (1 for sequential stages)
    workers: int = 1

    def annotation(self) -> str:
        if self.kind == "sequential":
            tag = "seq"
        elif self.kind == "scan":
            tag = f"scan x{self.workers}"
        else:
            tag = f"par x{self.workers}"
        return f"{tag}({', '.join(self.labels)})"


@dataclass
class LoopPlan:
    """The planner's decision for one loop descriptor."""

    #: descriptor path in the flowchart tree (picklable handle)
    path: tuple[int, ...]
    index: str
    keyword: str  # "DO" | "DOALL"
    strategy: str
    #: chunk count when strategy == "chunk"
    parts: int | None = None
    #: trip count the planner saw (None: bounds not statically evaluable)
    trip: int | None = None
    #: whether this nest is fused into one compiled kernel
    fuse: bool = False
    #: index of the loop that actually receives the workers (for pretty
    #: output on "iterate" loops this names the chunked inner loop)
    chunk_index: str | None = None
    #: how many perfectly nested DOALLs are flattened (strategy "collapse"
    #: on the chain root; inner chain loops carry strategy "collapse" with
    #: depth None — their iteration space is owned by the root)
    collapse_depth: int | None = None
    #: the flattened trip count (product of the chain's trips; None when
    #: any chain bound is not statically evaluable)
    flat_trip: int | None = None
    #: predicted cycles for the chosen strategy (calibrated model)
    cycles: float | None = None
    #: one-line rationale for the choice
    reason: str = ""
    #: the stage partition, set on the *head* loop of a pipeline group
    #: (member loops carry strategy "pipeline" with stages=None)
    stages: list[StagePlan] | None = None
    #: how many consecutive sibling loops the group spans (head loop only)
    group_size: int | None = None
    #: per-stage hand-off block size, in iterations (head loop only)
    queue_depth: int | None = None
    #: which dialect of its nest kernel a kernel-dispatching loop runs
    #: (``nest`` / ``collapse`` / ``chunk`` roots, pipeline stage members):
    #: ``"native"`` — C, built before the plan's first run, degrading to
    #: the Python dialect and then the walk when the toolchain fails — or
    #: ``"python"`` — the exec-compiled kernels only; no compiler is
    #: started for this loop. ``None``: the loop dispatches no kernel.
    dialect: str | None = None

    def kernel_shape(self) -> str | None:
        """The nest shape (:mod:`repro.runtime.kernels.nest`) the loop's
        strategy dispatches its kernel in, None for strategies that
        dispatch none. Meaningful on a loop that carries a ``dialect``."""
        if self.strategy == "pipeline":
            return "full" if self.fuse else "span"
        return {"nest": "full", "collapse": "flat", "chunk": "span"}.get(
            self.strategy
        )

    def annotation(self) -> str:
        bits = [self.strategy]
        if self.strategy in ("chunk", "collapse", "scan", "fission") and self.parts:
            bits[-1] += f" x{self.parts}"
        if self.strategy == "pipeline" and self.stages:
            if self.parts:
                bits[-1] += f" x{self.parts}"
            bits.append(
                f"stages {len(self.stages)} "
                f"[{' | '.join(s.annotation() for s in self.stages)}]"
            )
            if self.queue_depth:
                bits.append(f"block {self.queue_depth}")
        if self.strategy == "iterate" and self.chunk_index:
            bits.append(f"inner-chunk {self.chunk_index}")
        if self.strategy == "collapse" and self.collapse_depth:
            depth = f"depth {self.collapse_depth}"
            if self.flat_trip is not None:
                depth += f" flat {self.flat_trip}"
            bits.append(depth)
        if self.trip is not None:
            bits.append(f"trip {self.trip}")
        if self.reason:
            bits.append(self.reason)
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
    #: the concrete backend registry key execution will instantiate
    backend: str
    #: what the user asked for ("auto" or an explicit backend)
    requested: str
    workers: int
    use_windows: bool
    use_kernels: bool
    #: True when an explicit --backend pinned the plan
    pinned: bool
    #: highest kernel tier the plan budgets for ("native" | "numpy")
    kernel_tier: str = "native"
    entries: list[PlanEntry] = field(default_factory=list)
    #: loop plans keyed by descriptor path
    loops: dict[tuple[int, ...], LoopPlan] = field(default_factory=dict)
    #: equation plans keyed by label
    equations: dict[str, EquationPlan] = field(default_factory=dict)
    #: total predicted cycles for the planned execution (calibrated model)
    cycles: float | None = None
    #: how the backend decision was made (``auto`` only fills this fully):
    #: candidate backends priced, their predicted cycles and
    #: calibration-adjusted costs, which had measured records, and why the
    #: winner won — rendered by :meth:`explain` for ``repro plan``
    provenance: dict | None = field(default=None, repr=False, compare=False)
    #: how ``ensure_targets`` allocates each array the equations define: a
    #: string says why it is zero-filled; an ``(ArrayType, boxes)`` pair
    #: says nothing in this plan reads it early, so a run at whose sizes
    #: :func:`repro.runtime.values.undefined_part` finds it totally defined
    #: leaves it uninitialised. An array not named here is zero-filled.
    storage: dict = field(default_factory=dict, repr=False, compare=False)
    #: array name -> (sizes, totally defined?) of the last run that asked
    defined: dict = field(default_factory=dict, repr=False, compare=False)
    #: a run of this plan has completed: later ones recycle their arrays
    ran: bool = field(default=False, repr=False, compare=False)
    #: array name -> where its storage comes from on those later runs
    reuse: dict = field(default_factory=dict, repr=False, compare=False)
    #: the sizes the plan was built for (``explain`` evaluates boxes at them)
    sizes: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: id(descriptor) -> LoopPlan for O(1) lookup during execution; rebuilt
    #: by bind() — valid only against the flowchart the plan was built from
    _by_id: dict[int, LoopPlan] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: id() of the flowchart the index above was built against
    _bound_to: int | None = field(default=None, repr=False, compare=False)

    # -- lookup ------------------------------------------------------------

    def bind(self, flowchart) -> ExecutionPlan:
        """Index the plan against ``flowchart``'s descriptor identities so
        backends can look up plans without recomputing paths. A no-op when
        already bound to this flowchart; otherwise the new index is built
        aside and swapped in atomically (plans are shared across runs — a
        concurrent reader must never observe a half-built index)."""
        from repro.schedule.flowchart import LoopDescriptor

        if self._bound_to == id(flowchart) and self._by_id:
            return self
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
        # Fission replica plans live at marker paths (a -1 component) that
        # the main-tree walk above never visits: resolve them through the
        # flowchart's split memo. Replica *bodies* are the original shared
        # descriptors, already indexed by their main-tree paths.
        for path, plan in self.loops.items():
            if -1 not in path:
                continue
            try:
                desc = flowchart.descriptor_at(path)
            except (LookupError, IndexError):
                continue
            if isinstance(desc, LoopDescriptor):
                by_id[id(desc)] = plan
        self._by_id = by_id
        self._bound_to = id(flowchart)
        return self

    def loop_for(self, desc) -> LoopPlan | None:
        """The plan for a loop descriptor of the bound flowchart."""
        return self._by_id.get(id(desc))

    def equation_for(self, label: str) -> EquationPlan | None:
        return self.equations.get(label)

    def native_kernels(self) -> list[tuple[tuple[int, ...], str]]:
        """(descriptor path, shape) of every native kernel this plan will
        dispatch — what one translation unit per (module, plan) holds."""
        return [
            (path, lp.kernel_shape())
            for path, lp in self.loops.items()
            if lp.dialect == "native"
        ]

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
        """Render the backend-decision provenance: every candidate priced,
        whether calibration had a measurement for it (hit) or the ranking
        fell back to predicted cycles (miss), and why the winner won.
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
        for row in p.get("candidates", []):
            mark = "*" if row.get("winner") else " "
            bits = [f"predicted ~{row['predicted_cycles']:.0f} cycles"]
            if row.get("measured_seconds") is not None:
                bits.append(
                    f"measured {row['measured_seconds']:.6f} s "
                    f"[calibration hit]"
                )
            elif p.get("calibrated"):
                bits.append(
                    f"anchored ~{row['adjusted_cost']:.6f} s "
                    f"[calibration miss]"
                )
            else:
                bits.append("[calibration miss]")
            lines.append(f"  {mark} {row['backend']}: " + "; ".join(bits))
        for backend, why in p.get("excluded", []):
            lines.append(f"    {backend}: excluded ({why})")
        if p.get("reason"):
            lines.append(f"winner: {self.backend} — {p['reason']}")
        for note in p.get("pipeline_groups", []):
            verdict = "chosen" if note.get("chosen") else "rejected"
            row = (
                f"  pipeline group @{note['index']}: {note['kinds']} "
                f"({note['stage_count']} stages, trip {note['trip']}) — "
                f"{verdict}"
            )
            if note.get("pipeline_cycles") is not None:
                row += (
                    f": predicted ~{note['pipeline_cycles']:.0f} vs "
                    f"~{note['serial_cycles']:.0f} cycles undecoupled"
                )
            if note.get("why"):
                row += f" ({note['why']})"
            lines.append(row)
        for note in p.get("scan_loops", []):
            verdict = "chosen" if note.get("chosen") else "rejected"
            what = note["kind"] + (f" {note['op']}" if note.get("op") else "")
            row = (
                f"  scan loop @{note['index']} ({note['label']}): {what}, "
                f"trip {note['trip']} — {verdict}"
            )
            if note.get("scan_cycles") is not None:
                against = (
                    "compiled DO" if note.get("do_compiled") else "in-order"
                )
                row += (
                    f": predicted ~{note['scan_cycles']:.0f} vs "
                    f"~{note.get('do_cycles', note['serial_cycles']):.0f} "
                    f"cycles {against}"
                )
            if note.get("why"):
                row += f" ({note['why']})"
            lines.append(row)
        for note in p.get("fission_loops", []):
            verdict = "chosen" if note.get("chosen") else "rejected"
            if note.get("parts"):
                shape = (
                    f"{note['parts']} pieces "
                    f"[{' | '.join(note.get('pieces', []))}]"
                )
            else:
                shape = "no legal split"
            row = (
                f"  fission @{note['index']} ({note['keyword']} "
                f"{note['loop_index']}): {shape}, trip {note['trip']} — "
                f"{verdict}"
            )
            if note.get("fission_cycles") is not None:
                row += (
                    f": predicted ~{note['fission_cycles']:.0f} vs "
                    f"~{note['unfissioned_cycles']:.0f} cycles unfissioned"
                )
            if note.get("why"):
                row += f" ({note['why']})"
            lines.append(row)
        for note in p.get("do_loops", []):
            if note["strategy"] == "nest":
                row = (
                    f"  DO {note['loop_index']} @{note['index']}: compiled "
                    f"nest [{note['dialect']}], trip {note['trip']}: "
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
            lines.append(row)
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
            if note.get("fission"):
                row += f"; {note['fission']}"
            lines.append(row)
        for name, how in self.storage.items():
            if isinstance(how, tuple):
                how = undefined_part(*how, self.sizes)
            lines.append(
                (f"  {name}: zero-filled, {how}" if how
                 else f"  {name}: uninitialised, every element is defined")
                + f"; {self.reuse[name]}"
            )
        return "\n".join(lines)
