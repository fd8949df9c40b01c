"""The per-compilation kernel cache: one tiered lookup.

One :class:`KernelCache` lives for as long as its ``(analyzed, flowchart)``
pair — :class:`repro.core.pipeline.CompileResult` keeps one across ``run()``
calls, and ``execute_module`` creates a transient one otherwise. Kernels are
compiled on first use. Per-equation kernels are keyed by equation label,
dialect, and the window mode (window allocation changes the subscript
mapping the kernel bakes in); nest kernels, in the shapes of
:mod:`repro.runtime.kernels.nest`, are keyed by descriptor path, window
mode and shape.

Loop kernels come in **tiers** and every public lookup goes through
:meth:`KernelCache._lookup`: the cffi-compiled *native* kernel when the
requested tier is ``"native"``, the nest lowers to bit-exact C and this
machine has a C compiler (see :mod:`repro.runtime.kernels.native`); the
exec-compiled NumPy kernel otherwise; ``None`` — the caller walks the
loop — when neither applies. A ``None`` is memoized like any other
answer (:meth:`KernelCache._memo`), so a refusal or a broken toolchain is
paid for once. Native kernels are built in batches
(:meth:`KernelCache.prepare`): the kernels a plan will dispatch before its
first run, the whole warm set in :meth:`KernelCache.warm`, or a batch of
one on a lazy request — each batch is one translation unit and at most one
compiler process.

A native kernel proves the range of its provable-form subscripts once per
call, at entry (:mod:`repro.runtime.kernels.ranges`); the cache counts the
verdicts — :meth:`KernelCache.stats` reports ``range_proven`` and
``range_unproven`` calls, the latter rerun on per-element checks by the
backend — so a loop that keeps falling off the native tier is visible.

The cache also owns the *call box*: a one-slot list every compiled kernel
reads module-call handlers through. :meth:`bind_call_fn` points it at the
executing state's ``call_fn`` once per run — that is what lets kernels
containing index-independent module calls stay compiled. (A call of a
loop-free scalar module never gets here: the front end inlined it.)
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from repro.ps.semantics import AnalyzedEquation, AnalyzedModule
from repro.runtime.kernels import native as native_mod
from repro.runtime.kernels.emit import compile_kernel, compile_nest_kernel
from repro.runtime.kernels.nest import NEST_SHAPES, KernelError
from repro.schedule.flowchart import Flowchart, LoopDescriptor

#: (descriptor path, window mode, shape) — what loop kernels are keyed by;
#: a module entry's path is the module's own, ``()``, and its shape
#: ``"run"`` and the shapes of the loops it calls
_Key = tuple[tuple[int, ...], bool, str]


def plan_keys(plan, use_windows: bool) -> list[_Key]:
    """The keys of every native kernel ``plan`` dispatches in window mode
    ``use_windows`` — its module entry last, where every loop at the top
    of the flowchart is a native nest: one translation unit's worth
    (:meth:`KernelCache.prepare`)."""
    windows = bool(use_windows)
    keys = [(path, windows, shape) for path, shape in plan.native_kernels()]
    shapes, _why = plan.entry_shapes()
    if shapes is not None:
        keys.append(((), windows, shapes))
    return keys


class KernelCache:
    def __init__(self, analyzed: AnalyzedModule, flowchart: Flowchart):
        self.analyzed = analyzed
        self.flowchart = flowchart
        self._compiled: dict[tuple[str, bool, bool], Callable | None] = {}
        #: NumPy-tier loop kernels keyed by (descriptor path, window mode, shape)
        self._nests: dict[_Key, Callable | None] = {}
        #: native-tier loop kernels, same key shape
        self._native: dict[_Key, Callable | None] = {}
        #: native translation units this cache had loaded, and how many of
        #: them started a compiler (the rest came from the on-disk cache)
        self._built = {"tus": 0, "cc_calls": 0}
        #: native kernel calls by the verdict of their entry range proof;
        #: an unproven call was rerun one tier down by the backend
        self._proofs = {"range_proven": 0, "range_unproven": 0}
        self._proofs_lock = threading.Lock()
        #: module-entry key -> why its entry does not lower
        self._refusals: dict[_Key, str] = {}
        #: one-slot module-call dispatch box shared by every compiled kernel
        self._call_box: list = [None]

    def bind_call_fn(self, call_fn) -> None:
        """Point every compiled kernel's module-call dispatch at this
        execution's ``call_fn``. Rebound at each run start; kernels read
        the box at call time, so already-compiled kernels follow."""
        self._call_box[0] = call_fn

    def _book_proof(self, held: bool, calls: int = 1) -> None:
        with self._proofs_lock:
            self._proofs["range_proven" if held else "range_unproven"] += calls

    def _memo(self, table: dict, keys: list, native: bool, build) -> None:
        """Answer every key of ``keys`` in ``table`` with one
        ``build(keys) -> {key: kernel}`` call and remember each answer —
        ``None`` (a key the build left out, or a build that failed)
        included, so a compile or its failure happens exactly once."""
        found: dict = {}
        if not native or native_mod.native_supported():
            try:
                found = build(keys)
            except KernelError:
                pass
            except Exception:
                if not native:
                    raise
                # A toolchain failure (compiler crash, dlopen error) must
                # degrade to the NumPy tier, never take the run down.
        for key in keys:
            table[key] = found.get(key)

    def kernel_for(
        self, eq: AnalyzedEquation, vector: bool, use_windows: bool
    ) -> Callable | None:
        """The compiled kernel for ``eq``, or None when it must stay on the
        evaluator. Compiles (and memoizes) on first request."""
        key = (eq.label, bool(vector), bool(use_windows))
        try:
            return self._compiled[key]
        except KeyError:
            self._memo(
                self._compiled, [key], False,
                lambda keys: {key: compile_kernel(
                    eq, self.analyzed, self.flowchart, vector, use_windows,
                    self._call_box,
                )},
            )
            return self._compiled[key]

    def _lookup(
        self, desc: LoopDescriptor, use_windows: bool, shape: str, tier: str,
        build_native: bool = True,
    ):
        """The kernel of ``shape`` for the loop ``desc``, highest tier
        first: native -> NumPy -> ``None`` (the caller walks the loop on
        per-equation kernels or the evaluator). ``build_native=False``
        still serves a native kernel some earlier batch built, but starts
        no build for this one: the plan priced the loop as not worth a
        compiler run."""
        path = self.flowchart.path_of(desc)
        if path is None:
            return None
        key = (path, bool(use_windows), shape)
        if tier == "native":
            if build_native and key not in self._native:
                self.prepare([key])
            fn = self._native.get(key)
            if fn is not None:
                return fn
        if shape == "team":
            # the same loop on one thread: the C kernel, then Python
            return self._lookup(desc, use_windows, "full", tier, build_native)
        if key not in self._nests:
            self._memo(self._nests, [key], False, self._build_numpy)
        return self._nests[key]

    def prepare(self, keys: list[_Key]) -> bool:
        """Build the native kernels of ``keys`` — ``(path, window mode,
        shape)`` — that this cache has not answered yet, as **one** batch
        (one translation unit, see :func:`native.build_kernels`). A lazily
        requested kernel, the kernels of a plan about to run
        (:meth:`ExecutionPlan.native_kernels`) and the warm set all come
        through here. True when every key has a native kernel now."""
        missing = [key for key in keys if key not in self._native]
        if missing:
            self._memo(self._native, missing, True, self._build_native)
        return all(self._native[key] is not None for key in keys if key[0])

    def module_entry(self, plan, use_windows: bool):
        """The plan's ``run_<module>``
        (:class:`~repro.runtime.kernels.native.ModuleEntry`) as
        :meth:`prepare` built it with the plan's unit — None: its runs walk
        the flowchart. Noted on the plan with the reason, for
        ``explain()``."""
        shapes, why = plan.entry_shapes()
        key = ((), bool(use_windows), shapes)
        entry = self._native.get(key) if shapes is not None else None
        plan.entry = (
            f"{entry.spec.fn_name}, one native call per run"
            if entry is not None
            else "walked: " + (
                why or self._refusals.get(key, "its unit did not build")
            )
        )
        return entry

    def native_specs(self, keys: list[_Key]) -> dict:
        """The C specs of those ``keys`` this cache has no native answer
        for yet — a loop that does not lower, or a team kernel on a host
        without OpenMP, is left out. A session batches the specs of many
        caches into one unit, then hands each its own to :meth:`adopt`."""
        specs: dict[_Key, native_mod.NativeKernelSpec] = {}
        for key in keys:
            if key in self._native:
                continue
            path, use_windows, shape = key
            if "team" in shape.split() and not native_mod.openmp_supported():
                continue  # a unit cc cannot build would sink the batch
            try:
                specs[key] = self._spec(path, use_windows, shape)
            except KernelError as exc:
                # this loop alone does not lower; the batch goes on
                if not path:
                    self._refusals[key] = str(exc)
        return specs

    def _spec(self, path, use_windows: bool, shape: str):
        if path:
            return native_mod.native_spec(
                self.flowchart.descriptor_at(path), self.analyzed,
                self.flowchart, use_windows, shape,
            )
        loops = [d for d in self.flowchart.descriptors if isinstance(d, LoopDescriptor)]
        shapes = shape.split()[1:]
        if len(shapes) != len(loops):
            raise KernelError("a top-level loop is not planned")
        return native_mod.entry_spec(
            self.analyzed, self.flowchart, use_windows, [
                native_mod.native_spec(
                    d, self.analyzed, self.flowchart, use_windows, s
                )
                for d, s in zip(loops, shapes)
            ],
        )

    def _bind(self, key: _Key, spec):
        if key[0]:
            return native_mod.bind_kernel(spec, self._book_proof)
        try:
            return native_mod.ModuleEntry(spec, self._book_proof)
        except KernelError as exc:
            self._refusals[key] = str(exc)
            return None

    def adopt(self, specs: dict) -> None:
        """Serve the native kernels of ``specs`` (from :meth:`native_specs`,
        built by :func:`native.build_kernels`)."""
        for key, spec in specs.items():
            self._native[key] = self._bind(key, spec)

    def _build_native(self, keys: list[_Key]) -> dict:
        specs = self.native_specs(keys)
        native_mod.build_kernels(list(specs.values()), self._built)
        return {key: self._bind(key, spec) for key, spec in specs.items()}

    def _build_numpy(self, keys: list[_Key]) -> dict:
        (key,) = keys
        path, use_windows, _shape = key  # "full": a team falls back to it
        desc = self.flowchart.descriptor_at(path)
        return {key: compile_nest_kernel(
            desc, self.analyzed, self.flowchart, use_windows, self._call_box,
        )}

    def nest_kernel_for(
        self,
        desc: LoopDescriptor,
        use_windows: bool,
        variant: str = "full",
        tier: str = "native",
        build_native: bool = True,
    ) -> Callable | None:
        """The kernel for a whole nest — ``kernel(data, env, lo, hi) ->
        {label: count}`` — or None when the nest cannot be lowered (the
        caller then walks it descriptor by descriptor). ``variant`` is a
        shape of :mod:`repro.runtime.kernels.nest`: ``"full"`` runs a root
        subrange (of a ``DOALL``, or in order of a ``DO``), ``"team"`` the
        same subrange on a team of threads (its ``"full"`` kernel where no
        team kernel builds — the callable's ``__team__`` says which came
        back).

        ``tier="native"`` (the default lookup order) serves the
        cffi-compiled C kernel when one compiles on this machine, degrading
        to the NumPy kernel otherwise; ``tier="numpy"`` skips the native
        tier outright;
        ``build_native=False`` (a loop the plan put on the Python dialect)
        takes a native kernel only when it is already built."""
        if variant not in NEST_SHAPES:
            raise KernelError(f"unknown nest-kernel variant {variant!r}")
        return self._lookup(desc, use_windows, variant, tier, build_native)

    def warm(self, use_windows: bool, tier: str = "native") -> None:
        """Compile every equation's kernels and every *reachable* loop
        kernel up front — ``Session.warm`` calls it so first-request
        latency never pays an in-flight cc compile. Reachable is every
        loop of the tree, not just the outermost ones (when an enclosing
        loop plans ``serial`` the scalar walk meets the inner loops
        directly), each in shape ``"full"``: a ``DOALL``'s nest kernel, a
        ``DO``'s compiled in-order nest. A ``"team"`` kernel is left to
        the plan that takes it: only a plan at a
        parallelism above one builds it. The native kernels of the warm
        set are one :meth:`prepare` batch."""
        for eq in self.analyzed.equations:
            for vector in (False, True):
                self.kernel_for(eq, vector, use_windows)
        loops = self.flowchart.loops()
        if tier == "native":
            self.prepare([
                (self.flowchart.path_of(desc), bool(use_windows), "full")
                for desc in loops
            ])
        for desc in loops:
            self._lookup(desc, use_windows, "full", tier)

    def stats(self) -> dict[str, int]:
        compiled = sum(1 for v in self._compiled.values() if v is not None)
        nests = sum(1 for v in self._nests.values() if v is not None)
        # loop kernels: a module entry only calls them
        natives = sum(1 for k, v in self._native.items() if v is not None and k[0])
        return {
            "entries": len(self._compiled) + len(self._nests) + len(self._native),
            "compiled": compiled + nests + natives,
            "nests": nests,
            "native": natives,
            **self._built,
            **self._proofs,
        }
