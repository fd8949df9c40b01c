"""The per-compilation kernel cache: one tiered lookup.

One :class:`KernelCache` lives for as long as its ``(analyzed, flowchart)``
pair — :class:`repro.core.pipeline.CompileResult` keeps one across ``run()``
calls, and ``execute_module`` creates a transient one otherwise. Kernels are
compiled on first use. Per-equation kernels are keyed by equation label,
dialect, and the window mode (window allocation changes the subscript
mapping the kernel bakes in); everything that heads a loop — nest kernels
in the shapes of :mod:`repro.runtime.kernels.nest` and the scan bundles —
is keyed by descriptor path, window mode and shape.

Loop kernels come in **tiers** and every public lookup goes through
:meth:`KernelCache._lookup`: the cffi-compiled *native* kernel when the
requested tier is ``"native"``, the nest lowers to bit-exact C and this
machine has a C compiler (see :mod:`repro.runtime.kernels.native`); the
exec-compiled NumPy kernel otherwise; ``None`` — the caller walks the
evaluator — when neither applies. A ``None`` is memoized like any other
answer (:meth:`KernelCache._memo`), so a refusal or a broken toolchain is
paid for once. Native kernels are built in batches
(:meth:`KernelCache.prepare`): the kernels a plan will dispatch before its
first run, the whole warm set in the process backend's pre-fork
:meth:`KernelCache.warm` (forked workers inherit the loaded library), or a
batch of one on a lazy request — each batch is one translation unit and at
most one compiler process.

A native kernel proves the range of its provable-form subscripts once per
call, at entry (:mod:`repro.runtime.kernels.ranges`); the cache counts the
verdicts — :meth:`KernelCache.stats` reports ``range_proven`` and
``range_unproven`` calls, the latter rerun on per-element checks by the
backend — so a loop that keeps falling off the native tier is visible.

The cache also owns the *call box*: a one-slot list every compiled kernel
reads module-call handlers through. :meth:`bind_call_fn` points it at the
executing state's ``call_fn`` once per run — that is what lets kernels
containing index-independent module calls stay compiled (and forked pool
workers inherit the binding with the cache).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator

from repro.ps.semantics import AnalyzedEquation, AnalyzedModule
from repro.runtime.kernels import native as native_mod
from repro.runtime.kernels.emit import compile_kernel, compile_nest_kernel
from repro.runtime.kernels.nest import NEST_SHAPES, KernelError
from repro.schedule.flowchart import (
    Flowchart,
    LoopDescriptor,
    loop_chunk_safe,
    loop_collapse_safe,
)

#: (descriptor path, window mode, shape) — what loop kernels are keyed by
_Key = tuple[tuple[int, ...], bool, str]


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
        #: one-slot module-call dispatch box shared by every compiled kernel
        self._call_box: list = [None]

    def bind_call_fn(self, call_fn) -> None:
        """Point every compiled kernel's module-call dispatch at this
        execution's ``call_fn``. Rebound at each run start; kernels read
        the box at call time, so already-compiled kernels follow."""
        self._call_box[0] = call_fn

    def _book_proof(self, held: bool) -> None:
        with self._proofs_lock:
            self._proofs["range_proven" if held else "range_unproven"] += 1

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
        if shape == "span":
            # The NumPy tier's per-equation distribution is the
            # per-equation vector kernels; there is nothing to look up.
            return None
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
        return all(self._native[key] is not None for key in keys)

    def _scan_bundle(self, key: _Key, native: bool):
        from repro.runtime.kernels import scan as scan_mod
        from repro.schedule.scan_detect import scan_info

        path, use_windows, _shape = key
        info = scan_info(
            self.analyzed, self.flowchart, self.flowchart.descriptor_at(path),
            use_windows,
        )
        if info is None:
            return None
        make = scan_mod.native_kernels if native else scan_mod.numpy_kernels
        return make(info)

    def _build_native(self, keys: list[_Key]) -> dict:
        nests: dict[_Key, list] = {}
        out: dict = {}
        for key in keys:
            path, use_windows, shape = key
            try:
                if shape == "scan":
                    out[key] = self._scan_bundle(key, True)
                else:
                    nests[key] = native_mod.native_specs(
                        self.flowchart.descriptor_at(path), self.analyzed,
                        self.flowchart, use_windows, shape,
                    )
            except KernelError:
                pass  # this loop alone does not lower; the batch goes on
        native_mod.build_kernels(
            [spec for specs in nests.values() for spec in specs], self._built
        )
        for key, specs in nests.items():
            out[key] = native_mod.bind_kernel(specs, self._book_proof)
        return out

    def _build_numpy(self, keys: list[_Key]) -> dict:
        (key,) = keys
        path, use_windows, shape = key
        if shape == "scan":
            return {key: self._scan_bundle(key, False)}
        desc = self.flowchart.descriptor_at(path)
        return {key: compile_nest_kernel(
            desc, self.analyzed, self.flowchart, use_windows, shape,
            self._call_box,
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
        subrange (of a ``DOALL``, or in order of a ``DO``), ``"flat"`` a
        collapse-chunked flat range, ``"span"`` a root subrange one
        equation at a time.

        ``tier="native"`` (the default lookup order) serves the
        cffi-compiled C kernel when one compiles on this machine, degrading
        to the NumPy kernel otherwise; ``tier="numpy"`` skips the native
        tier outright; ``build_native=False`` (a loop the plan put on the
        Python dialect) takes a native kernel only when it is already
        built."""
        if variant not in NEST_SHAPES:
            raise KernelError(f"unknown nest-kernel variant {variant!r}")
        return self._lookup(desc, use_windows, variant, tier, build_native)

    def scan_kernel_for(
        self,
        desc: LoopDescriptor,
        use_windows: bool,
        tier: str = "native",
    ):
        """The three-phase scan kernel bundle for a recognized recurrence
        ``DO`` loop (see :mod:`repro.runtime.kernels.scan`), or ``None``
        when the loop is unrecognized — the backend then walks it in
        order. ``tier="native"`` serves the compiled bundle when the
        static scan library loads on this machine, degrading to the NumPy
        bundle otherwise."""
        return self._lookup(desc, use_windows, "scan", tier)

    def _warm_set(
        self, use_windows: bool, tier: str
    ) -> Iterator[tuple[LoopDescriptor, str]]:
        """Every (loop, shape) a run can dispatch a kernel from. All loops
        of the main tree, not just the outermost ones: when an enclosing
        loop plans ``serial``/``iterate`` the scalar walk meets the inner
        loops directly. And the pieces of every usable fission split:
        replicas live outside the main tree (marker paths), so ``loops()``
        never meets them. A ``DOALL`` takes ``"full"``, ``"flat"`` when its
        chain is collapse-safe and the native ``"span"`` kernels when it is
        chunk-safe; a ``DO`` takes ``"full"`` (the compiled in-order nest,
        also what pipeline sequential stages advance through)."""
        # Lazy imports: fission and scan detection sit above the kernel layer.
        from repro.schedule.fission import fission_splits
        from repro.schedule.scan_detect import scan_loops

        loops = list(self.flowchart.loops())
        for split in fission_splits(self.analyzed, self.flowchart).values():
            if split.usable(use_windows):
                loops.extend(split.pieces)
        windows = self.flowchart.windows
        for desc in loops:
            yield desc, "full"
            if not desc.parallel:
                continue
            if loop_collapse_safe(desc, self.analyzed, windows, use_windows):
                yield desc, "flat"
            if tier == "native" and loop_chunk_safe(
                desc, self.analyzed, windows, use_windows
            ):
                yield desc, "span"
        # Recognized recurrences warm their three-phase scan bundle (one
        # static C library covers every op x dtype, so the first loop pays
        # the compile and the rest just dlopen-share it).
        for spath in scan_loops(self.analyzed, self.flowchart, use_windows):
            sdesc = self.flowchart.descriptor_at(spath)
            if isinstance(sdesc, LoopDescriptor):
                yield sdesc, "scan"

    def warm(self, use_windows: bool, tier: str = "native") -> None:
        """Compile every equation's kernels and every *reachable* loop
        kernel up front — the process backend calls this before forking
        so workers inherit the full cache (including dlopened native
        libraries) and never compile anything themselves, and
        ``Session.warm`` calls it so first-request latency never pays an
        in-flight cc compile. The native kernels of the whole warm set
        are one :meth:`prepare` batch."""
        for eq in self.analyzed.equations:
            for vector in (False, True):
                self.kernel_for(eq, vector, use_windows)
        wanted = list(self._warm_set(use_windows, tier))
        if tier == "native":
            self.prepare([
                (self.flowchart.path_of(desc), bool(use_windows), shape)
                for desc, shape in wanted
            ])
        for desc, shape in wanted:
            self._lookup(desc, use_windows, shape, tier)

    def stats(self) -> dict[str, int]:
        compiled = sum(1 for v in self._compiled.values() if v is not None)
        nests = sum(1 for v in self._nests.values() if v is not None)
        natives = sum(1 for v in self._native.values() if v is not None)
        return {
            "entries": len(self._compiled) + len(self._nests) + len(self._native),
            "compiled": compiled + nests + natives,
            "nests": nests,
            "native": natives,
            **self._built,
            **self._proofs,
        }
