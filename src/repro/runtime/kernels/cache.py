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
paid for once, and the process backend's pre-fork :meth:`KernelCache.warm`
loads every shared object once for forked workers to inherit.

The cache also owns the *call box*: a one-slot list every compiled kernel
reads module-call handlers through. :meth:`bind_call_fn` points it at the
executing state's ``call_fn`` once per run — that is what lets kernels
containing index-independent module calls stay compiled (and forked pool
workers inherit the binding with the cache).
"""

from __future__ import annotations

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

class KernelCache:
    def __init__(self, analyzed: AnalyzedModule, flowchart: Flowchart):
        self.analyzed = analyzed
        self.flowchart = flowchart
        self._compiled: dict[tuple[str, bool, bool], Callable | None] = {}
        #: NumPy-tier loop kernels keyed by (descriptor path, window mode, shape)
        self._nests: dict[tuple[tuple[int, ...], bool, str], Callable | None] = {}
        #: native-tier loop kernels, same key shape
        self._native: dict[tuple[tuple[int, ...], bool, str], Callable | None] = {}
        #: one-slot module-call dispatch box shared by every compiled kernel
        self._call_box: list = [None]

    def bind_call_fn(self, call_fn) -> None:
        """Point every compiled kernel's module-call dispatch at this
        execution's ``call_fn``. Rebound at each run start; kernels read
        the box at call time, so already-compiled kernels follow."""
        self._call_box[0] = call_fn

    def _memo(self, table: dict, key, native: bool, build, *args):
        """Build ``table[key]`` on its first request and remember the
        answer — ``None`` included, so the compile (or its failure) happens
        exactly once."""
        fn = None
        if not native or native_mod.native_supported():
            try:
                fn = build(*args)
            except KernelError:
                pass
            except Exception:
                if not native:
                    raise
                # A toolchain failure (compiler crash, dlopen error) must
                # degrade to the NumPy tier, never take the run down.
        table[key] = fn
        return fn

    def kernel_for(
        self, eq: AnalyzedEquation, vector: bool, use_windows: bool
    ) -> Callable | None:
        """The compiled kernel for ``eq``, or None when it must stay on the
        evaluator. Compiles (and memoizes) on first request."""
        key = (eq.label, bool(vector), bool(use_windows))
        try:
            return self._compiled[key]
        except KeyError:
            return self._memo(
                self._compiled, key, False, compile_kernel,
                eq, self.analyzed, self.flowchart, vector, use_windows,
                self._call_box,
            )

    def _lookup(
        self, desc: LoopDescriptor, use_windows: bool, shape: str, tier: str
    ):
        """The kernel of ``shape`` for the loop ``desc``, highest tier
        first: native -> NumPy -> ``None`` (the caller walks the loop on
        per-equation kernels or the evaluator)."""
        path = self.flowchart.path_of(desc)
        if path is None:
            return None
        key = (path, bool(use_windows), shape)
        if tier == "native":
            fn = self._tier(self._native, key, True, desc, use_windows, shape)
            if fn is not None:
                return fn
        if shape == "span":
            # The NumPy tier's per-equation distribution is the
            # per-equation vector kernels; there is nothing to look up.
            return None
        return self._tier(self._nests, key, False, desc, use_windows, shape)

    def _tier(
        self, table: dict, key, native: bool,
        desc: LoopDescriptor, use_windows: bool, shape: str,
    ):
        try:
            return table[key]
        except KeyError:
            return self._memo(
                table, key, native, self._compile,
                native, desc, use_windows, shape,
            )

    def _compile(
        self, native: bool, desc: LoopDescriptor, use_windows: bool, shape: str
    ):
        if shape == "scan":
            from repro.runtime.kernels import scan as scan_mod
            from repro.schedule.scan_detect import scan_info

            info = scan_info(self.analyzed, self.flowchart, desc, use_windows)
            if info is None:
                return None
            make = scan_mod.native_kernels if native else scan_mod.numpy_kernels
            return make(info)
        if native:
            return native_mod.compile_native_nest(
                desc, self.analyzed, self.flowchart, use_windows, shape
            )
        return compile_nest_kernel(
            desc, self.analyzed, self.flowchart, use_windows, shape,
            self._call_box,
        )

    def nest_kernel_for(
        self,
        desc: LoopDescriptor,
        use_windows: bool,
        variant: str = "full",
        tier: str = "native",
    ) -> Callable | None:
        """The kernel for a whole nest — ``kernel(data, env, lo, hi) ->
        {label: count}`` — or None when the nest cannot be lowered (the
        caller then walks it descriptor by descriptor). ``variant`` is a
        shape of :mod:`repro.runtime.kernels.nest`: ``"full"`` runs a root
        subrange (of a ``DOALL``, or in-order blocks of a ``DO``),
        ``"flat"`` a collapse-chunked flat range, ``"span"`` a root
        subrange one equation at a time.

        ``tier="native"`` (the default lookup order) serves the
        cffi-compiled C kernel when one compiles on this machine, degrading
        to the NumPy kernel otherwise; ``tier="numpy"`` skips the native
        tier outright."""
        if variant not in NEST_SHAPES:
            raise KernelError(f"unknown nest-kernel variant {variant!r}")
        return self._lookup(desc, use_windows, variant, tier)

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

    def _kernel_roots(self, use_windows: bool) -> Iterator[LoopDescriptor]:
        """Every DOALL a run can dispatch a nest kernel from. All parallel
        loops of the main tree, not just the outermost ones: when an
        enclosing loop plans ``serial``/``iterate`` the scalar walk meets
        the *inner* parallel loops directly. And the promoted pieces of
        every usable fission split: replicas live outside the main tree
        (marker paths), so ``loops()`` never meets them."""
        # Lazy import: fission sits above the kernel layer.
        from repro.schedule.fission import fission_splits

        yield from (d for d in self.flowchart.loops() if d.parallel)
        for split in fission_splits(self.analyzed, self.flowchart).values():
            if split.usable(use_windows):
                yield from (p for p in split.pieces if p.parallel)

    def warm(self, use_windows: bool, tier: str = "native") -> None:
        """Compile every equation's kernels and every *reachable* loop
        kernel up front — the process backend calls this before forking
        so workers inherit the full cache (including dlopened native
        libraries) and never compile anything themselves, and
        ``Session.warm`` calls it so first-request latency never pays an
        in-flight cc compile.

        Each kernel root warms its ``"full"`` kernel, ``"flat"`` when its
        chain is collapse-safe, and the native ``"span"`` kernels when it
        is chunk-safe (chunk dispatch runs them per subrange). Sequential
        loops that head a pipeline sequential stage warm the ``"full"``
        kernel those stages advance through block by block."""
        for eq in self.analyzed.equations:
            for vector in (False, True):
                self.kernel_for(eq, vector, use_windows)

        windows = self.flowchart.windows
        for desc in self._kernel_roots(use_windows):
            self._lookup(desc, use_windows, "full", tier)
            if loop_collapse_safe(desc, self.analyzed, windows, use_windows):
                self._lookup(desc, use_windows, "flat", tier)
            if tier == "native" and loop_chunk_safe(
                desc, self.analyzed, windows, use_windows
            ):
                self._lookup(desc, use_windows, "span", tier)

        # Lazy import: pipeline_stages sits above the kernel layer.
        from repro.schedule.pipeline_stages import pipeline_groups

        for groups in pipeline_groups(
            self.analyzed, self.flowchart, use_windows
        ).values():
            for group in groups:
                for stage in group.stages:
                    if stage.kind != "sequential":
                        continue
                    for m in stage.members:
                        self._lookup(group.loops[m], use_windows, "full", tier)

        # Recognized recurrences warm their three-phase scan bundle (one
        # static C library covers every op x dtype, so the first loop pays
        # the compile and the rest just dlopen-share it).
        from repro.schedule.scan_detect import scan_loops

        for spath in scan_loops(self.analyzed, self.flowchart, use_windows):
            sdesc = self.flowchart.descriptor_at(spath)
            if isinstance(sdesc, LoopDescriptor):
                self._lookup(sdesc, use_windows, "scan", tier)

    def stats(self) -> dict[str, int]:
        compiled = sum(1 for v in self._compiled.values() if v is not None)
        nests = sum(1 for v in self._nests.values() if v is not None)
        natives = sum(1 for v in self._native.values() if v is not None)
        return {
            "entries": len(self._compiled) + len(self._nests) + len(self._native),
            "compiled": compiled + nests + natives,
            "nests": nests,
            "native": natives,
        }
