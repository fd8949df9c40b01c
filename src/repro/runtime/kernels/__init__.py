"""Compiled kernels: one nest walk, three dialects, a tiered cache.

The runtime's fast path. Instead of re-walking an equation's expression tree
per wavefront (and per element on the scalar path), the package prints
specialized code once per compilation and caches the compiled functions.

**Shapes.** Every kernel is the same walk over a scheduled loop nest
(:mod:`repro.runtime.kernels.nest`) under three parameters — *slice* (a root
subrange ``[lo, hi]``), *dialect* (Python over ints, Python over NumPy
vectors, C) and *team* (one thread, or a team of OpenMP threads):

* ``"full"`` — root subrange x whole body: what the ``nest`` strategy runs
  over a ``DOALL`` or a ``DO`` root alike (the body runs in iteration order
  either way; the old ``"seq"`` variant was this shape over a ``DO``);
* ``"team"`` — ``"full"`` on a team of OpenMP threads: a ``DOALL`` root
  divided among them, or a ``DO`` root whose ``DOALL`` s are — the
  compiled nest that owns its threads, C only;
* a per-equation kernel — one equation with no loops left, in the scalar
  and the vector Python dialects; the general walk calls these per element
  or per vector span;
* a module entry — ``run_<module>``, C only: every top-level loop's
  function called in flowchart order and the equations between them
  inline, so a plan whose top-level loops are all native nests runs as one
  C call.

**Tiers.** All backends dispatch through :class:`KernelCache`, whose one
lookup serves native (C compiled with the system compiler and loaded via
cffi, :mod:`repro.runtime.kernels.native`) -> NumPy (``exec``-compiled
Python, :mod:`repro.runtime.kernels.emit`) -> the reference evaluator for
whatever neither dialect can specialize. ``ExecutionOptions(kernel_tier=...)``
/ the CLI's ``--kernel-tier {native,numpy}`` caps the tier;
``use_kernels=False`` / ``--no-kernels`` is the evaluator-only escape hatch.
"""

from repro.runtime.kernels.cache import KernelCache
from repro.runtime.kernels.emit import emit_kernel_source
from repro.runtime.kernels.native import native_supported, openmp_supported
from repro.runtime.kernels.nest import (
    KernelError,
    kernelizable,
    nest_unfusable_reason,
)

__all__ = [
    "KernelCache",
    "KernelError",
    "emit_kernel_source",
    "kernelizable",
    "native_supported",
    "nest_unfusable_reason",
    "openmp_supported",
]
