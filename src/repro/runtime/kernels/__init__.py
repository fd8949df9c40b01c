"""Compiled kernels: one nest walk, three dialects, a tiered cache.

The runtime's fast path. Instead of re-walking an equation's expression tree
per wavefront (and per element on the scalar path), the package prints
specialized code once per compilation and caches the compiled functions.

**Shapes.** Every kernel is the same walk over a scheduled loop nest
(:mod:`repro.runtime.kernels.nest`) under three parameters — *slice* (a root
subrange ``[lo, hi]``, or a flat range of the collapsed DOALL chain),
*projection* (the whole body, or the loops enclosing one equation) and
*dialect* (Python over ints, Python over NumPy row vectors, C):

* ``"full"`` — root subrange x whole body: what the ``nest`` strategy runs
  over a ``DOALL``, and what a pipeline sequential stage advances a ``DO``
  through block by block (the body runs in iteration order either way; the
  old ``"seq"`` variant was this shape over a ``DO``);
* ``"flat"`` — flat range x whole body: one chunk of a collapsed nest;
* ``"span"`` — root subrange x one equation each: the per-equation
  distribution of chunk dispatch, C only;
* a per-equation kernel — one equation with no loops left, in the scalar
  and the vector Python dialects; the general walk calls these per element
  or per vector span.

**Tiers.** All backends dispatch through :class:`KernelCache`, whose one
lookup serves native (C compiled with the system compiler and loaded via
cffi, :mod:`repro.runtime.kernels.native`) -> NumPy (``exec``-compiled
Python, :mod:`repro.runtime.kernels.emit`) -> the reference evaluator for
whatever neither dialect can specialize. ``ExecutionOptions(kernel_tier=...)``
/ the CLI's ``--kernel-tier {native,numpy,evaluator}`` caps the tier;
``--no-kernels`` remains the evaluator-only escape hatch.
"""

from repro.runtime.kernels.cache import KernelCache
from repro.runtime.kernels.emit import emit_kernel_source
from repro.runtime.kernels.native import native_supported
from repro.runtime.kernels.nest import KernelError, kernelizable, nest_fusable

__all__ = [
    "KernelCache",
    "KernelError",
    "emit_kernel_source",
    "kernelizable",
    "native_supported",
    "nest_fusable",
]
