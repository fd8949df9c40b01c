"""Runtime support library injected into compiled kernel namespaces.

Every helper here replicates one runtime-dispatch branch of the reference
:class:`~repro.runtime.evaluator.Evaluator` — compiled kernels must agree
with the evaluator *bit for bit* on every workload, so the helpers either
call the very same NumPy entry points the evaluator calls, or (for the
affine fast paths) select the very same storage elements through basic
slices instead of clipped fancy indexing.

The affine fast path is the heart of the speedup: a subscript of the form
``index_var + constant`` over a contiguous DOALL subrange selects a
*contiguous* run of planes, so the clipped gather the evaluator performs
(`np.clip` + fancy indexing, one C-loop per element) collapses into a basic
slice view plus, at the grid boundary, an edge-replication concatenate.
The selected values are identical; ``np.where`` discards the clipped lanes
either way.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.evaluator import _BUILTIN_FUNCS, floor_div_mod
from repro.runtime.evaluator import divide as kdiv
from repro.runtime.values import RuntimeArray, check_clipped

__all__ = [
    "BUILTIN_FUNCS",
    "affine_gather",
    "affine_scatter",
    "check_index",
    "floor_div_mod",
    "kdiv",
    "knot",
    "make_module_call",
    "store_scalar",
]

#: the evaluator's builtin-function table, reused verbatim for parity
BUILTIN_FUNCS = _BUILTIN_FUNCS


def _is_vec(v) -> bool:
    return isinstance(v, np.ndarray) and v.ndim > 0


def knot(v):
    return np.logical_not(v) if _is_vec(v) else not v


def make_module_call(call_box):
    """The ``_mc`` helper bound into kernel namespaces: dispatch a module
    call through the cache's one-slot *call box*. The box is rebound per
    execution (see ``KernelCache.bind_call_fn``) so one compiled kernel
    serves every run. Args
    arrive already evaluated; ``RuntimeArray`` conversion mirrors the
    evaluator's ``_eval_Call`` (kernelizable call args are scalar
    expressions, so the convert step is a no-op kept for parity)."""
    box = call_box if call_box is not None else [None]

    def _mc(name, args):
        fn = box[0]
        if fn is None:
            raise ExecutionError(f"no module-call handler for {name!r}")
        converted = [
            a.to_numpy() if isinstance(a, RuntimeArray) else a for a in args
        ]
        return fn(name, converted)

    return _mc


def store_scalar(data, name, value):
    """Assign a non-array target, mirroring the backend's scalar store."""
    data[name] = value.item() if isinstance(value, np.ndarray) else value


def check_index(i, lo, hi, d, name):
    """Range-check a scalar subscript and map it to storage-relative form —
    the scalar kernels' equivalent of ``RuntimeArray._check_range`` +
    ``_map_index`` (window modulo is applied by the caller). Keeps the
    reference backend's out-of-range errors instead of letting Python's
    negative indexing silently wrap."""
    if i < lo or i > hi:
        raise ExecutionError(
            f"index {i} out of range [{lo}, {hi}] in dimension {d} of {name!r}"
        )
    return i - lo


def _clip_axis(block: np.ndarray, axis: int, start: int, n: int, lo: int, hi: int):
    """``block`` sliced along ``axis`` as if by the clipped index sequence
    ``clip(start + k, lo, hi) for k in range(n)`` (storage-relative to
    ``lo``). In range: a pure view. Out of range: edge planes replicated via
    one concatenate — the same values the evaluator's gather selects."""
    a = lo - start
    a = 0 if a < 0 else (n if a > n else a)
    b = start + n - 1 - hi
    b = 0 if b < 0 else (n - a if b > n - a else b)
    m = n - a - b
    head = (slice(None),) * axis
    if a == 0 and b == 0:
        return block[head + (slice(start - lo, start - lo + n),)]
    parts = []
    extent = hi - lo + 1
    if a:
        shape = block.shape[:axis] + (a,) + block.shape[axis + 1 :]
        parts.append(np.broadcast_to(block[head + (slice(0, 1),)], shape))
    if m:
        parts.append(block[head + (slice(start + a - lo, start + a - lo + m),)])
    if b:
        shape = block.shape[:axis] + (b,) + block.shape[axis + 1 :]
        parts.append(
            np.broadcast_to(block[head + (slice(extent - 1, extent),)], shape)
        )
    return np.concatenate(parts, axis=axis) if len(parts) > 1 else parts[0]


def affine_gather(arr: RuntimeArray, specs, clip=False):
    """Read ``arr`` at affine subscripts like the vector evaluator.

    ``specs`` holds one ``(base, offset)`` pair per dimension: ``base`` is the
    runtime value of the subscript's index variable (a contiguous arange with
    trailing broadcast axes when the loop is vectorised, a scalar otherwise —
    or the whole subscript's value when it has no index variable), ``offset``
    the compile-time-known additive rest. Returns exactly the values of
    ``arr.get([base + offset, ...], clip=clip)``, reshaped to the same
    broadcast axes, but via basic slices wherever the subrange is contiguous.
    Without ``clip`` an out-of-range subscript raises ``ExecutionError``;
    with the read's guards, a clipped lane they select raises
    :class:`~repro.runtime.values.SelectedLaneClipped`.
    """
    sto = arr.storage
    los, his, wins = arr.los, arr.his, arr.windows
    core: list = []
    vecs: list = []  # (start, n, depth, dim)
    clipped = False
    for d, (base, off) in enumerate(specs):
        lo, hi = los[d], his[d]
        if isinstance(base, np.ndarray) and base.ndim > 0:
            if wins.get(d) is not None:
                raise ExecutionError(
                    f"kernel fast path on windowed dimension {d} of {arr.name!r}"
                )
            start, n = int(base.flat[0]) + int(off), int(base.size)
            if start < lo or start + n - 1 > hi:
                if not clip:
                    raise ExecutionError(
                        f"index {start if start < lo else hi + 1} out of range "
                        f"[{lo}, {hi}] in dimension {d} of {arr.name!r}"
                    )
                if clip is not True:
                    i = base + int(off)
                    clipped = clipped | (i < lo) | (i > hi)
            vecs.append((start, n, base.ndim - 1, d))
            core.append(slice(None))
        else:
            i = int(base) + int(off)
            if i < lo or i > hi:
                if not clip:
                    raise ExecutionError(
                        f"index {i} out of range [{lo}, {hi}] in dimension "
                        f"{d} of {arr.name!r}"
                    )
                clipped = True
            i = lo if i < lo else (hi if i > hi else i)
            r = i - lo
            w = wins.get(d)
            if w is not None:
                r %= w
            core.append(r)
    if clipped is not False:
        check_clipped(clipped, clip, arr.name)
    block = sto[tuple(core)]
    if not vecs:
        return block
    for axis, (start, n, _depth, d) in enumerate(vecs):
        block = _clip_axis(block, axis, start, n, los[d], his[d])
    nd = max(v[2] for v in vecs) + 1
    order = sorted(range(len(vecs)), key=lambda j: -vecs[j][2])
    if order != list(range(len(vecs))):
        block = block.transpose(order)
    shape = [1] * nd
    for _start, n, depth, _d in vecs:
        shape[nd - 1 - depth] = n
    if list(block.shape) != shape:
        block = block.reshape(shape)
    return block


def affine_scatter(arr: RuntimeArray, specs, value):
    """Write ``value`` to ``arr`` at affine subscripts with the evaluator's
    ``set`` semantics: range-checked, window-mapped, no clipping."""
    sto = arr.storage
    los, his, wins = arr.los, arr.his, arr.windows
    idx: list = []
    vecs: list = []  # (n, depth)
    for d, (base, off) in enumerate(specs):
        lo, hi = los[d], his[d]
        if isinstance(base, np.ndarray) and base.ndim > 0:
            start = int(base.flat[0]) + int(off)
            n = int(base.size)
            if start < lo or start + n - 1 > hi:
                raise ExecutionError(
                    f"index range [{start}, {start + n - 1}] out of range "
                    f"[{lo}, {hi}] in dimension {d} of {arr.name!r}"
                )
            if wins.get(d) is not None:
                raise ExecutionError(
                    f"kernel fast path on windowed dimension {d} of {arr.name!r}"
                )
            idx.append(slice(start - lo, start - lo + n))
            vecs.append((n, base.ndim - 1))
        else:
            i = int(base) + int(off)
            if i < lo or i > hi:
                raise ExecutionError(
                    f"index {i} out of range [{lo}, {hi}] in dimension {d} of "
                    f"{arr.name!r}"
                )
            r = i - lo
            w = wins.get(d)
            if w is not None:
                r %= w
            idx.append(r)
    if vecs and isinstance(value, np.ndarray) and value.ndim > 0:
        nd = max(dep for _, dep in vecs) + 1
        bshape = [1] * nd
        for n, dep in vecs:
            bshape[nd - 1 - dep] = n
        v = np.broadcast_to(value, bshape)
        axes = [nd - 1 - dep for _, dep in vecs]
        rest = [a for a in range(nd) if a not in axes]
        v = v.transpose(axes + rest).reshape([n for n, _ in vecs])
        sto[tuple(idx)] = v
    else:
        sto[tuple(idx)] = value
