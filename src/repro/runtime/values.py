"""Runtime values: symbolic-bound evaluation and window-backed arrays.

A PS array dimension declared ``lo .. hi`` is stored with origin ``lo``. A
*virtual* dimension (section 3.4) is backed by a window of ``w`` planes
addressed modulo ``w`` — valid because the scheduler proved every read is at
most ``w - 1`` planes behind the write front. ``debug=True`` arms per-slot
tags that catch any read of a plane that has already been overwritten (the
failure-injection tests rely on this)."""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.ps.ast import BinOp, Expr, IntLit, Name, UnOp
from repro.ps.types import ArrayType, BoolType, RealType, Type

def new_storage(shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
    """Fresh array storage (``ExecutionBackend.make_storage``). ``zero=False``
    is for an array the run's equations define everywhere before anything
    reads it (:func:`undefined_part`): its pages are first touched by the
    kernel that writes them. The test suites poison such storage."""
    return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)


#: glibc's default mmap threshold. A smaller array is recycled by malloc
#: itself (measured: 0 page faults per warm run); a larger one loses its
#: pages whenever two or three are freed together and the heap is trimmed.
RECYCLE_MIN_BYTES = 128 << 10
#: owner sizes are multiples of this, so requests a few bytes apart share
_OWNER_GRAIN = 64 << 10
#: an owner serves requests down to 1/1.5 of its size — the rest stays idle
_OWNER_SLACK = 1.5


class BufferStore:
    """Big buffers handed out again once nobody can reach their bytes.

    The store keeps the only direct reference to each *owner* (a flat byte
    array) and hands out views. Every view, slice, ``memoryview`` or
    ``frombuffer`` array derived from one keeps the owner referenced
    (NumPy points the ``.base`` of a view of a view at the owning array),
    so the owner's reference count is at its idle value exactly when no
    result, transport buffer or running kernel can still touch it — and
    only then is it handed out again. Where reference counts prove nothing
    (a free-threaded interpreter) every ``take`` is a fresh allocation."""

    def __init__(self) -> None:
        self._owners: list[np.ndarray] = [np.empty(0, np.uint8)]
        self._lock = threading.Lock()
        # what getrefcount reads for an owner only the list refers to. Ask
        # for it as ``_idle`` does: a loop variable or ``enumerate`` tuple
        # would be one more reference.
        self._idle_count = sys.getrefcount(self._owners[0])
        self._owners.clear()
        self._counted = getattr(sys, "_is_gil_enabled", lambda: True)()
        self._taken = 0  # owner bytes handed out since the last trim
        self._keep = 0  # idle bytes kept: the most taken between two trims
        #: bytes handed out on pages already touched / on new ones
        self.recycled = self.fresh = 0

    def _idle(self, i: int) -> bool:
        return sys.getrefcount(self._owners[i]) == self._idle_count

    def take(self, shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
        """``new_storage``, but at :data:`RECYCLE_MIN_BYTES` and above a
        view of the smallest idle owner of at most 1.5x the bytes (cleared
        with a memset of warm pages, not by faulting zero pages in), or of
        a new owner when there is none."""
        dtype = np.dtype(dtype)
        need = math.prod(shape) * dtype.itemsize
        if need < RECYCLE_MIN_BYTES or not self._counted:
            return new_storage(shape, dtype, zero)
        with self._lock:
            best = None
            for i in range(len(self._owners)):
                size = self._owners[i].nbytes
                if (
                    need <= size <= _OWNER_SLACK * need
                    and (best is None or size < self._owners[best].nbytes)
                    and self._idle(i)
                ):
                    best = i
            if best is None:
                size = -(-need // _OWNER_GRAIN) * _OWNER_GRAIN
                owner = new_storage((size,), np.uint8, zero)
                self.fresh += need
                zero = False
            else:
                owner = self._owners.pop(best)
                self.recycled += need
            self._owners.append(owner)  # least recently taken first
            self._taken += owner.nbytes
            out = owner[:need].view(dtype).reshape(shape)
        if zero:
            out.fill(0)
        return out

    def _idle_owners(self) -> list[int]:
        return [i for i in range(len(self._owners)) if self._idle(i)]

    def held(self) -> int:
        """Bytes of idle owners."""
        with self._lock:
            return sum(self._owners[i].nbytes for i in self._idle_owners())

    def trim(self) -> None:
        """Drop the least recently taken idle owners until the idle bytes are
        at most what the largest run (response) so far took. A run that
        took nothing pays one attribute read."""
        if not self._taken:
            return
        with self._lock:
            self._keep, self._taken = max(self._keep, self._taken), 0
            idle = self._idle_owners()
            excess = sum(self._owners[i].nbytes for i in idle) - self._keep
            for dropped, i in enumerate(idle):
                if excess <= 0:
                    break
                excess -= self._owners[i - dropped].nbytes
                del self._owners[i - dropped]


def eval_bound(expr: Expr, env: dict[str, int]) -> int:
    """Evaluate a subrange-bound expression with integer parameter values."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Name):
        if expr.ident not in env:
            raise ExecutionError(f"unbound name {expr.ident!r} in subrange bound")
        v = env[expr.ident]
        return int(v)
    if isinstance(expr, UnOp):
        v = eval_bound(expr.operand, env)
        if expr.op == "-":
            return -v
        if expr.op == "+":
            return v
        raise ExecutionError(f"invalid bound operator {expr.op!r}")
    if isinstance(expr, BinOp):
        a = eval_bound(expr.left, env)
        b = eval_bound(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "div":
            return a // b
        if expr.op == "mod":
            return a % b
        raise ExecutionError(f"invalid bound operator {expr.op!r}")
    raise ExecutionError(f"invalid bound expression {type(expr).__name__}")


def dtype_for(element: Type):
    if element == RealType:
        return np.float64
    if element == BoolType:
        return np.bool_
    return np.int64


class SelectedLaneClipped(ExecutionError):
    """A vector read inside an ``if`` branch (or the lazy operand of
    ``and`` / ``or``) clipped a lane its guards select: on that lane the
    scalar walk reads out of range. Whoever ran the vector span reruns it
    on the scalar walk, which raises the exact error in iteration order."""


def check_clipped(clipped, guards, name: str) -> None:
    """Raise :class:`SelectedLaneClipped` when a lane ``clipped`` marks is
    one ``guards`` select. Each ``(condition, selected)`` pair of the
    guards, one per enclosing branch, keeps the lanes where the condition
    is ``selected``; ``guards=True`` clips without asking."""
    if guards is True or not np.any(clipped):
        return
    for cond, selected in guards:
        clipped = np.logical_and(clipped, cond if selected else np.logical_not(cond))
    if np.any(clipped):
        raise SelectedLaneClipped(f"a selected lane reads {name!r} out of range")


#: the debug tag of a slot no store has written yet: it holds its fill
UNWRITTEN = -(10**9)


@dataclass(frozen=True)
class Layout:
    """How one array is stored at one run's sizes (never mutated, so any
    number of runs may share it)."""

    name: str
    dtype: type
    los: list[int]
    his: list[int]
    shape: tuple[int, ...]
    windows: dict[int, int]  # dim -> window size
    #: the storage slabs an allocation zeroes: ``[]`` none, None all of it
    halo: list | None = None

    @classmethod
    def of(
        cls, name: str, element: Type, bounds: list[tuple[int, int]],
        windows: dict[int, int] | None = None, halo: list | None = None,
    ) -> Layout:
        windows = dict(windows or {})
        shape = []
        for d, (lo, hi) in enumerate(bounds):
            extent = hi - lo + 1
            if extent < 0:
                raise ExecutionError(
                    f"dimension {d} of {name!r} has negative extent "
                    f"({lo} .. {hi})"
                )
            if d in windows:
                extent = windows[d] = min(extent, windows[d])
            shape.append(extent)
        return cls(
            name, dtype_for(element), [lo for lo, _ in bounds],
            [hi for _, hi in bounds], tuple(shape), windows, halo,
        )

    def allocate(self, make=new_storage, debug: bool = False) -> RuntimeArray:
        """``make`` is a backend's ``make_storage(shape, dtype, zero)``."""
        storage = make(self.shape, self.dtype, self.halo is None)
        for slab in self.halo or ():
            storage[slab] = 0
        tags = None
        if debug and self.windows:
            tags = make(self.shape, np.int64, False)
            tags[...] = UNWRITTEN
        return RuntimeArray(self.name, self.los, self.his, storage, self.windows, tags)


@dataclass
class RuntimeArray:
    """An array with per-dimension origins and optional window dimensions."""

    name: str
    los: list[int]
    his: list[int]
    storage: np.ndarray
    windows: dict[int, int]  # dim -> window size
    tags: np.ndarray | None = None  # debug: logical index stored per slot

    @classmethod
    def allocate(
        cls,
        name: str,
        element: Type,
        bounds: list[tuple[int, int]],
        windows: dict[int, int] | None = None,
        debug: bool = False,
        make=new_storage,
        zero: bool = True,
    ) -> RuntimeArray:
        """See :meth:`Layout.allocate`."""
        layout = Layout.of(name, element, bounds, windows, None if zero else [])
        return layout.allocate(make, debug)

    @property
    def rank(self) -> int:
        return len(self.los)

    @property
    def allocated_elements(self) -> int:
        return int(self.storage.size)

    def _map_index(self, d: int, idx):
        rel = idx - self.los[d]
        if d in self.windows:
            return rel % self.windows[d]
        return rel

    def _check_range(self, d: int, idx) -> None:
        lo, hi = self.los[d], self.his[d]
        bad = (idx < lo) | (idx > hi)
        if np.any(bad):
            raise ExecutionError(
                f"index {idx[bad][0]} out of range [{lo}, {hi}] in dimension {d} of "
                f"{self.name!r}"
            )

    def get(self, indices, clip=False):
        """Read elements. ``clip`` clamps indices into range (used by the
        vectorised evaluator, whose masked lanes may form out-of-range
        subscripts that the `where` discards): ``True``, or the read's
        guards (see :func:`check_clipped`), when a clipped lane they
        select raises :class:`SelectedLaneClipped`."""
        mapped = []
        clipped = False
        for d, idx in enumerate(indices):
            if not np.isscalar(idx) and not isinstance(idx, (int, np.integer)):
                idx = np.asarray(idx)
            if clip:
                kept = np.clip(idx, self.los[d], self.his[d])
                if clip is not True:
                    clipped = clipped | (kept != idx)
                idx = kept
            else:
                self._check_range(d, np.asarray(idx))
            mapped.append(self._map_index(d, idx))
        if clip:
            check_clipped(clipped, clip, self.name)
        out = self.storage[tuple(mapped)]
        if self.tags is not None and not clip:
            # a slot no store has written reads its fill, as in full storage
            actual = self.tags[tuple(mapped)]
            if np.any((actual != self._expected_tag(indices)) & (actual != UNWRITTEN)):
                raise ExecutionError(
                    f"window violation: read of {self.name} at {indices} "
                    f"finds a plane that has been overwritten"
                )
        return out

    def set(self, indices, value) -> None:
        mapped = []
        for d, idx in enumerate(indices):
            self._check_range(d, np.asarray(idx))
            mapped.append(self._map_index(d, idx))
        self.storage[tuple(mapped)] = value
        if self.tags is not None:
            self.tags[tuple(mapped)] = self._expected_tag(indices)

    def _expected_tag(self, indices):
        """The logical windowed coordinate(s) encoded as a single tag."""
        tag = 0
        for d in sorted(self.windows):
            tag = tag * (self.his[d] - self.los[d] + 2) + (
                np.asarray(indices[d]) - self.los[d]
            )
        return tag

    def to_numpy(self) -> np.ndarray:
        """The dense storage itself — not a copy (only valid when no window
        dims exist)."""
        if self.windows:
            raise ExecutionError(
                f"{self.name!r} uses window storage; dense view unavailable"
            )
        return self.storage

    @classmethod
    def from_numpy(
        cls,
        name: str,
        array: np.ndarray,
        bounds: list[tuple[int, int]],
    ) -> RuntimeArray:
        """Wrap ``array`` — borrowed, never copied: PS is single-assignment,
        so nothing writes an argument. Run arguments come through the
        backend's ``import_array`` first (dtype, layout, placement)."""
        expected = tuple(hi - lo + 1 for lo, hi in bounds)
        if array.shape != expected:
            raise ExecutionError(
                f"argument {name!r} has shape {array.shape}, expected "
                f"{expected} from the declared bounds"
            )
        return cls(
            name,
            [lo for lo, _ in bounds],
            [hi for _, hi in bounds],
            array,
            {},
        )


def undefined_part(arr_type: ArrayType, boxes: list, env: dict[str, int]) -> str | None:
    """What the defining equations of an array leave undefined at the sizes
    ``env``, given the ``boxes`` they define
    (:func:`repro.ps.coverage.definition_boxes`). ``None``: every box lies
    inside the declared bounds, they are pairwise disjoint and their volumes
    sum to the declared volume — the array is *totally defined* and needs no
    zero-fill. Otherwise the phrase ``plan.explain()`` prints."""
    found = _definition_spans(arr_type, boxes, env)
    if isinstance(found, str):
        return found
    bounds, spans = found
    rank = len(bounds)
    for d, (blo, bhi) in enumerate(bounds):
        cover = [box[d] for box in spans]
        if any(lo < blo or hi > bhi for lo, hi in cover):
            return f"a definition leaves the bounds of dimension {d}"
        for i in sorted({blo, *(hi + 1 for _, hi in cover)}):
            if i <= bhi and not any(lo <= i <= hi for lo, hi in cover):
                at = ", ".join(str(i) if k == d else "*" for k in range(rank))
                return f"[{at}] never defined"
    if _overlap(spans):
        return "two definitions overlap"
    defined, declared = _volume(spans), _volume([bounds])
    return None if defined == declared else f"{defined} of {declared} elements defined"


def halo_slabs(
    arr_type: ArrayType, boxes: list, env: dict[str, int]
) -> list[tuple[slice, ...]] | None:
    """The storage an array's definitions never reach, as at most ``2 *
    rank`` disjoint slabs (tuples of slices of the dense storage), when
    the definition ``boxes`` at the sizes ``env`` lie inside the declared
    bounds, are pairwise disjoint and tile their bounding box — the halo
    between that box and the bounds is then all a run has to zero
    (``tallskinny``'s rim). None when they do not."""
    found = _definition_spans(arr_type, boxes, env)
    if isinstance(found, str) or not found[1]:
        return None
    bounds, spans = found
    rank = len(bounds)
    hull = [
        (min(box[d][0] for box in spans), max(box[d][1] for box in spans))
        for d in range(rank)
    ]
    if any(lo < blo or hi > bhi for (lo, hi), (blo, bhi) in zip(hull, bounds)):
        return None
    if _overlap(spans) or _volume(spans) != _volume([hull]):
        return None
    slabs = []
    for d, ((lo, hi), (blo, bhi)) in enumerate(zip(hull, bounds)):
        # below and above the hull in dimension d; the hull's extent in the
        # dimensions before d, everything in those after it
        inner = tuple(
            slice(hull[k][0] - bounds[k][0], hull[k][1] - bounds[k][0] + 1)
            for k in range(d)
        )
        rest = (slice(None),) * (rank - d - 1)
        if lo > blo:
            slabs.append((*inner, slice(0, lo - blo), *rest))
        if hi < bhi:
            slabs.append((*inner, slice(hi - blo + 1, None), *rest))
    return slabs


def _definition_spans(arr_type: ArrayType, boxes: list, env: dict[str, int]):
    """``(bounds, spans)``: the declared bounds and each definition box as
    integer ``(lo, hi)`` pairs at the sizes ``env``, or why there are none."""
    try:
        bounds = array_bounds(arr_type, env)
        spans = [
            [(eval_bound(lo, env), eval_bound(hi, env)) for lo, hi in box]
            for box in boxes
        ]
    except ExecutionError:
        return "a range is not an integer expression of the plan's sizes"
    if any(hi < lo for box in (bounds, *spans) for lo, hi in box):
        return "a definition range is empty"
    return bounds, spans


def _overlap(spans: list) -> bool:
    return any(
        all(a[d][0] <= b[d][1] and b[d][0] <= a[d][1] for d in range(len(a)))
        for i, a in enumerate(spans)
        for b in spans[i + 1 :]
    )


def _volume(boxes: list) -> int:
    return sum(math.prod(hi - lo + 1 for lo, hi in box) for box in boxes)


def array_bounds(arr_type: ArrayType, env: dict[str, int]) -> list[tuple[int, int]]:
    return [(eval_bound(d.lo, env), eval_bound(d.hi, env)) for d in arr_type.dims]
