"""The serve wire format: one JSON header line per message, optionally
followed by a frame of raw array bytes.

A request, and the response to it, is one newline-terminated JSON object
(at most :data:`MAX_LINE` bytes)::

    {"op": "run", "module": "Relaxation", "args": {"M": 4, ...}}
    {"ok": true, "result": {"newA": {"__array__": {...}}}}

Requests carry ``op`` (``ping``, ``modules``, ``describe``, ``stats``,
``plan``, ``warm``, ``run``, ``shutdown``) plus op-specific fields;
scalars travel as plain JSON numbers/booleans. An array value is tagged
``{"__array__": {...}}`` (which keeps it apart from record-parameter
dicts) and travels in one of two forms, both **bit-exact**: the bytes are
the array's C-contiguous buffer and ``dtype`` is NumPy's byte-order-
qualified string (``"<f8"``, ``">i8"``, ``"|b1"``; only boolean, integer,
float and complex kinds are accepted).

A decoded array is a **view on the bytes it arrived in** — copied only
when those bytes are misaligned for its dtype — so it is writeable exactly
when that buffer is: the daemon receives a request's frame straight off
the socket into a buffer of its own — from 128 KiB up one an earlier
frame used, once nothing references it — and decodes it through a
read-only view, so the arrays of a framed request are read-only views
that reach the kernels without a copy (a run borrows its arguments and
never writes them); an inline array sits on the ``bytes`` base64
decoding returned and is read-only too;
:class:`~repro.serve.client.ReproClient` receives each result blob into a
writeable buffer of its own — from 128 KiB up a recycled one, reused for
a later response only after the caller has dropped every view of the
array on it — so result arrays are writeable and the caller's for as long
as the caller holds them.

**Framed** — what :class:`~repro.serve.client.ReproClient` sends. The
header has ``"blobs": [n0, n1, ...]`` and exactly ``n0 + n1 + ...`` raw
bytes follow its newline, blob 0 first, nothing between or after them.
An array is ``{"__array__": {"blob": i, "shape": [...], "dtype": "<f8"}}``
and must satisfy ``prod(shape) * itemsize == blobs[i]``. One frame holds
at most :data:`MAX_FRAME` bytes. A request that has a ``blobs`` field
(``[]`` included) is answered in the same form; a structured error is
always a bare line.

**Inline** — for line-only clients (``nc``, a shell script). No
``blobs`` field, nothing after the newline; an array is ``{"__array__":
{"b64": ..., "shape": [...], "dtype": "<f8"}}`` with the same bytes in
base64, and the response is inline too.

Errors are structured: ``{"ok": false, "error": {"type": ..., "message":
...}}`` where ``type`` is the raising exception class (``ExecutionError``,
``SessionError``, ...) or a daemon-level kind: ``BadRequest`` (malformed
JSON, unknown op or option, or an array payload that does not decode —
the message names the argument), ``UnknownModule``, ``Overloaded``,
``InternalError``. After an error the connection stays usable, except
when the frame itself is unusable (a ``blobs`` field that is not a list
of sizes within :data:`MAX_FRAME`, or fewer bytes than announced): the
stream cannot be resynchronised, so the daemon answers ``BadRequest`` and
closes it.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
from typing import Any

import numpy as np

#: stream limit for one header line (inline arrays included) — big enough
#: for the payloads the daemon serves, small enough to bound a hostile client
MAX_LINE = 1 << 26
#: the most raw bytes one header may announce in ``blobs``
MAX_FRAME = 1 << 28
#: ``SO_SNDBUF`` both ends ask for (the kernel clamps it to its own limit):
#: a frame of a few MB then leaves in one ``sendmsg`` instead of stalling
#: every ~200 KB until the peer's reading thread has been scheduled again
SEND_BUFFER = 1 << 22


class WireError(ValueError):
    """A message that does not follow the format above: the peer's fault."""


def ok(result: Any) -> dict:
    return {"ok": True, "result": result}


def error(kind: str, message: str) -> dict:
    return {"ok": False, "error": {"type": kind, "message": message}}


def frame(header: dict, blobs: list | None = None) -> list:
    """The buffers of one message: the header line, then its blobs."""
    if blobs is not None:
        header = {**header, "blobs": [len(b) for b in blobs]}
    line = json.dumps(header, separators=(",", ":")).encode() + b"\n"
    return [line, *(blobs or ())]


def blob_sizes(header: dict) -> list[int] | None:
    """The validated ``blobs`` announcement of a header (None: inline)."""
    sizes = header.get("blobs")
    if sizes is None:
        return None
    if not isinstance(sizes, list) or not all(
        type(n) is int and n >= 0 for n in sizes
    ):
        raise WireError("'blobs' must be a list of non-negative byte counts")
    if sum(sizes) > MAX_FRAME:
        raise WireError(
            f"frame of {sum(sizes)} bytes exceeds the limit of {MAX_FRAME}"
        )
    return sizes


def encode_value(value: Any, blobs: list | None = None) -> Any:
    """One result/argument value to its JSON form; an array goes out of
    band as the next entry of ``blobs`` when given, inline otherwise."""
    if isinstance(value, np.ndarray):
        arr = np.asarray(value, order="C")
        if arr.dtype.kind not in "biufc":
            raise TypeError(f"cannot send an array of dtype {arr.dtype}")
        payload: dict[str, Any] = {
            "shape": list(arr.shape),
            "dtype": arr.dtype.str,
        }
        raw = arr.reshape(-1).view(np.uint8)
        if blobs is None:
            payload["b64"] = base64.b64encode(raw).decode("ascii")
        else:
            payload["blob"] = len(blobs)
            blobs.append(memoryview(raw))
        return {"__array__": payload}
    if isinstance(value, np.generic):
        return value.item()
    return value


def decode_value(value: Any, blobs: list | None = None) -> Any:
    """The inverse of :func:`encode_value`. Arrays come back aligned, as
    views on their blob (read-only when it is — see the module docstring);
    a payload that does not decode raises :class:`WireError`."""
    if not (isinstance(value, dict) and "__array__" in value):
        return value
    payload = value["__array__"]
    if not isinstance(payload, dict):
        raise WireError("'__array__' must be an object")
    shape, spec = payload.get("shape"), payload.get("dtype")
    dtype = None
    if isinstance(spec, str):
        with contextlib.suppress(TypeError, ValueError):
            dtype = np.dtype(spec)
    if dtype is None or dtype.kind not in "biufc":
        raise WireError(f"unsupported dtype {spec!r}")
    if not isinstance(shape, list) or not all(
        type(d) is int and d >= 0 for d in shape
    ):
        raise WireError(f"shape must be a list of non-negative ints, got {shape!r}")
    if "blob" in payload:
        index, count = payload["blob"], len(blobs or ())
        if type(index) is not int or not 0 <= index < count:
            raise WireError(f"blob {index!r} is not in a frame of {count} blobs")
        raw = blobs[index]
    else:
        try:
            raw = base64.b64decode(payload.get("b64"), validate=True)
        except (TypeError, ValueError) as exc:
            raise WireError(f"bad base64: {exc}") from None
    need = math.prod(shape) * dtype.itemsize
    if need != len(raw):
        raise WireError(
            f"shape {shape} of {dtype.str} is {need} bytes, payload has {len(raw)}"
        )
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return arr if arr.flags.aligned else arr.copy()


def encode_mapping(
    mapping: dict[str, Any], blobs: list | None = None
) -> dict[str, Any]:
    return {k: encode_value(v, blobs) for k, v in mapping.items()}


def decode_mapping(
    mapping: dict[str, Any], blobs: list | None = None
) -> dict[str, Any]:
    out = {}
    for name, value in mapping.items():
        try:
            out[name] = decode_value(value, blobs)
        except WireError as exc:
            raise WireError(f"argument {name!r}: {exc}") from None
    return out
