"""A small synchronous client for the serve daemon.

One socket, one request and its response at a time — a deliberately boring
transport so the interesting guarantees (bit-exact results, input
isolation, structured errors) live server-side and are testable there.
Arrays travel as raw frames (see :mod:`repro.serve.wire`): sent straight
from the caller's memory, received straight into the buffers the returned
arrays live on. Concurrency comes from using one :class:`ReproClient` per
thread, exactly how the benchmark and the daemon tests drive it.

Structured daemon errors re-raise as :class:`~repro.errors.ClientError`
with the wire ``type`` in ``.kind``, so callers can tell ``UnknownModule``
from ``Overloaded`` without string matching.
"""

from __future__ import annotations

import json
import socket
from typing import Any

import numpy as np

from repro.errors import ClientError
from repro.runtime.values import BufferStore
from repro.serve import wire


class ReproClient:
    """Connect to a ``repro serve`` daemon over TCP or a unix socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        unix_path: str | None = None,
        timeout: float | None = 60.0,
    ):
        try:
            if unix_path is not None:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(unix_path)
            elif port is not None:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
            else:
                raise ClientError("need a port or a unix_path to connect to")
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, wire.SEND_BUFFER
            )
        except OSError as exc:
            target = unix_path if unix_path is not None else f"{host}:{port}"
            raise ClientError(
                f"cannot connect to daemon at {target}: {exc}", "Transport"
            ) from exc
        self._file = self._sock.makefile("rb")
        #: where big result blobs land: buffers of earlier responses whose
        #: arrays the caller has let go of (at most the largest response)
        self._store = BufferStore()

    # -- transport ---------------------------------------------------------

    def request(self, payload: dict[str, Any]) -> Any:
        """Send one raw request object, return the ``result`` of the
        response, raising :class:`ClientError` on a structured error."""
        return self._exchange(payload)[0]

    def _exchange(
        self, payload: dict[str, Any], blobs: list | None = None
    ) -> tuple[Any, list[np.ndarray]]:
        """One round trip: ``payload`` (framed with ``blobs`` when given)
        out, the response's ``result`` and the blobs of its frame back."""
        try:
            views = wire.frame(payload, blobs)
            while views:  # one sendmsg moves it all unless the socket fills
                sent = self._sock.sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views.pop(0))
                if sent:
                    views[0] = memoryview(views[0])[sent:]
            line = self._file.readline(wire.MAX_LINE)
            if not line:
                raise ClientError("daemon closed the connection", "Transport")
            response = json.loads(line)
            received = [
                self._store.take((n,), np.uint8, zero=False)
                for n in wire.blob_sizes(response) or ()
            ]
            for blob in received:
                if self._file.readinto(blob) != len(blob):
                    raise ClientError("daemon closed mid-frame", "Transport")
            self._store.trim()
        except OSError as exc:
            raise ClientError(f"transport failure: {exc}", "Transport") from exc
        except ValueError as exc:  # not JSON, or not a frame announcement
            raise ClientError(f"malformed response: {exc}", "Transport") from exc
        if not response.get("ok"):
            err = response.get("error") or {}
            raise ClientError(
                err.get("message", "unknown daemon error"),
                err.get("type", "ClientError"),
            )
        return response.get("result"), received

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> ReproClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ops ---------------------------------------------------------------

    def ping(self) -> str:
        return self.request({"op": "ping"})

    def modules(self) -> list[str]:
        return self.request({"op": "modules"})

    def describe(self, module: str) -> dict[str, Any]:
        return self.request({"op": "describe", "module": module})

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})

    def plan(
        self,
        module: str,
        sizes: dict[str, int] | None = None,
        **execution: Any,
    ) -> dict[str, Any]:
        return self.request(
            {
                "op": "plan",
                "module": module,
                "sizes": sizes or {},
                "execution": execution,
            }
        )

    def warm(
        self,
        module: str | None = None,
        sizes: dict[str, int] | None = None,
        **execution: Any,
    ) -> dict[str, Any]:
        request: dict[str, Any] = {"op": "warm", "execution": execution}
        if module is not None:
            request["module"] = module
        if sizes:
            request["sizes"] = sizes
        return self.request(request)

    def run(
        self,
        module: str,
        args: dict[str, Any],
        fill: bool = False,
        seed: int = 0,
        **execution: Any,
    ) -> dict[str, np.ndarray | Any]:
        """Execute one request; array results come back as numpy arrays,
        bit for bit what the daemon computed (dtype, shape, byte order).
        They are writeable, and their bytes are yours while you hold any
        view of them; a big one is a view (``owndata`` false) of a buffer
        this client receives a later response into only after the last
        view of it is gone."""
        blobs: list = []
        result, received = self._exchange(
            {
                "op": "run",
                "module": module,
                "args": wire.encode_mapping(args, blobs),
                "fill": bool(fill),
                "seed": seed,
                "execution": execution,
            },
            blobs,
        )
        return wire.decode_mapping(result, received)

    def shutdown(self) -> str:
        """Ask the daemon to shut down; the connection dies with it."""
        return self.request({"op": "shutdown"})
