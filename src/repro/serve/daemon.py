"""The ``repro serve`` daemon: a :class:`~repro.serve.session.Session`
behind a socket.

There is no event loop: the daemon accepts on the thread that calls
:meth:`ReproDaemon.serve_forever` and serves each connection on a thread
of its own (named ``repro-serve-conn``) with blocking sockets, so a
request is received, executed and answered on one thread. A header line
is received into a small per-connection scratch buffer; a request's
frame is received straight into a buffer of the daemon's frame store (a
:class:`~repro.runtime.values.BufferStore`, so a repeated MB-sized
request lands on pages an earlier frame already touched) and decoded as
read-only views the run borrows; a reply's header line and blobs leave
in one ``sendmsg``. Every connection runs against one shared warm
session, so concurrent clients overlap: planning coalesces per key, and
runs on one engine proceed side by side. An idle connection costs one
blocked thread and no CPU. Two pressure valves bound a burst of clients:

* ``max_inflight`` requests execute at once (a semaphore around each
  request's execution; ``stats`` reports the wait for a slot as
  ``queue_s``), and
* at most ``max_queue`` more may wait; beyond that the daemon answers
  ``Overloaded`` immediately instead of queueing without bound.

Requests running side by side share the cores, so a team kernel (a
compiled ``DO`` on a team of threads) runs at most ``cpu_count //
max_inflight`` threads wide here, whatever its plan says — applied to the
call, not the plan, so plans and their texts are the same as in a plain
``Session.run``. ``stats`` counts team calls and how many were narrowed.

Wire protocol: one JSON header line per message, optionally followed by
a frame of raw array bytes (see :mod:`repro.serve.wire`). Requests carry
``op`` plus op-specific fields; every response is either ``{"ok": true,
"result": ...}`` or a structured error. A malformed line gets a
``BadRequest`` error and the connection stays open — one bad request must
not kill a client's pipeline; only an unusable frame (oversize, or cut
short) or a header line over :data:`~repro.serve.wire.MAX_LINE` closes
it, because the stream cannot be resynchronised.

Supported ops: ``ping``, ``modules``, ``describe``, ``stats``, ``plan``,
``warm``, ``run``, ``shutdown``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import stat
import threading
from time import perf_counter, sleep
from typing import Any

import numpy as np

from repro.errors import ReproError, SessionError
from repro.runtime.executor import ExecutionOptions
from repro.runtime.kernels.native import cap_teams
from repro.runtime.values import BufferStore
from repro.serve import wire
from repro.serve.session import Session, fill_random_arrays

#: bytes one connection receives at a time while it looks for a newline
SCRATCH_BYTES = 64 << 10
#: seconds to wait before accepting again after ``accept`` failed
_ACCEPT_RETRY = 0.1


class _Connection:
    """One accepted socket, read and written with blocking calls on the
    thread that serves it.

    A header line is received into a per-connection scratch buffer; a frame
    is received straight into a buffer of the daemon's frame store (after
    the bytes the scratch buffer already holds), and handed on read-only,
    so the arrays decoded from it are borrowed by the run and never
    written. A reply leaves in one ``sendmsg``."""

    def __init__(self, sock: socket.socket, frames: BufferStore):
        self.sock = sock
        self._frames = frames
        self._scratch = bytearray(SCRATCH_BYTES)
        self._view = memoryview(self._scratch)
        self._pos = self._end = 0  # received, not yet read: [_pos, _end)

    def readline(self) -> bytes:
        """The next line, newline included; at the end of the stream, what
        is left of it (maybe nothing). A line longer than
        :data:`wire.MAX_LINE` bytes raises WireError."""
        carried = bytearray()  # the start of a line the scratch buffer outgrew
        while True:
            newline = self._scratch.find(b"\n", self._pos, self._end)
            stop = self._end if newline < 0 else newline + 1
            if len(carried) + stop - self._pos > wire.MAX_LINE:
                raise wire.WireError(f"request line over {wire.MAX_LINE} bytes")
            chunk, self._pos = self._view[self._pos : stop], stop
            if newline >= 0 and not carried:
                return bytes(chunk)
            carried += chunk
            if newline >= 0:
                return bytes(carried)
            self._pos = 0
            self._end = self.sock.recv_into(self._view)
            if not self._end:
                return bytes(carried)

    def readframe(self, size: int) -> memoryview:
        """The next ``size`` bytes, read-only, on a frame store buffer;
        WireError when the stream ends first."""
        frame = memoryview(self._frames.take((size,), np.uint8, zero=False))
        have = min(size, self._end - self._pos)
        frame[:have] = self._view[self._pos : self._pos + have]
        self._pos += have
        while have < size:
            got = self.sock.recv_into(frame[have:])
            if not got:
                raise wire.WireError(f"frame cut short: {have} of {size} bytes")
            have += got
        return frame.toreadonly()

    def send(self, buffers: list) -> None:
        """Write one message: every buffer in one ``sendmsg``, and with
        ``sendall`` what that call left unsent."""
        buffers = [b for b in buffers if len(b)]
        sent = self.sock.sendmsg(buffers)
        for buf in buffers:
            if sent >= len(buf):
                sent -= len(buf)
            else:
                self.sock.sendall(memoryview(buf)[sent:])
                sent = 0


class ReproDaemon:
    """Serve one warm :class:`Session` over TCP or a unix socket.

    Synchronous construction; :meth:`listen` binds the address in the
    calling thread, and :meth:`serve_forever` accepts connections, each
    served on a thread of its own, until :meth:`request_shutdown` (or a
    client ``shutdown`` op). The session is owned: closing the daemon — or
    a failed bind — closes it.
    """

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        max_inflight: int = 8,
        max_queue: int = 32,
    ):
        self.session = session
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_inflight = max(1, int(max_inflight))
        self.max_queue = max(0, int(max_queue))
        #: the widest team one request's kernels may run on
        self.team_cap = max(1, (os.cpu_count() or 1) // self.max_inflight)
        #: a slot per request allowed to execute at once
        self._slots = threading.BoundedSemaphore(self.max_inflight)
        self._pending = 0
        self._lock = threading.Lock()
        #: what `stats` reports about the daemon itself (under the lock);
        #: only ``recv_s`` / ``send_s`` count time spent waiting on the socket
        self._totals = {
            "requests": 0, "bytes_in": 0, "bytes_out": 0,
            "recv_s": 0.0, "decode_s": 0.0, "queue_s": 0.0, "run_s": 0.0,
            "encode_s": 0.0, "send_s": 0.0,
        }
        #: where request frames land: buffers of earlier frames nothing
        #: references any more, so a repeated big request finds warm pages
        self._frames = BufferStore()
        #: set once, under the lock, by :meth:`request_shutdown`
        self._stopping = False
        self._listener: socket.socket | None = None
        #: every connection socket and the thread serving it (under the
        #: lock); entries of finished threads go at the next accept
        self._clients: dict[socket.socket, threading.Thread] = {}
        self.address: tuple[str, int] | str | None = None

    # -- request handling --------------------------------------------------

    def _count(self, **amounts: float) -> None:
        with self._lock:
            for key, amount in amounts.items():
                self._totals[key] += amount

    def stats(self) -> dict[str, Any]:
        """The session's counters plus this daemon's own: requests answered,
        payload bytes each way, where the seconds went — socket-bound (recv
        + send), wire-bound (decode + encode), saturated (queue) or
        kernel-bound (run)? — and how many frame bytes landed on recycled
        or on fresh pages."""
        with self._lock:
            own = dict(self._totals)
        own["frame_bytes_recycled"] = self._frames.recycled
        own["frame_bytes_fresh"] = self._frames.fresh
        return {**self.session.stats().to_dict(), "daemon": own}

    def _handle(
        self, request: dict[str, Any], blobs: list | None, accepted: float
    ) -> tuple[list, dict[str, float]]:
        """Execute one request on its connection's thread: the
        buffers of its reply, framed iff the request was, and where the
        seconds since it was ``accepted`` went."""
        started = perf_counter()
        op = request.get("op")
        if op != "run":
            reply = wire.frame(wire.ok(self._simple_op(op, request)))
            return reply, {
                "queue_s": started - accepted,
                "run_s": perf_counter() - started,
            }
        module = self._module_of(request)
        raw = request.get("args")
        if not isinstance(raw, dict):
            raise _BadRequest("'args' must be an object")
        args = wire.decode_mapping(raw, blobs)
        decoded = perf_counter()
        if request.get("fill"):
            fill_random_arrays(
                self.session.result_for(module).analyzed,
                args,
                seed=int(request.get("seed", 0)),
            )
        out = self.session.run(module, args, options=self._options(request))
        ran = perf_counter()
        reply_blobs = None if blobs is None else []
        reply = wire.frame(wire.ok(wire.encode_mapping(out, reply_blobs)), reply_blobs)
        return reply, {
            "queue_s": started - accepted,
            "decode_s": decoded - started,
            "run_s": ran - decoded,
            "encode_s": perf_counter() - ran,
        }

    def _simple_op(self, op: Any, request: dict[str, Any]) -> Any:
        """The ops whose requests and results are plain JSON."""
        if op == "ping":
            return "pong"
        if op == "modules":
            return self.session.modules()
        if op == "stats":
            return self.stats()
        if op == "describe":
            return self.session.describe(self._module_of(request))
        if op == "plan":
            module = self._module_of(request)
            plan = self.session.plan(
                module, request.get("sizes") or {}, options=self._options(request)
            )
            return {
                "backend": plan.backend,
                "workers": plan.workers,
                "cycles": plan.cycles,
                "strategies": [list(pair) for pair in plan.strategies()],
                "explain": plan.explain(),
            }
        if op == "warm":
            module = request.get("module")
            if module is not None and not isinstance(module, str):
                raise _BadRequest("'module' must be a string")
            return self.session.warm(
                module, request.get("sizes") or None, options=self._options(request)
            )
        raise _BadRequest(f"unknown op {op!r}")

    def _module_of(self, request: dict[str, Any]) -> str:
        module = request.get("module")
        if not isinstance(module, str):
            raise _BadRequest("request needs a string 'module' field")
        if module not in self.session._modules:
            raise _UnknownModule(
                f"unknown module {module!r} "
                f"(serving: {', '.join(self.session.modules()) or 'none'})"
            )
        return module

    def _options(self, request: dict[str, Any]) -> ExecutionOptions:
        """The request's ``execution`` overrides, resolved once."""
        overrides = request.get("execution") or {}
        if not isinstance(overrides, dict):
            raise _BadRequest("'execution' must be an object of option overrides")
        try:
            return self.session.options(**overrides)
        except TypeError as exc:
            raise _BadRequest(str(exc)) from None

    # -- connections -------------------------------------------------------

    def _start_client(self, sock: socket.socket) -> None:
        """Serve a newly accepted socket on a thread of its own."""
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, wire.SEND_BUFFER)
        thread = threading.Thread(
            target=self._serve_client, args=(sock,), name="repro-serve-conn",
            daemon=True,
        )
        with self._lock:
            if self._stopping:  # accepted as the daemon stopped
                sock.close()
                return
            self._clients = {
                s: t for s, t in self._clients.items() if t.is_alive()
            }
            self._clients[sock] = thread
        thread.start()

    def _serve_client(self, sock: socket.socket) -> None:
        """Answer one connection's requests in order, each run inline."""
        cap_teams(self.team_cap)
        conn = _Connection(sock, self._frames)
        try:
            while not self._stopping:
                line = conn.readline()
                if not line:
                    break
                reply, reusable = self._respond(line, conn)
                stop = reply is _SHUTDOWN
                if stop:
                    reply = wire.frame(wire.ok("shutting down"))
                sending = perf_counter()
                conn.send(reply)
                self._count(
                    requests=1,
                    bytes_out=sum(map(len, reply)),
                    send_s=perf_counter() - sending,
                )
                reply = None  # sent: the session may reuse the result arrays
                self._frames.trim()
                if stop:
                    self.request_shutdown()
                if not reusable:
                    break
        except (ValueError, ConnectionError):
            pass  # an over-long line or the peer gone: nothing sane to answer
        finally:
            with self._lock:  # not while request_shutdown shuts it down
                sock.close()

    def _respond(self, line: bytes, conn: _Connection) -> tuple[Any, bool]:
        """The reply buffers for one request line (reading its frame off
        ``conn``), and whether the stream can carry another request."""

        def reject(message: str, reusable: bool = True) -> tuple[list, bool]:
            return wire.frame(wire.error("BadRequest", message)), reusable

        received = perf_counter()
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return reject(f"malformed JSON: {exc}")
        parsed = perf_counter()
        if not isinstance(request, dict):
            return reject("request must be a JSON object")
        blobs = None
        try:
            sizes = wire.blob_sizes(request)
            if sizes is not None:
                frame = conn.readframe(sum(sizes))
                ends = list(itertools.accumulate(sizes))
                blobs = [frame[end - n : end] for n, end in zip(sizes, ends)]
        except wire.WireError as exc:
            return reject(str(exc), reusable=False)
        self._count(
            bytes_in=len(line) + sum(sizes or ()),
            decode_s=parsed - received,
            recv_s=0.0 if blobs is None else perf_counter() - parsed,
        )
        if request.get("op") == "shutdown":
            return _SHUTDOWN, False
        with self._lock:
            if self._pending >= self.max_inflight + self.max_queue:
                return wire.frame(
                    wire.error(
                        "Overloaded",
                        f"{self._pending} requests already in flight or "
                        f"queued (max {self.max_inflight} + {self.max_queue})",
                    )
                ), True
            self._pending += 1
        try:
            accepted = perf_counter()
            with self._slots:
                try:
                    reply, seconds = self._handle(request, blobs, accepted)
                    self._count(**seconds)
                    return reply, True
                except _DaemonReject as exc:
                    failure = wire.error(exc.kind, str(exc))
                except wire.WireError as exc:  # an array that does not decode
                    failure = wire.error("BadRequest", str(exc))
                except ReproError as exc:
                    failure = wire.error(type(exc).__name__, str(exc))
                except Exception as exc:  # a bug, but the wire stays clean
                    failure = wire.error(
                        "InternalError", f"{type(exc).__name__}: {exc}"
                    )
                return wire.frame(failure), True
        finally:
            with self._lock:
                self._pending -= 1

    # -- lifecycle ---------------------------------------------------------

    def _listen(self) -> socket.socket:
        if self.unix_path is None:
            family = socket.getaddrinfo(
                self.host, self.port, type=socket.SOCK_STREAM
            )[0][0]
            listener = socket.create_server((self.host, self.port), family=family)
            self.address = listener.getsockname()[:2]
            self.port = self.address[1]
        else:
            # a socket file left by an earlier daemon goes; any other file
            # stays, and bind refuses it (address in use)
            with contextlib.suppress(FileNotFoundError):
                if stat.S_ISSOCK(os.stat(self.unix_path).st_mode):
                    os.remove(self.unix_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(self.unix_path)
                listener.listen()
            except OSError:
                listener.close()
                raise
            self.address = self.unix_path
        return listener

    def listen(self) -> None:
        """Bind and listen on the daemon's address in the calling thread.
        A failed bind closes the daemon and raises :class:`SessionError`
        naming the address and the OS reason."""
        try:
            self._listener = self._listen()
        except OSError as exc:
            self.close()
            where = self.unix_path or f"{self.host}:{self.port}"
            raise SessionError(
                f"serve daemon failed to bind {where}: {exc.strerror or exc}"
            ) from exc

    def serve_forever(self) -> None:
        """Accept connections until shutdown, then wait for every
        connection thread (a request already running sends its reply) and
        close. Blocks the calling thread; binds first unless :meth:`listen`
        already has."""
        if self._listener is None:
            self.listen()
        try:
            while not self._stopping:
                try:
                    sock, _ = self._listener.accept()
                except OSError:  # shut down, out of descriptors, or the peer left
                    if not self._stopping:
                        sleep(_ACCEPT_RETRY)
                    continue
                self._start_client(sock)
        finally:
            with self._lock:
                self._listener.close()
                threads = list(self._clients.values())
            for thread in threads:
                thread.join()
            self.close()

    def request_shutdown(self) -> None:
        """Stop accepting, and wake every connection thread waiting for
        bytes; safe from any thread, also before serving starts. Only the
        read side is shut down, so a request already running still sends
        its reply."""
        with self._lock:
            self._stopping = True
            for sock in filter(None, [self._listener, *self._clients]):
                with contextlib.suppress(OSError):  # closed, or reset
                    sock.shutdown(socket.SHUT_RD)

    def close(self) -> None:
        """Close the owned session."""
        self.session.close()


class _DaemonReject(Exception):
    kind = "BadRequest"


class _BadRequest(_DaemonReject):
    kind = "BadRequest"


class _UnknownModule(_DaemonReject):
    kind = "UnknownModule"


_SHUTDOWN = object()


class DaemonThread:
    """A daemon running on a background thread — the in-process harness
    tests and benchmarks use, and ``with`` support for scripts::

        with DaemonThread(session, unix_path=sock) as daemon:
            client = ReproClient(unix_path=sock)
    """

    def __init__(self, session: Session, **kwargs: Any):
        self.daemon = ReproDaemon(session, **kwargs)
        self._thread = threading.Thread(
            target=self.daemon.serve_forever, name="repro-serve", daemon=True
        )

    def __enter__(self) -> ReproDaemon:
        self.start()
        return self.daemon

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> ReproDaemon:
        """Bind in the calling thread, then serve on the background one: a
        failed bind raises here, with the daemon and its session closed."""
        self.daemon.listen()
        self._thread.start()
        return self.daemon

    def join(self, timeout: float | None = None) -> None:
        """Block until the daemon thread exits (a client ``shutdown`` op or
        :meth:`stop` from another thread) — how ``repro serve`` waits."""
        self._thread.join(timeout)

    def stop(self, timeout: float = 30) -> None:
        self.daemon.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise SessionError("serve daemon did not stop cleanly")
