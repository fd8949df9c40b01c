"""The ``repro serve`` daemon: a :class:`~repro.serve.session.Session`
behind a socket.

The asyncio loop owns only the transport — accept, read a message, write
a message. Every request body (array decode and encode included) executes
in a thread pool against one shared warm session, so concurrent clients
overlap wherever the session allows (always for planning and in-process
backends; process-pool runs serialise on their backend). Two pressure
valves bound a burst of clients:

* ``max_inflight`` requests execute at once (a semaphore over the
  executor), and
* at most ``max_queue`` more may wait; beyond that the daemon answers
  ``Overloaded`` immediately instead of buffering unboundedly.

Wire protocol: one JSON header line per message, optionally followed by
a frame of raw array bytes (see :mod:`repro.serve.wire`). Requests carry
``op`` plus op-specific fields; every response is either ``{"ok": true,
"result": ...}`` or a structured error. A malformed line gets a
``BadRequest`` error and the connection stays open — one bad request must
not kill a client's pipeline; only an unusable frame (oversize, or cut
short) closes it, because the stream cannot be resynchronised.

Supported ops: ``ping``, ``modules``, ``describe``, ``stats``, ``plan``,
``warm``, ``run``, ``shutdown``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import json
import socket
import threading
from time import perf_counter
from typing import Any

from repro.errors import ReproError, SessionError
from repro.runtime.executor import ExecutionOptions
from repro.serve import wire
from repro.serve.session import Session, fill_random_arrays


class ReproDaemon:
    """Serve one warm :class:`Session` over TCP or a unix socket.

    Synchronous construction; :meth:`serve_forever` runs the asyncio loop
    until :meth:`request_shutdown` (or a client ``shutdown`` op). The
    session is owned: closing the daemon closes it, tearing down worker
    pools and unlinking every shared-memory segment.
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
        self._sem = asyncio.Semaphore(self.max_inflight)
        self._pending = 0
        self._pending_lock = threading.Lock()
        #: what `stats` reports about the daemon itself (under the lock);
        #: the seconds leave out time spent waiting on the socket
        self._totals = {
            "requests": 0, "bytes_in": 0, "bytes_out": 0,
            "decode_s": 0.0, "queue_s": 0.0, "run_s": 0.0, "encode_s": 0.0,
        }
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._ready = threading.Event()
        self.address: tuple[str, int] | str | None = None

    # -- request handling --------------------------------------------------

    def _count(self, **amounts: float) -> None:
        with self._pending_lock:
            for key, amount in amounts.items():
                self._totals[key] += amount

    def stats(self) -> dict[str, Any]:
        """The session's counters plus this daemon's own: requests answered,
        payload bytes each way, and where the seconds went — wire-bound
        (decode + encode), saturated (queue) or kernel-bound (run)?"""
        with self._pending_lock:
            own = dict(self._totals)
        return {**self.session.stats().to_dict(), "daemon": own}

    def _handle(
        self, request: dict[str, Any], blobs: list | None, accepted: float
    ) -> tuple[list, dict[str, float]]:
        """Execute one request synchronously (runs on the executor): the
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
        if module not in self.session.modules():
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

    # -- connection loop ---------------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, wire.SEND_BUFFER
        )
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                    if not line:
                        break
                    reply, reusable = await self._respond(line, reader)
                except (ValueError, ConnectionError):
                    # over-long line or peer reset: nothing sane to answer on
                    break
                stop = reply is _SHUTDOWN
                if stop:
                    reply = wire.frame(wire.ok("shutting down"))
                self._count(requests=1, bytes_out=sum(map(len, reply)))
                # (no empty buffers: 3.12's sendmsg path never drains them)
                writer.writelines([b for b in reply if len(b)])
                await writer.drain()
                reply = None  # sent: the session may reuse the result arrays
                if stop:
                    self.request_shutdown()
                if not reusable:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer gone mid-reply, or the daemon shut down while we idled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _respond(
        self, line: bytes, reader: asyncio.StreamReader
    ) -> tuple[Any, bool]:
        """The reply buffers for one request line (reading its frame off
        ``reader``), and whether the stream can carry another request."""

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
                frame = memoryview(await reader.readexactly(sum(sizes)))
                ends = list(itertools.accumulate(sizes))
                blobs = [frame[end - n : end] for n, end in zip(sizes, ends)]
        except wire.WireError as exc:
            return reject(str(exc), reusable=False)
        except asyncio.IncompleteReadError as exc:
            return reject(
                f"frame cut short: {len(exc.partial)} of {exc.expected} bytes",
                reusable=False,
            )
        self._count(
            bytes_in=len(line) + sum(sizes or ()), decode_s=parsed - received
        )
        if request.get("op") == "shutdown":
            return _SHUTDOWN, False
        with self._pending_lock:
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
            async with self._sem:
                loop = asyncio.get_running_loop()
                try:
                    reply, seconds = await loop.run_in_executor(
                        self._executor, self._handle, request, blobs, accepted
                    )
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
            with self._pending_lock:
                self._pending -= 1

    # -- lifecycle ---------------------------------------------------------

    async def _start(self) -> None:
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_client, path=self.unix_path, limit=wire.MAX_LINE
            )
            self.address = self.unix_path
        else:
            self._server = await asyncio.start_server(
                self._serve_client, self.host, self.port, limit=wire.MAX_LINE
            )
            sock = self._server.sockets[0].getsockname()
            self.address = (sock[0], sock[1])
            self.port = sock[1]
        self._loop = asyncio.get_running_loop()
        self._ready.set()

    async def _run(self) -> None:
        await self._start()
        try:
            async with self._server:
                await self._shutdown.wait()
        finally:
            self.close()

    def serve_forever(self) -> None:
        """Run the daemon until shutdown. Blocks the calling thread."""
        try:
            asyncio.run(self._run())
        finally:
            self._ready.set()  # unblock wait_ready() even on startup failure

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the daemon is accepting connections (or failed)."""
        return self._ready.wait(timeout)

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop; safe from any thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._shutdown.set)
        else:
            self._shutdown.set()

    def close(self) -> None:
        """Tear down the executor and the owned session (pools + shm)."""
        self._executor.shutdown(wait=True)
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
            target=self.daemon.serve_forever, daemon=True
        )

    def __enter__(self) -> ReproDaemon:
        self.start()
        return self.daemon

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> ReproDaemon:
        self._thread.start()
        if not self.daemon.wait_ready(timeout=30):
            raise SessionError("serve daemon failed to start within 30s")
        if self.daemon.address is None:
            raise SessionError("serve daemon failed to bind")
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
