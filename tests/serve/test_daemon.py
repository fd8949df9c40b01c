"""The serve daemon over a real socket: concurrent bit-exact clients,
structured errors that keep the connection alive, deterministic
backpressure, and clean shutdown."""

import contextlib
import glob
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.paper import RELAXATION_JACOBI_SOURCE
from repro.errors import ClientError, SessionError
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.serve import DaemonThread, ReproClient, Session, wire
from repro.serve.daemon import SCRATCH_BYTES, _Connection

from tests.runtime.test_backends import RETIRED_BACKENDS, SURVIVORS

SIZES = {"M": 6, "maxK": 2}


def make_input(seed: int, m: int = 6) -> np.ndarray:
    return np.random.default_rng(seed).random((m + 2, m + 2))


def serial_reference(session: Session, args: dict) -> np.ndarray:
    result = session.result_for("Relaxation")
    return execute_module(
        result.analyzed,
        dict(args),
        flowchart=result.flowchart,
        options=ExecutionOptions(backend="serial"),
    )["newA"]


@pytest.fixture()
def served():
    """A warm session behind a TCP daemon; yields (daemon, session)."""
    session = Session()
    session.load(RELAXATION_JACOBI_SOURCE)
    session.warm("Relaxation", SIZES)
    with DaemonThread(session, port=0) as daemon:
        yield daemon, session


def connect(daemon) -> ReproClient:
    host, port = daemon.address
    return ReproClient(host=host, port=port)


class TestProtocol:
    def test_ping_modules_describe_stats(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            assert client.ping() == "pong"
            assert client.modules() == ["Relaxation"]
            desc = client.describe("Relaxation")
            assert desc["results"] == ["newA"]
            assert client.stats()["modules"] == ["Relaxation"]

    def test_run_round_trips_float64_bit_exactly(self, served):
        daemon, session = served
        args = {**SIZES, "InitialA": make_input(0)}
        expected = serial_reference(session, args)
        with connect(daemon) as client:
            out = client.run("Relaxation", args)
        assert out["newA"].dtype == np.float64
        assert np.array_equal(out["newA"], expected)

    def test_stats_say_where_the_daemon_spends_its_time(self, served):
        daemon, _ = served
        a = make_input(1)
        with connect(daemon) as client:
            client.run("Relaxation", {**SIZES, "InitialA": a})
            client.ping()
            own = client.stats()["daemon"]
        assert own["requests"] == 2  # the stats request is still in flight
        assert own["bytes_in"] > a.nbytes and own["bytes_out"] > a.nbytes
        for phase in ("recv_s", "decode_s", "queue_s", "run_s", "encode_s", "send_s"):
            assert own[phase] > 0, phase
        # a 512-byte frame is below the frame store's threshold: left to malloc
        assert own["frame_bytes_recycled"] == own["frame_bytes_fresh"] == 0

    def test_a_request_array_reaches_the_run_without_a_copy(self, served):
        """The frame is received straight into a daemon buffer and decoded
        as a read-only view of it, which the run borrows: nothing between
        the socket and the kernel copies."""
        daemon, _ = served
        a = make_input(2)
        with connect(daemon) as client:
            before = client.stats()
            out = client.run("Relaxation", {**SIZES, "InitialA": a})
            after = client.stats()
        assert out["newA"].flags.writeable
        assert after["arg_bytes_borrowed"] - before["arg_bytes_borrowed"] == a.nbytes
        assert after["arg_bytes_converted"] == before["arg_bytes_converted"] == 0
        assert after["arrays_uninitialised"] + after["arrays_zeroed"] > 0

    def test_plan_op_reports_backend(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            plan = client.plan("Relaxation", SIZES)
        assert set(plan) >= {"backend", "workers", "cycles", "strategies", "explain"}
        assert plan["explain"].startswith("provenance Relaxation: auto")

    def test_server_side_fill_is_seeded(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            a = client.run("Relaxation", dict(SIZES), fill=True, seed=7)
            b = client.run("Relaxation", dict(SIZES), fill=True, seed=7)
            c = client.run("Relaxation", dict(SIZES), fill=True, seed=8)
        assert np.array_equal(a["newA"], b["newA"])
        assert not np.array_equal(a["newA"], c["newA"])


class TestStructuredErrors:
    def test_unknown_module(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.run("Nope", {})
            assert exc.value.kind == "UnknownModule"
            assert client.ping() == "pong"  # connection survives

    def test_unknown_op(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.request({"op": "frobnicate"})
            assert exc.value.kind == "BadRequest"

    def test_bad_execution_override(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.request(
                    {
                        "op": "run",
                        "module": "Relaxation",
                        "args": {},
                        "execution": {"bogus": 1},
                    }
                )
            assert exc.value.kind == "BadRequest"
            assert "bogus" in str(exc.value)

    @pytest.mark.parametrize("name", ["allow_reassoc", "use_collapse", "use_fission"])
    def test_retired_option_is_a_bad_request(self, served, name):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.run(
                    "Relaxation", {**SIZES, "InitialA": make_input(0)},
                    **{name: True},
                )
            assert exc.value.kind == "BadRequest"
            assert name in str(exc.value)
            assert "valid fields" in str(exc.value)
            assert client.ping() == "pong"  # connection survives

    @pytest.mark.parametrize(
        "name", ["collapse", "iterate", "pipeline", "scan", "fission", "chunk"]
    )
    def test_retired_strategy_is_a_structured_error(self, served, name):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.run(
                    "Relaxation", {**SIZES, "InitialA": make_input(0)},
                    strategy=name,
                )
            assert exc.value.kind == "ExecutionError"
            assert (
                f"unknown strategy {name!r}; "
                f"available: serial, vector, nest"
            ) in str(exc.value)
            # the connection survives: the next run on it succeeds
            out = client.run(
                "Relaxation", {**SIZES, "InitialA": make_input(0)},
                strategy="nest",
            )
            assert out["newA"].shape == (SIZES["M"] + 2, SIZES["M"] + 2)

    @pytest.mark.parametrize("tier", ["evaluator", "natve"])
    def test_unknown_kernel_tier_is_a_structured_error(self, served, tier):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.run(
                    "Relaxation", {**SIZES, "InitialA": make_input(0)},
                    kernel_tier=tier,
                )
            assert exc.value.kind == "ExecutionError"
            assert str(exc.value).endswith(
                f"unknown kernel tier {tier!r}; available: native, numpy"
            )
            assert client.ping() == "pong"  # connection survives

    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_retired_backend_is_a_structured_error(self, served, name):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.run(
                    "Relaxation", {**SIZES, "InitialA": make_input(0)},
                    backend=name,
                )
            assert exc.value.kind == "ExecutionError"
            assert f"available: {SURVIVORS}" in str(exc.value)
            assert client.ping() == "pong"  # connection survives

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
    def test_bad_worker_count_is_a_structured_error(self, served, workers):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.run(
                    "Relaxation", {**SIZES, "InitialA": make_input(0)},
                    workers=workers,
                )
            assert exc.value.kind == "ExecutionError"
            assert str(exc.value).endswith(
                f"workers must be a positive integer; got {workers!r}"
            )
            assert client.ping() == "pong"  # connection survives

    def test_args_must_be_object(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            with pytest.raises(ClientError) as exc:
                client.request(
                    {"op": "run", "module": "Relaxation", "args": [1, 2]}
                )
            assert exc.value.kind == "BadRequest"

    def test_malformed_json_keeps_connection_alive(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            client._sock.sendall(b"{not json}\n")
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "BadRequest"
            assert client.ping() == "pong"

    def test_non_object_request(self, served):
        daemon, _ = served
        with connect(daemon) as client:
            client._sock.sendall(b"[1, 2, 3]\n")
            response = json.loads(client._file.readline())
            assert response["error"]["type"] == "BadRequest"


class TestResultBuffers:
    """Result blobs of 128 KiB and more land on buffers of earlier responses
    whose arrays the caller has dropped — and on no buffer anything still
    references (the run-side half is ``tests/runtime/test_storage_reuse.py``)."""

    BIG = {"M": 127, "maxK": 2}  # newA: 129 x 129 reals, just over 128 KiB

    def test_a_held_result_survives_twenty_later_responses(self, served):
        daemon, session = served
        inputs = [make_input(300 + i, m=127) for i in range(2)]
        expected = [
            serial_reference(session, {**self.BIG, "InitialA": a}).tobytes()
            for a in inputs
        ]
        with connect(daemon) as client:
            first = client.run("Relaxation", {**self.BIG, "InitialA": inputs[0]})["newA"]
            kept = first[3:5]  # a slice is reference enough
            del first
            for i in range(1, 21):
                out = client.run(
                    "Relaxation", {**self.BIG, "InitialA": inputs[i % 2]}
                )["newA"]
                assert out.flags.writeable and out.tobytes() == expected[i % 2], i
                assert kept.tobytes() == np.frombuffer(
                    expected[0], np.float64
                ).reshape(129, 129)[3:5].tobytes(), i
            stats = client.stats()
        assert stats["storage_bytes_recycled"] > 0
        assert stats["storage_bytes_fresh"] > 0 and stats["storage_bytes_held"] >= 0

    def test_a_dropped_result_is_the_next_responses_buffer(self, served):
        daemon, _ = served
        args = {**self.BIG, "InitialA": make_input(310, m=127)}
        with connect(daemon) as client:
            out = client.run("Relaxation", args)["newA"]
            address, answer = out.ctypes.data, out.tobytes()
            assert not out.flags.owndata
            del out
            for _ in range(3):
                out = client.run("Relaxation", args)["newA"]
                assert out.ctypes.data == address and out.tobytes() == answer
                del out
            small = client.run("Relaxation", {**SIZES, "InitialA": make_input(0)})
            assert small["newA"].flags.writeable


class TestConcurrency:
    def test_concurrent_clients_bit_exact_and_isolated(self, served):
        """Eight clients, eight sockets, eight different inputs — every
        response equals a serial run of that client's own input."""
        daemon, session = served
        inputs = [make_input(200 + i) for i in range(8)]
        expected = [
            serial_reference(session, {**SIZES, "InitialA": a})
            for a in inputs
        ]
        barrier = threading.Barrier(8)

        def one_client(i):
            with connect(daemon) as client:
                barrier.wait()
                return client.run(
                    "Relaxation", {**SIZES, "InitialA": inputs[i]}
                )["newA"]

        with ThreadPoolExecutor(8) as pool:
            outputs = list(pool.map(one_client, range(8)))
        for i in range(8):
            assert np.array_equal(outputs[i], expected[i]), f"client {i}"

    def test_concurrent_big_frames_never_share_a_buffer(self, served):
        """Six clients each send frames of over 128 KiB, which the daemon
        receives onto buffers it recycles between connections: a buffer
        handed out while a run still reads it would mix two inputs."""
        daemon, session = served
        big = {"M": 127, "maxK": 2}
        inputs = [make_input(400 + i, m=127) for i in range(6)]
        expected = [
            serial_reference(session, {**big, "InitialA": a}).tobytes()
            for a in inputs
        ]
        barrier = threading.Barrier(6)

        def one_client(i):
            with connect(daemon) as client:
                barrier.wait()
                for round_ in range(5):
                    j = (i + round_) % 6
                    out = client.run("Relaxation", {**big, "InitialA": inputs[j]})
                    assert out["newA"].tobytes() == expected[j], (i, round_)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as pool:
                for future in [pool.submit(one_client, i) for i in range(6)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert daemon.stats()["daemon"]["frame_bytes_recycled"] > 0

    def test_overload_returns_structured_error(self, monkeypatch):
        """With one execution slot, no queue, and a run that blocks until
        released, a second concurrent request must be answered Overloaded
        immediately — not buffered without bound."""
        session = Session()
        session.load(RELAXATION_JACOBI_SOURCE)
        entered = threading.Event()
        release = threading.Event()

        def slow_run(module, args, **overrides):
            entered.set()
            assert release.wait(30)
            return {}

        monkeypatch.setattr(session, "run", slow_run)
        with DaemonThread(session, port=0, max_inflight=1, max_queue=0) as daemon:
            first = connect(daemon)
            result = []
            worker = threading.Thread(
                target=lambda: result.append(
                    first.request(
                        {"op": "run", "module": "Relaxation", "args": {}}
                    )
                )
            )
            worker.start()
            assert entered.wait(30), "first request never started executing"
            with connect(daemon) as second:
                with pytest.raises(ClientError) as exc:
                    second.run("Relaxation", {})
                assert exc.value.kind == "Overloaded"
            release.set()
            worker.join(30)
            assert result == [{}]
            first.close()


def daemon_ends(daemon) -> list[socket.socket]:
    """The daemon's end of every connection it is serving now."""
    with daemon._lock:
        return [sock for sock, t in daemon._clients.items() if t.is_alive()]


class TestSendBuffers:
    def test_both_ends_size_their_send_buffer_for_a_frame(
        self, served, monkeypatch
    ):
        """Client and daemon each ask for ``wire.SEND_BUFFER`` of SO_SNDBUF
        on their end of a connection, so a MB-sized frame is not handed
        over one default socket buffer at a time."""
        daemon, _ = served
        asked = []
        real = socket.socket.setsockopt

        def spy(self, *args):
            asked.append((self, args))
            return real(self, *args)

        monkeypatch.setattr(socket.socket, "setsockopt", spy)
        with socket.socket() as probe:  # what the kernel grants that request
            real(probe, socket.SOL_SOCKET, socket.SO_SNDBUF, wire.SEND_BUFFER)
            granted = probe.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        with connect(daemon) as client:
            assert client.ping() == "pong"
            mine = client._sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            [theirs] = daemon_ends(daemon)
        assert mine == granted
        assert [
            args for sock, args in asked
            if sock is theirs and args[0] == socket.SOL_SOCKET
        ] == [(socket.SOL_SOCKET, socket.SO_SNDBUF, wire.SEND_BUFFER)]

    def test_tcp_connections_disable_nagle(self, served):
        """A reply's last segment leaves at once, not after the peer's
        delayed ACK."""
        daemon, _ = served
        with connect(daemon) as client:
            assert client.ping() == "pong"
            [theirs] = daemon_ends(daemon)
            assert theirs.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


def live_threads(prefix: str) -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(prefix)]


def wait_for(condition, what: str = "timed out", timeout: float = 30) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def framed(args: dict) -> tuple[bytes, bytes]:
    """A framed ``run`` request of Relaxation: its header line and frame."""
    blobs: list = []
    header = {
        "op": "run", "module": "Relaxation",
        "args": wire.encode_mapping(args, blobs),
    }
    line, *frame = wire.frame(header, blobs)
    return line, b"".join(frame)


def read_reply(stream) -> dict:
    """The next reply on a file over the socket, its arrays decoded."""
    response = json.loads(stream.readline())
    assert response["ok"], response
    blobs = [stream.read(n) for n in wire.blob_sizes(response) or ()]
    return wire.decode_mapping(response["result"], blobs)


def raw_connection(daemon) -> socket.socket:
    sock = socket.create_connection(daemon.address, timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestTransport:
    """How request bytes arrive does not change the reply: each one is bit
    for bit a serial run of its own input."""

    def test_a_request_trickling_in_pieces(self, served):
        daemon, session = served
        args = {**SIZES, "InitialA": make_input(20)}
        with raw_connection(daemon) as sock, sock.makefile("rb") as stream:
            for part in framed(args):
                for piece in (part[:1], part[1:8], part[8:]):
                    sock.sendall(piece)
                    time.sleep(0.01)  # each piece its own segment
            out = read_reply(stream)["newA"]
        assert out.tobytes() == serial_reference(session, args).tobytes()

    def test_two_pipelined_requests_in_one_send(self, served):
        daemon, session = served
        inputs = [{**SIZES, "InitialA": make_input(21 + i)} for i in range(2)]
        with raw_connection(daemon) as sock, sock.makefile("rb") as stream:
            sock.sendall(b"".join(b"".join(framed(args)) for args in inputs))
            for args in inputs:
                out = read_reply(stream)["newA"]
                assert out.tobytes() == serial_reference(session, args).tobytes()

    def test_an_inline_request_longer_than_the_scratch_buffer(self, served):
        daemon, session = served
        args = {"M": 90, "maxK": 2, "InitialA": make_input(22, m=90)}
        line = json.dumps(
            {"op": "run", "module": "Relaxation", "args": wire.encode_mapping(args)}
        ).encode() + b"\n"
        assert len(line) > SCRATCH_BYTES
        with raw_connection(daemon) as sock, sock.makefile("rb") as stream:
            sock.sendall(line)
            out = read_reply(stream)["newA"]
        assert out.tobytes() == serial_reference(session, args).tobytes()

    def test_a_line_over_the_limit_closes_only_its_connection(
        self, served, monkeypatch
    ):
        daemon, _ = served
        monkeypatch.setattr(wire, "MAX_LINE", 1 << 20)
        with raw_connection(daemon) as sock:
            with contextlib.suppress(ConnectionError):
                sock.sendall(b"x" * ((1 << 20) + 1))  # and no newline
            with contextlib.suppress(ConnectionResetError):
                assert sock.recv(1) == b""
        with connect(daemon) as client:
            assert client.ping() == "pong"

    def test_a_frame_cut_short_is_a_bad_request_then_closed(self, served):
        daemon, _ = served
        header = {"op": "run", "module": "Relaxation", "args": {}, "blobs": [1000]}
        with raw_connection(daemon) as sock, sock.makefile("rb") as stream:
            sock.sendall(json.dumps(header).encode() + b"\n" + bytes(10))
            sock.shutdown(socket.SHUT_WR)
            response = json.loads(stream.readline())
            assert response["error"] == {
                "type": "BadRequest", "message": "frame cut short: 10 of 1000 bytes",
            }
            assert stream.read() == b""

    def test_a_repeated_big_request_lands_on_a_recycled_frame(self, served):
        """A frame of 128 KiB and more is received into a buffer of an
        earlier frame that nothing references any more, and the run still
        borrows the read-only array decoded from it."""
        daemon, session = served
        big = {"M": 361, "maxK": 2}  # InitialA: 363 x 363 reals, just over 1 MB
        args = {**big, "InitialA": make_input(23, m=361)}
        assert args["InitialA"].nbytes > 1 << 20
        expected = serial_reference(session, args).tobytes()
        with connect(daemon) as client:
            before = client.stats()
            for _ in range(4):
                assert client.run("Relaxation", args)["newA"].tobytes() == expected
            after = client.stats()
        assert after["daemon"]["frame_bytes_recycled"] >= 3 * args["InitialA"].nbytes
        assert after["daemon"]["frame_bytes_fresh"] == args["InitialA"].nbytes
        borrowed = after["arg_bytes_borrowed"] - before["arg_bytes_borrowed"]
        assert borrowed == 4 * args["InitialA"].nbytes
        assert after["arg_bytes_converted"] == 0


class TestDisconnects:
    def test_peer_vanishing_mid_frame_leaks_nothing(self, served):
        """A header that announces 1 MB, half of it, then a dead socket:
        the connection's thread ends, no other thread or shm segment stays
        behind, and the daemon keeps serving."""
        daemon, session = served

        def connections() -> int:
            return len(live_threads("repro-serve-conn"))

        def shm() -> set:
            return set(glob.glob("/dev/shm/psm_*"))

        def threads() -> int:
            return threading.active_count() - connections()

        def settled(before: tuple) -> bool:
            return (
                connections() == 0
                and threads() <= before[0]
                and shm() <= before[1]
            )

        args = {**SIZES, "InitialA": make_input(5)}
        expected = serial_reference(session, args)
        with connect(daemon) as client:
            client.run("Relaxation", args)
        wait_for(lambda: connections() == 0)
        before = threads(), shm()
        for _ in range(4):
            sock = socket.create_connection(daemon.address)
            header = {"op": "run", "module": "Relaxation", "blobs": [1 << 20]}
            sock.sendall(json.dumps(header).encode() + b"\n" + bytes(1 << 19))
            sock.close()
        with connect(daemon) as client:
            out = client.run("Relaxation", args)
        assert np.array_equal(out["newA"], expected)
        wait_for(lambda: settled(before), "a connection left something")
        # the buffers the half frames went into were let go of, and at most
        # those four stay idle for the next big frame
        assert 0 < daemon._frames.held() <= 4 << 20


class TestUnixSocket:
    @pytest.fixture()
    def path(self):
        # unix socket paths are capped (~108 bytes); keep it in a short tmp dir
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as where:
            yield os.path.join(where, "d.sock")

    def test_a_stale_socket_file_is_replaced(self, path):
        with socket.socket(socket.AF_UNIX) as earlier:
            earlier.bind(path)  # closed without unlinking: a stale file
        session = Session()
        session.load(RELAXATION_JACOBI_SOURCE)
        with DaemonThread(session, unix_path=path):
            with ReproClient(unix_path=path) as client:
                assert client.ping() == "pong"

    def test_a_path_that_is_not_a_socket_is_refused(self, path):
        with open(path, "w") as fh:
            fh.write("mine")
        session = Session()
        runner = DaemonThread(session, unix_path=path)
        # the bind fails in the caller's thread, naming the address and why
        with pytest.raises(SessionError, match=f"{path}: Address already in use"):
            runner.start()
        assert session.closed
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-serve")
        ]
        with open(path) as fh:
            assert fh.read() == "mine"

    def test_serve_on_a_path_that_is_not_a_socket_exits_1(self, path, capsys):
        from repro.cli import main

        with open(path, "w") as fh:
            fh.write("mine")
        module = os.path.join(os.path.dirname(path), "relax.ps")
        with open(module, "w") as fh:
            fh.write(RELAXATION_JACOBI_SOURCE)
        assert main(["serve", module, "--socket", path]) == 1
        err = capsys.readouterr().err
        assert f"failed to bind {path}: Address already in use" in err


class TestThreads:
    def test_a_run_executes_on_the_thread_that_received_it(
        self, served, monkeypatch
    ):
        """No handoff: each connection's thread reads its requests and runs
        them itself."""
        daemon, session = served
        readers, runners = [], []
        real_readline, real_run = _Connection.readline, session.run

        def readline(conn):
            readers.append(threading.current_thread())
            return real_readline(conn)

        def run(*args, **kwargs):
            runners.append(threading.current_thread())
            return real_run(*args, **kwargs)

        monkeypatch.setattr(_Connection, "readline", readline)
        monkeypatch.setattr(session, "run", run)
        with connect(daemon) as first, connect(daemon) as second:
            for client in (first, second, first):
                client.run("Relaxation", {**SIZES, "InitialA": make_input(0)})
        assert [t.name for t in runners] == ["repro-serve-conn"] * 3
        assert runners[0] is runners[2] is not runners[1]
        assert set(runners) <= set(readers)

    def test_importing_the_serve_layer_starts_no_event_loop_machinery(self):
        code = (
            "import sys, repro.serve; "
            "print(sorted({'asyncio', 'concurrent.futures.thread'} & set(sys.modules)))"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)}, check=True,
        )
        assert out.stdout.strip() == "[]"


def relaxation_session() -> Session:
    session = Session()
    session.load(RELAXATION_JACOBI_SOURCE)
    return session


class TestShutdown:
    @pytest.mark.parametrize("how", ["stop", "client"])
    def test_an_idle_connection_does_not_hold_the_daemon(self, how):
        """A client holding a connection open without a request wakes up
        to the end of its stream, and no serve thread survives."""
        session = relaxation_session()
        runner = DaemonThread(session, port=0)
        daemon = runner.start()
        idle = connect(daemon)
        assert idle.ping() == "pong"
        started = time.monotonic()
        if how == "stop":
            runner.stop()
        else:
            with connect(daemon) as client:
                assert client.shutdown() == "shutting down"
            runner.join(30)
        assert time.monotonic() - started < 30
        assert not runner._thread.is_alive()
        assert session.closed
        assert live_threads("repro-serve") == []
        assert idle._sock.recv(1) == b""
        idle.close()

    def test_a_request_in_flight_is_answered_before_the_session_closes(
        self, monkeypatch
    ):
        session = relaxation_session()
        entered, release = threading.Event(), threading.Event()
        events = []

        def slow_run(module, args, **overrides):
            entered.set()
            assert release.wait(30)
            return {}

        real_send, real_close = _Connection.send, session.close

        def send(conn, buffers):
            real_send(conn, buffers)
            events.append("reply")

        def close():
            events.append("close")
            real_close()

        monkeypatch.setattr(session, "run", slow_run)
        monkeypatch.setattr(session, "close", close)
        monkeypatch.setattr(_Connection, "send", send)
        runner = DaemonThread(session, port=0)
        daemon = runner.start()
        result = []
        with connect(daemon) as client:
            worker = threading.Thread(
                target=lambda: result.append(
                    client.request({"op": "run", "module": "Relaxation", "args": {}})
                )
            )
            worker.start()
            assert entered.wait(30), "the request never started executing"
            stopper = threading.Thread(target=runner.stop)
            stopper.start()
            wait_for(lambda: daemon._stopping)
            assert not session.closed
            release.set()
            worker.join(30)
            stopper.join(30)
        assert not worker.is_alive() and not stopper.is_alive()
        assert result == [{}]
        assert events == ["reply", "close"]
        assert live_threads("repro-serve") == []

    def test_client_shutdown_stops_daemon_and_closes_session(self):
        session = Session()
        session.load(RELAXATION_JACOBI_SOURCE)
        runner = DaemonThread(session, port=0)
        daemon = runner.start()
        with connect(daemon) as client:
            assert client.shutdown() == "shutting down"
        runner.join(30)
        assert not runner._thread.is_alive()
        assert session.closed
        runner.stop()  # idempotent after a client-driven shutdown
