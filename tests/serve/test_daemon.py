"""The serve daemon over a real socket: concurrent bit-exact clients,
structured errors that keep the connection alive, deterministic
backpressure, and clean shutdown."""

import asyncio
import glob
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.paper import RELAXATION_JACOBI_SOURCE
from repro.errors import ClientError
from repro.runtime.executor import ExecutionOptions, execute_module
from repro.serve import DaemonThread, ReproClient, Session, wire

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
        for phase in ("decode_s", "queue_s", "run_s", "encode_s"):
            assert own[phase] > 0, phase

    def test_a_request_array_reaches_the_run_without_a_copy(self, served):
        """The frame's bytes are decoded as a read-only view and the run
        borrows it: nothing between the socket and the kernel copies."""
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
        assert set(plan) >= {"backend", "workers", "cycles", "strategies"}

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


class TestSendBuffers:
    def test_both_ends_size_their_send_buffer_for_a_frame(self, served, monkeypatch):
        """Client and daemon each ask for ``wire.SEND_BUFFER`` of SO_SNDBUF
        on their end of a connection, so a MB-sized frame is not handed
        over one default socket buffer at a time."""
        daemon, _ = served
        asked = []
        real = asyncio.trsock.TransportSocket.setsockopt

        def spy(self, *args):
            asked.append(args)
            return real(self, *args)

        monkeypatch.setattr(asyncio.trsock.TransportSocket, "setsockopt", spy)
        with socket.socket() as probe:  # what the kernel grants that request
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, wire.SEND_BUFFER)
            granted = probe.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        with connect(daemon) as client:
            assert client.ping() == "pong"
            mine = client._sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        assert mine == granted
        assert asked == [(socket.SOL_SOCKET, socket.SO_SNDBUF, wire.SEND_BUFFER)]


class TestDisconnects:
    def test_peer_vanishing_mid_frame_leaks_nothing(self, served):
        """A header that announces 1 MB, half of it, then a dead socket:
        the connection's task ends, no thread or shm segment stays behind,
        and the daemon keeps serving."""
        daemon, session = served

        def tasks() -> int:
            async def count():
                return len(asyncio.all_tasks())

            future = asyncio.run_coroutine_threadsafe(count(), daemon._loop)
            return future.result(30) - 1  # minus the counting task itself

        def shm() -> set:
            return set(glob.glob("/dev/shm/psm_*"))

        args = {**SIZES, "InitialA": make_input(5)}
        expected = serial_reference(session, args)
        with connect(daemon) as client:
            client.run("Relaxation", args)  # executor thread started
        before = tasks(), threading.active_count(), shm()
        for _ in range(4):
            sock = socket.create_connection(daemon.address)
            header = {"op": "run", "module": "Relaxation", "blobs": [1 << 20]}
            sock.sendall(json.dumps(header).encode() + b"\n" + bytes(1 << 19))
            sock.close()
        with connect(daemon) as client:
            out = client.run("Relaxation", args)
        assert np.array_equal(out["newA"], expected)
        deadline = time.monotonic() + 30
        while not (
            tasks() <= before[0]
            and threading.active_count() <= before[1]
            and shm() <= before[2]
        ):
            assert time.monotonic() < deadline, "a connection left something"
            time.sleep(0.01)


class TestShutdown:
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
