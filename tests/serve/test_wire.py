"""The serve wire format (see ``repro.serve.wire``): arrays survive both
forms bit for bit, malformed payloads are the sender's fault by name, and
an unusable frame costs the sender its connection — never the daemon."""

import base64
import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paper import RELAXATION_JACOBI_SOURCE
from repro.serve import DaemonThread, ReproClient, Session, wire

SIZES = {"M": 6, "maxK": 2}
DTYPES = ["<f8", ">f8", "<f4", "<i8", ">i8", "<i4", ">u2", "|b1", "|i1", "<c16"]
LAYOUTS = {
    "c": lambda a: a,
    "fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2] if a.ndim else a,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "readonly": lambda a: np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape),
}


@st.composite
def arrays(draw):
    """Any bit pattern of any served dtype, shape and memory layout: NaN
    payloads, signed zeros, infinities and integer extremes come for free."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = draw(st.binary(min_size=nbytes, max_size=nbytes))
    if dtype.kind == "b":
        raw = bytes(b & 1 for b in raw)
    arr = np.frombuffer(raw, dtype).reshape(shape).copy()
    return LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](arr)


def through_wire(mapping: dict, framed: bool, receive=bytearray) -> dict:
    """Encode, serialise exactly as the socket would carry it, decode.
    ``receive`` is the buffer type a blob arrives in: the client reads each
    result blob into a writeable buffer of its own (a ``bytearray`` stands
    in for the store's byte arrays), the daemon a request's frame into
    ``bytes``."""
    blobs = [] if framed else None
    line, *sent = wire.frame({"args": wire.encode_mapping(mapping, blobs)}, blobs)
    header = json.loads(line)
    sizes = wire.blob_sizes(header)
    assert (sizes is not None) == framed
    received = None if sizes is None else [receive(b) for b in sent]
    assert sizes is None or sizes == [len(b) for b in received]
    return wire.decode_mapping(header["args"], received)


def assert_same_bits(out: np.ndarray, arr: np.ndarray, writeable: bool) -> None:
    assert isinstance(out, np.ndarray)
    assert out.dtype.str == arr.dtype.str and out.shape == arr.shape
    assert out.tobytes() == arr.tobytes()
    assert out.flags.aligned and out.flags.c_contiguous
    assert out.flags.writeable == writeable


class TestRoundTrip:
    @pytest.mark.parametrize("framed", [True, False], ids=["framed", "inline"])
    @given(values=st.lists(arrays(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_arrays_round_trip_bit_exactly_in_order(self, framed, values):
        mapping = {f"a{i}": v for i, v in enumerate(values)} | {"n": 3, "t": 0.5}
        out = through_wire(mapping, framed)
        assert list(out) == list(mapping)
        assert out["n"] == 3 and out["t"] == 0.5
        for name, arr in mapping.items():
            if isinstance(arr, np.ndarray):
                # client side: results sit on writeable buffers of their own; an
                # inline array sits on the bytes base64 decoding returned
                assert_same_bits(out[name], arr, writeable=framed)
        # writeable arrays never share a buffer (read-only ones may: CPython
        # interns the one-byte ``bytes`` two tiny inline payloads decode to)
        decoded = [
            v for v in out.values()
            if isinstance(v, np.ndarray) and v.flags.writeable
        ]
        for i, a in enumerate(decoded):
            assert not any(np.shares_memory(a, b) for b in decoded[i + 1 :])

    @pytest.mark.parametrize("framed", [True, False], ids=["framed", "inline"])
    def test_special_values(self, framed):
        nan_payload = np.array([0x7FF8DEADBEEF0001, 0xFFF0000000000001], "<u8").view("<f8")
        mapping = {
            "nan": nan_payload,
            "zeros": np.array([0.0, -0.0, np.inf, -np.inf]),
            "ints": np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
            "flags": np.array([True, False, True]),
            "scalar": np.array(2.5),
            "empty": np.empty((0, 3)),
            "big_endian": np.arange(6, dtype=">f8").reshape(2, 3),
        }
        out = through_wire(mapping, framed)
        for name, arr in mapping.items():
            assert_same_bits(out[name], arr, writeable=framed)
        assert out["scalar"].shape == ()

    def test_request_blobs_decode_as_read_only_views_without_a_copy(self):
        """Daemon side: the frame is one ``bytes`` object, and an aligned
        blob of it reaches ``Session.run`` as a view — no copy."""
        mapping = {"x": np.arange(6.0).reshape(2, 3), "k": np.arange(5)}
        blobs: list = []
        header = {"args": wire.encode_mapping(mapping, blobs)}
        frame = memoryview(b"".join(bytes(b) for b in blobs))
        received = [frame[:48], frame[48:]]
        out = wire.decode_mapping(header["args"], received)
        for name, arr in mapping.items():
            assert_same_bits(out[name], arr, writeable=False)
            assert np.shares_memory(out[name], np.frombuffer(frame, np.uint8))

    def test_a_misaligned_blob_is_copied(self):
        frame = memoryview(b"\0" + np.arange(3.0).tobytes())
        value = {"__array__": {"blob": 0, "shape": [3], "dtype": "<f8"}}
        out = wire.decode_value(value, [frame[1:]])
        assert out.flags.aligned and np.array_equal(out, np.arange(3.0))
        assert not np.shares_memory(out, np.frombuffer(frame, np.uint8))

    def test_inline_is_the_one_argument_form(self):
        """What line-only tools (and the benchmark's wire meter) rely on."""
        arr = np.arange(4.0)
        text = json.dumps(wire.encode_mapping({"x": arr, "n": np.int64(4)}))
        assert "b64" in text and "blob" not in text
        out = wire.decode_mapping(json.loads(text))
        assert out["n"] == 4 and np.array_equal(out["x"], arr)

    def test_unsendable_dtype_is_refused_at_the_sender(self):
        with pytest.raises(TypeError, match="dtype"):
            wire.encode_mapping({"x": np.array([object()])})


def _array(**fields) -> dict:
    return {"__array__": {"shape": [1], "dtype": "<f8", **fields}}


BAD_PAYLOADS = {
    "blob index out of range": _array(blob=3),
    "blob index not an int": _array(blob="0"),
    "size mismatch": _array(blob=0, shape=[2]),
    "negative dimension": _array(blob=0, shape=[-1]),
    "shape not a list": _array(blob=0, shape=1),
    "object dtype": _array(blob=0, dtype="O"),
    "unknown dtype": _array(blob=0, dtype="zz9"),
    "dtype not a string": _array(blob=0, dtype=["<f8"]),
    "bad base64": _array(b64="@@not base64@@"),
    "missing payload": _array(),
    "inline size mismatch": _array(b64=base64.b64encode(b"1234").decode()),
    "nested list": {"__array__": [[1.0, 2.0]]},
}


class TestMalformedPayloads:
    @pytest.mark.parametrize("payload", BAD_PAYLOADS.values(), ids=BAD_PAYLOADS.keys())
    def test_decode_names_the_argument(self, payload):
        with pytest.raises(wire.WireError, match="argument 'InitialA'"):
            wire.decode_mapping({"M": 6, "InitialA": payload}, [bytearray(8)])

    @pytest.mark.parametrize(
        "blobs", ["8", [8, -1], [1.5], [True], [wire.MAX_FRAME, 1]], ids=repr
    )
    def test_bad_announcements(self, blobs):
        with pytest.raises(wire.WireError):
            wire.blob_sizes({"op": "run", "blobs": blobs})


# -- over a real socket --------------------------------------------------------


@pytest.fixture()
def served():
    session = Session()
    session.load(RELAXATION_JACOBI_SOURCE)
    session.warm("Relaxation", SIZES)
    with DaemonThread(session, port=0) as daemon:
        yield daemon, session


class LineClient:
    """What a hand-written client does: bytes out, lines (and bytes) in."""

    def __init__(self, daemon):
        self.sock = socket.create_connection(daemon.address, timeout=30)
        self.file = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()
        self.sock.close()

    def send(self, header: dict, payload: bytes = b"") -> None:
        self.sock.sendall(json.dumps(header).encode() + b"\n" + payload)

    def reply(self) -> dict:
        return json.loads(self.file.readline())

    def closed_by_peer(self) -> bool:
        return self.file.read(1) == b""


def run_request(array_payload: dict, **header) -> dict:
    args = {**SIZES, "InitialA": {"__array__": array_payload}}
    return {"op": "run", "module": "Relaxation", "args": args, **header}


def assert_still_serving(daemon, session) -> None:
    """The next request on a fresh connection succeeds, bit-exactly."""
    a = np.random.default_rng(3).random((8, 8))
    expected = session.run("Relaxation", {**SIZES, "InitialA": a}, backend="serial")
    host, port = daemon.address
    with ReproClient(host=host, port=port) as client:
        out = client.run("Relaxation", {**SIZES, "InitialA": a})
    assert out["newA"].tobytes() == expected["newA"].tobytes()


class TestLineOnlyClients:
    def test_inline_request_is_served_and_answered_inline(self, served):
        daemon, session = served
        a = np.random.default_rng(0).random((8, 8))
        expected = session.run("Relaxation", {**SIZES, "InitialA": a})["newA"]
        inline = wire.encode_value(a)["__array__"]
        with LineClient(daemon) as client:
            client.send(run_request(inline))
            reply = client.reply()
            assert reply["ok"] and "blobs" not in reply
            assert "b64" in reply["result"]["newA"]["__array__"]
            out = wire.decode_mapping(reply["result"])
            assert out["newA"].tobytes() == expected.tobytes()
            client.send({"op": "ping"})  # nothing trails an inline reply
            assert client.reply() == wire.ok("pong")

    def test_hand_framed_request_is_answered_with_a_frame(self, served):
        daemon, session = served
        a = np.random.default_rng(1).random((8, 8))
        expected = session.run("Relaxation", {**SIZES, "InitialA": a})["newA"]
        framed = {"blob": 0, "shape": [8, 8], "dtype": "<f8"}
        with LineClient(daemon) as client:
            client.send(run_request(framed, blobs=[a.nbytes]), a.tobytes())
            reply = client.reply()
            assert reply["ok"] and reply["blobs"] == [expected.nbytes]
            assert client.file.read(expected.nbytes) == expected.tobytes()

    def test_requests_without_arrays_cost_no_frame(self, served):
        daemon, _ = served
        with LineClient(daemon) as client:
            client.send({"op": "ping", "blobs": []})
            assert client.reply() == wire.ok("pong")


class TestFailureBehaviour:
    def test_bad_array_in_a_whole_frame_keeps_the_connection(self, served):
        daemon, session = served
        mismatched = {"blob": 0, "shape": [9, 8], "dtype": "<f8"}
        with LineClient(daemon) as client:
            client.send(run_request(mismatched, blobs=[512]), bytes(512))
            error = client.reply()["error"]
            assert error["type"] == "BadRequest"
            assert "InitialA" in error["message"] and "512" in error["message"]
            client.send({"op": "ping"})  # the stream is still in step
            assert client.reply() == wire.ok("pong")
        assert_still_serving(daemon, session)

    def test_bad_inline_array_is_a_bad_request(self, served):
        daemon, session = served
        with LineClient(daemon) as client:
            client.send(run_request({"b64": "@@", "shape": [8, 8], "dtype": "<f8"}))
            error = client.reply()["error"]
            assert error["type"] == "BadRequest" and "InitialA" in error["message"]
        assert_still_serving(daemon, session)

    def test_truncated_frame_is_answered_then_closed(self, served):
        daemon, session = served
        framed = {"blob": 0, "shape": [8, 8], "dtype": "<f8"}
        with LineClient(daemon) as client:
            client.send(run_request(framed, blobs=[512]), bytes(100))
            client.sock.shutdown(socket.SHUT_WR)
            error = client.reply()["error"]
            assert error["type"] == "BadRequest"
            assert "100 of 512" in error["message"]
            assert client.closed_by_peer()
        assert_still_serving(daemon, session)

    @pytest.mark.parametrize("blobs", [[wire.MAX_FRAME + 1], "lots", [-4]], ids=repr)
    def test_unusable_announcement_is_answered_then_closed(self, served, blobs):
        daemon, session = served
        with LineClient(daemon) as client:
            client.send({"op": "ping", "blobs": blobs})
            assert client.reply()["error"]["type"] == "BadRequest"
            assert client.closed_by_peer()
        assert_still_serving(daemon, session)
