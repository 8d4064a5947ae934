"""The readinto wire transport and the zero-copy data path end to end.

Unit tests drive :class:`FrameConnection` over real loopback sockets
against a raw stream peer (so framing, error ordering, and hangup
semantics are exercised exactly as production sees them); the E2E class
covers what the load bench gates — replies equal to ``np.transpose``,
``REPLY_TOO_LARGE`` as a typed error, the tensor-byte ledger, and lease
hygiene across drain, malformed frames, hangups partway through an
attachment and a peer that stops reading mid-reply.
"""

import asyncio
import socket
import threading

import numpy as np
import pytest

from repro.core.api import perm_to_axes
from repro.errors import ProtocolError
from repro.serving import ServingClient, ServingServer
from repro.serving.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameTooLargeError,
    decode,
    encode_parts,
    pack_frame_parts,
)
from repro.serving import server as server_mod
from repro.serving.server import ReplyTooLargeError
from repro.serving.wire import FrameConnection
from tests.helpers import frame_bytes, read_reply, wire_read

DIMS, PERM = (6, 5, 4), (2, 0, 1)


def meta_frame(meta: bytes) -> bytes:
    """A wire-v2 frame holding ``meta`` and no attachments."""
    return (4 + len(meta)).to_bytes(4, "big") + len(meta).to_bytes(4, "big") + meta


class _Loopback:
    """One FrameConnection accepting from one raw stream peer."""

    def __init__(self, server, wire, reader, writer):
        self.server = server
        self.wire = wire
        self.reader = reader
        self.writer = writer

    async def close(self) -> None:
        self.writer.close()
        self.server.close()
        await self.server.wait_closed()


async def loopback(**wire_kwargs) -> _Loopback:
    loop = asyncio.get_running_loop()
    accepted: list = []
    wire_kwargs.setdefault("decoder", decode)
    server = await loop.create_server(
        lambda: FrameConnection(on_connect=accepted.append, **wire_kwargs),
        "127.0.0.1",
        0,
    )
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    while not accepted:  # the accept callback runs on the next tick
        await asyncio.sleep(0)
    return _Loopback(server, accepted[0], reader, writer)


class TestFrameConnection:
    def test_frames_decode_in_order_then_eof(self):
        async def run():
            lb = await loopback()
            lb.writer.write(frame_bytes({"a": 1}) + frame_bytes([1, 2, 3]))
            lb.writer.write_eof()
            assert await lb.wire.read_frame() == {"a": 1}
            assert await lb.wire.read_frame() == [1, 2, 3]
            with pytest.raises(EOFError):
                await lb.wire.read_frame()
            await lb.close()

        asyncio.run(run())

    def test_fragmented_delivery_reassembles(self):
        async def run():
            lb = await loopback()
            frame = frame_bytes({"op": "execute", "payload": list(range(50))})
            for i in range(len(frame)):  # worst case: one byte per recv
                lb.writer.write(frame[i : i + 1])
                await lb.writer.drain()
            got = await lb.wire.read_frame()
            assert got["payload"] == list(range(50))
            await lb.close()

        asyncio.run(run())

    def test_oversized_prefix_is_frame_too_large(self):
        async def run():
            lb = await loopback(max_frame_bytes=64)
            lb.writer.write((65).to_bytes(4, "big"))
            with pytest.raises(FrameTooLargeError):
                await lb.wire.read_frame()
            await lb.close()

        asyncio.run(run())

    def test_empty_body_is_protocol_error(self):
        async def run():
            lb = await loopback()
            lb.writer.write((0).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                await lb.wire.read_frame()
            await lb.close()

        asyncio.run(run())

    def test_decode_failure_is_protocol_error(self):
        async def run():
            lb = await loopback()
            lb.writer.write(meta_frame(b"\x99"))
            with pytest.raises(ProtocolError, match="unknown wire tag"):
                await lb.wire.read_frame()
            await lb.close()

        asyncio.run(run())

    def test_good_frame_before_bad_one_still_delivers(self):
        async def run():
            lb = await loopback()
            lb.writer.write(frame_bytes({"ok": True}))
            lb.writer.write(meta_frame(b"\x99"))
            assert await lb.wire.read_frame() == {"ok": True}
            with pytest.raises(ProtocolError):
                await lb.wire.read_frame()
            await lb.close()

        asyncio.run(run())

    def test_mid_frame_hangup_is_protocol_error(self):
        async def run():
            lb = await loopback()
            lb.writer.write((10).to_bytes(4, "big") + b"abc")
            await lb.writer.drain()
            lb.writer.close()
            with pytest.raises(ProtocolError, match="inside a frame"):
                await lb.wire.read_frame()
            await lb.close()

        asyncio.run(run())

    def test_hangup_inside_attachment_discards_the_frame(self):
        frame = frame_bytes({"id": 3, "t": np.arange(512, dtype=np.float64)})
        discarded = []
        items, wire = wire_read(
            frame[: len(frame) - 100], discard=discarded.append
        )
        assert len(items) == 1 and isinstance(items[0], ProtocolError)
        assert "inside a frame attachment" in str(items[0])
        # The decoded-but-unfilled message went back to its owner.
        assert len(discarded) == 1 and discarded[0]["id"] == 3
        assert wire.stats.tensor_bytes_zero_copy == 512 * 8 - 100

    def test_write_parts_bytes_on_the_wire(self):
        async def run():
            lb = await loopback()
            big = np.arange(48_000, dtype=np.uint8)  # above coalesce cap
            parts = [b"head", memoryview(big), b"tail"]
            want = b"head" + big.tobytes() + b"tail"
            lb.wire.write_parts(parts)
            await lb.wire.drain()
            assert await lb.reader.readexactly(len(want)) == want
            await lb.close()

        asyncio.run(run())

    def test_writer_surface_matches_streamwriter(self):
        async def run():
            lb = await loopback()
            assert not lb.wire.is_closing()
            lb.wire.write_parts(pack_frame_parts(7))
            await lb.wire.drain()
            assert await read_reply(lb.reader) == 7
            lb.wire.close()
            await lb.wire.wait_closed()
            assert lb.wire.is_closing()
            await lb.close()

        asyncio.run(run())


def run_serving(coro_fn, **server_kwargs):
    async def main():
        kwargs = dict(num_streams=1)
        kwargs.update(server_kwargs)
        server = ServingServer(**kwargs)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.close()

    return asyncio.run(main())


#: NumPy-convention problems the oracle test sends: a view chain, and
#: loop nests of 2 MiB and 8 MiB (f64).
ORACLE_PROBLEMS = (
    ((4, 5, 6), (2, 0, 1)),
    ((64, 64, 64), (2, 1, 0)),
    ((128, 128, 64), (1, 2, 0)),
)


async def _execute_numpy(client, arr, axes) -> np.ndarray:
    """``np.transpose(arr, axes)``, computed by the server."""
    dims, perm = arr.shape[::-1], tuple(perm_to_axes(axes))
    result = await client.execute(dims, perm, arr.itemsize, payload=arr)
    return np.asarray(result["output"]).reshape(
        np.transpose(arr, axes).shape
    )


class TestDataPathEndToEnd:
    def test_replies_match_numpy_and_count_the_one_copy(self):
        rng = np.random.default_rng(11)
        # A non-C-contiguous payload: the one copy the data path takes
        # (the client compacts it on encode).
        strided = rng.standard_normal((16, 48))[:, ::2]

        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                for shape, axes in ORACLE_PROBLEMS:
                    arr = rng.standard_normal(shape)
                    got = await _execute_numpy(client, arr, axes)
                    np.testing.assert_array_equal(got, np.transpose(arr, axes))
                got = await _execute_numpy(client, strided, (1, 0))
                np.testing.assert_array_equal(got, strided.T)
                snap = await client.stats()
            assert client.codec_stats.tensor_bytes_copied == strided.nbytes
            assert snap["data_path"]["tensor_bytes_copied"] == 0

        run_serving(scenario)

    def test_zero_copy_ledger_and_lease_hygiene(self):
        rng = np.random.default_rng(12)
        src = rng.standard_normal(int(np.prod(DIMS)))

        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                for _ in range(4):
                    await client.execute(DIMS, PERM, 8, payload=src)
                snap = await client.stats()
                assert snap["data_path"]["tensor_bytes_copied"] == 0
                # 4 requests x (ingress + egress) x the operand size.
                assert (
                    snap["data_path"]["tensor_bytes_zero_copy"]
                    >= 8 * src.nbytes
                )
                assert client.codec_stats.tensor_bytes_copied == 0
                drained = await client.drain(timeout_s=30.0)
            counters = drained["snapshot"]["counters"]
            assert counters["serving.arena.leases_at_drain"] == 0
            assert drained["snapshot"]["arena"]["active_blocks"] == 0
            assert drained["snapshot"]["arena"]["leaked"] == 0

        run_serving(scenario)

    def test_reply_too_large_is_typed(self):
        # The request (synth, tiny) fits the cap; the reply, carrying
        # the 960-element f64 output, cannot.
        async def scenario(server):
            async with ServingClient(
                server.host, server.port, max_frame_bytes=server.max_frame_bytes
            ) as client:
                with pytest.raises(ReplyTooLargeError) as err:
                    await client.execute(
                        (8, 10, 12), (2, 0, 1), 8,
                        synth=True, return_output=True,
                    )
                assert err.value.code == "REPLY_TOO_LARGE"
                # The connection survives a shed reply: next request ok.
                info = await client.ping()
            assert info["draining"] is False
            assert server.admission.idle

        run_serving(scenario, max_frame_bytes=4096)

    def test_wire_request_tensors_land_in_arena_leases(self):
        rng = np.random.default_rng(14)
        src = rng.standard_normal(int(np.prod(DIMS)))

        async def scenario(server):
            before = server.arena.stats()["reuses"]
            async with ServingClient(server.host, server.port) as client:
                for _ in range(6):
                    await client.execute(DIMS, PERM, 8, payload=src)
            after = server.arena.stats()
            # Steady-state requests recycle blocks instead of growing
            # the arena: ingress + egress leases both come from it.
            assert after["reuses"] > before
            assert after["active_blocks"] == 0

        run_serving(scenario)


def _execute_frame(payload: np.ndarray, attachment_delta: int = 0) -> bytes:
    """An execute request frame whose attachment is ``attachment_delta``
    bytes longer (or shorter) than its meta declares."""
    parts = encode_parts(
        {"op": "execute", "id": 1, "dims": [payload.size], "perm": [0],
         "payload": payload}
    )
    body = b"".join(bytes(p) for p in parts)
    if attachment_delta < 0:
        body = body[:attachment_delta]
    else:
        body += b"\x00" * attachment_delta
    return len(body).to_bytes(4, "big") + body


class TestMalformedFramesHoldNoLeases:
    @pytest.mark.parametrize(
        "frame, code",
        [
            (_execute_frame(np.zeros(64), -8), "BAD_REQUEST"),
            (_execute_frame(np.zeros(64), +8), "BAD_REQUEST"),
            (_execute_frame(np.zeros(8192)), "FRAME_TOO_LARGE"),
        ],
        ids=["short-attachment", "long-attachment", "over-cap"],
    )
    def test_typed_reply_and_no_lease(self, frame, code):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(frame)
            await writer.drain()
            reply = await read_reply(reader)
            assert reply["ok"] is False and reply["error"] == code
            # The server hung up; closing over the unread rest of our
            # frame may turn its FIN into a reset.
            with pytest.raises((EOFError, ConnectionError)):
                await read_reply(reader)
            writer.close()
            stats = server.arena.stats()
            assert stats["allocations"] == 0 and stats["reuses"] == 0
            assert server.admission.idle

        run_serving(scenario, max_frame_bytes=32 * 1024)

    def test_hangup_inside_attachment_releases_its_lease(self):
        frame = _execute_frame(np.ones(1 << 17))  # 1 MiB attachment

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(frame[: len(frame) // 2])
            await writer.drain()
            # The meta has decoded once the arena lease exists.
            for _ in range(500):
                if server.arena.stats()["allocations"]:
                    break
                await asyncio.sleep(0.01)
            assert server.arena.stats()["active_blocks"] == 1
            writer.close()
            await writer.wait_closed()
            for _ in range(500):
                if server.metrics.counters().get("disconnects"):
                    break
                await asyncio.sleep(0.01)
            assert server.arena.stats()["active_blocks"] == 0
            assert server.admission.idle
            snap = server.serving_snapshot()
            assert snap["counters"]["serving.errors.BAD_REQUEST"] == 1
            assert snap["data_path"]["staged_bytes"] < 1024

        run_serving(scenario)


async def _wait_for(predicate, timeout_s: float = 30.0) -> None:
    for _ in range(int(timeout_s / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached in time")


#: Where Linux keeps the TCP send-buffer bounds ("min default max").
TCP_WMEM = "/proc/sys/net/ipv4/tcp_wmem"


def tcp_send_buffer_max() -> int:
    """The most a TCP socket's send buffer may grow to by autotuning:
    the ``tcp_wmem`` maximum on Linux, 16 MiB where it cannot be read."""
    try:
        with open(TCP_WMEM) as f:
            return int(f.read().split()[2])
    except (OSError, ValueError, IndexError):
        return 16 * 2**20


def _slow_reader_request():
    """A request whose reply is larger than the kernel can buffer for a
    peer that does not read, and the frame cap that admits it.

    The peer's receive buffer is pinned small (:func:`_stalled_peer`),
    so the kernel holds at most the server's send buffer plus a little:
    a reply 4 MiB past the send buffer's ceiling must back up into the
    transport's write buffer, however the host tunes TCP."""
    reply_bytes = max(8 * 2**20, tcp_send_buffer_max() + 4 * 2**20)
    row_bytes = 64 * 128 * 8
    request = {
        "op": "execute", "id": 1,
        "dims": [64, 128, -(-reply_bytes // row_bytes)],
        "perm": [2, 0, 1], "synth": True, "return_output": True,
    }
    return request, max(DEFAULT_MAX_FRAME_BYTES, 2 * reply_bytes)


async def _stalled_peer(server, request) -> socket.socket:
    """A raw peer that sends ``request`` and never reads: once this
    returns, the reply sits in the transport's write buffer and the
    request still holds its permit, so the server is in ``drain()``."""
    loop = asyncio.get_running_loop()
    peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    peer.setblocking(False)
    await loop.sock_connect(peer, (server.host, server.port))
    await loop.sock_sendall(peer, frame_bytes(request))
    await _wait_for(
        lambda: server.serving_snapshot()["data_path"]["egress_bytes_buffered"]
    )
    assert not server.admission.idle
    return peer


def _new_threads(before) -> list:
    return sorted(
        t.name
        for t in threading.enumerate()
        if t not in before
        and t.name not in ("repro-native-compile", "repro-native-part")
    )


class TestSlowReader:
    def test_hangup_while_the_reply_drains(self):
        """A peer asks for a reply larger than the kernel can buffer,
        never reads it, and hangs up while the server waits in
        ``drain()`` for the socket to take it: the reply fails, counted,
        and nothing it held survives."""
        before = set(threading.enumerate())
        request, max_frame_bytes = _slow_reader_request()

        async def scenario(server):
            peer = await _stalled_peer(server, request)
            peer.close()
            await _wait_for(lambda: server.admission.idle)
            counters = server.metrics.counters()
            assert counters["reply_failures"] == 1
            assert counters.get("replies", 0) == 0
            assert await server.drain(timeout=30.0)
            assert server.arena.stats()["active_blocks"] == 0

        run_serving(scenario, max_frame_bytes=max_frame_bytes)
        assert _new_threads(before) == []

    def test_close_aborts_a_peer_that_never_reads(self, monkeypatch):
        """The same peer neither reads nor hangs up: ``close()`` drains
        for :data:`~repro.serving.server.SHUTDOWN_DRAIN_S`, then aborts
        the connection, so it returns within a bound; the reply fails,
        counted, and nothing it held survives."""
        monkeypatch.setattr(server_mod, "SHUTDOWN_DRAIN_S", 0.5)
        before = set(threading.enumerate())
        request, max_frame_bytes = _slow_reader_request()

        async def main():
            server = ServingServer(
                num_streams=1, max_frame_bytes=max_frame_bytes
            )
            await server.start()
            peer = await _stalled_peer(server, request)
            try:
                await asyncio.wait_for(server.close(), timeout=10.0)
                assert server.metrics.counters()["reply_failures"] == 1
                assert server.admission.idle
                assert server.arena.stats()["active_blocks"] == 0
            finally:
                peer.close()

        asyncio.run(main())
        assert _new_threads(before) == []
