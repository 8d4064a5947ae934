"""Readinto framed transport: the ingress half of the zero-copy path.

:class:`asyncio.StreamReader` would cost every inbound frame two full
extra passes — the socket chunk is ``extend``-ed into the reader's
internal ``bytearray``, then ``readexactly`` carves an owned copy back
out — plus an epoll register/unregister storm, because multi-MiB frames
overflow the reader's 64 KiB flow-control limit on every chunk.  For a
serving path whose premise is that transposition is
memory-bandwidth-bound (so a redundant pass over the tensor costs as
much as the transpose), that is the largest avoidable cost there is.

:class:`FrameConnection` is one :class:`asyncio.BufferedProtocol`
that reads each wire-v2 frame (``u32 body_len | u32 meta_len | meta |
attachments``, see :mod:`repro.serving.codec`) in three steps:

1. the 8-byte header into a fixed buffer — ``body_len`` is checked
   against ``max_frame_bytes`` the moment its 4 bytes are in;
2. exactly ``meta_len`` bytes into a small staging buffer, which the
   caller-supplied ``decoder`` turns into the message — choosing, via
   the codec's ``buffer_factory``, the storage every tensor will end
   up in (the server leases a :class:`~repro.runtime.arena.BufferArena`
   scope per frame, the client takes ``np.empty``);
3. each attachment: ``get_buffer`` hands the event loop a view over
   that tensor's storage, so the kernel ``recv_into``\\ s the tensor
   bytes straight to where they stay.

No buffer is ever sized by ``body_len``, and ingress tensor bytes
are touched by nothing in user space.  Staged bytes (header + meta)
and in-place tensor bytes are counted separately in the connection's
:class:`~repro.serving.codec.CodecStats`, so a return to body-sized
staging shows up as a counter, not just a slowdown.

Egress: :meth:`FrameConnection.write_parts` hands each tensor
memoryview straight to the transport, which sends from the source
array's memory whenever the socket accepts the bytes inline; what the
transport had to buffer instead is counted as ``egress_bytes_buffered``.

Completed frames are queued for :meth:`read_frame` in arrival order.
Decoded-but-unconsumed frames are bounded by ``high_water``; past it
the transport pauses reading until the consumer catches up.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, List, Optional

from repro.errors import ProtocolError
from repro.serving.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    CodecStats,
    FrameTooLargeError,
    _part_nbytes,
    _tensor_view,
)

#: ``u32 body_len | u32 meta_len``.
_HEADER_LEN = 8

#: Read states: which buffer ``get_buffer`` hands out next.
_HEADER, _META, _ATTACHMENT = "header", "meta", "attachment"

#: Parts at or below this size are coalesced into one small join before
#: writing; larger parts are written individually so the transport can
#: send straight from the source memoryview.  (Python 3.11's
#: ``Transport.writelines`` joins *all* parts into one buffer first,
#: which would re-copy every tensor byte we just avoided copying.)
WRITE_COALESCE_MAX = 32 * 1024


class FrameConnection(asyncio.BufferedProtocol):
    """One framed connection: readinto ingress, scatter-gather egress.

    ``decoder(meta, attachment_bytes=, landed=)`` — the signature of
    :func:`~repro.serving.codec.decode`'s staged-meta form — returns
    the frame's item and appends each tensor's (unfilled) storage to
    ``landed``; the attachments are then read into that storage and
    the item is queued for :meth:`read_frame`.  If the frame dies
    after its meta decoded (a hangup partway through an attachment, a
    lost connection), ``discard(item)`` gives the item's storage back.
    Frame-level failures are queued as typed exceptions, in arrival
    order; past one, the stream position is unrecoverable and every
    later byte is sunk.

    The write side is :meth:`write_parts` plus the
    :class:`asyncio.StreamWriter`-shaped ``drain`` / ``is_closing`` /
    ``close`` / ``wait_closed``, and :meth:`abort`.
    """

    def __init__(
        self,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        decoder: Callable[..., Any],
        discard: Optional[Callable[[Any], None]] = None,
        stats: Optional[CodecStats] = None,
        high_water: int = 32,
        on_connect: Optional[Callable[["FrameConnection"], None]] = None,
    ):
        self.max_frame_bytes = max_frame_bytes
        self.stats = stats if stats is not None else CodecStats()
        self._decoder = decoder
        self._discard = discard
        self._high_water = high_water
        self._on_connect = on_connect
        self._transport: Optional[asyncio.Transport] = None
        # -- read state --------------------------------------------------
        self._state = _HEADER
        self._pos = 0  # bytes of the current buffer already read
        self._header = bytearray(_HEADER_LEN)
        self._hview = memoryview(self._header)
        self._body_len = -1  # set once the first 4 header bytes passed
        self._meta: Optional[bytearray] = None
        self._item: Any = None  # the decoded frame awaiting attachments
        self._views: List[memoryview] = []
        self._index = 0
        self._fatal = False
        self._trash: Optional[memoryview] = None  # sink after a fatal error
        self._items: deque = deque()  # ("msg", value) | ("exc", exception)
        self._read_waiter: Optional[asyncio.Future] = None
        self._read_paused = False
        self._final_exc: Optional[BaseException] = None
        self._eof_delivered = False
        # -- write state -------------------------------------------------
        self._write_paused = False
        self._drain_waiters: deque = deque()
        self._closed_fut: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # asyncio.BufferedProtocol callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport
        self._closed_fut = asyncio.get_running_loop().create_future()
        if self._on_connect is not None:
            self._on_connect(self)

    def get_buffer(self, sizehint: int):
        if self._fatal:
            if self._trash is None:
                self._trash = memoryview(bytearray(65536))
            return self._trash
        if self._state is _ATTACHMENT:
            return self._views[self._index][self._pos :]
        if self._state is _META:
            return memoryview(self._meta)[self._pos :]
        return self._hview[self._pos :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._fatal:
            return
        self._pos += nbytes
        if self._state is _ATTACHMENT:
            self.stats.tensor_bytes_zero_copy += nbytes
            if self._pos < self._views[self._index].nbytes:
                return
            self._index += 1
            self._pos = 0
            if self._index == len(self._views):
                self._complete()
            return
        self.stats.staged_bytes += nbytes
        if self._state is _META:
            if self._pos == len(self._meta):
                self._decode_meta()
            return
        if self._pos >= 4 and self._body_len < 0:
            n = int.from_bytes(self._header[:4], "big")
            if n > self.max_frame_bytes:
                self._deliver_exc(
                    FrameTooLargeError(
                        f"frame declares a {n}-byte body "
                        f"(cap {self.max_frame_bytes})"
                    )
                )
                return
            if n < 4:
                # No room for the meta length.
                self._deliver_exc(
                    ProtocolError(
                        f"truncated body: need 4 bytes at offset 0, have {n}"
                    )
                )
                return
            self._body_len = n
        if self._pos < _HEADER_LEN:
            return
        meta_len = int.from_bytes(self._header[4:], "big")
        if not 0 < meta_len <= self._body_len - 4:
            self._deliver_exc(
                ProtocolError(
                    f"frame declares a {meta_len}-byte meta in a "
                    f"{self._body_len}-byte body"
                )
            )
            return
        self._meta = bytearray(meta_len)
        self._state = _META
        self._pos = 0

    def eof_received(self) -> bool:
        if not self._fatal:
            if self._state is not _HEADER or self._pos:
                if self._state is _ATTACHMENT:
                    want = self._views[self._index].nbytes
                elif self._state is _META:
                    want = len(self._meta)
                else:
                    want = _HEADER_LEN
                self._deliver_exc(
                    ProtocolError(
                        f"connection closed inside a frame {self._state} "
                        f"({self._pos}/{want} bytes)"
                    )
                )
            else:
                self._eof_delivered = True
                self._deliver_exc(EOFError("connection closed between frames"))
        return False  # let the transport close

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._abandon()
        if self._final_exc is None:
            self._final_exc = (
                exc
                if exc is not None
                else EOFError("connection closed between frames")
            )
        if exc is not None and not self._fatal:
            self._deliver(("exc", exc))
            self._fatal = True
        elif not self._eof_delivered and not self._fatal:
            self._eof_delivered = True
            self._deliver(("exc", EOFError("connection closed between frames")))
            self._fatal = True
        self._wake_reader()
        err = ConnectionResetError(f"connection lost: {exc}")
        while self._drain_waiters:
            waiter = self._drain_waiters.popleft()
            if not waiter.done():
                waiter.set_exception(err)
        if self._closed_fut is not None and not self._closed_fut.done():
            self._closed_fut.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        while self._drain_waiters:
            waiter = self._drain_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    # ------------------------------------------------------------------
    # frame assembly
    # ------------------------------------------------------------------
    def _decode_meta(self) -> None:
        meta, self._meta = self._meta, None
        landed: list = []
        try:
            item = self._decoder(
                meta,
                attachment_bytes=self._body_len - 4 - len(meta),
                landed=landed,
            )
        except BaseException as exc:
            self._deliver_exc(exc)
            return
        self._item = item
        # asyncio rejects an empty receive buffer: zero-byte tensors
        # are complete as allocated.
        self._views = [_tensor_view(arr) for arr in landed if arr.nbytes]
        self._index = 0
        self._pos = 0
        if self._views:
            self._state = _ATTACHMENT
        else:
            self._complete()

    def _complete(self) -> None:
        item, self._item = self._item, None
        self._views = []
        self._state = _HEADER
        self._body_len = -1
        self._pos = 0
        self._deliver(("msg", item))

    def _abandon(self) -> None:
        """Give back the storage of a frame that will never complete."""
        item, self._item = self._item, None
        self._views = []
        if item is not None and self._discard is not None:
            self._discard(item)

    # ------------------------------------------------------------------
    # delivery plumbing
    # ------------------------------------------------------------------
    def _deliver(self, item) -> None:
        self._items.append(item)
        self._wake_reader()
        if (
            not self._read_paused
            and len(self._items) >= self._high_water
            and self._transport is not None
        ):
            try:
                self._transport.pause_reading()
                self._read_paused = True
            except (RuntimeError, AttributeError):
                pass

    def _deliver_exc(self, exc: BaseException) -> None:
        # The stream position is unrecoverable past any frame-level
        # error; deliver it in order, then sink whatever else arrives.
        self._fatal = True
        self._abandon()
        self._deliver(("exc", exc))

    def _wake_reader(self) -> None:
        waiter, self._read_waiter = self._read_waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # ------------------------------------------------------------------
    # consumer API (read side)
    # ------------------------------------------------------------------
    async def read_frame(self) -> Any:
        """The next decoded message, in arrival order.

        Raises :class:`EOFError` on a clean close between frames, :class:`FrameTooLargeError` on
        an oversized length prefix, :class:`ProtocolError` on a decode
        failure or mid-frame hangup, and the transport's own exception
        on an abortive close.
        """
        while True:
            if self._items:
                kind, value = self._items.popleft()
                if (
                    self._read_paused
                    and not self._fatal
                    and len(self._items) <= self._high_water // 2
                    and self._transport is not None
                ):
                    try:
                        self._transport.resume_reading()
                        self._read_paused = False
                    except (RuntimeError, AttributeError):
                        pass
                if kind == "msg":
                    return value
                raise value
            if self._final_exc is not None:
                raise self._final_exc
            loop = asyncio.get_running_loop()
            self._read_waiter = loop.create_future()
            try:
                await self._read_waiter
            finally:
                self._read_waiter = None

    # ------------------------------------------------------------------
    # writer API
    # ------------------------------------------------------------------
    def write_parts(
        self, parts: List[Any], coalesce_max: int = WRITE_COALESCE_MAX
    ) -> None:
        """Scatter-gather frame write: headers join, tensors do not.

        Consecutive small parts (tags, lengths, scalars) are joined into
        one buffer per run — a few hundred bytes, not a copy that
        matters — while each large part (a tensor's memoryview) is
        handed to the transport on its own, so the socket sends
        directly from the source array's memory as far as it accepts
        the bytes inline.  The transport copies the rest into its write
        buffer before this returns; that growth is counted as
        ``egress_bytes_buffered``.  Every part is consumed by return,
        so the caller may release the source buffers after ``drain()``.
        """
        transport = self._transport
        before = transport.get_write_buffer_size()
        small: List[Any] = []
        for part in parts:
            if _part_nbytes(part) <= coalesce_max:
                small.append(part)
                continue
            if small:
                transport.write(b"".join(small))
                small.clear()
            transport.write(part)
        if small:
            transport.write(b"".join(small))
        grown = transport.get_write_buffer_size() - before
        if grown > 0:
            self.stats.egress_bytes_buffered += grown

    async def drain(self) -> None:
        if self._final_exc is not None and not isinstance(
            self._final_exc, EOFError
        ):
            raise ConnectionResetError(f"connection lost: {self._final_exc}")
        if self._transport is None or self._transport.is_closing():
            # Mirror StreamWriter.drain on a closing transport.
            await asyncio.sleep(0)
            return
        if not self._write_paused:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._drain_waiters.append(waiter)
        await waiter

    def is_closing(self) -> bool:
        return self._transport is None or self._transport.is_closing()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    def abort(self) -> None:
        """Close now, dropping whatever the transport has not sent."""
        if self._transport is not None:
            self._transport.abort()

    async def wait_closed(self) -> None:
        if self._closed_fut is not None:
            await self._closed_fut
