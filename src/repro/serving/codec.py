"""Compact length-prefixed wire codec for the serving protocol.

msgpack-style framing over raw sockets, dependency-free: every message
is one **frame** — a 4-byte big-endian unsigned body length followed by
the body.  The body is a 4-byte meta length, the **meta** — a
tag-prefixed binary encoding of one JSON-like value (None, bools,
64-bit ints, doubles, UTF-8 strings, bytes, lists, string-keyed dicts,
and an ndarray tag carrying dtype and extents) — and then the
**attachments**: each tensor's raw C-order bytes, in encode order, with
no padding.  Keeping tensor bytes out of the meta is what lets the
readinto transport (:mod:`repro.serving.wire`) read the small meta
first, decide where every tensor will live, and then have the kernel
``recv_into`` each attachment straight into that storage.

The decoder is strict: every length is bounds-checked against the
remaining buffer, unknown tags and trailing garbage raise
:class:`~repro.errors.ProtocolError`, nesting depth is capped, and the
attachment sizes the meta declares must add up to exactly the bytes
that follow it — checked before any tensor storage is allocated.  A
declared frame longer than ``max_frame_bytes`` raises
:class:`FrameTooLargeError` *before* the body is read, so a hostile or
buggy peer cannot make the server buffer an arbitrary amount.

Encoding is scatter-gather: :func:`encode_parts` /
:func:`pack_frame_parts` return a list of buffer-protocol parts, the
meta parts and then every tensor as a flat ``uint8`` *view* of the
source array (no ``tobytes``, no join).  Decoding works on a frame's
meta alone: :func:`decode` asks a ``buffer_factory`` for each tensor's
storage (e.g. a :class:`~repro.runtime.arena.BufferArena` lease) and
leaves it for the transport to fill in place (``docs/serving.md`` has
the copy-count table).  Every tensor byte is counted in a
:class:`CodecStats`, so the zero-copy invariant
(``tensor_bytes_copied == 0``) is observable and regression-testable.

Frame layout, wire v2 (see ``docs/serving.md`` for the verb schemas)::

    +-----------+-----------+---------------------+---------------------+
    | u32 BE    | u32 BE    | meta: one encoded   | attachments: tensor |
    | body_len  | meta_len  | value (meta_len B)  | bytes, encode order |
    +-----------+-----------+---------------------+---------------------+
                |<------------------ body_len bytes ------------------->|

Tags (one byte each, lengths big-endian)::

    0xc0 None    0xc2 False   0xc3 True
    0xd3 int     (i64)        0xcb float (f64)
    0xdb str     (u32 len + UTF-8)
    0xc6 bytes   (u32 len + raw)
    0xdd list    (u32 count + items)
    0xdf dict    (u32 count + str-key/value pairs)
    0xc7 ndarray (u8 dtype-str len + dtype + u8 ndim +
                  ndim * u32 extents; the data is an attachment)
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError

#: Default cap on one frame's body, bytes.  Large enough for a ~200 MB
#: TTC-suite operand is deliberately NOT the default — servers that
#: want to accept tensor payloads that big opt in explicitly.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Nesting depth cap of the decoder (requests are depth <= 3).
MAX_DEPTH = 32

_LEN = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_T_NONE = 0xC0
_T_FALSE = 0xC2
_T_TRUE = 0xC3
_T_INT = 0xD3
_T_FLOAT = 0xCB
_T_STR = 0xDB
_T_BYTES = 0xC6
_T_LIST = 0xDD
_T_DICT = 0xDF
_T_NDARRAY = 0xC7

#: ``buffer_factory(shape, dtype) -> ndarray``: caller-provided storage
#: a decoded tensor lands in (C-contiguous, writable, exact shape/dtype).
BufferFactory = Callable[[Tuple[int, ...], np.dtype], np.ndarray]


class FrameTooLargeError(ProtocolError):
    """A frame declared a body longer than the negotiated maximum."""


class CodecStats:
    """Data-path byte accounting for one endpoint (a connection, a client).

    Every ndarray crossing the codec adds its ``nbytes`` to exactly one
    bucket per traversal: ``tensor_bytes_zero_copy`` when it moved as a
    view (encode) or when ``recv_into`` delivered it in place into its
    final storage (the readinto transport's attachments),
    ``tensor_bytes_copied`` when an intermediate copy was taken (the
    forced ``ascontiguousarray`` of a non-contiguous source on encode).

    Two more counters describe the transport around the tensors:
    ``staged_bytes`` is what the readinto transport read into its own
    staging buffers (frame headers and metas — never attachments), and
    ``egress_bytes_buffered`` is how much the asyncio transport's write
    buffer grew across each scatter-gather write, i.e. the bytes it
    copied instead of sending inline.  The serving layer folds all four
    into ``MetricsRegistry`` counters named by :meth:`as_dict`; the
    load bench asserts ``tensor_bytes_copied == 0`` and a staging
    volume of at most 1% of the tensor bytes.
    """

    __slots__ = (
        "tensor_bytes_copied",
        "tensor_bytes_zero_copy",
        "staged_bytes",
        "egress_bytes_buffered",
    )

    def __init__(self) -> None:
        self.tensor_bytes_copied = 0
        self.tensor_bytes_zero_copy = 0
        self.staged_bytes = 0
        self.egress_bytes_buffered = 0

    def count(self, nbytes: int, copied: bool) -> None:
        if copied:
            self.tensor_bytes_copied += int(nbytes)
        else:
            self.tensor_bytes_zero_copy += int(nbytes)

    def as_dict(self) -> dict:
        """The counters under their ``MetricsRegistry`` names."""
        return {
            "tensor_bytes_copied": self.tensor_bytes_copied,
            "tensor_bytes_zero_copy": self.tensor_bytes_zero_copy,
            "wire.staged_bytes": self.staged_bytes,
            "egress_bytes_buffered": self.egress_bytes_buffered,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CodecStats(copied={self.tensor_bytes_copied}, "
            f"zero_copy={self.tensor_bytes_zero_copy}, "
            f"staged={self.staged_bytes}, "
            f"egress_buffered={self.egress_bytes_buffered})"
        )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _byte_part(obj) -> Any:
    """A bytes-like part for a ``bytes``/``bytearray``/``memoryview``
    input **without** forcing a copy when the object already exposes a
    contiguous buffer (``b"".join`` and the transport's ``write`` both
    consume buffer-protocol objects directly).  Non-contiguous
    memoryviews are the one case that must materialize."""
    if isinstance(obj, (bytes, bytearray)):
        return obj
    if obj.contiguous:
        return obj if obj.format == "B" and obj.ndim == 1 else obj.cast("B")
    return bytes(obj)


def _part_nbytes(part) -> int:
    return part.nbytes if isinstance(part, memoryview) else len(part)


def _tensor_view(arr: np.ndarray) -> memoryview:
    """A flat ``uint8`` memoryview over a C-contiguous array's bytes.

    ``reshape(-1)`` then ``view(uint8)`` are both views (never copies)
    on a C-contiguous source, and work where ``memoryview(arr)`` alone
    would not flatten: 0-d arrays, zero-size arrays, read-only arrays,
    and non-native-endian dtypes all export a plain ``'B'`` buffer.
    """
    return memoryview(arr.reshape(-1).view(np.uint8))


def _encode_into(
    obj: Any,
    meta: List[Any],
    attachments: List[Any],
    depth: int,
    stats: Optional[CodecStats],
) -> None:
    if depth > MAX_DEPTH:
        raise ProtocolError(f"encode nesting deeper than {MAX_DEPTH}")
    if obj is None:
        meta.append(bytes((_T_NONE,)))
    elif obj is True:
        meta.append(bytes((_T_TRUE,)))
    elif obj is False:
        meta.append(bytes((_T_FALSE,)))
    elif isinstance(obj, (int, np.integer)):
        meta.append(bytes((_T_INT,)) + _I64.pack(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        meta.append(bytes((_T_FLOAT,)) + _F64.pack(float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        meta.append(bytes((_T_STR,)) + _LEN.pack(len(raw)))
        meta.append(raw)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = _byte_part(obj)
        meta.append(bytes((_T_BYTES,)) + _LEN.pack(_part_nbytes(raw)))
        meta.append(raw)
    elif isinstance(obj, np.ndarray):
        arr = obj if obj.flags.c_contiguous else np.ascontiguousarray(obj)
        dt = arr.dtype.str.encode("ascii")
        if len(dt) > 255 or arr.ndim > 255:
            raise ProtocolError("unencodable ndarray (dtype/ndim too wide)")
        head = bytes((_T_NDARRAY, len(dt))) + dt + bytes((arr.ndim,))
        head += b"".join(_LEN.pack(int(d)) for d in arr.shape)
        meta.append(head)
        # The part references the source array's memory; the caller
        # owns keeping it alive (and stable) until the write drains.
        attachments.append(_tensor_view(arr))
        if stats is not None:
            stats.count(arr.nbytes, copied=arr is not obj)
    elif isinstance(obj, (list, tuple)):
        meta.append(bytes((_T_LIST,)) + _LEN.pack(len(obj)))
        for item in obj:
            _encode_into(item, meta, attachments, depth + 1, stats)
    elif isinstance(obj, dict):
        meta.append(bytes((_T_DICT,)) + _LEN.pack(len(obj)))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            meta.append(_LEN.pack(len(raw)))
            meta.append(raw)
            _encode_into(value, meta, attachments, depth + 1, stats)
    else:
        raise ProtocolError(f"unencodable type {type(obj).__name__}")


def encode_parts(obj: Any, stats: Optional[CodecStats] = None) -> List[Any]:
    """Encode one value as a list of buffer-protocol body parts:
    ``[meta_len, *meta parts, *attachments]``.

    The meta parts come first, then every tensor as a flat ``uint8``
    memoryview **over the source array** — no ``tobytes``, no join.
    The parts borrow the source buffers: keep every encoded array alive
    and unmutated until the parts are fully written
    (:meth:`~repro.serving.wire.FrameConnection.write_parts` followed
    by ``drain()``).
    """
    meta: List[Any] = []
    attachments: List[Any] = []
    _encode_into(obj, meta, attachments, 0, stats)
    meta_len = sum(_part_nbytes(p) for p in meta)
    return [_LEN.pack(meta_len), *meta, *attachments]


def pack_frame_parts(
    obj: Any,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    stats: Optional[CodecStats] = None,
) -> List[Any]:
    """One full wire frame as scatter-gather parts.

    Returns ``[length_prefix, *body_parts]``; the body length is summed
    over the parts, never joined.  Same lifetime contract as
    :func:`encode_parts`.
    """
    parts = encode_parts(obj, stats=stats)
    body_len = sum(_part_nbytes(p) for p in parts)
    if body_len > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame body of {body_len} bytes exceeds the "
            f"{max_frame_bytes}-byte cap"
        )
    return [_LEN.pack(body_len), *parts]


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Slot:
    """A tensor the meta declared, waiting for its storage.

    Decoding the meta leaves one slot per ndarray tag where the array
    belongs (``parent[key]``, or the root when ``parent`` is None), so
    the attachment sizes can be checked before any storage exists.
    """

    __slots__ = ("shape", "dtype", "nbytes", "parent", "key")

    def __init__(self, shape: Tuple[int, ...], dtype: np.dtype) -> None:
        self.shape = shape
        self.dtype = dtype
        self.nbytes = math.prod(shape) * dtype.itemsize
        self.parent: Any = None
        self.key: Any = None


def _need(buf: bytes, pos: int, n: int) -> None:
    if pos + n > len(buf):
        raise ProtocolError(
            f"truncated body: need {n} bytes at offset {pos}, "
            f"have {len(buf) - pos}"
        )


def _decode_ndarray(
    buf: bytes, pos: int, slots: List[_Slot]
) -> Tuple[_Slot, int]:
    _need(buf, pos, 1)
    dt_len = buf[pos]
    pos += 1
    _need(buf, pos, dt_len)
    try:
        dtype = np.dtype(buf[pos : pos + dt_len].decode("ascii"))
    except (UnicodeDecodeError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid ndarray dtype: {exc}") from None
    if dtype.hasobject:
        # Raw bytes must never become object pointers.
        raise ProtocolError(f"invalid ndarray dtype: {dtype} holds objects")
    pos += dt_len
    _need(buf, pos, 1)
    ndim = buf[pos]
    pos += 1
    _need(buf, pos, 4 * ndim)
    shape = struct.unpack_from(f">{ndim}I", buf, pos)
    slot = _Slot(shape, dtype)
    slots.append(slot)
    return slot, pos + 4 * ndim


def _decode_at(
    buf: bytes, pos: int, depth: int, slots: List[_Slot]
) -> Tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise ProtocolError(f"decode nesting deeper than {MAX_DEPTH}")
    _need(buf, pos, 1)
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        _need(buf, pos, 8)
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_FLOAT:
        _need(buf, pos, 8)
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_STR:
        _need(buf, pos, 4)
        n = _LEN.unpack_from(buf, pos)[0]
        pos += 4
        _need(buf, pos, n)
        try:
            return buf[pos : pos + n].decode("utf-8"), pos + n
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string: {exc}") from None
    if tag == _T_BYTES:
        _need(buf, pos, 4)
        n = _LEN.unpack_from(buf, pos)[0]
        pos += 4
        _need(buf, pos, n)
        # bytes(): the staged meta is a bytearray the transport owns.
        return bytes(buf[pos : pos + n]), pos + n
    if tag == _T_NDARRAY:
        return _decode_ndarray(buf, pos, slots)
    if tag == _T_LIST:
        _need(buf, pos, 4)
        n = _LEN.unpack_from(buf, pos)[0]
        pos += 4
        # Every item needs >= 1 byte: reject absurd declared counts
        # before looping (a 4-byte count can claim 4 G items).
        _need(buf, pos, n)
        items: List[Any] = []
        for _ in range(n):
            item, pos = _decode_at(buf, pos, depth + 1, slots)
            if type(item) is _Slot:
                item.parent, item.key = items, len(items)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        _need(buf, pos, 4)
        n = _LEN.unpack_from(buf, pos)[0]
        pos += 4
        _need(buf, pos, n)  # >= 1 byte per entry, same guard as lists
        obj = {}
        for _ in range(n):
            _need(buf, pos, 4)
            key_len = _LEN.unpack_from(buf, pos)[0]
            pos += 4
            _need(buf, pos, key_len)
            try:
                key = buf[pos : pos + key_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"invalid UTF-8 in key: {exc}") from None
            pos += key_len
            value, pos = _decode_at(buf, pos, depth + 1, slots)
            if type(value) is _Slot:
                value.parent, value.key = obj, key
            obj[key] = value
        return obj, pos
    raise ProtocolError(f"unknown wire tag 0x{tag:02x}")


def _decode_meta(meta: bytes, attachment_bytes: int) -> Tuple[Any, List[_Slot]]:
    """The meta's value (tensors still as slots) and its slots, after
    checking that the declared tensors fill ``attachment_bytes``
    exactly."""
    slots: List[_Slot] = []
    value, pos = _decode_at(meta, 0, 0, slots)
    if pos != len(meta):
        raise ProtocolError(
            f"{len(meta) - pos} trailing bytes after the encoded value"
        )
    need = sum(slot.nbytes for slot in slots)
    if need > attachment_bytes:
        raise ProtocolError(
            f"truncated body: the attachments need {need} bytes, "
            f"have {attachment_bytes}"
        )
    if need < attachment_bytes:
        raise ProtocolError(
            f"{attachment_bytes - need} trailing bytes after the attachments"
        )
    return value, slots


def _place(value: Any, slot: _Slot, arr: np.ndarray) -> Any:
    """Put ``arr`` where ``slot`` stands; returns the (new) root."""
    if slot.parent is None:
        return arr
    slot.parent[slot.key] = arr
    return value


def decode(
    meta: bytes,
    buffer_factory: Optional[BufferFactory] = None,
    *,
    landed: List[np.ndarray],
    attachment_bytes: int = 0,
) -> Any:
    """Decode one frame's meta; raises :class:`ProtocolError` on any
    violation.

    ``meta`` is the frame's meta alone, as the readinto transport
    stages it, and ``attachment_bytes`` is the size of the attachments
    still unread on the socket.  Once the declared tensors are checked
    to fill exactly that many bytes, each one's storage comes from
    ``buffer_factory`` (``np.empty`` by default), takes its place in
    the returned value and is appended to ``landed`` in attachment
    order — **unfilled**: the caller reads the attachments into it.
    """
    buf = meta if isinstance(meta, (bytes, bytearray)) else bytes(meta)
    value, slots = _decode_meta(buf, attachment_bytes)
    factory = buffer_factory if buffer_factory is not None else np.empty
    for slot in slots:
        dest = factory(slot.shape, slot.dtype)
        if (
            not isinstance(dest, np.ndarray)
            or dest.dtype != slot.dtype
            or dest.shape != slot.shape
            or not dest.flags.c_contiguous
            or not dest.flags.writeable
        ):
            raise TypeError(
                "buffer_factory must return a writable C-contiguous "
                f"ndarray of shape {slot.shape} and dtype {slot.dtype}"
            )
        landed.append(dest)
        value = _place(value, slot, dest)
    return value
