"""Wire codec: roundtrips, the pinned v2 frame layout, and the protocol
edge cases of ISSUE 6.

Every malformed input must surface as a *typed* error (ProtocolError /
FrameTooLargeError), never as a struct error, IndexError, or a hang.
"""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.serving.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    MAX_DEPTH,
    FrameTooLargeError,
    decode,
    encode_parts,
    pack_frame_parts,
)
from tests.helpers import assert_expected_inline, frame_bytes, wire_read


def roundtrip(value):
    """``value`` through one frame and the readinto wire path."""
    items, _ = wire_read(frame_bytes(value))
    assert len(items) == 1
    return items[0]


def meta_of(value) -> tuple:
    """``(meta, attachment_bytes)`` of ``value``'s frame body."""
    body = b"".join(bytes(p) for p in encode_parts(value))
    meta_len = int.from_bytes(body[:4], "big")
    return body[4 : 4 + meta_len], len(body) - 4 - meta_len


def decode_meta(meta: bytes, attachment_bytes: int = 0):
    return decode(meta, landed=[], attachment_bytes=attachment_bytes)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**62),
            0.0,
            -2.5,
            1e300,
            "",
            "hello",
            "ünïcode ☃",
            b"",
            b"\x00\xff" * 7,
            [],
            {},
            [1, "two", None, [3.0, False]],
            {"a": 1, "b": [2, {"c": b"x"}], "empty": {}},
        ],
    )
    def test_scalar_and_container(self, value):
        assert roundtrip(value) == value

    def test_tuple_decodes_as_list(self):
        assert roundtrip((1, 2, 3)) == [1, 2, 3]

    def test_numpy_scalars_decode_as_python(self):
        assert roundtrip(np.int64(7)) == 7
        assert roundtrip(np.float64(2.5)) == 2.5

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(24, dtype=np.float64).reshape(2, 3, 4),
            np.arange(10, dtype=np.float32),
            np.arange(6, dtype=np.int16).reshape(3, 2),
            np.zeros((0, 4), dtype=np.float64),
            np.float64(3.5) * np.ones((1, 1, 1, 1, 1, 1)),
        ],
    )
    def test_ndarray(self, arr):
        back = roundtrip(arr)
        assert isinstance(back, np.ndarray)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_ndarray_copy_is_writable(self):
        back = roundtrip(np.arange(4.0))
        back[0] = 99.0  # must not raise: decoded arrays are owned storage
        assert back[0] == 99.0

    def test_noncontiguous_ndarray(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        np.testing.assert_array_equal(roundtrip(arr), arr)

    def test_ndarray_nested_in_request(self):
        msg = {
            "op": "execute",
            "id": 17,
            "dims": [4, 4],
            "payload": np.arange(16, dtype=np.float64),
        }
        back = roundtrip(msg)
        assert back["op"] == "execute" and back["id"] == 17
        np.testing.assert_array_equal(back["payload"], msg["payload"])

    def test_frame_roundtrip(self):
        assert roundtrip({"a": [1, 2]}) == {"a": [1, 2]}

    def test_deep_nesting_within_cap(self):
        value = "leaf"
        for _ in range(MAX_DEPTH):
            value = [value]
        assert roundtrip(value) == value


def _hexdump(frame: bytes) -> str:
    """``frame`` split into header, meta and attachments, 16 bytes a row."""
    meta_end = 8 + int.from_bytes(frame[4:8], "big")
    lines = []
    for name, chunk in (
        ("header", frame[:8]),
        ("meta", frame[8:meta_end]),
        ("attachment", frame[meta_end:]),
    ):
        lines.append(f"{name}:")
        for i in range(0, len(chunk), 16):
            lines.append("  " + chunk[i : i + 16].hex(" "))
    return "\n".join(lines) + "\n"


class TestGoldenFrame:
    """The v2 layout, byte for byte.  A change to the encoder shows up
    here as a diff; a peer built against the documented format
    (``docs/serving.md``) depends on every one of these bytes."""

    def test_request_frame_bytes(self):
        frame = frame_bytes(
            {"id": 7, "op": "execute", "payload": np.arange(3, dtype="<f4")}
        )
        assert_expected_inline(
            _hexdump(frame),
            """\
header:
  00 00 00 4b 00 00 00 3b
meta:
  df 00 00 00 03 00 00 00 02 69 64 d3 00 00 00 00
  00 00 00 07 00 00 00 02 6f 70 db 00 00 00 07 65
  78 65 63 75 74 65 00 00 00 07 70 61 79 6c 6f 61
  64 c7 03 3c 66 34 01 00 00 00 03
attachment:
  00 00 00 00 00 00 80 3f 00 00 00 40
""",
        )


class TestEdgeCases:
    def test_truncated_body(self):
        meta, _ = meta_of({"k": "value"})
        for cut in (0, 1, 5, len(meta) - 1):
            with pytest.raises(ProtocolError):
                decode_meta(meta[:cut])

    def test_trailing_bytes_rejected(self):
        meta, _ = meta_of(1)
        with pytest.raises(ProtocolError, match="trailing"):
            decode_meta(meta + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(ProtocolError, match="unknown wire tag"):
            decode_meta(b"\x99")

    def test_invalid_utf8(self):
        bad = bytes((0xDB,)) + (2).to_bytes(4, "big") + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_meta(bad)

    def test_absurd_list_count_rejected_fast(self):
        # A 9-byte meta declaring 4 G items must fail on the bounds
        # check, not loop for minutes.
        bad = bytes((0xDD,)) + (2**32 - 1).to_bytes(4, "big") + b"\xc0" * 4
        with pytest.raises(ProtocolError, match="truncated"):
            decode_meta(bad)

    def test_string_length_beyond_body(self):
        bad = bytes((0xDB,)) + (1000).to_bytes(4, "big") + b"hi"
        with pytest.raises(ProtocolError, match="truncated"):
            decode_meta(bad)

    def test_ndarray_data_beyond_body(self):
        meta, attachment_bytes = meta_of(np.arange(8, dtype=np.float64))
        with pytest.raises(ProtocolError, match="truncated"):
            decode_meta(meta, attachment_bytes - 8)

    def test_depth_cap_encode_and_decode(self):
        value = "leaf"
        for _ in range(MAX_DEPTH + 1):
            value = [value]
        with pytest.raises(ProtocolError, match="nesting"):
            encode_parts(value)
        meta = b"".join(
            bytes((0xDD,)) + (1).to_bytes(4, "big")
            for _ in range(MAX_DEPTH + 1)
        ) + bytes((0xC0,))
        with pytest.raises(ProtocolError, match="nesting"):
            decode_meta(meta)

    def test_non_string_dict_key(self):
        with pytest.raises(ProtocolError, match="keys must be str"):
            encode_parts({1: "x"})

    def test_unencodable_type(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode_parts(object())

    def test_pack_frame_oversize(self):
        with pytest.raises(FrameTooLargeError):
            pack_frame_parts(b"x" * 100, max_frame_bytes=50)


class TestReadFrame:
    """The read side's framing state machine, fed byte strings with no
    socket: EOF vs truncation vs oversize."""

    def test_reads_frames_in_sequence(self):
        items, _ = wire_read(frame_bytes(1) + frame_bytes({"two": 2}))
        # Both frames, then a clean EOF (no trailing exception).
        assert items == [1, {"two": 2}]

    def test_clean_eof_between_frames(self):
        items, _ = wire_read(b"")
        assert items == []

    def test_truncated_header_is_protocol_error(self):
        (err,) = wire_read(b"\x00\x00\x01")[0]
        assert isinstance(err, ProtocolError)
        assert "inside a frame header" in str(err)

    def test_truncated_body_is_protocol_error(self):
        frame = frame_bytes({"op": "execute", "id": 1})
        (err,) = wire_read(frame[:-3])[0]
        assert isinstance(err, ProtocolError)
        assert "inside a frame" in str(err)

    def test_oversized_frame_rejected_before_body(self):
        # Only the 4-byte prefix arrives; the (huge) body never does.
        # The read side must reject on the prefix alone.
        head = (DEFAULT_MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        (err,) = wire_read(head)[0]
        assert isinstance(err, FrameTooLargeError)
        # FrameTooLargeError IS a ProtocolError: one except clause
        # handles both on the server.
        assert isinstance(err, ProtocolError)
