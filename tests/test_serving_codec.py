"""Wire codec: roundtrips plus the protocol edge cases of ISSUE 6.

Every malformed input must surface as a *typed* error (ProtocolError /
FrameTooLargeError), never as a struct error, IndexError, or a hang.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.serving.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    MAX_DEPTH,
    FrameTooLargeError,
    decode,
    decode_frame,
    encode,
    pack_frame,
    read_frame,
)


def _body(meta: bytes) -> bytes:
    """A wire-v2 body holding ``meta`` and no attachments."""
    return len(meta).to_bytes(4, "big") + meta


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
        assert decode(encode(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2, 3))) == [1, 2, 3]

    def test_numpy_scalars_decode_as_python(self):
        assert decode(encode(np.int64(7))) == 7
        assert decode(encode(np.float64(2.5))) == 2.5

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
        back = decode(encode(arr))
        assert isinstance(back, np.ndarray)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_ndarray_copy_is_writable(self):
        back = decode(encode(np.arange(4.0)))
        back[0] = 99.0  # must not raise: decoded arrays are owned copies
        assert back[0] == 99.0

    def test_noncontiguous_ndarray(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        np.testing.assert_array_equal(decode(encode(arr)), arr)

    def test_ndarray_nested_in_request(self):
        msg = {
            "op": "execute",
            "id": 17,
            "dims": [4, 4],
            "payload": np.arange(16, dtype=np.float64),
        }
        back = decode_frame(pack_frame(msg))
        assert back["op"] == "execute" and back["id"] == 17
        np.testing.assert_array_equal(back["payload"], msg["payload"])

    def test_frame_roundtrip(self):
        frame = pack_frame({"a": [1, 2]})
        assert decode_frame(frame) == {"a": [1, 2]}

    def test_deep_nesting_within_cap(self):
        value = "leaf"
        for _ in range(MAX_DEPTH):
            value = [value]
        assert decode(encode(value)) == value


class TestEdgeCases:
    def test_truncated_body(self):
        body = encode({"k": "value"})
        for cut in (0, 1, 5, len(body) - 1):
            with pytest.raises(ProtocolError):
                decode(body[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            decode(encode(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(ProtocolError, match="unknown wire tag"):
            decode(_body(b"\x99"))

    def test_invalid_utf8(self):
        bad = bytes((0xDB,)) + (2).to_bytes(4, "big") + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode(_body(bad))

    def test_absurd_list_count_rejected_fast(self):
        # A 9-byte body declaring 4 G items must fail on the bounds
        # check, not loop for minutes.
        bad = bytes((0xDD,)) + (2**32 - 1).to_bytes(4, "big") + b"\xc0" * 4
        with pytest.raises(ProtocolError, match="truncated"):
            decode(_body(bad))

    def test_string_length_beyond_body(self):
        bad = bytes((0xDB,)) + (1000).to_bytes(4, "big") + b"hi"
        with pytest.raises(ProtocolError, match="truncated"):
            decode(_body(bad))

    def test_ndarray_data_beyond_body(self):
        arr = np.arange(8, dtype=np.float64)
        body = encode(arr)
        with pytest.raises(ProtocolError, match="truncated"):
            decode(body[:-8])

    def test_depth_cap_encode_and_decode(self):
        value = "leaf"
        for _ in range(MAX_DEPTH + 1):
            value = [value]
        with pytest.raises(ProtocolError, match="nesting"):
            encode(value)
        body = b"".join(
            bytes((0xDD,)) + (1).to_bytes(4, "big")
            for _ in range(MAX_DEPTH + 1)
        ) + bytes((0xC0,))
        with pytest.raises(ProtocolError, match="nesting"):
            decode(_body(body))

    def test_non_string_dict_key(self):
        with pytest.raises(ProtocolError, match="keys must be str"):
            encode({1: "x"})

    def test_unencodable_type(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode(object())

    def test_pack_frame_oversize(self):
        with pytest.raises(FrameTooLargeError):
            pack_frame(b"x" * 100, max_frame_bytes=50)

    def test_decode_frame_oversize(self):
        frame = pack_frame(b"x" * 100)
        with pytest.raises(FrameTooLargeError):
            decode_frame(frame, max_frame_bytes=50)
        # FrameTooLargeError IS a ProtocolError: one except clause
        # handles both on the server.
        assert issubclass(FrameTooLargeError, ProtocolError)

    def test_decode_frame_header_truncated(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_frame(b"\x00\x00")

    def test_decode_frame_length_mismatch(self):
        with pytest.raises(ProtocolError, match="declares"):
            decode_frame((10).to_bytes(4, "big") + b"abc")


class TestReadFrame:
    """The asyncio stream path: EOF vs truncation vs oversize."""

    @staticmethod
    def _reader(data: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return reader

    def test_reads_frames_in_sequence(self):
        async def run():
            reader = self._reader(pack_frame(1) + pack_frame({"two": 2}))
            assert await read_frame(reader) == 1
            assert await read_frame(reader) == {"two": 2}
            with pytest.raises(EOFError):
                await read_frame(reader)

        asyncio.run(run())

    def test_clean_eof_between_frames(self):
        async def run():
            with pytest.raises(EOFError):
                await read_frame(self._reader(b""))

        asyncio.run(run())

    def test_truncated_header_is_protocol_error(self):
        async def run():
            with pytest.raises(ProtocolError, match="header"):
                await read_frame(self._reader(b"\x00\x00\x01"))

        asyncio.run(run())

    def test_truncated_body_is_protocol_error(self):
        async def run():
            frame = pack_frame({"op": "execute", "id": 1})
            with pytest.raises(ProtocolError, match="body"):
                await read_frame(self._reader(frame[:-3]))

        asyncio.run(run())

    def test_oversized_frame_rejected_before_body(self):
        async def run():
            # Only the 4-byte prefix arrives; the (huge) body never
            # does.  read_frame must reject on the prefix alone.
            head = (DEFAULT_MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            with pytest.raises(FrameTooLargeError):
                await read_frame(self._reader(head, eof=False))

        asyncio.run(run())
