"""Property-based round-trip tests for the zero-copy wire codec.

Hypothesis drives ndarrays through every layout the serving data path
has to survive — non-contiguous slices, read-only buffers, zero-size
and 0-d arrays, non-native-endian dtypes — from ``encode_parts`` into
a :class:`~repro.serving.wire.FrameConnection` over a fake transport,
whose staged-meta ``decode`` places each tensor in ``buffer_factory``
storage and reads its attachment into it.

The invariants: the decode is bit-exact against the source, frames
survive being split at any byte boundary, and the ``CodecStats``
buckets attribute every tensor byte to the right side of the
copied/zero-copy ledger while only headers and metas are staged.
(``tests/test_serving_codec.py`` pins the frame bytes themselves.)
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serving.codec import CodecStats, decode, encode_parts
from tests.helpers import frame_bytes, wire_read

#: Every width/endianness class the serving protocol carries: native
#: and byte-swapped floats and ints, plus single-byte (order-free).
DTYPES = ("<f8", ">f8", "<f4", ">f4", "<i4", ">i4", "<i2", "|u1")


@st.composite
def ndarrays(draw) -> np.ndarray:
    """Small arrays spanning the codec's layout edge cases.

    Values are small integers, exact in every sampled dtype, so
    bit-exactness assertions never trip over rounding.
    """
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    count = int(np.prod(shape, dtype=np.int64))
    base = (np.arange(max(count, 1), dtype=np.int64) % 120)[:count]
    arr = base.reshape(shape).astype(dtype)
    variant = draw(
        st.sampled_from(("contiguous", "sliced", "readonly", "fortran"))
    )
    if variant == "sliced" and arr.ndim >= 1:
        # A strided view equal to `arr` but (usually) non-contiguous.
        arr = np.repeat(arr, 2, axis=0)[::2]
    elif variant == "readonly":
        arr = arr.copy()
        arr.setflags(write=False)
    elif variant == "fortran":
        arr = np.asfortranarray(arr)
    return arr


def _assert_bit_exact(got: np.ndarray, want: np.ndarray) -> None:
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _wire_decode(frame: bytes, **wire_kwargs):
    """The one message a frame carries, read through the wire path."""
    items, _ = wire_read(frame, **wire_kwargs)
    assert len(items) == 1
    return items[0]


class TestNdarrayRoundtrip:
    @given(arr=ndarrays())
    @settings(max_examples=80, deadline=None)
    def test_zero_copy_path(self, arr):
        landed = []

        def factory(shape, dtype):
            dest = np.empty(shape, dtype=dtype)
            landed.append(dest)
            return dest

        back = _wire_decode(
            frame_bytes(arr),
            decoder=functools.partial(decode, buffer_factory=factory),
        )
        _assert_bit_exact(back, arr)
        # The decoded array IS the factory's storage, not a copy of it.
        assert len(landed) == 1 and back is landed[0]


class TestCodecStats:
    @given(arr=ndarrays())
    @settings(max_examples=80, deadline=None)
    def test_encode_parts_buckets(self, arr):
        stats = CodecStats()
        encode_parts(arr, stats=stats)
        if arr.flags.c_contiguous:
            # Views straight over the source array: nothing copied,
            # even read-only / non-native-endian / 0-d sources.
            assert stats.tensor_bytes_copied == 0
            assert stats.tensor_bytes_zero_copy == arr.nbytes
        else:
            # The one unavoidable copy: compaction of a strided source.
            assert stats.tensor_bytes_copied == arr.nbytes
            assert stats.tensor_bytes_zero_copy == 0

    @given(arr=ndarrays())
    @settings(max_examples=40, deadline=None)
    def test_decode_buckets(self, arr):
        frame = frame_bytes(arr)
        _, wire = wire_read(frame)
        assert wire.stats.tensor_bytes_copied == 0
        assert wire.stats.tensor_bytes_zero_copy == arr.nbytes
        # Only the header and the meta were staged.
        assert wire.stats.staged_bytes == len(frame) - arr.nbytes


#: Scalars with exact wire representations (i64 / f64 / utf-8 / raw).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**60), 2**60),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
    st.binary(max_size=12),
)

def _assert_equal_tree(got, want) -> None:
    if isinstance(want, np.ndarray):
        _assert_bit_exact(got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys()
        for key in want:
            _assert_equal_tree(got[key], want[key])
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_equal_tree(g, w)
    else:
        assert got == want and type(got) is type(want)


#: Nested values: several tensors (zero-extent ones included) inside
#: lists and dicts at any depth.
_nested = st.recursive(
    st.one_of(_scalars, ndarrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=10,
)


def _tensor_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_tensor_bytes(v) for v in value.values())
    if isinstance(value, list):
        return sum(_tensor_bytes(v) for v in value)
    return 0


class TestWireSplits:
    """Frames fed to the readinto transport in arbitrary pieces."""

    @given(msgs=st.lists(_nested, min_size=1, max_size=3), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_split_stream_roundtrips(self, msgs, data):
        stream = b"".join(frame_bytes(m) for m in msgs)
        # Anywhere in the stream, plus a dense set of cuts over the
        # first frame's header and meta.
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=10))
        cuts += data.draw(
            st.lists(st.integers(0, min(len(stream), 48)), max_size=10)
        )
        items, wire = wire_read(stream, cuts)
        assert len(items) == len(msgs)
        for got, want in zip(items, msgs):
            _assert_equal_tree(got, want)
        tensor_bytes = sum(_tensor_bytes(m) for m in msgs)
        assert wire.stats.tensor_bytes_zero_copy == tensor_bytes
        assert wire.stats.tensor_bytes_copied == 0
        # Everything that is not an attachment was staged, nothing else.
        assert wire.stats.staged_bytes == len(stream) - tensor_bytes
