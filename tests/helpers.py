"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.api import check_problem, perm_to_axes
from repro.core.permutation import Permutation
from repro.kernels.common import reference_transpose
from repro.kernels.executor import compile_executor, problem_of


def assert_kernel_correct(kernel, rng, dtype=np.float64):
    """Execute a kernel and compare element-exactly with the reference."""
    layout, perm = kernel.layout, kernel.perm
    src = rng.integers(0, 1 << 20, layout.volume).astype(dtype)
    ref = reference_transpose(src, layout, perm)
    out = kernel.execute(src)
    np.testing.assert_array_equal(out, ref)
    return out


def random_perm(rng, rank):
    p = np.arange(rank)
    rng.shuffle(p)
    return Permutation(tuple(int(x) for x in p))


def lowering_key(dims, perm, elem_bytes=8):
    """The NumPy-convention problem a scheduler job carries, from a
    paper-convention one that passes the door check."""
    dims, perm, elem_bytes = check_problem(dims, perm, elem_bytes)
    return dims[::-1], perm_to_axes(perm), elem_bytes


def compile_for(kernel, **opts):
    """:func:`compile_executor` on a kernel's own problem."""
    return compile_executor(*problem_of(kernel), **opts)


class FakeTransport:
    """The transport surface :class:`FrameConnection` touches; writes
    are recorded, nothing is ever buffered."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closing = False

    def write(self, data) -> None:
        self.written += data

    def get_write_buffer_size(self) -> int:
        return 0

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def get_extra_info(self, name, default=None):
        return default


def feed_wire(wire, data: bytes, cuts=()) -> None:
    """Deliver ``data`` to a :class:`FrameConnection` the way the event
    loop does — ``get_buffer``, ``recv_into`` that buffer,
    ``buffer_updated`` — with a short read at every offset in ``cuts``."""
    pos = 0
    for end in sorted(set(cuts) | {len(data)}):
        while pos < end:
            buf = wire.get_buffer(-1)
            n = min(len(buf), end - pos)
            buf[:n] = data[pos : pos + n]
            wire.buffer_updated(n)
            pos += n


def wire_read(data: bytes, cuts=(), **wire_kwargs):
    """Feed ``data`` to a fresh connection over a :class:`FakeTransport`,
    hang up, and return ``(items, wire)``: every decoded frame in
    order, then the exception that ended the stream unless it was a
    clean :class:`EOFError` between frames."""
    from repro.serving.codec import decode
    from repro.serving.wire import FrameConnection

    wire_kwargs.setdefault("decoder", decode)

    async def run():
        wire = FrameConnection(**wire_kwargs)
        wire.connection_made(FakeTransport())
        feed_wire(wire, data, cuts)
        wire.eof_received()
        wire.connection_lost(None)
        items = []
        while True:
            try:
                items.append(await wire.read_frame())
            except EOFError:
                return items, wire
            except Exception as exc:
                items.append(exc)
                return items, wire

    return asyncio.run(run())
