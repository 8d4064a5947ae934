"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

import asyncio
import difflib
import threading

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


def frame_bytes(obj, **kwargs) -> bytes:
    """One wire frame as contiguous bytes, the way a raw peer sends it."""
    from repro.serving.codec import pack_frame_parts

    return b"".join(bytes(p) for p in pack_frame_parts(obj, **kwargs))


async def read_wire(data: bytes, cuts=(), **wire_kwargs):
    """Feed ``data`` to a fresh connection over a :class:`FakeTransport`,
    hang up, and return ``(items, wire)``: every decoded frame in
    order, then the exception that ended the stream unless it was a
    clean :class:`EOFError` between frames."""
    from repro.serving.codec import decode
    from repro.serving.wire import FrameConnection

    wire_kwargs.setdefault("decoder", decode)
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


def wire_read(data: bytes, cuts=(), **wire_kwargs):
    """:func:`read_wire` on its own event loop."""
    return asyncio.run(read_wire(data, cuts, **wire_kwargs))


async def read_reply(reader: asyncio.StreamReader):
    """The next frame a raw :class:`asyncio.StreamReader` peer receives,
    decoded by a :class:`FrameConnection`; :class:`EOFError` when the
    server closed between frames."""
    try:
        head = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed between frames") from None
        raise
    body = await reader.readexactly(int.from_bytes(head, "big"))
    items, _ = await read_wire(head + body)
    (item,) = items
    if isinstance(item, Exception):
        raise item
    return item


def assert_expected_inline(actual: str, expected: str) -> None:
    """Plain string compare in the shape of the expect-test idiom
    (``assertExpectedInline``); on a mismatch, fail with a unified diff
    and the full actual text to paste over the expected string."""
    if actual == expected:
        return
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            "expected",
            "actual",
        )
    )
    raise AssertionError(f"output changed:\n{diff}\nactual:\n{actual}")


def run_pairs(jobs, timeout=60.0) -> None:
    """Run the callables ``jobs`` two at a time on their own threads,
    each pair started together; every thread must finish in time."""
    for pair in (jobs[i:i + 2] for i in range(0, len(jobs), 2)):
        threads = [threading.Thread(target=job) for job in pair]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
            assert not t.is_alive(), "a split call hung"


def check_splits(program, src, ref, srcs, refs) -> None:
    """A nest's C call split into ranges (``NestProgram._run_native``
    with ``parts``): one operand in 1, 2, 3 and one range per trip of
    the split loop (those that fit its trips), a batch through
    ``run_batch`` (each row split on its own), two calls at once, each
    output equal to its reference byte for byte and none demoting the
    program.  Without a C object every split declines."""
    if program._kit is None:
        assert not program._run_native(src, np.empty_like(src), parts=2)
        return
    trips = program._trips
    counts = sorted({1, 2, 3, trips} & set(range(1, trips + 1)))
    failed = []

    def call(x, want, parts):
        def job():
            out = np.zeros_like(x)
            if parts is None:
                ran = program.run_batch(x, out=out) is out
            else:
                ran = program._run_native(x, out, parts=parts)
            if not (ran and np.array_equal(out.view(np.uint8),
                                           want.view(np.uint8))):
                failed.append(parts)
        return job

    run_pairs(
        [call(src, ref, n) for n in counts] + [call(srcs, refs, None)] * 2
    )
    assert not failed, f"split calls (parts) wrong: {failed}"
    assert program._kit is not None, "a split call demoted the program"
