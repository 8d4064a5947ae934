"""Pooled asyncio client for the serving protocol.

:class:`ServingClient` owns a small pool of TCP connections to one
server, **pipelines** requests over them (many outstanding requests per
connection, matched to replies by ``id``), and converts typed error
replies back into the same :mod:`repro.errors` exceptions the server
raised.

Load shedding is handled transparently: ``OVERLOADED`` and
``QUOTA_EXCEEDED`` replies back the client off with decorrelated-jitter
exponential delays and retry up to ``max_retries`` times before the
typed exception finally propagates — so a well-behaved caller sees an
overloaded server as *slower*, not as failing, and offered load decays
to what the server admits.  ``DRAINING`` is never retried (the server
is going away); neither are request errors (``BAD_REQUEST``,
``INVALID_*`` …), which would fail identically on retry.

The CLI (``python -m repro stats --connect``) and the load benchmark
both drive this client; tests use it against in-process servers.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Optional, Sequence

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DrainingError,
    InvalidLayoutError,
    InvalidPermutationError,
    OverloadedError,
    PlanError,
    ProtocolError,
    QuotaExceededError,
    ReproError,
    ServingError,
)
from repro.serving.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    CodecStats,
    decode,
    pack_frame_parts,
)
from repro.serving.server import ReplyTooLargeError
from repro.serving.wire import FrameConnection

#: wire error code -> exception type raised client-side.
ERROR_TYPES = {
    "FRAME_TOO_LARGE": ProtocolError,
    "REPLY_TOO_LARGE": ReplyTooLargeError,
    "BAD_REQUEST": ProtocolError,
    "UNKNOWN_VERB": ProtocolError,
    "OVERLOADED": OverloadedError,
    "QUOTA_EXCEEDED": QuotaExceededError,
    "DEADLINE_EXCEEDED": DeadlineExceededError,
    "DRAINING": DrainingError,
    "INVALID_PERMUTATION": InvalidPermutationError,
    "INVALID_LAYOUT": InvalidLayoutError,
    "PLAN_ERROR": PlanError,
    "INTERNAL": ReproError,
}

#: Error codes worth retrying: the server shed us, not our request.
RETRYABLE = frozenset({"OVERLOADED", "QUOTA_EXCEEDED"})


def exception_for(code: str, message: str) -> ReproError:
    """The client-side exception for a typed error reply."""
    exc_type = ERROR_TYPES.get(code, ServingError)
    exc = exc_type(message or code)
    exc.code = code  # wire code survives on the instance
    return exc


class _Connection:
    """One pipelined connection on the readinto wire transport
    (:class:`~repro.serving.wire.FrameConnection`) plus a reply-pump
    task: each reply tensor is recv'd straight into the fresh
    ``np.empty`` array the caller receives, and requests go out as
    scatter-gather memoryview parts over the caller's arrays.
    """

    def __init__(self, wire: FrameConnection, max_frame_bytes: int):
        self.wire = wire
        self.max_frame_bytes = max_frame_bytes
        self.pending: dict = {}
        self.lock = asyncio.Lock()
        self.pump = asyncio.ensure_future(self._pump())

    async def _pump(self) -> None:
        try:
            while True:
                reply = await self.wire.read_frame()
                fut = self.pending.pop(reply.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(reply)
        except (EOFError, ProtocolError, ConnectionError, OSError) as exc:
            self._fail_all(exc)
        except asyncio.CancelledError:
            self._fail_all(ConnectionResetError("client closed"))
            raise

    def _fail_all(self, exc) -> None:
        err = ConnectionResetError(f"connection lost: {exc}")
        for fut in self.pending.values():
            if not fut.done():
                fut.set_exception(err)
        self.pending.clear()

    async def request(self, msg: dict) -> dict:
        fut: "asyncio.Future" = asyncio.get_running_loop().create_future()
        self.pending[msg["id"]] = fut
        # Scatter-gather send: payload tensors go out as memoryview
        # parts over the caller's arrays.  The transport consumes every
        # part before write_parts returns, so the arrays only need to
        # stay unmutated until drain() below.
        parts = pack_frame_parts(
            msg, max_frame_bytes=self.max_frame_bytes, stats=self.wire.stats
        )
        async with self.lock:
            self.wire.write_parts(parts)
            await self.wire.drain()
        return await fut

    async def close(self) -> None:
        self.pump.cancel()
        try:
            await self.pump
        except (asyncio.CancelledError, Exception):
            pass
        self.wire.close()
        try:
            await self.wire.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServingClient:
    """Connection-pooled, retrying client for one serving endpoint.

    Parameters
    ----------
    host / port:
        The server address.
    pool_size:
        Connections to open; requests round-robin over them.
    max_retries:
        Retries after retryable shed replies before the exception
        propagates.  0 disables retrying.
    backoff_base_s / backoff_max_s:
        Decorrelated-jitter exponential backoff bounds between retries.
    max_frame_bytes:
        Frame cap, both for requests sent and replies read.
    rng:
        Jitter source (tests pass a seeded :class:`random.Random`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 2,
        max_retries: int = 6,
        backoff_base_s: float = 0.005,
        backoff_max_s: float = 0.25,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        rng: Optional[random.Random] = None,
    ):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.max_frame_bytes = max_frame_bytes
        #: Tensor-byte accounting across the pool (asyncio-single-
        #: threaded, so one shared instance is race-free).
        self.codec_stats = CodecStats()
        self._rng = rng if rng is not None else random.Random()
        self._ids = itertools.count(1)
        self._conns: list = []
        self._next_conn = 0
        self._closed = False
        #: Totals the load benchmark reads back.
        self.retries = 0
        self.sheds_seen = 0

    # ------------------------------------------------------------------
    async def connect(self) -> "ServingClient":
        loop = asyncio.get_running_loop()
        for _ in range(self.pool_size):
            # decode's default buffer_factory (np.empty) allocates the
            # arrays the caller receives.
            _, wire = await loop.create_connection(
                lambda: FrameConnection(
                    max_frame_bytes=self.max_frame_bytes,
                    decoder=decode,
                    stats=self.codec_stats,
                ),
                self.host,
                self.port,
            )
            self._conns.append(_Connection(wire, self.max_frame_bytes))
        return self

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            await conn.close()
        self._conns.clear()

    async def __aenter__(self) -> "ServingClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(self, op: str, **fields) -> dict:
        """One raw request -> the decoded ``result`` dict.

        Retries retryable shed replies with backoff; raises the typed
        exception otherwise.
        """
        if not self._conns:
            raise RuntimeError("client is not connected")
        msg = {"op": op, "id": next(self._ids), **fields}
        delay = self.backoff_base_s
        for attempt in range(self.max_retries + 1):
            conn = self._conns[self._next_conn % len(self._conns)]
            self._next_conn += 1
            reply = await conn.request(msg)
            if reply.get("ok"):
                return reply.get("result")
            code = reply.get("error", "INTERNAL")
            if code in RETRYABLE:
                self.sheds_seen += 1
                if attempt < self.max_retries:
                    self.retries += 1
                    # Decorrelated jitter: sleep U(base, delay*3), capped.
                    delay = min(
                        self.backoff_max_s,
                        self._rng.uniform(self.backoff_base_s, delay * 3),
                    )
                    await asyncio.sleep(delay)
                    msg = {**msg, "id": next(self._ids)}
                    continue
            raise exception_for(code, reply.get("message", ""))
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    async def ping(self) -> dict:
        return await self.request("ping")

    async def execute(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        *,
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
        synth: bool = False,
        return_output: Optional[bool] = None,
    ) -> dict:
        """Execute one transposition of ``payload`` (or, with
        ``synth=True``, of a server-generated operand; a request with
        neither is refused as ``BAD_REQUEST``).

        The result dict carries ``stream``, ``wall_s``,
        ``queued_s``, ``parts``, ``batch`` and ``backend``, plus
        ``output`` when one was requested.  No plan is built for it, so
        there is no ``schema`` or simulated time: ask for those with
        :func:`repro.predict_time` or ``python -m repro plan``.  A bad
        problem raises the typed error of its code (``INVALID_LAYOUT``,
        ``INVALID_PERMUTATION``) before anything runs.
        """
        fields = {
            "dims": list(int(d) for d in dims),
            "perm": list(int(p) for p in perm),
            "elem_bytes": int(elem_bytes),
            "tenant": tenant,
        }
        if payload is not None:
            fields["payload"] = np.asarray(payload)
        if synth:
            fields["synth"] = True
        if deadline_ms is not None:
            fields["deadline_ms"] = float(deadline_ms)
        if return_output is not None:
            fields["return_output"] = bool(return_output)
        return await self.request("execute", **fields)

    async def execute_batched(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        *,
        tenant: str = "default",
        synth: bool = False,
        return_output: Optional[bool] = None,
    ) -> dict:
        """Route through the service's micro-batching window; same
        payload rule and result fields as :meth:`execute`."""
        fields = {
            "dims": list(int(d) for d in dims),
            "perm": list(int(p) for p in perm),
            "elem_bytes": int(elem_bytes),
            "tenant": tenant,
        }
        if payload is not None:
            fields["payload"] = np.asarray(payload)
        if synth:
            fields["synth"] = True
        if return_output is not None:
            fields["return_output"] = bool(return_output)
        return await self.request("batched", **fields)

    async def stats(self) -> dict:
        return await self.request("stats")

    async def drain(self, timeout_s: Optional[float] = None) -> dict:
        return await self.request("drain", timeout_s=timeout_s)
