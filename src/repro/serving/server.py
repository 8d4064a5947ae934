"""Sharded asyncio serving front end over :class:`TransposeService`.

One :class:`ServingServer` owns ``replicas`` independent
:class:`~repro.runtime.service.TransposeService` instances — each with
its own scheduler, stream pool and (bounded, private) compiled-program
cache — all warm-starting from **one** shared
:class:`~repro.runtime.store.PlanStore`.  Requests arrive as
length-prefixed codec frames (:mod:`repro.serving.codec`) over raw TCP
and are routed by **plan content key** through a consistent-hash ring
(:mod:`repro.serving.ring`), so each replica sees a stable subset of
the key space and its bounded caches stay hot — the warm-reuse insight
behind cuTT's per-permutation plan cache and this repo's frozen
executor programs, lifted to shard level.

Admission control runs before anything is scheduled
(:mod:`repro.serving.admission`): per-tenant token buckets, a bounded
inflight permit pool, and replica queue-depth backpressure shed load
with typed ``OVERLOADED`` / ``QUOTA_EXCEEDED`` replies instead of
queueing without bound.  Per-request deadlines are enforced at
admission and re-checked after execution.  :meth:`ServingServer.drain`
implements graceful shutdown: stop accepting, flush inflight (zero
dropped requests), drain every replica, and fold replica metrics into
one ``serving.*`` snapshot.

**Zero-copy data path** (see the copy-count table in
``docs/serving.md``): once a request frame's meta decodes, the codec's
``buffer_factory`` hook places each request tensor in a
:class:`~repro.runtime.arena.BufferArena` lease and the socket reads
the tensor's attachment straight into it; the transpose runs with
``out=`` pointing at a second lease, and the reply is emitted with
:meth:`~repro.serving.wire.FrameConnection.write_parts` over
memoryview parts of that lease — a request's tensor bytes are touched
once on ingress (the socket read) and once on egress (the socket
write).  Both leases are released only after the write drains.  The
per-connection :class:`~repro.serving.codec.CodecStats` byte counters
are folded into the server's :class:`MetricsRegistry`
(``serving.tensor_bytes_copied`` / ``serving.tensor_bytes_zero_copy``,
plus ``serving.wire.staged_bytes`` and
``serving.egress_bytes_buffered``), so the invariant is observable and
regression-testable.

Requests on one connection may be **pipelined**: the server replies per
request, possibly out of order, and the client matches replies to
requests by ``id`` (see :mod:`repro.serving.client`).

Wire schemas, verbs, and error codes are documented in
``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.api import check_problem
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
)
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec
from repro.runtime.arena import ArenaBlock, BufferArena
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.service import TransposeService
from repro.runtime.store import PlanStore, content_key
from repro.serving.admission import AdmissionController
from repro.serving.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    CodecStats,
    FrameTooLargeError,
    decode,
    pack_frame_parts,
)
from repro.serving.ring import HashRing
from repro.serving.wire import FrameConnection

#: Protocol version, echoed by ``ping``.  2: tensor bytes travel as
#: attachments after the meta (``docs/serving.md``).
PROTOCOL_VERSION = 2

#: The request verbs the server understands.
VERBS = ("ping", "execute", "submit", "batched", "stats", "drain")

#: Seconds :meth:`ServingServer.close` (and ``serve --listen`` on
#: Ctrl-C) lets admitted requests finish and their replies flush before
#: the connections still open are aborted.  A peer that neither reads a
#: large reply nor hangs up would otherwise hold shutdown for ever.
SHUTDOWN_DRAIN_S = 10.0


class ReplyTooLargeError(FrameTooLargeError):
    """A *reply* the server built exceeds the connection's frame cap.

    Distinct from :class:`FrameTooLargeError` (the peer sent us an
    oversized frame) so the requester gets a structured
    ``REPLY_TOO_LARGE`` error — e.g. "your output is bigger than the
    negotiated cap, lower ``return_output``" — instead of the server
    emitting a frame the peer's codec would refuse and desync on.
    """


#: exception type -> wire error code, most specific first.
_ERROR_CODES = (
    (ReplyTooLargeError, "REPLY_TOO_LARGE"),
    (FrameTooLargeError, "FRAME_TOO_LARGE"),
    (ProtocolError, "BAD_REQUEST"),
    (QuotaExceededError, "QUOTA_EXCEEDED"),
    (OverloadedError, "OVERLOADED"),
    (DeadlineExceededError, "DEADLINE_EXCEEDED"),
    (DrainingError, "DRAINING"),
    (InvalidPermutationError, "INVALID_PERMUTATION"),
    (InvalidLayoutError, "INVALID_LAYOUT"),
    (PlanError, "PLAN_ERROR"),
    (ReproError, "INTERNAL"),
)


def error_code_of(exc: BaseException) -> str:
    for etype, code in _ERROR_CODES:
        if isinstance(exc, etype):
            return code
    return "INTERNAL"


class _ConnState:
    """Per-connection mutable state: the write lock serializing frame
    emission plus the connection's data-path byte accounting.

    :meth:`fold_into` moves only the *delta* since the last fold into
    the server registry, so live connections can be folded at every
    snapshot (and once more at disconnect) without double counting.
    """

    __slots__ = ("write_lock", "stats", "_folded")

    def __init__(self) -> None:
        self.write_lock = asyncio.Lock()
        self.stats = CodecStats()
        self._folded: Dict[str, int] = {}

    def fold_into(self, metrics: MetricsRegistry) -> None:
        for name, value in self.stats.as_dict().items():
            delta = value - self._folded.get(name, 0)
            if delta:
                metrics.inc(name, delta)
                self._folded[name] = value


class _LeaseScope:
    """The arena leases of one request's lifecycle.

    The codec's ``buffer_factory`` places every ingress tensor in a
    lease from here when the frame's meta decodes, and the dispatcher
    adds the egress output lease; :meth:`release` returns them all once
    the reply has drained (or the request dies on any earlier path,
    including a frame abandoned partway through its attachments).
    Idempotent — the dispatcher releases eagerly before dropping the
    admission permit (so drain leak checks are deterministic) and the
    connection handler keeps a backstop release.
    """

    __slots__ = ("arena", "blocks")

    def __init__(self, arena: BufferArena) -> None:
        self.arena = arena
        self.blocks: List[ArenaBlock] = []

    def factory(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        block, view = self.arena.empty(shape, dtype)
        self.blocks.append(block)
        return view

    def release(self) -> None:
        blocks, self.blocks = self.blocks, []
        for block in blocks:
            block.release()


class ServingServer:
    """Asyncio TCP front end over ``replicas`` transpose services.

    Parameters
    ----------
    replicas:
        Number of independent :class:`TransposeService` shards.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port`).
    store_path:
        Shared persistent plan store all replicas warm-start from
        (optional).
    num_streams:
        Worker streams per replica.
    program_cache_size:
        Per-replica compiled-program cache entries.  Sizing this *below*
        the distinct-key count of the workload is what makes routing
        locality measurable (and valuable).
    max_inflight / tenant_rate / tenant_burst / max_queue_depth:
        Admission control (see :class:`AdmissionController`).
    max_frame_bytes:
        Reject frames whose declared body exceeds this; replies are
        held to the same cap (``REPLY_TOO_LARGE``).
    """

    def __init__(
        self,
        replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        spec: DeviceSpec = KEPLER_K40C,
        store_path: Optional[Union[str, Path]] = None,
        num_streams: int = 2,
        program_cache_size: Optional[int] = None,
        max_inflight: int = 256,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.spec = spec
        self.host = host
        self._port = port
        self.max_frame_bytes = max_frame_bytes
        self.store: Optional[PlanStore] = None
        if store_path is not None:
            self.store = PlanStore(store_path, autoflush=False)
        self.replicas: List[TransposeService] = [
            TransposeService(
                spec=spec,
                store=self.store,
                num_streams=num_streams,
                program_cache_size=program_cache_size,
            )
            for _ in range(replicas)
        ]
        self.ring = HashRing(range(replicas))
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            tenant_rate=tenant_rate,
            tenant_burst=tenant_burst,
            max_queue_depth=max_queue_depth,
        )
        #: Request/ingress/egress buffer pool; heap-backed — the leases
        #: never cross a process boundary, and sub-segment churn of the
        #: shm path would only add filesystem round-trips here.
        self.arena = BufferArena()
        self.metrics = MetricsRegistry()
        # Materialize the data-path counters so snapshots (and the
        # tensor_bytes_copied == 0 assertions) see them even when idle.
        for name in CodecStats().as_dict():
            self.metrics.inc(name, 0)
        self._conns: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._wires: set = set()
        self._conn_tasks: set = set()
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._closed = False
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._synth: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServingServer":
        # The readinto wire transport: inbound tensor attachments are
        # recv'd straight into arena leases.
        self._server = await asyncio.get_running_loop().create_server(
            self._wire_connection, self.host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def port(self) -> int:
        return self._port

    @property
    def address(self) -> str:
        return f"{self.host}:{self._port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop intake, flush inflight, drain shards.

        New requests (and new connections) are refused with ``DRAINING``
        the moment this is called; every already-admitted request runs
        to completion and its reply is delivered before the replicas
        close — zero dropped inflight requests.  Returns True when the
        inflight pool emptied within ``timeout``.

        Admitted requests release their arena leases *before* dropping
        their admission permit, so once the pool is idle and the shards
        have drained, ``serving.arena.leases_at_drain`` records how many
        leases were still outstanding — zero unless a connection was
        torn down mid-frame at exactly the wrong moment.
        """
        self._draining = True
        self._count("drains")
        if self._server is not None:
            self._server.close()
        if self.admission.idle:
            self._idle_event.set()
        else:
            self._idle_event.clear()
        drained = True
        try:
            await asyncio.wait_for(self._idle_event.wait(), timeout)
        except asyncio.TimeoutError:
            drained = False
        # Replica drains flush micro-batch windows and stop schedulers;
        # run them off-loop (they block on joins).
        loop = asyncio.get_running_loop()
        for svc in self.replicas:
            await loop.run_in_executor(None, svc.drain)
        self.metrics.inc(
            "arena.leases_at_drain", self.arena.stats()["active_blocks"]
        )
        return drained

    async def close(self) -> None:
        """Drain (if not already, for at most :data:`SHUTDOWN_DRAIN_S`),
        then release sockets and replicas.

        Connections close gracefully once the drain has emptied the
        inflight pool.  If it has not, a reply is still waiting for a
        peer that does not read it, so the connections still open are
        aborted: their unsent bytes are dropped, the stuck replies fail
        (``reply_failures``) and give back their leases and permits.
        """
        if self._closed:
            return
        if not self._draining:
            await self.drain(SHUTDOWN_DRAIN_S)
        self._closed = True
        if self._server is not None:
            self._server.close()
        # Close the connections before awaiting the listener: from
        # Python 3.12.1 Server.wait_closed() also waits for every
        # accepted connection to detach, and a connection whose peer
        # never reads never does until it is aborted.
        stuck = not self.admission.idle
        for wire in list(self._wires):
            if stuck:
                wire.abort()
            else:
                wire.close()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        if self._server is not None:
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        for svc in self.replicas:
            await loop.run_in_executor(None, svc.close)
        self.arena.close()
        if self.store is not None:
            self.store.close()

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_key(self, key: str) -> int:
        """The replica index a plan content key routes to."""
        return self.ring.route(key)

    def _count(self, name: str, n: int = 1) -> None:
        self.metrics.inc(name, n)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _wire_connection(self) -> FrameConnection:
        """One connection: a :class:`FrameConnection` whose per-frame
        decoder opens a :class:`_LeaseScope` and places every ingress
        tensor in it, served by :meth:`_serve_conn`."""
        conn = _ConnState()

        def decoder(meta: bytearray, attachment_bytes: int, landed: list):
            scope = _LeaseScope(self.arena)
            try:
                msg = decode(
                    meta,
                    buffer_factory=scope.factory,
                    landed=landed,
                    attachment_bytes=attachment_bytes,
                )
            except BaseException:
                # A factory failure may already hold ingress leases.
                scope.release()
                raise
            return msg, scope

        def on_connect(wire: FrameConnection) -> None:
            task = asyncio.ensure_future(self._serve_conn(wire, conn))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

        return FrameConnection(
            max_frame_bytes=self.max_frame_bytes,
            decoder=decoder,
            discard=lambda item: item[1].release(),
            stats=conn.stats,
            on_connect=on_connect,
        )

    async def _serve_conn(self, wire: FrameConnection, conn: _ConnState) -> None:
        """The per-connection serve loop: each frame arrives as
        ``(msg, lease_scope)`` and is dispatched on its own task."""
        self._wires.add(wire)
        self._conns.add(conn)
        self._count("connections")
        tasks: set = set()
        try:
            while True:
                try:
                    msg, scope = await wire.read_frame()
                except EOFError:
                    break
                except FrameTooLargeError as exc:
                    # Typed reply, then hang up: the body was never read,
                    # so the stream position is unrecoverable.
                    self._count("errors.FRAME_TOO_LARGE")
                    try:
                        await self._write(
                            wire,
                            conn,
                            {
                                "ok": False,
                                "id": None,
                                "error": "FRAME_TOO_LARGE",
                                "message": str(exc),
                            },
                        )
                    except (ConnectionError, RuntimeError, OSError):
                        pass
                    break
                except ProtocolError as exc:
                    self._count("errors.BAD_REQUEST")
                    try:
                        await self._write(
                            wire,
                            conn,
                            {
                                "ok": False,
                                "id": None,
                                "error": "BAD_REQUEST",
                                "message": str(exc),
                            },
                        )
                    except (ConnectionError, RuntimeError, OSError):
                        pass
                    break
                except ConnectionError:
                    break
                # Dispatch concurrently so requests pipeline; replies
                # are matched by id, not order.
                task = asyncio.ensure_future(
                    self._dispatch(msg, wire, conn, scope)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._wires.discard(wire)
            conn.fold_into(self.metrics)
            self._conns.discard(conn)
            self._count("disconnects")
            wire.close()
            try:
                await wire.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(self, writer, conn: _ConnState, reply: dict) -> None:
        # Replies respect the same frame cap the peer's read side
        # enforces; an oversized one becomes a typed REPLY_TOO_LARGE
        # error instead of a frame the client codec would refuse.
        try:
            parts = pack_frame_parts(
                reply, max_frame_bytes=self.max_frame_bytes, stats=conn.stats
            )
        except ReplyTooLargeError:
            raise
        except FrameTooLargeError as exc:
            raise ReplyTooLargeError(str(exc)) from None
        async with conn.write_lock:
            if writer.is_closing():
                raise ConnectionResetError("peer went away")
            # Scatter-gather emission: the transport consumes every part
            # (sent or buffered) before write_parts returns, so arena
            # leases backing them may be released after drain().
            writer.write_parts(parts)
            await writer.drain()

    async def _reply_error(
        self, writer, conn: _ConnState, req_id, exc: BaseException
    ) -> None:
        code = error_code_of(exc)
        self._count(f"errors.{code}")
        try:
            await self._write(
                writer,
                conn,
                {"ok": False, "id": req_id, "error": code, "message": str(exc)},
            )
        except (ConnectionError, RuntimeError, OSError):
            self._count("reply_failures")

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, msg, writer, conn: _ConnState, scope: _LeaseScope
    ) -> None:
        req_id = msg.get("id") if isinstance(msg, dict) else None
        self._count("requests")
        try:
            if not isinstance(msg, dict):
                raise ProtocolError(
                    f"request must be a dict, got {type(msg).__name__}"
                )
            op = msg.get("op")
            if op == "ping":
                await self._write(
                    writer,
                    conn,
                    {
                        "ok": True,
                        "id": req_id,
                        "result": {
                            "version": PROTOCOL_VERSION,
                            "replicas": len(self.replicas),
                            "draining": self._draining,
                        },
                    },
                )
                return
            if op == "stats":
                await self._write(
                    writer,
                    conn,
                    {"ok": True, "id": req_id, "result": self.serving_snapshot()},
                )
                return
            if op == "drain":
                if self._drain_task is None:
                    self._drain_task = asyncio.ensure_future(
                        self.drain(msg.get("timeout_s"))
                    )
                drained = await self._drain_task
                await self._write(
                    writer,
                    conn,
                    {
                        "ok": True,
                        "id": req_id,
                        "result": {
                            "drained": drained,
                            "snapshot": self.serving_snapshot(),
                        },
                    },
                )
                return
            if op not in VERBS:
                self._count("errors.UNKNOWN_VERB")
                try:
                    await self._write(
                        writer,
                        conn,
                        {
                            "ok": False,
                            "id": req_id,
                            "error": "UNKNOWN_VERB",
                            "message": f"unknown verb {op!r}; "
                            f"supported: {', '.join(VERBS)}",
                        },
                    )
                except (ConnectionError, RuntimeError, OSError):
                    self._count("reply_failures")
                return
            await self._dispatch_execute(op, msg, req_id, writer, conn, scope)
        except BaseException as exc:  # typed error reply, never a crash
            # NB: DeadlineExceededError is a TimeoutError, which IS an
            # OSError since Python 3.3 — transport-failure handling
            # must never swallow ReproError-typed exceptions.
            if isinstance(
                exc, (ConnectionError, OSError)
            ) and not isinstance(exc, ReproError):
                self._count("reply_failures")
            else:
                await self._reply_error(writer, conn, req_id, exc)
        finally:
            # Backstop: execute paths release eagerly (before their
            # admission permit drops); everything else — ping/stats,
            # malformed requests that never reached dispatch_execute —
            # ends its leases here.
            scope.release()

    async def _dispatch_execute(
        self, op, msg, req_id, writer, conn: _ConnState, scope: _LeaseScope
    ) -> None:
        tenant = str(msg.get("tenant", "default"))
        self._count(f"tenant.{tenant}.requests")
        try:
            if self._draining:
                raise DrainingError("server is draining; intake is closed")
            dims, perm, elem_bytes = self._problem_of(msg)
            key = content_key(dims, perm, elem_bytes, self.spec)
            replica = self.route_key(key)
            svc = self.replicas[replica]
            reason = self.admission.try_admit(
                tenant, queue_depth=svc.scheduler.queue_depth
            )
            if reason is not None:
                self._count(f"tenant.{tenant}.shed")
                if reason == "QUOTA_EXCEEDED":
                    raise QuotaExceededError(
                        f"tenant {tenant!r} exhausted its quota"
                    )
                raise OverloadedError(
                    f"{self.admission.inflight} requests inflight "
                    f"(cap {self.admission.max_inflight}); back off and retry"
                )
        except BaseException as exc:
            await self._reply_error(writer, conn, req_id, exc)
            return
        # --- permit held from here: every path below must release -----
        try:
            loop = asyncio.get_running_loop()
            deadline_ms = msg.get("deadline_ms")
            expires = (
                loop.time() + float(deadline_ms) / 1e3
                if deadline_ms is not None
                else None
            )
            payload, return_output = self._payload_of(
                msg, op, key, dims, elem_bytes
            )
            self._count(f"routed.replica{replica}")
            self._count(f"tenant.{tenant}.routed")
            if expires is not None and loop.time() > expires:
                self._count(f"tenant.{tenant}.deadline_missed")
                self._count("deadline_missed")
                raise DeadlineExceededError(
                    "deadline expired before dispatch"
                )
            if op == "batched":
                fut = svc.submit_batched(dims, perm, elem_bytes, payload)
            else:
                # The transpose writes its output directly into an
                # egress lease; the reply below is encoded as views
                # over it, released only after the write drains.
                out_view = scope.factory((math.prod(dims),), payload.dtype)
                fut = svc.submit(dims, perm, elem_bytes, payload, out=out_view)
            report = await asyncio.wrap_future(fut)
            late = expires is not None and loop.time() > expires
            if late:
                self._count(f"tenant.{tenant}.deadline_missed")
                self._count("deadline_missed")
                report.release()
                raise DeadlineExceededError(
                    f"deadline expired {1e3 * (loop.time() - expires):.1f} ms "
                    "before the reply (work was executed and discarded)"
                )
            result = {
                "replica": replica,
                "stream": report.stream,
                "wall_s": report.wall_time_s,
                "queued_s": report.queued_s,
                "parts": report.parts,
                "batch": report.batch,
                "backend": report.backend,
            }
            if return_output:
                result["output"] = np.asarray(report.output)
            reply = {"ok": True, "id": req_id, "result": result}
            try:
                await self._write(writer, conn, reply)
                self._count("replies")
            finally:
                report.release()
        except BaseException as exc:
            # Same TimeoutError-is-OSError trap as in _dispatch: typed
            # errors (deadline misses included) must reach the peer.
            if isinstance(
                exc, (ConnectionError, OSError)
            ) and not isinstance(exc, ReproError):
                self._count("reply_failures")
            else:
                await self._reply_error(writer, conn, req_id, exc)
        finally:
            # Leases die before the permit drops: when the admission
            # pool reads idle at drain time, no request still holds
            # arena blocks — the leak check is deterministic.
            scope.release()
            self.admission.release()
            if self._draining and self.admission.idle:
                self._idle_event.set()

    # ------------------------------------------------------------------
    @staticmethod
    def _problem_of(msg) -> tuple:
        dims = msg.get("dims")
        perm = msg.get("perm")
        if dims is None or perm is None:
            raise ProtocolError("request needs dims and perm")
        try:
            dims = tuple(int(d) for d in dims)
            perm = tuple(int(p) for p in perm)
            elem_bytes = int(msg.get("elem_bytes", 8))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed problem fields: {exc}") from None
        # The door check, before admission, routing, leases or a
        # synthetic operand: a bad problem costs nothing further.
        return check_problem(dims, perm, elem_bytes)

    def _payload_of(self, msg, op, key, dims, elem_bytes):
        """The operand array for a request: explicit or synthetic.

        Synthetic payloads (``synth: true``) are generated server-side
        once per content key and reused — the load-generator mode where
        the wire carries requests, not tensors.  Synth replies omit the
        output unless ``return_output`` asks for it.  A request with
        neither is a ``BAD_REQUEST``: every execution moves data.
        """
        payload = msg.get("payload")
        synth = bool(msg.get("synth", False))
        if payload is not None and synth:
            raise ProtocolError("pass either payload or synth, not both")
        if payload is not None:
            if not isinstance(payload, np.ndarray):
                raise ProtocolError("payload must be an ndarray")
            return payload, bool(msg.get("return_output", True))
        if synth:
            arr = self._synth.get(key)
            if arr is None:
                import hashlib

                dtype = np.dtype(np.float64 if elem_bytes == 8 else np.float32)
                seed = int.from_bytes(
                    hashlib.blake2b(
                        key.encode("utf-8"), digest_size=4
                    ).digest(),
                    "big",
                )
                rng = np.random.default_rng(seed)
                arr = rng.standard_normal(math.prod(dims)).astype(dtype)
                self._synth[key] = arr
            return arr, bool(msg.get("return_output", False))
        raise ProtocolError(f"{op} requests need a payload (or synth)")

    # ------------------------------------------------------------------
    # snapshot / metrics folding
    # ------------------------------------------------------------------
    def serving_snapshot(self) -> dict:
        """Fold front-end counters and per-replica stats into one block.

        The ``counters`` section is flat ``serving.*`` names (what the
        CLI ``stats`` command prints) including the data-path byte
        counters and the ``serving.arena.*`` lease accounting;
        ``per_replica`` carries each shard's program-cache effectiveness
        and backlog; and ``runtime_counters`` sums every replica's
        service counters so aggregate cache/exec accounting survives the
        fold.
        """
        # Live connections fold their codec-byte deltas first, so the
        # snapshot reflects requests on still-open connections too.
        for live in list(self._conns):
            live.fold_into(self.metrics)
        raw = self.metrics.counters()
        counters = {
            f"serving.{name}": value for name, value in sorted(raw.items())
        }
        for name, value in sorted(self.arena.counters().items()):
            counters[f"serving.arena.{name}"] = value
        per_replica = []
        runtime_counters: Dict[str, int] = {}
        for i, svc in enumerate(self.replicas):
            executor = (
                svc.program_cache.stats()
                if svc.program_cache is not None
                else None
            )
            snap = svc.metrics.snapshot()
            for name, value in snap["counters"].items():
                runtime_counters[name] = runtime_counters.get(name, 0) + value
            per_replica.append(
                {
                    "replica": i,
                    "routed": raw.get(f"routed.replica{i}", 0),
                    "queue_depth": svc.scheduler.queue_depth,
                    "inflight": svc.inflight,
                    "executor": executor,
                }
            )
        return {
            "protocol_version": PROTOCOL_VERSION,
            "replicas": len(self.replicas),
            "draining": self._draining,
            "admission": self.admission.stats(),
            "counters": counters,
            "data_path": {
                "tensor_bytes_copied": raw.get("tensor_bytes_copied", 0),
                "tensor_bytes_zero_copy": raw.get("tensor_bytes_zero_copy", 0),
                "staged_bytes": raw.get("wire.staged_bytes", 0),
                "egress_bytes_buffered": raw.get("egress_bytes_buffered", 0),
            },
            "arena": self.arena.stats(),
            "per_replica": per_replica,
            "runtime_counters": runtime_counters,
            "store": self.store.describe() if self.store is not None else None,
        }
