"""Network serving subsystem: the sharded asyncio front end.

The in-process :class:`~repro.runtime.service.TransposeService` behind
a real protocol: a compact length-prefixed codec over raw TCP
(:mod:`~repro.serving.codec`), plan-content-key routing through a
consistent-hash ring (:mod:`~repro.serving.ring`) so each replica's
bounded caches stay hot, admission control with per-tenant quotas and
typed load shedding (:mod:`~repro.serving.admission`), graceful drain,
and a pooled retrying client (:mod:`~repro.serving.client`).

The data path is zero-copy: scatter-gather frame emission
(:func:`~repro.serving.codec.pack_frame_parts` +
:meth:`~repro.serving.wire.FrameConnection.write_parts`, which hands
each tensor memoryview to the transport individually so the socket
sends straight from the source array), tensor attachments read from
the socket straight into arena leases server-side (fresh arrays
client-side), and ``out=`` execution into the egress lease — no
user-space pass over the tensor bytes in either direction, with
per-connection :class:`~repro.serving.codec.CodecStats` proving it.

See ``docs/serving.md`` for the wire protocol and semantics;
``benchmarks/bench_serving_load.py`` is the million-request load
generator that produces ``results/serving_load.json``.
"""

from __future__ import annotations

from repro.serving.admission import AdmissionController, TokenBucket
from repro.serving.client import ServingClient, exception_for
from repro.serving.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    CodecStats,
    FrameTooLargeError,
    decode,
    encode_parts,
    pack_frame_parts,
)
from repro.serving.ring import HashRing
from repro.serving.server import (
    PROTOCOL_VERSION,
    ReplyTooLargeError,
    ServingServer,
    error_code_of,
)

__all__ = [
    "ServingServer",
    "ServingClient",
    "HashRing",
    "AdmissionController",
    "TokenBucket",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "CodecStats",
    "FrameTooLargeError",
    "ReplyTooLargeError",
    "encode_parts",
    "decode",
    "pack_frame_parts",
    "error_code_of",
    "exception_for",
]
