"""Concurrent transpose-serving runtime.

The production layer over the one-shot planning API: a
:class:`TransposeService` accepts requests from many threads, coalesces
identical in-flight plans, serves repeats from the LRU plan cache,
persists plans across process restarts via :class:`PlanStore`, schedules
executions over simulated streams (:class:`StreamScheduler`), and
accounts everything in a :class:`MetricsRegistry`.

See ``docs/runtime.md`` for the architecture, the metrics schema, and
the persistence format.  CLI: ``python -m repro serve`` /
``python -m repro stats``.
"""

from __future__ import annotations

from repro.core.api import (
    get_default_service,
    install_default_service,
    set_default_service,
)
from repro.runtime.arena import ArenaBlock, BufferArena
from repro.runtime.batching import MicroBatcher, SingleFlight
from repro.runtime.metrics import LatencyHistogram, MetricsRegistry
from repro.runtime.scheduler import ExecutionReport, StreamScheduler
from repro.runtime.service import TransposeService
from repro.runtime.store import (
    PlanStore,
    content_key,
    plan_key,
    rehydrate_plan,
    serialize_plan,
)

__all__ = [
    "TransposeService",
    "StreamScheduler",
    "ExecutionReport",
    "BufferArena",
    "ArenaBlock",
    "PlanStore",
    "content_key",
    "plan_key",
    "serialize_plan",
    "rehydrate_plan",
    "MetricsRegistry",
    "LatencyHistogram",
    "SingleFlight",
    "MicroBatcher",
    "get_default_service",
    "set_default_service",
    "install_default_service",
]
