"""Concurrent transpose-serving runtime.

The production layer over the library API: a :class:`TransposeService`
accepts requests from many threads and schedules their executions over
a pool of worker streams (:class:`StreamScheduler`); a job carries the
problem and its operand, never a plan.  Plans are built only when
asked for: the service's LRU plan cache builds each key once among
concurrent requests, serves repeats from memory, and persists plans
across process restarts via :class:`PlanStore`, beside which the
generated nests' compiled C objects are kept.
Everything is accounted in a :class:`MetricsRegistry`.

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
from repro.core.cache import content_key
from repro.runtime.arena import ArenaBlock, BufferArena
from repro.runtime.batching import MicroBatcher
from repro.runtime.metrics import LatencyHistogram, MetricsRegistry
from repro.runtime.scheduler import ExecutionReport, StreamScheduler
from repro.runtime.service import TransposeService
from repro.runtime.store import PlanStore, rehydrate_plan, serialize_plan

__all__ = [
    "TransposeService",
    "StreamScheduler",
    "ExecutionReport",
    "BufferArena",
    "ArenaBlock",
    "PlanStore",
    "content_key",
    "serialize_plan",
    "rehydrate_plan",
    "MetricsRegistry",
    "LatencyHistogram",
    "MicroBatcher",
    "get_default_service",
    "set_default_service",
    "install_default_service",
]
