"""Metrics registry for the transpose-serving runtime.

Prometheus-flavoured but dependency-free: monotonically increasing
**counters** (plans built, cache hits, requests coalesced), point-in-time
**gauges** (queue depth, per-stream simulated clocks), log2-bucketed
and **latency histograms** (plan latency, per-schema simulated vs wall
time).

Everything is thread-safe, snapshotable to a JSON-friendly dict (the
format documented in ``docs/runtime.md``), and resettable so callers can
do windowed snapshot-and-clear accounting without losing updates that
race with the snapshot.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from threading import Lock
from typing import Dict, Optional, Union

#: Schema version of the exported snapshot format (v3 dropped v2's
#: ``samples`` reservoir section).
METRICS_FORMAT_VERSION = 3

#: Histogram bucket upper bounds in seconds: 1 us .. ~16.8 s, log2 spaced.
_BUCKET_BOUNDS = tuple(1e-6 * 2.0**k for k in range(25))


class LatencyHistogram:
    """Fixed log2-bucket histogram of durations in seconds."""

    def __init__(self) -> None:
        self._lock = Lock()
        self._buckets = [0] * (len(_BUCKET_BOUNDS) + 1)  # last = overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    @staticmethod
    def _bucket_index(value: float) -> int:
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                return i
        return len(_BUCKET_BOUNDS)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"durations must be >= 0, got {value}")
        with self._lock:
            self._buckets[self._bucket_index(value)] += 1
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def snapshot(self) -> dict:
        """JSON-friendly summary; only non-empty buckets are listed."""
        with self._lock:
            buckets = {}
            for i, n in enumerate(self._buckets):
                if not n:
                    continue
                if i < len(_BUCKET_BOUNDS):
                    label = f"le_{_BUCKET_BOUNDS[i]:.3e}"
                else:
                    label = "overflow"
                buckets[label] = n
            return {
                "count": self.count,
                "sum_s": self.total,
                "min_s": self.min if self.count else 0.0,
                "max_s": self.max,
                "mean_s": self.total / self.count if self.count else 0.0,
                "buckets": buckets,
            }

    def reset(self) -> None:
        with self._lock:
            self._buckets = [0] * (len(_BUCKET_BOUNDS) + 1)
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = 0.0


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    # ---- writes ------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Set ``name`` to ``value`` only if it raises the gauge (high-water)."""
        with self._lock:
            if value > self._gauges.get(name, -math.inf):
                self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = LatencyHistogram()
        hist.record(seconds)

    # ---- reads -------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """A consistent copy of every counter (one lock acquisition).

        The serving snapshot folds these under ``serving.*`` names; a
        copy keeps callers from iterating a dict that concurrent
        ``inc`` calls mutate."""
        with self._lock:
            return dict(self._counters)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[LatencyHistogram]:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self, reset: bool = False) -> dict:
        """One JSON-friendly dict of everything; optionally clears after.

        The snapshot and the clear happen under the registry lock, so no
        update can fall between them (windowed accounting stays exact).
        Histogram contents are snapshotted per-histogram; an observation
        racing the snapshot lands wholly in one window or the next.
        """
        with self._lock:
            out = {
                "format_version": METRICS_FORMAT_VERSION,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.snapshot() for name, h in self._histograms.items()
                },
            }
            if reset:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
            return out

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ---- persistence -------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def save(self, path: Union[str, Path]) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_json() + "\n")
        return p

    @staticmethod
    def load_snapshot(path: Union[str, Path]) -> dict:
        """Read a snapshot written by :meth:`save` (raises on bad files)."""
        payload = json.loads(Path(path).read_text())
        if payload.get("format_version") != METRICS_FORMAT_VERSION:
            raise ValueError(
                "unsupported metrics snapshot version "
                f"{payload.get('format_version')!r}"
            )
        return payload
