"""Micro-batched execution: same-key submissions coalesce into one run.

When many clients submit *executions* of the same problem within a
bounded window (contraction chains transpose many small
same-permutation tensors back-to-back), :class:`MicroBatcher` holds the
requests briefly and flushes them as **one batched program run** — the
continuous-batching shape.  Each caller still gets its own future; the
flush resolves them all from one fused
:meth:`~repro.kernels.executor.ExecutorProgram.run_batch`.  The
batcher's :meth:`~MicroBatcher.stats` are the one record of
micro-batching (requests, flushes, coalesced, per key).

Building things once per key is not done here:
:meth:`~repro.core.lru.BoundedLRU.get_or_build` elects one builder
among concurrent misses for the plan and program caches alike.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from threading import Lock
from typing import Any, Callable, Dict, Hashable, List, Optional


class _Bucket:
    """One key's open micro-batch: payloads queued, futures promised."""

    __slots__ = ("payloads", "futures", "timer")

    def __init__(self):
        self.payloads: List[Any] = []
        self.futures: List[Future] = []
        self.timer: Optional[threading.Timer] = None


class MicroBatcher:
    """Bounded-window coalescing of same-key submissions.

    The first submission for a key opens a bucket and arms a
    ``window_s`` timer (a 0 s window fires at once, on the timer's
    thread); submissions arriving before the flush join the bucket.
    The bucket flushes when the window expires or it reaches
    ``max_batch`` rows (immediately, on the submitter's thread), by
    calling ``flush_fn(key, payloads, futures)`` exactly once — the
    flush owns resolving (or failing) every future.
    """

    def __init__(
        self,
        flush_fn: Callable[[Hashable, List[Any], List[Future]], None],
        window_s: float = 0.002,
        max_batch: int = 64,
    ):
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._flush_fn = flush_fn
        self.window_s = window_s
        self.max_batch = max_batch
        self._lock = Lock()
        self._buckets: Dict[Hashable, _Bucket] = {}
        #: Window timers that may still be alive; :meth:`close` joins them.
        self._timers: List[threading.Timer] = []
        self._closed = False
        #: Flushed requests, flushes, coalesced requests and the largest
        #: batch, per key; :meth:`stats` sums the totals from them.
        self._per_key: Dict[Hashable, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def submit(self, key: Hashable, payload: Any) -> Future:
        """Queue one request; returns the future its flush will resolve."""
        fut: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            bucket = self._buckets.get(key)
            opened = bucket is None
            if opened:
                bucket = _Bucket()
                self._buckets[key] = bucket
            bucket.payloads.append(payload)
            bucket.futures.append(fut)
            full = len(bucket.payloads) >= self.max_batch
            if full:
                self._buckets.pop(key, None)
        if full:
            if bucket.timer is not None:
                bucket.timer.cancel()
            self._run_flush(key, bucket)
        elif opened:
            timer = threading.Timer(
                self.window_s, self._flush_expired, args=(key, bucket)
            )
            timer.daemon = True
            bucket.timer = timer
            with self._lock:
                self._timers = [t for t in self._timers if t.is_alive()]
                self._timers.append(timer)
            timer.start()
        return fut

    def _flush_expired(self, key: Hashable, bucket: _Bucket) -> None:
        with self._lock:
            if self._buckets.get(key) is not bucket:
                return  # already flushed by the max_batch path
            self._buckets.pop(key)
        self._run_flush(key, bucket)

    def _run_flush(self, key: Hashable, bucket: _Bucket) -> None:
        n = len(bucket.payloads)
        with self._lock:
            pk = self._per_key.setdefault(
                key, {"requests": 0, "flushes": 0, "coalesced": 0, "max_batch": 0}
            )
            pk["requests"] += n
            pk["flushes"] += 1
            pk["coalesced"] += n - 1
            pk["max_batch"] = max(pk["max_batch"], n)
        try:
            self._flush_fn(key, bucket.payloads, bucket.futures)
        except BaseException as exc:
            for f in bucket.futures:
                if not f.done():
                    f.set_exception(exc)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The one record of micro-batching: flushed ``requests``,
        ``flushes`` (fused runs) and ``coalesced`` requests, in total
        and ``per_key``, plus the requests still ``pending``."""
        with self._lock:
            per_key = {str(k): dict(v) for k, v in self._per_key.items()}
            pending = sum(len(b.payloads) for b in self._buckets.values())
        totals = {
            name: sum(pk[name] for pk in per_key.values())
            for name in ("requests", "flushes", "coalesced")
        }
        return {
            "window_s": self.window_s,
            "max_batch": self.max_batch,
            **totals,
            "pending": pending,
            "per_key": per_key,
        }

    def close(self) -> None:
        """Stop accepting requests; flush any open buckets, and join
        every window timer, so no batcher thread outlives it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            buckets = list(self._buckets.items())
            self._buckets.clear()
            timers, self._timers = self._timers, []
        # A timer that fires now finds its bucket gone and returns.
        for key, bucket in buckets:
            self._run_flush(key, bucket)
        for timer in timers:
            timer.cancel()
            timer.join()
