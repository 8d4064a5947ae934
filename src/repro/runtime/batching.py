"""Request coalescing: single-flight planning and micro-batched execution.

Two coalescing shapes live here:

- :class:`SingleFlight` — when many clients ask for the same
  ``(dims, perm, elem_bytes, device)`` *plan* at once (the
  thundering-herd shape of a warm-up burst), only one of them should
  pay the planning search.  A leader is elected per key; followers
  block on the leader's result.  Combined with the
  :class:`~repro.core.cache.PlanCache` (which serves *later* arrivals
  from memory) this gives exactly-once plan construction per key.
- :class:`MicroBatcher` — when many clients submit *executions* of the
  same plan key within a bounded window (contraction chains transpose
  many small same-permutation tensors back-to-back), the requests are
  held briefly and flushed as **one batched program run** — the
  continuous-batching shape.  Each caller still gets its own future;
  the flush resolves them all from one fused
  :meth:`~repro.kernels.executor.ExecutorProgram.run_batch`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from threading import Lock
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class SingleFlight:
    """Per-key duplicate-call suppression for concurrent callers."""

    def __init__(self) -> None:
        self._lock = Lock()
        self._flights: Dict[Hashable, Future] = {}
        #: Calls that were absorbed into another caller's in-flight work.
        self.coalesced = 0

    def do(self, key: Hashable, fn: Callable[[], T]) -> Tuple[T, bool]:
        """Run ``fn`` once per key among concurrent callers.

        Returns ``(value, leader)`` where ``leader`` is True for the one
        caller that actually executed ``fn``.  If the leader raises, all
        concurrent followers see the same exception; the flight is then
        retired so a later call may retry.
        """
        with self._lock:
            fut = self._flights.get(key)
            if fut is None:
                fut = Future()
                self._flights[key] = fut
                leader = True
            else:
                leader = False
                self.coalesced += 1
        if not leader:
            return fut.result(), False
        try:
            value = fn()
        except BaseException as exc:
            fut.set_exception(exc)
            raise
        else:
            fut.set_result(value)
            return value, True
        finally:
            with self._lock:
                self._flights.pop(key, None)

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)


class _Bucket:
    """One key's open micro-batch: payloads queued, futures promised."""

    __slots__ = ("context", "payloads", "futures", "timer")

    def __init__(self, context: Any):
        self.context = context
        self.payloads: List[Any] = []
        self.futures: List[Future] = []
        self.timer: Optional[threading.Timer] = None


class MicroBatcher:
    """Bounded-window coalescing of same-key submissions.

    The first submission for a key opens a bucket and arms a
    ``window_s`` timer; submissions arriving before the flush join the
    bucket.  The bucket flushes when the window expires or it reaches
    ``max_batch`` rows (immediately, on the submitter's thread), by
    calling ``flush_fn(key, context, payloads, futures)`` exactly once
    — the flush owns resolving (or failing) every future.

    ``context`` is opaque per-key data captured from the bucket-opening
    submission (the service stores the request parameters there).
    """

    def __init__(
        self,
        flush_fn: Callable[[Hashable, Any, List[Any], List[Future]], None],
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
        #: Totals across flushes (per-key detail in :meth:`stats`).
        self.requests = 0
        self.flushes = 0
        self.coalesced = 0
        self._per_key: Dict[Hashable, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def submit(self, key: Hashable, payload: Any, context: Any = None) -> Future:
        """Queue one request; returns the future its flush will resolve."""
        fut: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self.requests += 1
            bucket = self._buckets.get(key)
            opened = bucket is None
            if opened:
                bucket = _Bucket(context)
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
        elif opened and self.window_s > 0:
            timer = threading.Timer(
                self.window_s, self._flush_expired, args=(key, bucket)
            )
            timer.daemon = True
            bucket.timer = timer
            with self._lock:
                self._timers = [t for t in self._timers if t.is_alive()]
                self._timers.append(timer)
            timer.start()
        elif opened:
            # window 0: flush on the submitting thread, no coalescing.
            with self._lock:
                claimed = self._buckets.pop(key, None) is bucket
            if claimed:
                self._run_flush(key, bucket)
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
            self.flushes += 1
            self.coalesced += n - 1
            pk = self._per_key.setdefault(
                key, {"requests": 0, "flushes": 0, "coalesced": 0, "max_batch": 0}
            )
            pk["requests"] += n
            pk["flushes"] += 1
            pk["coalesced"] += n - 1
            pk["max_batch"] = max(pk["max_batch"], n)
        try:
            self._flush_fn(key, bucket.context, bucket.payloads, bucket.futures)
        except BaseException as exc:
            for f in bucket.futures:
                if not f.done():
                    f.set_exception(exc)

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Requests currently waiting in open buckets."""
        with self._lock:
            return sum(len(b.payloads) for b in self._buckets.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "window_s": self.window_s,
                "max_batch": self.max_batch,
                "requests": self.requests,
                "flushes": self.flushes,
                "coalesced": self.coalesced,
                "pending": sum(len(b.payloads) for b in self._buckets.values()),
                "per_key": {
                    str(k): dict(v) for k, v in self._per_key.items()
                },
            }

    def close(self, flush: bool = True) -> None:
        """Stop accepting requests; flush (or fail) any open buckets,
        and join every window timer, so no batcher thread outlives it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            buckets = list(self._buckets.items())
            self._buckets.clear()
            timers, self._timers = self._timers, []
        for key, bucket in buckets:
            if bucket.timer is not None:
                bucket.timer.cancel()
            if flush:
                self._run_flush(key, bucket)
            else:
                err = RuntimeError("batcher closed with pending requests")
                for f in bucket.futures:
                    if not f.done():
                        f.set_exception(err)
        for timer in timers:
            timer.cancel()
            timer.join()
