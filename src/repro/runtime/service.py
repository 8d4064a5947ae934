"""The concurrent transpose-serving front door.

:class:`TransposeService` is what a long-running process embeds: many
threads submit transpositions.  Executions never plan: the service
checks each request's problem and payload at the door
(:func:`~repro.core.api.check_problem`) and enqueues the problem, and a
worker stream runs the problem's lowered program.  A TTLG plan is
built only when :meth:`TransposeService.plan` asks for one: the
service coalesces identical in-flight planning requests
(single-flight), serves repeats from the LRU cache, and warm-starts
the cache from a persistent :class:`PlanStore` across process
restarts.  Everything is accounted in a :class:`MetricsRegistry`.

Beyond per-request dispatch, the service micro-batches: concurrent
:meth:`~TransposeService.submit_batched` requests for the same plan key
within a bounded window coalesce into **one fused batched program run**
(see :class:`~repro.runtime.batching.MicroBatcher` and
``docs/runtime.md``).

A process-wide default service can be installed so the classic
:mod:`repro.core.api` entry points route through it transparently:
``repro.transpose`` runs as one of its executions, and
``plan_transpose``/``predict_time`` plan through it — see
:func:`install_default_service`.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path
from threading import Event, Lock
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.api import (
    _check_problem,
    axes_to_perm,
    check_problem,
    perm_to_axes,
)
from repro.core.cache import DEFAULT_CAPACITY, PlanCache
from repro.core.plan import Predictor, TransposePlan
from repro.errors import DrainingError, InvalidLayoutError
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec
from repro.runtime.batching import MicroBatcher, SingleFlight
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.scheduler import ExecutionReport, Problem, StreamScheduler
from repro.runtime.store import PlanStore

#: How cache events surface in the metrics registry.
_EVENT_COUNTERS = {
    "hit": "cache_hits",
    "miss": "cache_misses",
    "restore": "plans_restored",
    "build": "plans_built",
    "eviction": "cache_evictions",
    "store_error": "store_errors",
}


def _check_request(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int,
    payload: Optional[np.ndarray],
) -> "tuple[Problem, np.ndarray]":
    """The door check of one execution: the problem
    (:func:`~repro.core.api.check_problem`), then its payload.

    Everything a worker could reject is rejected here, with a typed
    error, before anything is lowered or enqueued.  Returns the
    NumPy-convention problem that keys the lowered program and the
    payload as an array.
    """
    dims, perm, elem_bytes = check_problem(dims, perm, elem_bytes)
    problem = (dims[::-1], perm_to_axes(perm), elem_bytes)
    if payload is None:
        raise InvalidLayoutError("this call requires a payload to move")
    return problem, _check_operand(problem, payload)


def _check_operand(problem: Problem, arr) -> np.ndarray:
    """``arr`` as an array holding ``problem``'s volume of its width."""
    arr = np.asarray(arr)
    volume = math.prod(problem[0])
    if arr.size != volume:
        raise InvalidLayoutError(
            f"payload has {arr.size} elements, but dims "
            f"{problem[0][::-1]} require {volume}"
        )
    if arr.dtype.itemsize != problem[2]:
        raise InvalidLayoutError(
            f"payload dtype {arr.dtype} is {arr.dtype.itemsize} bytes "
            f"per element, but the request says elem_bytes={problem[2]}"
        )
    return arr


class TransposeService:
    """Thread-safe transpose server.

    Parameters
    ----------
    spec:
        Simulated device :meth:`plan` builds plans for.
    store:
        An existing :class:`PlanStore` to warm-start from (mutually
        exclusive with ``store_path``).
    store_path:
        Path of a JSON plan store to open (created when absent).
    cache_capacity:
        LRU capacity of the in-memory plan cache.
    num_streams:
        Worker threads (streams) executions run on.
    predictor:
        Optional override of the performance model used when planning
        for ``spec`` (tests use the oracle predictor for speed); the
        default is the offline Table II regression.
    metrics:
        Share a registry between services; a fresh one by default.
    batch_window_s / batch_max:
        Micro-batching knobs for :meth:`submit_batched`: how long the
        first request of a key waits for same-key company, and the
        batch size that flushes immediately.
    arena:
        Share a :class:`~repro.runtime.arena.BufferArena` between
        services; by default the scheduler owns a fresh one.
    program_cache_size:
        When set, the service compiles executor programs into a
        **private** LRU of this many entries (and the process-wide
        byte bound) instead of the process-wide cache.
        Sharded serving uses this so each replica's cache only holds its
        routed key subset and per-replica hit rate is meaningful (see
        ``docs/serving.md``).
    """

    def __init__(
        self,
        spec: DeviceSpec = KEPLER_K40C,
        *,
        store: Optional[PlanStore] = None,
        store_path: Optional[Union[str, Path]] = None,
        cache_capacity: int = DEFAULT_CAPACITY,
        num_streams: int = 4,
        predictor: Optional[Predictor] = None,
        metrics: Optional[MetricsRegistry] = None,
        store_autoflush: bool = True,
        batch_window_s: float = 0.002,
        batch_max: int = 64,
        arena=None,
        program_cache_size: Optional[int] = None,
    ):
        if store is not None and store_path is not None:
            raise ValueError("pass either store or store_path, not both")
        self.spec = spec
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = store
        if store_path is not None:
            self.store = PlanStore(store_path, autoflush=store_autoflush)
        self.cache = PlanCache(
            cache_capacity, store=self.store, on_event=self._cache_event
        )
        self._predictor = predictor
        self._flights = SingleFlight()
        self.program_cache = None
        if program_cache_size is not None:
            from repro.kernels.executor import new_program_cache

            self.program_cache = new_program_cache(maxsize=program_cache_size)
        self.scheduler = StreamScheduler(
            num_streams=num_streams,
            metrics=self.metrics,
            arena=arena,
            program_cache=self.program_cache,
            store=self.store,
        )
        self._batcher = MicroBatcher(
            self._flush_batch, window_s=batch_window_s, max_batch=batch_max
        )
        self._closed = False
        self._draining = False
        self._inflight = 0
        self._inflight_lock = Lock()
        self._idle = Event()
        self._idle.set()

    # ------------------------------------------------------------------
    def _cache_event(self, event: str) -> None:
        self.metrics.inc(_EVENT_COUNTERS.get(event, event))

    def _check_intake(self) -> None:
        """Refuse new executions once draining started or after close.

        Only the execution entry points are gated; :meth:`plan` stays
        available until :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if self._draining:
            raise DrainingError("service is draining; intake is closed")

    def _track(self, fut):
        """Count a dispatched execution until its future resolves."""
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()
        fut.add_done_callback(self._untrack)
        return fut

    def _untrack(self, _fut) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    @property
    def inflight(self) -> int:
        """Executions dispatched but not yet resolved."""
        with self._inflight_lock:
            return self._inflight

    def plan(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        spec: Optional[DeviceSpec] = None,
    ) -> TransposePlan:
        """Cache-backed, store-backed, single-flight planning.

        Concurrent requests for the same key share one planning search:
        exactly one caller builds (or restores) the plan, the rest wait
        on it.  Later arrivals hit the LRU.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        spec = spec if spec is not None else self.spec
        predictor = self._predictor if spec is self.spec else None
        self.metrics.inc("plan_requests")
        key = PlanCache._key(dims, perm, elem_bytes, spec)
        started = time.perf_counter()
        plan, leader = self._flights.do(
            key, lambda: self.cache.get(dims, perm, elem_bytes, spec, predictor)
        )
        if not leader:
            self.metrics.inc("requests_coalesced")
        self.metrics.observe("plan_s", time.perf_counter() - started)
        return plan

    # ------------------------------------------------------------------
    def submit(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ):
        """Check the request and enqueue its execution; plans nothing.

        Returns a ``concurrent.futures.Future`` resolving to an
        :class:`~repro.runtime.scheduler.ExecutionReport`.  ``payload``
        is the linearized input data and is required.  ``out``, when
        given, receives the transposed data in place and becomes the
        report's output (no arena lease; the caller owns the buffer —
        the serving layer points this at its own lease so replies
        encode as views over it).
        """
        self._check_intake()
        problem, payload = _check_request(dims, perm, elem_bytes, payload)
        if out is not None:
            _check_operand(problem, out)
        self.metrics.inc("executions_submitted")
        return self._track(self.scheduler.submit(problem, payload, out=out))

    def execute(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
    ) -> ExecutionReport:
        """Blocking :meth:`submit`."""
        return self.submit(dims, perm, elem_bytes, payload).result()

    # ------------------------------------------------------------------
    def submit_batched(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
    ):
        """Queue one request into the micro-batching window.

        Concurrent requests for the same ``(dims, perm, elem_bytes)``
        key arriving within ``batch_window_s`` (or until
        ``batch_max`` of them are waiting) coalesce into **one** fused
        batched program run over the worker pool — the shape of a
        contraction chain transposing many small same-permutation
        tensors back-to-back.  Returns a future resolving to an
        :class:`~repro.runtime.scheduler.ExecutionReport` whose
        ``output`` is this caller's own transposed payload; ``batch``
        on the report says how many requests shared the run.
        """
        self._check_intake()
        problem, payload = _check_request(dims, perm, elem_bytes, payload)
        self.metrics.inc("batch_requests")
        return self._track(self._batcher.submit(problem, payload))

    def execute_batched(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
    ) -> ExecutionReport:
        """Blocking :meth:`submit_batched` (waits out the window)."""
        return self.submit_batched(dims, perm, elem_bytes, payload).result()

    def _flush_batch(self, problem: Problem, _context, payloads, futures) -> None:
        """Run one coalesced bucket as a single batched execution."""
        shape, axes, _ = problem
        rows = len(payloads)
        self.metrics.inc("batch_flushes")
        if rows > 1:
            self.metrics.inc("batch_coalesced", rows - 1)
            self.metrics.inc(
                "batch_coalesced."
                + "x".join(str(d) for d in shape[::-1])
                + "|"
                + ",".join(str(p) for p in axes_to_perm(axes)),
                rows - 1,
            )
        self.metrics.inc("executions_submitted")
        batch_fut = self.scheduler.submit_batch(problem, payloads)

        def _resolve(done) -> None:
            exc = done.exception()
            if exc is not None:
                for f in futures:
                    if not f.done():
                        f.set_exception(exc)
                return
            report = done.result()
            # Every caller's report shares the one batch output block:
            # give each its own reference so per-caller release() works,
            # then drop the batch-level one.
            for i, f in enumerate(futures):
                if not f.done():
                    if report.block is not None:
                        report.block.retain()
                    f.set_result(replace(report, output=report.output[i]))
            if report.block is not None:
                report.block.release()

        batch_fut.add_done_callback(_resolve)

    def transpose(self, array: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        """NumPy-convention transposition routed through the service."""
        a = np.ascontiguousarray(array)
        dims, perm, elem_bytes, out_shape = _check_problem(a, axes)
        report = self.execute(dims, perm, elem_bytes, payload=a.reshape(-1))
        return report.output.reshape(out_shape)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Full JSON-friendly status: metrics + cache + streams + store
        + compiled-executor program cache + batching + codegen."""
        from repro.kernels.codegen import codegen_stats
        from repro.kernels.executor import exec_cache_stats

        executor = (
            self.program_cache.stats()
            if self.program_cache is not None
            else exec_cache_stats()
        )
        return {
            "device": self.spec.name,
            "metrics": self.metrics.snapshot(),
            "cache": {
                "capacity": self.cache.capacity,
                "resident_plans": len(self.cache),
                **self.cache.snapshot_stats().as_dict(),
            },
            "executor": executor,
            "scheduler": self.scheduler.snapshot(),
            "batching": self._batcher.stats(),
            "codegen": codegen_stats(),
            "store": self.store.describe() if self.store is not None else None,
        }

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Orderly intake shutdown: stop accepting executions, flush
        open micro-batch windows, wait for inflight work to resolve,
        then close the scheduler.

        Returns True when every inflight execution resolved within
        ``timeout`` seconds (None = wait indefinitely).  On False the
        scheduler is still shut down — queued jobs drain on their
        streams — but some futures may resolve after this returns.
        After a drain the service refuses new executions with
        :class:`~repro.errors.DrainingError` (planning via :meth:`plan`
        keeps working until :meth:`close`); draining twice is a no-op.
        """
        if self._closed:
            return True
        self._draining = True
        # Flush open micro-batch windows while the scheduler still
        # runs; their futures join the inflight count.
        self._batcher.close()
        drained = self._idle.wait(timeout)
        self.scheduler.shutdown()
        return drained

    def close(self) -> None:
        if self._closed:
            return
        self.drain()
        self._closed = True
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "TransposeService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
