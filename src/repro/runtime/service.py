"""The concurrent transpose-serving front door.

:class:`TransposeService` is what a long-running process embeds: many
threads submit transpositions; the service coalesces identical in-flight
planning requests (single-flight), serves repeats from the LRU cache,
warm-starts the cache from a persistent :class:`PlanStore` across
process restarts, dispatches executions over a pool of simulated
streams, and accounts everything in a :class:`MetricsRegistry`.

Beyond per-request dispatch, the service micro-batches: concurrent
:meth:`~TransposeService.submit_batched` requests for the same plan key
within a bounded window coalesce into **one fused batched program run**
(see :class:`~repro.runtime.batching.MicroBatcher` and
``docs/runtime.md``), and partitioned/batched executions pick their
``parts`` split from an online :class:`~repro.runtime.autotune
.ThroughputCalibrator` persisted next to the plan store.

A process-wide default service can be installed so the classic
:mod:`repro.core.api` entry points (``repro.transpose`` etc.) route
through it transparently — see :func:`install_default_service`.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path
from threading import Event, Lock, Thread
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.cache import DEFAULT_CAPACITY, PlanCache
from repro.core.plan import Predictor, TransposePlan
from repro.errors import DrainingError, InvalidLayoutError
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec
from repro.model.feedback import DEFAULT_SHADOW_FRACTION, FeedbackLoop
from repro.runtime.autotune import ThroughputCalibrator
from repro.runtime.batching import MicroBatcher, SingleFlight
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.scheduler import ExecutionReport, StreamScheduler
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


class TransposeService:
    """Thread-safe transpose server over the simulated GPU.

    Parameters
    ----------
    spec:
        Default simulated device plans are built for.
    store:
        An existing :class:`PlanStore` to warm-start from (mutually
        exclusive with ``store_path``).
    store_path:
        Path of a JSON plan store to open (created when absent).
    cache_capacity:
        LRU capacity of the in-memory plan cache.
    num_streams / devices:
        Worker pool shape; streams round-robin over ``devices``
        (default: ``[spec]``).
    predictor:
        Optional override of the performance model used when planning
        for ``spec`` (tests use the oracle predictor for speed).
    metrics:
        Share a registry between services; a fresh one by default.
    batch_window_s / batch_max:
        Micro-batching knobs for :meth:`submit_batched`: how long the
        first request of a key waits for same-key company, and the
        batch size that flushes immediately.
    autotune_path:
        Where the parts auto-tuner persists its calibration.  Defaults
        to ``autotune.json`` next to the plan store (in-memory only
        when the service has no store).
    backend / proc_workers / proc_start_method:
        Execution-backend routing (see ``docs/execution-tiers.md``):
        ``thread`` keeps everything on the stream workers, ``process``
        sends eligible large indexed/chunked jobs to the shared-memory
        :class:`~repro.runtime.procpool.ProcessPool` (``proc_workers``
        processes, created lazily), ``codegen`` recompiles them as
        generated cache-blocked loop nests (``docs/codegen.md``) run on
        the stream workers, ``auto`` lets the calibrator's backend axis
        pick per (kind, size) cell across all three.
    arena:
        Share a :class:`~repro.runtime.arena.BufferArena` between
        services; by default the scheduler owns a fresh one.
    program_cache_size / program_cache_bytes:
        When either is set, the service compiles executor programs into
        a **private** bounded LRU instead of the process-wide cache.
        Sharded serving uses this so each replica's cache only holds its
        routed key subset and per-replica hit rate is meaningful (see
        ``docs/serving.md``).
    feedback / shadow_fraction:
        ``feedback=True`` attaches a :class:`~repro.model.feedback
        .FeedbackLoop` (persisted as ``models.json`` next to the plan
        store): executed plans feed per-schema sample reservoirs, a
        ``shadow_fraction`` of traffic is shadow-predicted under every
        tracked model version, and :meth:`retrain_model` fits candidate
        models that promote into live planning only after beating the
        incumbent's predicted-vs-measured error (``docs/model.md``).
        Pass a ready :class:`FeedbackLoop` to share one across
        services.  When the caller supplies ``predictor`` explicitly,
        the loop still records and scores but never overrides it.
    codegen_refine:
        When > 0, codegen compilation keeps the top-K analytic nest
        configurations and a short timed micro-probe on this host picks
        the winner (persisted in the plan store's artifact section, so
        warm restarts skip both search and probe — ``docs/codegen.md``).
    retrain_every / retrain_every_s:
        Scheduled model retraining (requires ``feedback``): a
        background tick calls :meth:`retrain_model` every
        ``retrain_every`` resolved executions and/or every
        ``retrain_every_s`` seconds, so candidate models enter the
        shadow pipeline continuously instead of only when an operator
        remembers to call :meth:`retrain_model` at end of run.
        Retraining runs on the tick thread, never on a stream worker.
    """

    def __init__(
        self,
        spec: DeviceSpec = KEPLER_K40C,
        *,
        store: Optional[PlanStore] = None,
        store_path: Optional[Union[str, Path]] = None,
        cache_capacity: int = DEFAULT_CAPACITY,
        num_streams: int = 4,
        devices: Optional[Sequence[DeviceSpec]] = None,
        predictor: Optional[Predictor] = None,
        metrics: Optional[MetricsRegistry] = None,
        store_autoflush: bool = True,
        batch_window_s: float = 0.002,
        batch_max: int = 64,
        autotune_path: Optional[Union[str, Path]] = None,
        backend: str = "thread",
        proc_workers: Optional[int] = None,
        proc_start_method: Optional[str] = None,
        arena=None,
        program_cache_size: Optional[int] = None,
        program_cache_bytes: Optional[int] = None,
        feedback: Union[bool, FeedbackLoop, None] = None,
        shadow_fraction: Optional[float] = None,
        codegen_refine: int = 0,
        retrain_every: Optional[int] = None,
        retrain_every_s: Optional[float] = None,
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
        # An explicitly supplied predictor is the caller's decision;
        # feedback promotions then score silently instead of replacing
        # it (the stats table still shows who would have won).
        self._user_predictor = predictor is not None
        self.feedback: Optional[FeedbackLoop] = None
        if feedback:
            if isinstance(feedback, FeedbackLoop):
                self.feedback = feedback
            else:
                fb_path = (
                    Path(self.store.path).with_name("models.json")
                    if self.store is not None
                    else None
                )
                self.feedback = FeedbackLoop(
                    fb_path,
                    spec=spec,
                    shadow_fraction=(
                        shadow_fraction
                        if shadow_fraction is not None
                        else DEFAULT_SHADOW_FRACTION
                    ),
                )
            if not self._user_predictor:
                self._predictor = self.feedback.predictor()
        self._flights = SingleFlight()
        if autotune_path is None and self.store is not None:
            autotune_path = Path(self.store.path).with_name("autotune.json")
        # The calibrator cells the service measures: only the backends
        # this configuration can actually route to, so exploration never
        # waits on a backend that will never run.  ``auto`` arbitrates
        # across all three tiers.
        if backend == "thread":
            backends = ("thread",)
        elif backend == "process":
            backends = ("thread", "process")
        elif backend == "codegen":
            backends = ("thread", "codegen")
        else:
            backends = ("thread", "process", "codegen")
        self.autotuner = ThroughputCalibrator(
            pool_size=num_streams, path=autotune_path, backends=backends
        )
        self.program_cache = None
        if program_cache_size is not None or program_cache_bytes is not None:
            from repro.kernels.executor import (
                EXEC_CACHE_MAX_BYTES,
                EXEC_CACHE_MAX_PROGRAMS,
                new_program_cache,
            )

            self.program_cache = new_program_cache(
                maxsize=program_cache_size or EXEC_CACHE_MAX_PROGRAMS,
                max_bytes=program_cache_bytes or EXEC_CACHE_MAX_BYTES,
            )
        self.scheduler = StreamScheduler(
            num_streams=num_streams,
            devices=devices if devices else [spec],
            metrics=self.metrics,
            tuner=self.autotuner,
            backend=backend,
            proc_workers=proc_workers,
            proc_start_method=proc_start_method,
            arena=arena,
            store_path=self.store.path if self.store is not None else None,
            program_cache=self.program_cache,
            store=self.store,
            codegen_refine=codegen_refine,
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
        # ---- scheduled retraining tick -------------------------------
        if (retrain_every is not None or retrain_every_s is not None) and (
            self.feedback is None
        ):
            raise ValueError(
                "retrain_every/retrain_every_s require feedback=True"
            )
        if retrain_every is not None and retrain_every <= 0:
            raise ValueError("retrain_every must be positive")
        if retrain_every_s is not None and retrain_every_s <= 0:
            raise ValueError("retrain_every_s must be positive")
        self.retrain_every = retrain_every
        self.retrain_every_s = retrain_every_s
        self._since_retrain = 0
        self._retrain_wake = Event()
        self._retrain_stop = False
        self._retrain_thread: Optional[Thread] = None
        if retrain_every is not None or retrain_every_s is not None:
            self._retrain_thread = Thread(
                target=self._retrain_tick, name="retrain-tick", daemon=True
            )
            self._retrain_thread.start()

    # ------------------------------------------------------------------
    def _cache_event(self, event: str) -> None:
        self.metrics.inc(_EVENT_COUNTERS.get(event, event))

    def _check_intake(self) -> None:
        """Refuse new executions once draining started or after close.

        Planning stays available while draining (micro-batch flushes
        still need it); only the execution entry points are gated.
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
            if self.retrain_every is not None:
                self._since_retrain += 1
                due = self._since_retrain >= self.retrain_every
            else:
                due = False
        if due:
            # Wake the tick thread; retraining never runs on the
            # scheduler thread resolving this future.
            self._retrain_wake.set()

    def _retrain_tick(self) -> None:
        """Background loop behind scheduled retraining.

        Sleeps until the request-count trigger fires
        (:meth:`_untrack` sets the wake event after ``retrain_every``
        resolved executions) or ``retrain_every_s`` elapses, then calls
        :meth:`retrain_model`.  Fit outcomes surface in the metrics
        registry (``model_retrain_ticks`` / ``model_retrain_fits``);
        a failed fit is counted and the loop keeps ticking — scheduled
        retraining must never take the serving path down.
        """
        while True:
            fired = self._retrain_wake.wait(timeout=self.retrain_every_s)
            if self._retrain_stop:
                return
            with self._inflight_lock:
                if fired and self.retrain_every is not None:
                    if self._since_retrain < self.retrain_every:
                        # Spurious wake (e.g. counter reset raced): skip.
                        self._retrain_wake.clear()
                        continue
                self._since_retrain = 0
            self._retrain_wake.clear()
            self.metrics.inc("model_retrain_ticks")
            try:
                version = self.retrain_model()
            except Exception:
                self.metrics.inc("model_retrain_errors")
                continue
            if version is not None:
                self.metrics.inc("model_retrain_fits")

    def _stop_retrain_tick(self) -> None:
        if self._retrain_thread is None:
            return
        self._retrain_stop = True
        self._retrain_wake.set()
        self._retrain_thread.join(timeout=5.0)
        self._retrain_thread = None

    @property
    def inflight(self) -> int:
        """Executions dispatched but not yet resolved."""
        with self._inflight_lock:
            return self._inflight

    def _observe_feedback(self, plan, fut):
        """Feed a resolved execution into the model feedback loop.

        Only jobs that moved real data count (timing-only submissions
        have no ``output``); batched runs contribute their *per-operand*
        wall time so the sample matches what the predictor estimates.
        When a shadow observation promotes a candidate model, planning
        flips to it immediately (unless the caller pinned a predictor).
        """
        if self.feedback is None:
            return fut

        def _cb(f) -> None:
            if f.cancelled() or f.exception() is not None:
                return
            report = f.result()
            if report.output is None or report.wall_time_s <= 0:
                return
            wall = report.wall_time_s / max(1, report.batch)
            promoted = self.feedback.observe(self.metrics, plan.kernel, wall)
            if promoted and not self._user_predictor:
                self._predictor = self.feedback.predictor()

        fut.add_done_callback(_cb)
        return fut

    def retrain_model(self) -> Optional[str]:
        """Fit a candidate model version from accumulated telemetry.

        Returns the new version name (``None`` when no schema has
        enough reservoir samples yet).  The candidate starts shadowed —
        it steers nothing until it out-predicts the incumbent on live
        traffic.  Raises when the service was built without
        ``feedback``.
        """
        if self.feedback is None:
            raise RuntimeError("service was created without feedback=True")
        return self.feedback.retrain(self.metrics)

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
    @staticmethod
    def _check_payload(
        dims: Sequence[int],
        elem_bytes: int,
        payload: Optional[np.ndarray],
        required: bool = False,
    ) -> Optional[np.ndarray]:
        """Validate a payload against the request at the service door.

        A mismatched payload used to surface as an opaque reshape
        failure deep inside ``kernel.check_input`` on a worker thread;
        here it raises a clear :class:`InvalidLayoutError` before
        anything is planned or enqueued.
        """
        if payload is None:
            if required:
                raise InvalidLayoutError("this call requires a payload to move")
            return None
        arr = np.asarray(payload)
        volume = math.prod(int(d) for d in dims)
        if arr.size != volume:
            raise InvalidLayoutError(
                f"payload has {arr.size} elements, but dims "
                f"{tuple(dims)} require {volume}"
            )
        if arr.dtype.itemsize != elem_bytes:
            raise InvalidLayoutError(
                f"payload dtype {arr.dtype} is {arr.dtype.itemsize} bytes "
                f"per element, but the request says elem_bytes={elem_bytes}"
            )
        return arr

    def submit(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        spec: Optional[DeviceSpec] = None,
        out: Optional[np.ndarray] = None,
    ):
        """Plan (coalesced/cached) and enqueue the execution.

        Returns a ``concurrent.futures.Future`` resolving to an
        :class:`~repro.runtime.scheduler.ExecutionReport`.  ``payload``
        is the linearized input data; without it the stream still
        retires the launch on its simulated clock (a timing-only call).
        ``out``, when given, receives the transposed data in place and
        becomes the report's output (no arena lease; the caller owns
        the buffer — the serving layer points this at its own lease so
        replies encode as views over it).
        """
        self._check_intake()
        payload = self._check_payload(dims, elem_bytes, payload)
        if out is not None:
            if payload is None:
                raise InvalidLayoutError("out= requires a payload to move")
            self._check_payload(dims, elem_bytes, out)
        plan = self.plan(dims, perm, elem_bytes, spec)
        self.metrics.inc("executions_submitted")
        return self._track(
            self._observe_feedback(
                plan, self.scheduler.submit(plan, payload, out=out)
            )
        )

    def execute(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        spec: Optional[DeviceSpec] = None,
    ) -> ExecutionReport:
        """Blocking :meth:`submit`."""
        return self.submit(dims, perm, elem_bytes, payload, spec).result()

    def submit_partitioned(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        spec: Optional[DeviceSpec] = None,
        parts: Optional[int] = None,
        backend: Optional[str] = None,
        lowering: bool = True,
    ):
        """Plan, then execute ONE transposition across the whole pool.

        The plan's compiled executor program is split into up to
        ``parts`` disjoint tasks that the worker streams retire
        concurrently into a shared output buffer — the multi-stream
        analogue of splitting a launch's thread blocks across streams.
        Without ``parts`` the split is chosen by the online
        auto-partitioner (see :attr:`autotuner`), which calibrates
        per-program-kind throughput on the first runs and then picks
        the measured argmax.  Returns a future resolving to an
        :class:`~repro.runtime.scheduler.ExecutionReport`.

        ``backend`` overrides the service's configured execution
        backend for this call; ``lowering=False`` forces index-map
        compilation (see ``docs/execution-tiers.md``).
        """
        self._check_intake()
        if payload is None:
            raise InvalidLayoutError(
                "submit_partitioned requires a payload to move"
            )
        payload = self._check_payload(dims, elem_bytes, payload)
        plan = self.plan(dims, perm, elem_bytes, spec)
        self.metrics.inc("executions_submitted")
        return self._track(
            self._observe_feedback(
                plan,
                self.scheduler.submit_partitioned(
                    plan, payload, parts, backend=backend, lowering=lowering
                ),
            )
        )

    def execute_partitioned(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        spec: Optional[DeviceSpec] = None,
        parts: Optional[int] = None,
        backend: Optional[str] = None,
        lowering: bool = True,
    ) -> ExecutionReport:
        """Blocking :meth:`submit_partitioned`."""
        return self.submit_partitioned(
            dims, perm, elem_bytes, payload, spec, parts,
            backend=backend, lowering=lowering,
        ).result()

    # ------------------------------------------------------------------
    def submit_batched(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        spec: Optional[DeviceSpec] = None,
    ):
        """Queue one request into the micro-batching window.

        Concurrent requests for the same ``(dims, perm, elem_bytes,
        device)`` key arriving within ``batch_window_s`` (or until
        ``batch_max`` of them are waiting) coalesce into **one** fused
        batched program run over the worker pool — the shape of a
        contraction chain transposing many small same-permutation
        tensors back-to-back.  Returns a future resolving to an
        :class:`~repro.runtime.scheduler.ExecutionReport` whose
        ``output`` is this caller's own transposed payload; ``batch``
        on the report says how many requests shared the run.
        """
        self._check_intake()
        payload = self._check_payload(dims, elem_bytes, payload, required=True)
        spec = spec if spec is not None else self.spec
        dims = tuple(int(d) for d in dims)
        perm = tuple(int(p) for p in perm)
        key = PlanCache._key(dims, perm, elem_bytes, spec)
        self.metrics.inc("batch_requests")
        return self._track(
            self._batcher.submit(
                key, payload, context=(dims, perm, elem_bytes, spec)
            )
        )

    def execute_batched(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        payload: Optional[np.ndarray] = None,
        spec: Optional[DeviceSpec] = None,
    ) -> ExecutionReport:
        """Blocking :meth:`submit_batched` (waits out the window)."""
        return self.submit_batched(dims, perm, elem_bytes, payload, spec).result()

    def _flush_batch(self, key, context, payloads, futures) -> None:
        """Run one coalesced bucket as a single batched execution."""
        dims, perm, elem_bytes, spec = context
        rows = len(payloads)
        self.metrics.inc("batch_flushes")
        if rows > 1:
            self.metrics.inc("batch_coalesced", rows - 1)
            self.metrics.inc(
                "batch_coalesced."
                + "x".join(str(d) for d in dims)
                + "|"
                + ",".join(str(p) for p in perm),
                rows - 1,
            )
        plan = self.plan(dims, perm, elem_bytes, spec)
        self.metrics.inc("executions_submitted")
        batch_fut = self._observe_feedback(
            plan, self.scheduler.submit_batch(plan, payloads)
        )

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
        from repro.core.api import _check_problem

        a = np.ascontiguousarray(array)
        dims, perm, elem_bytes, out_shape = _check_problem(a, axes)
        report = self.execute(dims, perm, elem_bytes, payload=a.reshape(-1))
        return report.output.reshape(out_shape)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Full JSON-friendly status: metrics + cache + streams + store
        + compiled-executor program cache + batching + autotune +
        codegen."""
        from repro.kernels.codegen import codegen_stats
        from repro.kernels.executor import exec_cache_stats

        executor = (
            self.program_cache.stats()
            if self.program_cache is not None
            else exec_cache_stats()
        )
        codegen = codegen_stats()
        codegen["backend_wins"] = self.autotuner.backend_wins()
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
            "autotune": self.autotuner.table(),
            "codegen": codegen,
            "model": self.feedback.stats() if self.feedback else None,
            "store": self.store.describe() if self.store else None,
        }

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()
        self.autotuner.flush()
        if self.feedback is not None:
            self.feedback.flush()

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
        self._stop_retrain_tick()
        # Flush open micro-batch windows while the service still plans
        # and schedules; their futures join the inflight count.
        self._batcher.close()
        drained = self._idle.wait(timeout)
        self.scheduler.shutdown()
        return drained

    def close(self) -> None:
        if self._closed:
            return
        self.drain()
        self._closed = True
        self.autotuner.close()
        if self.feedback is not None:
            self.feedback.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "TransposeService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
