"""Worker-pool scheduler dispatching executions across simulated streams.

Each worker thread owns one simulated *stream* — an execution lane with
its own :class:`~repro.gpusim.cost.CostModel` and a monotonically
advancing simulated clock (the sum of simulated kernel times it has
retired).  Streams may be spread round-robin over several simulated
devices.  Jobs are pulled from one shared FIFO, so dispatch is
least-loaded by construction; the registry's ``queue_depth`` gauge and
``queue_depth_peak`` high-water mark expose backlog.

Per-schema simulated and wall (host) execution times are recorded into
the metrics registry, giving the ``sim_s.<schema>`` / ``wall_s.<schema>``
histograms documented in ``docs/runtime.md``.  Executions run through
the compiled-executor layer (``docs/executor.md``): program-cache hits
and misses are counted (``exec_cache_hits`` / ``exec_cache_misses``)
and the wall time of warm vs cold calls is recorded separately
(``exec_warm_s`` / ``exec_cold_s`` histograms).  ``B`` same-geometry
operands run as one fused batched program via
:meth:`StreamScheduler.submit_batch`.  A generated loop nest splits the
batch into ``min(B, num_streams)`` row ranges that the pool retires
concurrently (its C call releases the GIL); every other program moves
the batch as one task (see
:meth:`~repro.kernels.executor.ExecutorProgram.batch_tasks`).

The scheduler only schedules: which program a job runs is decided by
:func:`~repro.kernels.executor.compile_executor`'s lowering rule (a
view chain for small operands, a generated loop nest for large ones),
and every program runs on the same thread pool.
Output buffers are leased from a
:class:`~repro.runtime.arena.BufferArena` instead of ``np.empty`` — the
report carries the lease (:attr:`ExecutionReport.block`) and callers
that are done with the output call :meth:`ExecutionReport.release` to
recycle it.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from threading import Lock, Thread
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.plan import TransposePlan
from repro.gpusim.cost import CostModel
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec
from repro.kernels.executor import executor_with_status
from repro.runtime.arena import ArenaBlock, BufferArena
from repro.runtime.metrics import MetricsRegistry

_SHUTDOWN = object()


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of one dispatched transposition (or batch of them)."""

    stream: int
    device: str
    schema: str
    #: Simulated GPU time of the kernel launch, in seconds.
    sim_time_s: float
    #: Host (wall) time spent moving the data functionally, in seconds.
    wall_time_s: float
    #: Time the job spent queued before a stream picked it up.
    queued_s: float
    #: Transposed flat data, when the job carried a payload.  Batched
    #: jobs carry the ``(B, volume)`` stack of per-operand outputs.
    output: Optional[np.ndarray]
    #: Disjoint tasks the execution was split into (1 = unsplit).
    parts: int = 1
    #: Operands moved by the job (``> 1`` only for batched jobs).
    batch: int = 1
    #: What moved the bytes: ``"c"`` for a generated nest running its
    #: compiled object, ``"numpy"`` otherwise.
    backend: str = "numpy"
    #: The arena lease backing ``output`` (``None`` when the output is
    #: a plain array or there is no output).  The report holds one
    #: reference; callers done with the output call :meth:`release`.
    block: Optional[ArenaBlock] = field(default=None, compare=False)

    def release(self) -> None:
        """Return the output's arena block to its free list.

        Call exactly once, and only when nothing reads ``output``
        anymore (the buffer is recycled for later executions).  A
        report without an arena-backed output is a no-op.  Unreleased
        blocks are reclaimed at garbage collection of the report.
        """
        if self.block is not None:
            self.block.release()


class _BatchJob:
    """Shared state of one batched execution split into tasks.

    Workers run the tasks of :meth:`~repro.kernels.executor
    .ExecutorProgram.batch_tasks` against one shared output stack; the
    last task to retire resolves the future.
    """

    def __init__(
        self,
        plan: TransposePlan,
        program,
        out: np.ndarray,
        fut: "Future[ExecutionReport]",
        enqueued: float,
        total: int,
        block: Optional[ArenaBlock] = None,
    ):
        self.plan = plan
        self.program = program
        self.out = out
        self.fut = fut
        self.enqueued = enqueued
        self.lock = Lock()
        self.parts = total
        self.remaining = total
        self.batch = out.shape[0]
        self.block = block
        self.started: Optional[float] = None
        self.failed = False
        self.cancelled = False


@dataclass(frozen=True)
class _BatchTask:
    job: _BatchJob
    run: Callable[[], None]


class StreamScheduler:
    """Dispatch plan executions over ``num_streams`` worker threads."""

    def __init__(
        self,
        num_streams: int = 4,
        devices: Optional[Sequence[DeviceSpec]] = None,
        metrics: Optional[MetricsRegistry] = None,
        arena: Optional[BufferArena] = None,
        program_cache=None,
        store=None,
        codegen_refine: int = 0,
    ):
        if num_streams <= 0:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
        self.devices: List[DeviceSpec] = list(devices) if devices else [KEPLER_K40C]
        self.num_streams = num_streams
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.arena = arena if arena is not None else BufferArena()
        self._own_arena = arena is None
        #: The persistent :class:`~repro.runtime.store.PlanStore` whose
        #: artifact section backs the loop-nest descriptor cache and
        #: whose ``native_dir`` holds the compiled objects (``None`` =
        #: searches are re-run per process).
        self.store = store
        #: Private compiled-program cache (``None`` = the process-wide
        #: one).  Sharded serving gives each replica its own so routing
        #: locality is observable as per-replica hit rate.
        self.program_cache = program_cache
        #: Codegen micro-probe shortlist size: ``>= 2`` lets first-time
        #: nest compiles time the analytic top-K on the live host
        #: before the winner persists (0 = pure-analytic pick).
        self.codegen_refine = int(codegen_refine)
        self._stream_devices = [
            self.devices[i % len(self.devices)] for i in range(num_streams)
        ]
        self._cost_models = [CostModel(d) for d in self._stream_devices]
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = Lock()
        self._sim_clocks = [0.0] * num_streams
        self._jobs_done = [0] * num_streams
        self._closed = False
        self._workers = [
            Thread(target=self._worker, args=(i,), daemon=True, name=f"stream-{i}")
            for i in range(num_streams)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        plan: TransposePlan,
        payload: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> "Future[ExecutionReport]":
        """Enqueue one execution; resolves to an :class:`ExecutionReport`.

        ``out``, when given, receives the transposed data in place (it
        must be C-contiguous with the plan's volume and the payload's
        dtype) and becomes ``report.output`` — no arena block is leased,
        and the caller owns the buffer's lifetime.  The zero-copy
        serving path points ``out`` at an arena lease so the reply can
        be encoded as views over it.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        if out is not None and payload is None:
            raise ValueError("out= requires a payload")
        fut: "Future[ExecutionReport]" = Future()
        self._queue.put((plan, payload, out, fut, time.perf_counter()))
        depth = self._queue.qsize()
        self.metrics.set_gauge("queue_depth", depth)
        self.metrics.max_gauge("queue_depth_peak", depth)
        return fut

    def _program(self, plan: TransposePlan):
        """The plan's program from the (private or process) cache, with
        the hit counted."""
        program, hit = executor_with_status(
            plan.kernel,
            artifacts=self.store,
            cache=self.program_cache,
            refine=self.codegen_refine,
        )
        self.metrics.inc("exec_cache_hits" if hit else "exec_cache_misses")
        return program, hit

    def submit_batch(
        self,
        plan: TransposePlan,
        payloads: Sequence[np.ndarray],
    ) -> "Future[ExecutionReport]":
        """Execute ``B`` same-geometry operands as one batched program.

        The payloads are stacked into a ``(B, volume)`` block and moved
        by the compiled program's fused batch move, run as the tasks of
        :meth:`~repro.kernels.executor.ExecutorProgram.batch_tasks`:
        ``min(B, num_streams)`` row ranges for a generated nest, one
        task otherwise.  The future resolves to an :class:`ExecutionReport` whose ``output`` is the
        ``(B, volume)`` stack of per-operand results.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        if not len(payloads):
            raise ValueError("submit_batch requires at least one payload")
        program, _ = self._program(plan)
        srcs = program.batch_view(
            [plan.kernel.check_input(p) for p in payloads]
        )
        enqueued = time.perf_counter()
        outs_block, outs = self.arena.empty(srcs.shape, srcs.dtype)
        tasks = program.batch_tasks(srcs, outs, self.num_streams)
        fut: "Future[ExecutionReport]" = Future()
        job = _BatchJob(
            plan, program, outs, fut, enqueued, len(tasks), block=outs_block
        )
        for task in tasks:
            self._queue.put(_BatchTask(job, task))
        depth = self._queue.qsize()
        self.metrics.set_gauge("queue_depth", depth)
        self.metrics.max_gauge("queue_depth_peak", depth)
        return fut

    def _run_task(self, stream: int, item: _BatchTask) -> None:
        job = item.job
        now = time.perf_counter()
        with job.lock:
            if job.started is None:
                job.started = now
                if not job.fut.set_running_or_notify_cancel():
                    job.cancelled = True
            skip = job.cancelled or job.failed
        if not skip:
            try:
                item.run()
            except BaseException as exc:
                with job.lock:
                    already = job.failed
                    job.failed = True
                if not already:
                    self.metrics.inc("executions_failed")
                    job.fut.set_exception(exc)
        with job.lock:
            job.remaining -= 1
            last = job.remaining == 0
            finalize = last and not (job.cancelled or job.failed)
        if not finalize:
            if last and job.block is not None:
                # Failed/cancelled jobs never hand their output out.
                job.block.release()
            return
        plan = job.plan
        # A batched job retires the simulated work of B launches.
        sim = plan.simulated_time() * max(1, job.batch)
        wall = time.perf_counter() - job.started
        with self._lock:
            self._sim_clocks[stream] += sim
            self._jobs_done[stream] += 1
        schema = plan.schema.value
        self.metrics.inc("executions_completed")
        if job.batch > 1:
            self.metrics.inc("batch_rows", job.batch)
        self.metrics.observe(f"sim_s.{schema}", sim)
        self.metrics.observe(f"wall_s.{schema}", wall)
        self.metrics.set_gauge("queue_depth", self._queue.qsize())
        job.fut.set_result(
            ExecutionReport(
                stream=stream,
                device=self._stream_devices[stream].name,
                schema=schema,
                sim_time_s=sim,
                wall_time_s=wall,
                queued_s=job.started - job.enqueued,
                output=job.out,
                parts=job.parts,
                batch=job.batch,
                backend=job.program.backend,
                block=job.block,
            )
        )

    def _worker(self, stream: int) -> None:
        cm = self._cost_models[stream]
        device = self._stream_devices[stream]
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            if isinstance(item, _BatchTask):
                self._run_task(stream, item)
                continue
            plan, payload, out, fut, enqueued = item
            if not fut.set_running_or_notify_cancel():
                continue
            started = time.perf_counter()
            try:
                output = None
                block = None
                backend = "numpy"
                if payload is not None:
                    program, hit = self._program(plan)
                    src = plan.kernel.check_input(payload)
                    if out is not None:
                        # Caller-owned destination (e.g. a serving-layer
                        # arena lease): no block is leased here and
                        # report.release() is a no-op.
                        output = plan.kernel.check_output(out, src.dtype)
                    else:
                        block, output = self.arena.empty(
                            (plan.kernel.volume,), src.dtype
                        )
                    program.run(src, out=output)
                    backend = program.backend
                # Use the stream's own cost model only when the plan was
                # built for this stream's device; a foreign plan keeps
                # its own device's timing.
                if plan.kernel.spec is device:
                    sim = plan.simulated_time(cm)
                else:
                    sim = plan.simulated_time()
                wall = time.perf_counter() - started
                with self._lock:
                    self._sim_clocks[stream] += sim
                    self._jobs_done[stream] += 1
                schema = plan.schema.value
                self.metrics.inc("executions_completed")
                self.metrics.observe(f"sim_s.{schema}", sim)
                self.metrics.observe(f"wall_s.{schema}", wall)
                if payload is not None:
                    self.metrics.observe(
                        "exec_warm_s" if hit else "exec_cold_s", wall
                    )
                self.metrics.set_gauge("queue_depth", self._queue.qsize())
                fut.set_result(
                    ExecutionReport(
                        stream=stream,
                        device=device.name,
                        schema=schema,
                        sim_time_s=sim,
                        wall_time_s=wall,
                        queued_s=started - enqueued,
                        output=output,
                        backend=backend,
                        block=block,
                    )
                )
            except BaseException as exc:
                self.metrics.inc("executions_failed")
                fut.set_exception(exc)

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs (and batch tasks) currently waiting for a stream — the
        cheap accessor serving-layer backpressure polls per request."""
        return self._queue.qsize()

    def snapshot(self) -> dict:
        with self._lock:
            snap = {
                "num_streams": self.num_streams,
                "devices": [d.name for d in self.devices],
                "sim_clock_s": list(self._sim_clocks),
                "jobs_done": list(self._jobs_done),
                "queue_depth": self._queue.qsize(),
            }
        snap["arena"] = self.arena.stats()
        return snap

    def close(self, wait: bool = True) -> None:
        """Orderly shutdown: refuse new work, drain the queue (already
        enqueued jobs still run), join the workers, and close the arena
        (when the scheduler owns it)."""
        if self._closed:
            return
        self._closed = True
        # One sentinel per worker *behind* the queued work: FIFO order
        # means everything already submitted drains before any exit.
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for w in self._workers:
                w.join()
        if self._own_arena:
            self.arena.close()

    def shutdown(self, wait: bool = True) -> None:
        """Alias of :meth:`close` (the historical name)."""
        self.close(wait=wait)

    def __enter__(self) -> "StreamScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
