"""Worker-pool scheduler dispatching executions across streams.

Each worker thread is one *stream*, an execution lane.  A job carries
a transposition *problem* — NumPy shape, axes and element width,
fused into the key of :func:`~repro.kernels.executor.program_for` — and
its operand,
never a TTLG plan: the worker takes the problem's program from the
program cache, compiling it there on a miss, so even a cold lowering
stays off the submitting thread.  Jobs are pulled from one shared
FIFO, so dispatch is least-loaded by construction; the registry's
``queue_depth`` gauge and ``queue_depth_peak`` high-water mark expose
backlog.

Wall (host) execution times are recorded per program kind into the
``wall_s.<kind>`` histograms documented in ``docs/runtime.md``.
Program-cache hits and misses are counted (``exec_cache_hits`` /
``exec_cache_misses``) and the wall time of warm vs cold calls is
recorded separately (``exec_warm_s`` / ``exec_cold_s`` histograms).
``B`` same-geometry operands run as one fused batched program via
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
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import InvalidLayoutError
from repro.kernels.executor import Problem, program_for
from repro.runtime.arena import ArenaBlock, BufferArena
from repro.runtime.metrics import MetricsRegistry

_SHUTDOWN = object()


def _flat(arr: np.ndarray, volume: int, what: str) -> np.ndarray:
    """``arr`` as a flat array of ``volume`` elements, or a typed error."""
    flat = np.ascontiguousarray(arr).reshape(-1)
    if flat.size != volume:
        raise InvalidLayoutError(
            f"{what} has {flat.size} elements, the problem has {volume}"
        )
    return flat


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of one dispatched transposition (or batch of them)."""

    stream: int
    #: Host (wall) time spent moving the data, in seconds.
    wall_time_s: float
    #: Time the job spent queued before a stream picked it up.
    queued_s: float
    #: Transposed flat data.  Batched jobs carry the ``(B, volume)``
    #: stack of per-operand outputs.
    output: np.ndarray
    #: Disjoint tasks the execution was split into (1 = unsplit).
    parts: int = 1
    #: Operands moved by the job (``> 1`` only for batched jobs).
    batch: int = 1
    #: What moved the bytes: ``"c"`` for a generated nest running its
    #: compiled object, ``"numpy"`` otherwise.
    backend: str = "numpy"
    #: The arena lease backing ``output`` (``None`` when the output is
    #: a caller-owned array).  The report holds one
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
        program,
        out: np.ndarray,
        fut: "Future[ExecutionReport]",
        enqueued: float,
        total: int,
        block: Optional[ArenaBlock] = None,
    ):
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
    """Dispatch executions over ``num_streams`` worker threads."""

    def __init__(
        self,
        num_streams: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        arena: Optional[BufferArena] = None,
        program_cache=None,
        store=None,
    ):
        if num_streams <= 0:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
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
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = Lock()
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
        problem: Problem,
        payload: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> "Future[ExecutionReport]":
        """Enqueue one execution; resolves to an :class:`ExecutionReport`.

        ``out``, when given, receives the transposed data in place (it
        must be C-contiguous with the problem's volume and the payload's
        dtype) and becomes ``report.output`` — no arena block is leased,
        and the caller owns the buffer's lifetime.  The zero-copy
        serving path points ``out`` at an arena lease so the reply can
        be encoded as views over it.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        fut: "Future[ExecutionReport]" = Future()
        self._queue.put((problem, payload, out, fut, time.perf_counter()))
        depth = self._queue.qsize()
        self.metrics.set_gauge("queue_depth", depth)
        self.metrics.max_gauge("queue_depth_peak", depth)
        return fut

    def _program(self, problem: Problem):
        """The problem's program from the (private or process) cache,
        with the hit counted."""
        program, hit = program_for(
            problem,
            artifacts=self.store,
            cache=self.program_cache,
        )
        self.metrics.inc("exec_cache_hits" if hit else "exec_cache_misses")
        return program, hit

    def submit_batch(
        self,
        problem: Problem,
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
        program, _ = self._program(problem)
        srcs = program.batch_view(
            [_flat(p, program.volume, "payload") for p in payloads]
        )
        enqueued = time.perf_counter()
        outs_block, outs = self.arena.empty(srcs.shape, srcs.dtype)
        tasks = program.batch_tasks(srcs, outs, self.num_streams)
        fut: "Future[ExecutionReport]" = Future()
        job = _BatchJob(
            program, outs, fut, enqueued, len(tasks), block=outs_block
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
        wall = time.perf_counter() - job.started
        with self._lock:
            self._jobs_done[stream] += 1
        self.metrics.inc("executions_completed")
        if job.batch > 1:
            self.metrics.inc("batch_rows", job.batch)
        self.metrics.observe(f"wall_s.{job.program.kind}", wall)
        self.metrics.set_gauge("queue_depth", self._queue.qsize())
        job.fut.set_result(
            ExecutionReport(
                stream=stream,
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
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            if isinstance(item, _BatchTask):
                self._run_task(stream, item)
                continue
            problem, payload, out, fut, enqueued = item
            if not fut.set_running_or_notify_cancel():
                continue
            started = time.perf_counter()
            try:
                block = None
                program, hit = self._program(problem)
                src = _flat(payload, program.volume, "payload")
                if out is not None:
                    # Caller-owned destination (e.g. a serving-layer
                    # arena lease): no block is leased here and
                    # report.release() is a no-op.
                    if not out.flags.c_contiguous or out.dtype != src.dtype:
                        raise InvalidLayoutError(
                            f"out must be a C-contiguous {src.dtype} array"
                        )
                    output = _flat(out, program.volume, "out")
                else:
                    block, output = self.arena.empty(
                        (program.volume,), src.dtype
                    )
                program.run(src, out=output)
                wall = time.perf_counter() - started
                with self._lock:
                    self._jobs_done[stream] += 1
                self.metrics.inc("executions_completed")
                self.metrics.observe(f"wall_s.{program.kind}", wall)
                self.metrics.observe(
                    "exec_warm_s" if hit else "exec_cold_s", wall
                )
                self.metrics.set_gauge("queue_depth", self._queue.qsize())
                fut.set_result(
                    ExecutionReport(
                        stream=stream,
                        wall_time_s=wall,
                        queued_s=started - enqueued,
                        output=output,
                        backend=program.backend,
                        block=block,
                    )
                )
            except BaseException as exc:
                if block is not None:
                    block.release()
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
