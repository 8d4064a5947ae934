"""Worker-pool scheduler dispatching executions across streams.

Each worker thread is one *stream*, an execution lane.  A job carries
a transposition *problem* — NumPy shape, axes and element width, the
key of :func:`~repro.kernels.executor.program_for` — and its operand
(or the ``B`` operands of :meth:`StreamScheduler.submit_batch`), never
a TTLG plan.  Single operands and batches take one path: the stream
that picks a job up takes its program from the program cache,
compiling it there on a miss, so even a cold lowering stays off the
submitting thread.  A single operand then runs as one ``run`` call, a
batch as one ``run_batch`` call over its flat payloads, each where it
lies (a view program stacks them; a generated nest moves them row by
row): every job is one task.  A generated nest splits its own large C
calls over the host's CPUs, each row of a batch on its own
(:meth:`~repro.kernels.executor.ExecutorProgram.parts`, reported as
:attr:`ExecutionReport.parts`).  Jobs share one FIFO, so
dispatch is least-loaded by construction (``queue_depth`` /
``queue_depth_peak`` expose backlog).  Every job completes on one
path, which records ``wall_s.<kind>``,
``exec_cache_hits`` / ``exec_cache_misses`` and ``exec_warm_s`` /
``exec_cold_s`` (``docs/runtime.md``).

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
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidLayoutError
from repro.kernels.executor import ExecutorProgram, Problem, program_for
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
    #: Ranges the program split its call over one operand (each row of
    #: a batch) into over the host's CPUs (1 = unsplit).
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


@dataclass(eq=False)
class _Job:
    """One execution in flight: a single operand, or the ``B``
    operands of a batch (``payloads``).  The stream that picks the job
    up resolves its program, runs it and resolves the future.
    """

    problem: Problem
    payload: Optional[np.ndarray] = None
    payloads: Optional[List[np.ndarray]] = None
    out: Optional[np.ndarray] = None
    fut: "Future[ExecutionReport]" = field(default_factory=Future)
    enqueued: float = field(default_factory=time.perf_counter)
    started: float = 0.0
    program: Optional[ExecutorProgram] = None
    hit: bool = False
    output: Optional[np.ndarray] = None
    block: Optional[ArenaBlock] = None


class StreamScheduler:
    """Dispatch executions over ``num_streams`` worker threads."""

    def __init__(
        self,
        num_streams: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        arena: Optional[BufferArena] = None,
        native_dir=None,
    ):
        if num_streams <= 0:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
        self.num_streams = num_streams
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.arena = arena if arena is not None else BufferArena()
        self._own_arena = arena is None
        #: Where generated nests' compiled C objects are cached
        #: (``None`` = the native tier's default directory); a plan
        #: store's ``native_dir`` carries them across restarts.
        self.native_dir = native_dir
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
        return self._enqueue(_Job(problem, payload=payload, out=out))

    def submit_batch(
        self,
        problem: Problem,
        payloads: Sequence[np.ndarray],
    ) -> "Future[ExecutionReport]":
        """Execute ``B`` same-geometry operands as one batched program:
        the stream that picks the job up moves them into one leased
        ``(B, volume)`` block in one ``run_batch`` call.
        The future resolves to an :class:`ExecutionReport` whose
        ``output`` is the ``(B, volume)`` stack of per-operand results.
        """
        if not len(payloads):
            raise ValueError("submit_batch requires at least one payload")
        return self._enqueue(_Job(problem, payloads=list(payloads)))

    def _enqueue(self, job: _Job) -> "Future[ExecutionReport]":
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            self._queue.put(job)
        depth = self._queue.qsize()
        self.metrics.set_gauge("queue_depth", depth)
        self.metrics.max_gauge("queue_depth_peak", depth)
        return job.fut

    def _worker(self, stream: int) -> None:
        while True:
            job = self._queue.get()
            if job is _SHUTDOWN:
                return
            if not job.fut.set_running_or_notify_cancel():
                continue
            job.started = time.perf_counter()
            try:
                self._run(job)
            except BaseException as exc:  # the job's future carries it
                self._fail(job, exc)
            else:
                self._complete(stream, job)

    def _run(self, job: _Job) -> None:
        """Resolve the job's program, lease its output and run it."""
        program, job.hit = program_for(job.problem, native_dir=self.native_dir)
        self.metrics.inc("exec_cache_hits" if job.hit else "exec_cache_misses")
        job.program = program
        if job.payloads is None:
            src = _flat(job.payload, program.volume, "payload")
            if job.out is not None:
                # Caller-owned destination (e.g. a serving-layer arena
                # lease): no block is leased here and report.release()
                # is a no-op.
                if not job.out.flags.c_contiguous or job.out.dtype != src.dtype:
                    raise InvalidLayoutError(
                        f"out must be a C-contiguous {src.dtype} array"
                    )
                job.output = _flat(job.out, program.volume, "out")
            else:
                job.block, job.output = self.arena.empty(
                    (program.volume,), src.dtype
                )
            program.run(src, out=job.output)
            return
        rows = [_flat(p, program.volume, "payload") for p in job.payloads]
        job.block, job.output = self.arena.empty(
            (len(rows), program.volume), rows[0].dtype
        )
        program.run_batch(rows, out=job.output)

    def _fail(self, job: _Job, exc: BaseException) -> None:
        self.metrics.set_gauge("queue_depth", self._queue.qsize())
        # A failed job never hands its output out.
        if job.block is not None:
            job.block.release()
        self.metrics.inc("executions_failed")
        job.fut.set_exception(exc)

    def _complete(self, stream: int, job: _Job) -> None:
        """The one completion path of every execution."""
        self.metrics.set_gauge("queue_depth", self._queue.qsize())
        wall = time.perf_counter() - job.started
        with self._lock:
            self._jobs_done[stream] += 1
        self.metrics.inc("executions_completed")
        batch = 1 if job.payloads is None else len(job.payloads)
        if batch > 1:
            self.metrics.inc("batch_rows", batch)
        self.metrics.observe(f"wall_s.{job.program.kind}", wall)
        self.metrics.observe("exec_warm_s" if job.hit else "exec_cold_s", wall)
        job.fut.set_result(
            ExecutionReport(
                stream=stream,
                wall_time_s=wall,
                queued_s=job.started - job.enqueued,
                output=job.output,
                parts=job.program.parts(),
                batch=batch,
                backend=job.program.backend,
                block=job.block,
            )
        )

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for a stream — the
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

    def close(self) -> None:
        """Orderly shutdown: refuse new work, drain the queue (already
        enqueued jobs still run), join the workers, and close the arena
        (when the scheduler owns it)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # One sentinel per worker *behind* the queued work (under
            # the lock :meth:`_enqueue` takes): FIFO order means everything
            # already submitted drains before any exit.
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        for w in self._workers:
            w.join()
        if self._own_arena:
            self.arena.close()

    def __enter__(self) -> "StreamScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
