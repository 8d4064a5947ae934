"""Compiled executors: per-problem programs that make ``execute()`` fast.

cuTT and HPTT both stress that tensor transposition is bandwidth-bound
and that per-call index computation must be hoisted out of the move.
A transposition's bytes do not depend on the TTLG slice choice, so
:func:`compile_executor` lowers the *problem* — NumPy shape, axes and
element width, fused by :func:`fused_problem` — by one rule:

- :class:`ViewProgram` — below :data:`NEST_MIN_BYTES` (or at a fused
  rank of 1): a pure ``reshape``/``transpose``/``ascontiguousarray``
  view chain with **no index arrays at all**.
- :class:`~repro.kernels.codegen.NestProgram` — at or above it: a
  generated cache-blocked loop nest whose compiled C object attaches
  in the background (``docs/codegen.md``); it runs the view chain
  until then.

Both are bit-exact against ``np.transpose``; the parity grid in
``tests/test_executor.py`` pins this, and the OA/OD kernels'
``execute_per_call`` checks the paper's offset-array addressing
(Alg. 4) against the same reference.

Programs are cached process-wide in a memory-bounded LRU
(:data:`EXEC_CACHE_MAX_BYTES`), keyed by the fused problem
(:func:`program_for`); :func:`clear_exec_caches` restores cold-start
conditions for benchmarks.

Every program kind is also batch-aware: :meth:`~ExecutorProgram
.run_batch` executes ``B`` same-geometry operands in one call.  A
:class:`ViewProgram` stacks them along a leading batch axis and moves
the stack as **one fused move** instead of ``B`` interpreted calls —
the contraction-chain regime (TTGT in CCSD(T)) where many small
tensors share one permutation and per-call dispatch would otherwise
dominate.  A generated nest moves each operand where it lies, one row
at a time, since its operands are large enough that a stacking copy
costs more than the calls it fuses.  ``run_batch`` over ``B`` operands
is bit-exact against ``B`` independent :meth:`~ExecutorProgram.run`
calls.  A generated nest splits its own C calls over the host's CPUs
(:meth:`~ExecutorProgram.parts`); every other call runs on the calling
thread.
"""

from __future__ import annotations

import abc
import math
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.lru import BoundedLRU
from repro.errors import SchemaError

#: ``(NumPy shape, axes, elem_bytes)`` of one transposition.
Problem = Tuple[Tuple[int, ...], Tuple[int, ...], int]

#: Byte budget of the process-wide compiled-program cache, weighed by
#: each program's :attr:`~ExecutorProgram.nbytes` (a staged nest's
#: scratch tile; nothing for the rest).
EXEC_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Entry-count bound of the program cache.
EXEC_CACHE_MAX_PROGRAMS = 512

#: Operands of at least this many bytes lower to a generated loop nest
#: (:class:`~repro.kernels.codegen.NestProgram`); smaller ones to a
#: :class:`ViewProgram`, where a nest's search and compile would cost
#: more than its blocking saves.
NEST_MIN_BYTES = 1 << 20


class ExecutorProgram(abc.ABC):
    """A frozen, reusable data-movement program for one kernel.

    Programs hold no reference to the kernel that compiled them — only
    frozen arrays and shapes — so caching them outlives kernel objects.
    """

    #: ``"view"`` | ``"nest"`` — which lowering won.
    kind: str

    #: What moves the bytes: ``"c"`` for a nest running its compiled
    #: object, ``"numpy"`` otherwise.
    backend = "numpy"

    def __init__(self, volume: int):
        self.volume = volume

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, src: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Move ``src`` (flat, ``volume`` elements) into the output
        linearization.  With ``out`` (flat, same size and dtype) the
        result is written in place and no allocation happens."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Bytes the program holds beyond its shapes (the cache's
        eviction weight)."""

    # ------------------------------------------------------------------
    def batch_rows(self, srcs) -> Sequence[np.ndarray]:
        """Validate a batch of same-geometry operands as its flat
        C-contiguous rows, copying none that already is one.

        ``srcs`` is either an already-stacked 2-D array (rows are flat
        operands), returned as one C-contiguous array, or a sequence of
        flat arrays, returned as a list.  All operands must have
        ``volume`` elements and share one dtype.
        """
        if isinstance(srcs, np.ndarray) and srcs.ndim == 2:
            if srcs.shape[1] != self.volume:
                raise SchemaError(
                    f"batch rows have {srcs.shape[1]} elements, "
                    f"program volume is {self.volume}"
                )
            return np.ascontiguousarray(srcs)
        rows = [np.ascontiguousarray(s).reshape(-1) for s in srcs]
        for a in rows:
            if a.size != self.volume:
                raise SchemaError(
                    f"batch operand has {a.size} elements, "
                    f"program volume is {self.volume}"
                )
            if a.dtype != rows[0].dtype:
                raise SchemaError(
                    "batch operands must share one dtype, got "
                    f"{a.dtype} vs {rows[0].dtype}"
                )
        return rows

    def batch_view(self, srcs) -> np.ndarray:
        """Validate a batch of same-geometry operands
        (:meth:`batch_rows`) as one ``(B, volume)`` C-contiguous array,
        stacking a sequence of flat operands."""
        rows = self.batch_rows(srcs)
        if isinstance(rows, np.ndarray):
            return rows
        if not rows:
            return np.empty((0, self.volume))
        return np.stack(rows)

    @abc.abstractmethod
    def run_batch(self, srcs, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Move ``B`` same-geometry operands in one batched execution.

        ``srcs`` is a ``(B, volume)`` stacked array or a sequence of
        flat operands (see :meth:`batch_rows`); the result is the
        ``(B, volume)`` stack of per-operand outputs, written into
        ``out`` when given.
        """

    def parts(self) -> int:
        """Ranges a call over one operand (one row of a batch) is split
        into.  One here: a view chain runs on the calling thread.  Only
        the generated nest splits
        (:meth:`~repro.kernels.codegen.NestProgram.parts`)."""
        return 1


class ViewProgram(ExecutorProgram):
    """Pure ``reshape``/``transpose``/``ascontiguousarray`` chain.

    ``in_shape`` is the NumPy shape of the input (fastest dim last) and
    ``axes`` the NumPy transpose axes; the output linearization is the
    contiguous copy of the transposed view.  Zero index arrays.
    """

    kind = "view"

    def __init__(self, in_shape: Tuple[int, ...], axes: Tuple[int, ...]):
        super().__init__(int(np.prod(in_shape, dtype=np.int64)))
        self.in_shape = in_shape
        self.axes = axes
        self.out_shape = tuple(in_shape[a] for a in axes)

    def _moved(self, src: np.ndarray) -> np.ndarray:
        return np.transpose(src.reshape(self.in_shape), self.axes)

    def _moved_batch(self, srcs: np.ndarray) -> np.ndarray:
        """The transposed view of a ``(B, volume)`` stack: the batch
        axis leads and every movement axis shifts up by one."""
        axes = (0,) + tuple(a + 1 for a in self.axes)
        return np.transpose(srcs.reshape((srcs.shape[0],) + self.in_shape), axes)

    def run(self, src: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self._run_view(src, out)

    def _run_view(self, src: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """The view chain behind :meth:`run`, kept apart so a subclass
        falls back to it without a second ``run`` call."""
        moved = self._moved(src)
        if out is None:
            # np.array always copies: ascontiguousarray would hand back
            # the input itself whenever the moved view is contiguous.
            return np.array(moved, order="C").reshape(-1)
        out.reshape(self.out_shape)[...] = moved
        return out

    def run_batch(self, srcs, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Stack the operands (:meth:`batch_view`) and move the stack
        in one fused move over its leading axis."""
        srcs = self.batch_view(srcs)
        moved = self._moved_batch(srcs)
        if out is None:
            return np.array(moved, order="C").reshape(srcs.shape)
        out.reshape((srcs.shape[0],) + self.out_shape)[...] = moved
        return out

    @property
    def nbytes(self) -> int:
        return 0


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


@lru_cache(maxsize=4096)
def fused_problem(problem: Problem) -> Problem:
    """The fused form of ``problem`` (``(NumPy shape, axes,
    elem_bytes)``), the key :func:`program_for` caches under: adjacent
    axes that move together are merged, so every spelling of one
    transposition shares one program.  Memoized, so a warm lookup costs
    one hash."""
    from repro.core.fusion import fuse_indices
    from repro.core.layout import TensorLayout
    from repro.core.permutation import Permutation

    in_shape, axes, elem_bytes = problem
    r = len(axes)
    fused = fuse_indices(
        TensorLayout(tuple(in_shape)[::-1]),
        Permutation([r - 1 - axes[r - 1 - i] for i in range(r)]),
    )
    return (
        fused.layout.as_numpy_shape(), fused.perm.numpy_axes(), int(elem_bytes)
    )


def compile_executor(
    in_shape: Sequence[int],
    axes: Sequence[int],
    elem_bytes: int,
    *,
    native_dir=None,
) -> ExecutorProgram:
    """Lower one transposition problem, as given, to its executor program.

    ``in_shape``/``axes`` are the NumPy input shape and transpose axes,
    ``elem_bytes`` the element width; :func:`program_for` hands it the
    fused problem (:func:`fused_problem`), so it does not fuse again.
    The rule:

    1. **View chain** — below :data:`NEST_MIN_BYTES`, or at rank <= 1:
       a :class:`ViewProgram`.
    2. **Generated nest** — otherwise: a
       :class:`~repro.kernels.codegen.NestProgram`, tiled and ordered
       by :func:`~repro.kernels.codegen.search_nest`, whose C object
       is cached in ``native_dir`` (a plan store's
       :attr:`~repro.runtime.store.PlanStore.native_dir`; ``None`` =
       the native tier's default).  The search is analytic and
       deterministic, so a restarted process emits the same C source
       and finds its object there.  A missing object compiles in the
       background while the program runs its view chain.
    """
    in_shape = tuple(int(d) for d in in_shape)
    axes = tuple(int(a) for a in axes)
    if len(in_shape) <= 1 or math.prod(in_shape) * int(elem_bytes) < NEST_MIN_BYTES:
        return ViewProgram(in_shape, axes)
    from repro.kernels.codegen import NestProgram, search_nest

    desc = search_nest(in_shape, axes, elem_bytes)
    return NestProgram(desc, native_dir=native_dir)


# ----------------------------------------------------------------------
# Process-wide program cache
# ----------------------------------------------------------------------

#: Every lowered program of the process, keyed by fused problem.
_PROGRAM_CACHE = BoundedLRU(
    maxsize=EXEC_CACHE_MAX_PROGRAMS,
    max_bytes=EXEC_CACHE_MAX_BYTES,
    sizeof=lambda program: program.nbytes,
)


def problem_of(kernel) -> Problem:
    """``(numpy shape, axes, elem_bytes)`` of a kernel's problem."""
    return (
        kernel.layout.as_numpy_shape(),
        kernel.perm.numpy_axes(),
        kernel.elem_bytes,
    )


def program_for(
    problem: Problem,
    *,
    native_dir=None,
) -> Tuple[ExecutorProgram, bool]:
    """A problem's cached program plus whether this call was a hit.

    ``problem`` is ``(NumPy shape, axes, elem_bytes)`` in any spelling:
    the key is its fused form (:func:`fused_problem`, memoized, so a
    warm lookup costs two hashes), so one problem has one program.  No
    TTLG plan is involved.  ``native_dir`` is where a generated nest's
    C object is cached (:func:`compile_executor`).
    Concurrent first calls for one problem share one build
    (:meth:`~repro.core.lru.BoundedLRU.get_or_build`): one search, one
    program, one miss.
    """
    key = fused_problem(problem)
    return _PROGRAM_CACHE.get_or_build(
        key, lambda: compile_executor(*key, native_dir=native_dir)
    )


def executor_for(kernel) -> ExecutorProgram:
    """The kernel's cached compiled program (compiling on first use):
    :func:`program_for` of the kernel's problem, so every kernel of one
    problem, whatever its slice parameters, shares a single compiled
    program with its :class:`~repro.core.api.Transposer` and the
    service."""
    return program_for(problem_of(kernel))[0]


def exec_cache_stats() -> dict:
    """Occupancy/effectiveness snapshot of the program cache."""
    return _PROGRAM_CACHE.stats()


def clear_exec_caches() -> None:
    """Drop every compiled program (cold-start benchmark conditions).

    Also drops the native tier's in-memory dlopen handles so a fresh
    compile run re-loads objects from disk the way a restarted process
    would; the on-disk shared-object cache is deliberately kept — that
    persistence is the property warm-restart benchmarks measure.
    """
    _PROGRAM_CACHE.clear()
    _PROGRAM_CACHE.reset_stats()
    from repro.kernels.native import clear_loaded_cache

    clear_loaded_cache()
