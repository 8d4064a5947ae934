"""Compiled executors: per-plan programs that make ``execute()`` fast.

The kernels' functional NumPy execution historically rebuilt the full
``(blocks x b x a)`` int64 gather/scatter index tensors on **every**
call, so repeated-use throughput — the paper's Fig. 12 scenario, and
what :mod:`repro.runtime` serves — was dominated by index arithmetic
rather than data movement.  cuTT and HPTT both stress that tensor
transposition is bandwidth-bound and per-call index computation must be
hoisted; this module is that hoist for the NumPy layer.

A transposition's bytes do not depend on the TTLG slice choice, so
:func:`compile_executor` lowers the *problem* — NumPy shape, axes and
element width — by one rule:

- :class:`ViewProgram` — below :data:`NEST_MIN_BYTES` (or at a fused
  rank of 1): a pure ``reshape``/``transpose``/``ascontiguousarray``
  view chain with **no index arrays at all**.
- :class:`~repro.kernels.codegen.NestProgram` — at or above it: a
  generated cache-blocked loop nest over the fused problem, whose
  compiled C object attaches in the background (``docs/codegen.md``).

:func:`index_map_program` builds the kernel-level oracle the tests
compare against, which mirrors the kernel's own per-block index maps:

- :class:`IndexedProgram` — the per-variant relative index maps (with,
  for Orthogonal-Arbitrary, the ``sm_off`` buffer permutation folded
  into the output scatter) are composed with the block bases into one
  frozen volume-sized permutation map; a warm call is a single fused
  gather or scatter (orientation picked by map size; see
  :data:`SCATTER_MIN_BYTES`) with zero per-call index construction.
- :class:`ChunkedProgram` — for huge tensors the volume-sized
  ``src_of_dst`` map would exceed the index-memory budget; instead the
  program freezes the (small) per-variant relative maps plus grouped
  block bases and materializes absolute indices chunk-of-blocks at a
  time, bounding transient index memory at the cost of some per-call
  broadcast adds.

All of them are bit-exact against :func:`repro.kernels.common
.reference_transpose` — and against each other — by construction; the
parity grid in ``tests/test_executor.py`` pins this.

Programs are cached process-wide in a memory-bounded LRU
(:data:`EXEC_CACHE_MAX_BYTES`); :func:`clear_exec_caches` restores
cold-start conditions for benchmarks.

Every program kind is also batch-aware: :meth:`~ExecutorProgram
.run_batch` executes ``B`` same-geometry operands, stacked along a
leading batch axis, as **one fused move** instead of ``B`` interpreted
calls — the contraction-chain regime (TTGT in CCSD(T)) where many
small tensors share one permutation and per-call dispatch would
otherwise dominate.  ``run_batch`` over ``B`` operands is bit-exact
against ``B`` independent :meth:`~ExecutorProgram.run` calls.
:meth:`~ExecutorProgram.batch_tasks` hands one batched call to the
runtime's :class:`~repro.runtime.scheduler.StreamScheduler` as tasks
for its worker pool: row ranges for a generated nest, whose C call
releases the GIL, and one task for every other kind.
"""

from __future__ import annotations

import abc
import math
from functools import partial
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lru import BoundedLRU
from repro.errors import SchemaError
from repro.kernels.common import block_gather_indices

#: Byte budget of the process-wide compiled-program cache.  ``src_of_dst``
#: maps cost 8 bytes per tensor element, so the default admits ~8M-element
#: programs 32 at a time — far beyond the benchmark working sets while
#: still bounding a long-lived server.
EXEC_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Entry-count bound of the program cache.
EXEC_CACHE_MAX_PROGRAMS = 512

#: Operands of at least this many bytes lower to a generated loop nest
#: (:class:`~repro.kernels.codegen.NestProgram`); smaller ones to a
#: :class:`ViewProgram`, where a nest's per-tile dispatch would cost
#: more than its blocking saves.
NEST_MIN_BYTES = 1 << 20

#: Default transient/frozen index-map budget per program.  A kernel whose
#: fused ``src_of_dst`` map would exceed this compiles to a
#: :class:`ChunkedProgram` instead of an :class:`IndexedProgram`.
DEFAULT_MAX_INDEX_BYTES = 64 * 1024 * 1024


class ExecutorProgram(abc.ABC):
    """A frozen, reusable data-movement program for one kernel.

    Programs hold no reference to the kernel that compiled them — only
    frozen arrays and shapes — so caching them outlives kernel objects.
    """

    #: ``"view"`` | ``"nest"`` | ``"indexed"`` | ``"chunked"`` —
    #: which lowering won.
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
        """Bytes of frozen index state (the cache's eviction weight)."""

    # ------------------------------------------------------------------
    def batch_view(self, srcs) -> np.ndarray:
        """Validate a batch of same-geometry operands as one ``(B,
        volume)`` C-contiguous array.

        ``srcs`` is either an already-stacked 2-D array (rows are flat
        operands) or a sequence of flat arrays, which is stacked here.
        All operands must have ``volume`` elements and share one dtype.
        """
        if isinstance(srcs, np.ndarray) and srcs.ndim == 2:
            if srcs.shape[1] != self.volume:
                raise SchemaError(
                    f"batch rows have {srcs.shape[1]} elements, "
                    f"program volume is {self.volume}"
                )
            return np.ascontiguousarray(srcs)
        arrs = [np.ascontiguousarray(s).reshape(-1) for s in srcs]
        for a in arrs:
            if a.size != self.volume:
                raise SchemaError(
                    f"batch operand has {a.size} elements, "
                    f"program volume is {self.volume}"
                )
            if a.dtype != arrs[0].dtype:
                raise SchemaError(
                    "batch operands must share one dtype, got "
                    f"{a.dtype} vs {arrs[0].dtype}"
                )
        if not arrs:
            return np.empty((0, self.volume))
        return np.stack(arrs)

    def run_batch(self, srcs, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Move ``B`` same-geometry operands in one batched execution.

        ``srcs`` is a ``(B, volume)`` stacked array or a sequence of
        flat operands (see :meth:`batch_view`); the result is the
        ``(B, volume)`` stack of per-operand outputs, written into
        ``out`` when given.  Subclasses fuse the whole batch into a
        single move over a stacked leading axis; this fallback runs the
        rows one by one and is only used by program kinds without a
        fused form (none in-tree).
        """
        srcs = self.batch_view(srcs)
        dst = out if out is not None else np.empty_like(srcs)
        for i in range(srcs.shape[0]):
            self.run(srcs[i], out=dst[i])
        return dst

    def batch_tasks(
        self, srcs: np.ndarray, out: np.ndarray, parts: int
    ) -> List[Callable[[], None]]:
        """One :meth:`run_batch` call over the ``(B, volume)`` stack
        ``srcs`` into ``out``, as up to ``parts`` tasks a thread pool may
        run concurrently; together they are one call.

        The base class runs the batch as one task: a view micro-batch
        is dispatch-bound and measures fastest unsplit, and the
        index-map oracles hold the GIL.  Only the generated nest splits.
        """
        return [partial(self.run_batch, srcs, out=out)]


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
        moved = self._moved(src)
        if out is None:
            # np.array always copies: ascontiguousarray would hand back
            # the input itself whenever the moved view is contiguous.
            return np.array(moved, order="C").reshape(-1)
        out.reshape(self.out_shape)[...] = moved
        return out

    def run_batch(self, srcs, out: Optional[np.ndarray] = None) -> np.ndarray:
        srcs = self.batch_view(srcs)
        moved = self._moved_batch(srcs)
        if out is None:
            return np.array(moved, order="C").reshape(srcs.shape)
        out.reshape((srcs.shape[0],) + self.out_shape)[...] = moved
        return out

    @property
    def nbytes(self) -> int:
        return 0


#: Maps at least this large run the **scatter** orientation (sequential
#: input reads, scattered output writes); below it, **gather**
#: (scattered reads, sequential writes).  The map and one data side
#: stream sequentially either way; once the working set falls out of
#: cache, scattered reads stall the pipeline harder than scattered
#: writes (which buffer), so big maps scatter and cache-resident maps
#: keep the cheaper gather.
SCATTER_MIN_BYTES = 1 << 20


class IndexedProgram(ExecutorProgram):
    """One frozen permutation map; a warm run is a single fused move.

    The per-variant gather/scatter offsets, block bases, and (for OA)
    the shared-memory ``sm_off`` permutation are all folded at compile
    time into one volume-sized permutation, stored in one of two
    orientations (chosen by :data:`SCATTER_MIN_BYTES`):

    - ``gather``: ``index_map[j]`` is the source of output position
      ``j`` — ``dst[j] = src[index_map[j]]``;
    - ``scatter``: ``index_map[i]`` is the destination of input
      position ``i`` — ``dst[index_map[i]] = src[i]``.
    """

    kind = "indexed"

    def __init__(self, src_of_dst: np.ndarray, orientation: Optional[str] = None):
        super().__init__(len(src_of_dst))
        if orientation is None:
            orientation = (
                "scatter"
                if src_of_dst.nbytes >= SCATTER_MIN_BYTES
                else "gather"
            )
        if orientation not in ("gather", "scatter"):
            raise ValueError(f"unknown orientation {orientation!r}")
        self.orientation = orientation
        if orientation == "scatter":
            inv = np.empty_like(src_of_dst)
            inv[src_of_dst] = np.arange(len(src_of_dst), dtype=np.int64)
            self.index_map = inv
        else:
            self.index_map = src_of_dst
        self.index_map.flags.writeable = False

    def run(self, src: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if self.orientation == "gather":
            if out is None:
                return src[self.index_map]
            np.take(src, self.index_map, out=out)
            return out
        dst = out if out is not None else np.empty(self.volume, dtype=src.dtype)
        np.put(dst, self.index_map, src)
        return dst

    def run_batch(self, srcs, out: Optional[np.ndarray] = None) -> np.ndarray:
        # Row-at-a-time application of the shared frozen map: NumPy's
        # axis-0 take/put on a contiguous row beats one axis-1 fancy
        # operation over the whole stack (measured), and the map lookup
        # setup amortizes across rows either way.
        srcs = self.batch_view(srcs)
        dst = out if out is not None else np.empty_like(srcs)
        if self.orientation == "gather":
            for b in range(srcs.shape[0]):
                np.take(srcs[b], self.index_map, out=dst[b])
        else:
            for b in range(srcs.shape[0]):
                dst[b][self.index_map] = srcs[b]
        return dst

    @property
    def nbytes(self) -> int:
        return self.index_map.nbytes


class ChunkedProgram(ExecutorProgram):
    """Per-variant relative maps + grouped block bases, applied in
    bounded chunks of blocks.

    The frozen state is tiny (one ``slice``-sized relative map pair per
    variant plus the block bases); absolute indices are materialized
    ``chunk_blocks`` thread blocks at a time, so transient index memory
    never exceeds roughly ``2 * chunk_blocks * slice * 8`` bytes however
    large the tensor is.
    """

    kind = "chunked"

    def __init__(
        self,
        volume: int,
        variants: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        max_index_bytes: int = DEFAULT_MAX_INDEX_BYTES,
    ):
        super().__init__(volume)
        #: per variant: (in_bases, out_bases, src_rel, dst_rel)
        self.variants = list(variants)
        for ib, ob, src_rel, dst_rel in self.variants:
            for arr in (ib, ob, src_rel, dst_rel):
                arr.flags.writeable = False
        self.max_index_bytes = max_index_bytes

    def _chunk_blocks(self, slice_vol: int) -> int:
        per_block = 2 * max(slice_vol, 1) * 8  # src + dst int64 maps
        return max(1, self.max_index_bytes // per_block)

    def run(self, src: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        dst = out if out is not None else np.empty(self.volume, dtype=src.dtype)
        for vid in range(len(self.variants)):
            for task in self._variant_tasks(vid):
                self._run_chunk(src, dst, task)
        return dst

    def run_batch(self, srcs, out: Optional[np.ndarray] = None) -> np.ndarray:
        # Absolute indices are materialized once per chunk and applied
        # row by row, amortizing the per-call broadcast adds B-fold
        # (the chunked kind's only per-call index work).  Row-wise
        # axis-0 moves beat one axis-1 fancy operation (measured).
        srcs = self.batch_view(srcs)
        dst = out if out is not None else np.empty_like(srcs)
        rows = srcs.shape[0]
        for vid in range(len(self.variants)):
            for _, lo, hi in self._variant_tasks(vid):
                ib, ob, src_rel, dst_rel = self.variants[vid]
                gather = block_gather_indices(ib[lo:hi], src_rel).reshape(-1)
                scatter = block_gather_indices(ob[lo:hi], dst_rel).reshape(-1)
                for b in range(rows):
                    dst[b][scatter] = srcs[b][gather]
        return dst

    @property
    def nbytes(self) -> int:
        return sum(
            ib.nbytes + ob.nbytes + sr.nbytes + dr.nbytes
            for ib, ob, sr, dr in self.variants
        )

    # -- chunks: per-variant block ranges ---------------------------------
    def _variant_tasks(self, vid: int) -> List[Tuple[int, int, int]]:
        ib, _, src_rel, _ = self.variants[vid]
        n = len(ib)
        step = self._chunk_blocks(len(src_rel))
        return [(vid, lo, min(lo + step, n)) for lo in range(0, n, step)]

    def _run_chunk(
        self, src: np.ndarray, out: np.ndarray, task: Tuple[int, int, int]
    ) -> None:
        vid, lo, hi = task
        ib, ob, src_rel, dst_rel = self.variants[vid]
        gather = block_gather_indices(ib[lo:hi], src_rel)
        scatter = block_gather_indices(ob[lo:hi], dst_rel)
        out[scatter] = src[gather]


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def _variant_tables(kernel):
    """``(in_bases, out_bases, src_rel, dst_rel)`` per populated variant.

    Built from the kernel's :meth:`variant_rel_maps` (the Alg. 4 offset
    arrays composed into flat relative maps) and the coverage's block
    enumeration — the same machinery the per-call path uses, computed
    once here.
    """
    in_base, out_base, variant = kernel.coverage.block_bases()
    tables = []
    for vid, sizes in enumerate(kernel.coverage.variants_order()):
        sel = np.nonzero(variant == vid)[0]
        if sel.size == 0:
            continue
        src_rel, dst_rel = kernel.variant_rel_maps(sizes)
        tables.append(
            (
                np.ascontiguousarray(in_base[sel]),
                np.ascontiguousarray(out_base[sel]),
                np.ascontiguousarray(src_rel.reshape(-1)),
                np.ascontiguousarray(dst_rel.reshape(-1)),
            )
        )
    return tables


def _fused_src_of_dst(volume: int, tables) -> np.ndarray:
    """Fold every variant's block maps into one permutation map."""
    src_of_dst = np.empty(volume, dtype=np.int64)
    for ib, ob, src_rel, dst_rel in tables:
        scatter = block_gather_indices(ob, dst_rel)
        gather = block_gather_indices(ib, src_rel)
        src_of_dst[scatter.reshape(-1)] = gather.reshape(-1)
    return src_of_dst


def _fused(in_shape: Tuple[int, ...], axes: Tuple[int, ...]):
    """``(shape, axes)`` of the fused problem (NumPy convention)."""
    from repro.core.fusion import fuse_indices
    from repro.core.layout import TensorLayout
    from repro.core.permutation import Permutation

    r = len(axes)
    fused = fuse_indices(
        TensorLayout(in_shape[::-1]),
        Permutation([r - 1 - axes[r - 1 - i] for i in range(r)]),
    )
    return fused.layout.as_numpy_shape(), fused.perm.numpy_axes()


def compile_executor(
    in_shape: Sequence[int],
    axes: Sequence[int],
    elem_bytes: int,
    *,
    artifacts=None,
    refine: int = 0,
) -> ExecutorProgram:
    """Lower one transposition problem to its executor program.

    ``in_shape``/``axes`` are the NumPy input shape and transpose axes,
    ``elem_bytes`` the element width.  The rule:

    1. **View chain** — below :data:`NEST_MIN_BYTES`, or when the fused
       problem has rank <= 1: a :class:`ViewProgram` of the problem as
       given (no fusion).
    2. **Generated nest** — otherwise: a
       :class:`~repro.kernels.codegen.NestProgram` over the fused
       problem, tiled and ordered by
       :func:`~repro.kernels.codegen.search_nest`.  ``artifacts`` (a
       plan store) lets the search reuse persisted descriptors and,
       through its ``native_dir``, the compiled C objects.  A missing
       object compiles in the background while the Python nest runs;
       ``refine >= 2`` instead times the analytic top-``refine``
       shortlist's C kernels before returning
       (:func:`~repro.kernels.codegen.refine_descriptor`).
    """
    in_shape = tuple(int(d) for d in in_shape)
    axes = tuple(int(a) for a in axes)
    if math.prod(in_shape) * int(elem_bytes) < NEST_MIN_BYTES:
        return ViewProgram(in_shape, axes)
    shape, fused_axes = _fused(in_shape, axes)
    if len(shape) <= 1:
        return ViewProgram(in_shape, axes)
    from repro.kernels.codegen import NestProgram, nest_descriptor

    native_dir = getattr(artifacts, "native_dir", None)
    desc = nest_descriptor(
        shape, fused_axes, elem_bytes, artifacts,
        refine=refine, native_dir=native_dir,
    )
    return NestProgram(desc, native_dir=native_dir, background=True)


def index_map_program(
    kernel, max_index_bytes: int = DEFAULT_MAX_INDEX_BYTES
) -> ExecutorProgram:
    """The index-map oracle of ``kernel``: its own per-block maps.

    One fused :class:`IndexedProgram` when the volume-sized map fits
    ``max_index_bytes``, else a :class:`ChunkedProgram`.  A kernel
    without per-variant maps (FVI-Match, naive) moves whole runs, so
    its oracle is the view chain.  Nothing serves through this; tests
    and benchmarks compare the lowered programs against it.
    """
    if getattr(kernel, "variant_rel_maps", None) is None:
        return ViewProgram(*problem_of(kernel)[:2])
    tables = _variant_tables(kernel)
    if kernel.volume * 8 <= max_index_bytes:
        return IndexedProgram(_fused_src_of_dst(kernel.volume, tables))
    return ChunkedProgram(kernel.volume, tables, max_index_bytes)


# ----------------------------------------------------------------------
# Process-wide program cache
# ----------------------------------------------------------------------

def new_program_cache(
    maxsize: int = EXEC_CACHE_MAX_PROGRAMS,
    max_bytes: int = EXEC_CACHE_MAX_BYTES,
) -> BoundedLRU:
    """A fresh, private compiled-program cache.

    Sharded deployments give each service replica its own cache (sized
    to its key shard) so routing locality shows up as per-replica hit
    rate — see ``docs/serving.md``.  The default process-wide cache is
    one of these.
    """
    return BoundedLRU(
        maxsize=maxsize,
        max_bytes=max_bytes,
        sizeof=lambda program: program.nbytes,
    )


_PROGRAM_CACHE = new_program_cache()


def cached_program(
    key: Hashable,
    build: Callable[[], ExecutorProgram],
    cache: Optional[BoundedLRU] = None,
) -> Tuple[ExecutorProgram, bool]:
    """Get-or-build on a program cache (the process-wide one by default).

    The generic rehydration hook: callers that can rebuild a program
    from stable content (a kernel, or a persisted plan-store entry)
    pass that content's key and a builder; the program is compiled at
    most once per cache per key.  Returns
    ``(program, hit)``.
    """
    target = cache if cache is not None else _PROGRAM_CACHE
    program = target.get(key)
    if program is not None:
        return program, True
    program = build()
    target.put(key, program)
    return program, False


def problem_of(kernel) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """``(numpy shape, axes, elem_bytes)`` of a kernel's problem."""
    return (
        kernel.layout.as_numpy_shape(),
        kernel.perm.numpy_axes(),
        kernel.elem_bytes,
    )


def executor_with_status(
    kernel,
    *,
    artifacts=None,
    cache: Optional[BoundedLRU] = None,
    refine: int = 0,
) -> Tuple[ExecutorProgram, bool]:
    """The kernel's cached program plus whether this call was a hit.

    The program is keyed by the problem alone — NumPy shape, axes and
    element width — so every kernel of one problem, whatever its slice
    parameters, shares a single compiled program.  ``cache`` swaps the
    process-wide cache for a private one (per-replica serving).
    ``refine`` (the codegen micro-probe shortlist size) is deliberately
    NOT part of the key: refinement is a per-deployment compile policy,
    and the refined descriptor persists as the geometry's artifact
    either way.
    """
    problem = problem_of(kernel)
    return cached_program(
        problem,
        lambda: compile_executor(*problem, artifacts=artifacts, refine=refine),
        cache,
    )


def executor_for(kernel, *, artifacts=None) -> ExecutorProgram:
    """The kernel's cached compiled program (compiling on first use)."""
    return executor_with_status(kernel, artifacts=artifacts)[0]


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
