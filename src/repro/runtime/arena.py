"""Reusable buffer arena: size-class free lists of heap blocks.

Every warm ``run``/``run_batch``/``submit_batch`` output used to pay a
fresh ``np.empty`` — a page-faulting allocation on the hottest path of
the serving layer.  The arena leases output buffers from size-class
free lists instead, so a warm lease is a free-list pop (zero
allocations, counted).

Blocks are reference-counted: :meth:`ArenaBlock.retain` /
:meth:`ArenaBlock.release` let several futures share one backing block
(the micro-batcher hands each caller a row view of one batch output).
A block returns to its size-class free list when the last reference is
released; the free pool is byte-bounded (``max_free_bytes``) with
excess blocks destroyed eagerly.  A leased block garbage-collected
without ``release()`` is counted as ``auto_reclaimed``.
:meth:`BufferArena.close` is leak-checked: still-leased blocks are
counted and their memory deliberately **kept alive** so caller-held
views stay valid (``strict=True`` raises instead, for tests).
"""

from __future__ import annotations

import weakref
from threading import Lock
from typing import Dict, List, Tuple

import numpy as np

#: Smallest block the arena hands out; sub-4KiB leases round up to this.
MIN_BLOCK_BYTES = 4096

#: Default byte budget of the *free* pool.  Leased blocks are caller
#: demand and are never refused; blocks released beyond this budget are
#: destroyed instead of pooled.
DEFAULT_MAX_FREE_BYTES = 1 << 30


def _lost_lease(arena_ref) -> None:
    """``weakref.finalize`` callback for a block garbage-collected while
    still leased (the caller dropped the report without ``release()``).

    Only counts: the heap memory goes with the block.  Must not take
    the arena's main lock (it runs synchronously at GC, potentially
    *inside* a locked arena method).
    """
    arena = arena_ref()
    if arena is not None:
        with arena._reclaim_lock:
            arena.auto_reclaimed += 1


def size_class(nbytes: int) -> int:
    """The power-of-two block capacity serving an ``nbytes`` lease."""
    need = max(int(nbytes), 1)
    if need <= MIN_BLOCK_BYTES:
        return MIN_BLOCK_BYTES
    return 1 << (need - 1).bit_length()


class ArenaBlock:
    """One leased (or pooled) buffer of ``capacity`` bytes.

    The block starts with one reference held by the acquirer;
    :meth:`retain` adds co-owners and :meth:`release` drops one — the
    last release returns the block to its arena.  ``ndarray`` views are
    only valid while at least one reference is held.
    """

    def __init__(self, arena: "BufferArena", capacity: int):
        self._arena = arena
        self.capacity = capacity
        self._heap = bytearray(capacity)
        self.refs = 1
        self._finalizer = weakref.finalize(
            self, _lost_lease, weakref.ref(arena)
        )

    def ndarray(self, shape, dtype, offset: int = 0) -> np.ndarray:
        """A NumPy view of the block's memory (no copy)."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        if offset + count * dtype.itemsize > self.capacity:
            raise ValueError(
                f"view of {count} x {dtype} at offset {offset} exceeds "
                f"block capacity {self.capacity}"
            )
        return np.frombuffer(
            self._heap, dtype=dtype, count=count, offset=offset
        ).reshape(shape)

    def retain(self) -> "ArenaBlock":
        self._arena._retain(self)
        return self

    def release(self) -> None:
        self._arena._release(self)

    def _destroy(self, leaked: bool = False) -> None:
        """Tear the backing storage down (arena-internal).  A leaked
        block keeps its memory for caller-held views."""
        self._finalizer.detach()
        if not leaked:
            self._heap = None


class BufferArena:
    """Size-class free lists of reusable heap blocks.

    Parameters
    ----------
    max_free_bytes:
        Byte budget of the pooled free lists; released blocks beyond it
        are destroyed instead of cached.
    """

    def __init__(self, max_free_bytes: int = DEFAULT_MAX_FREE_BYTES):
        if max_free_bytes <= 0:
            raise ValueError(
                f"max_free_bytes must be positive, got {max_free_bytes}"
            )
        self.max_free_bytes = max_free_bytes
        self._lock = Lock()
        self._reclaim_lock = Lock()  # only ever guards auto_reclaimed
        self._free: Dict[int, List[ArenaBlock]] = {}
        self._free_bytes = 0
        # Leased blocks, weakly held: a caller dropping its report
        # without release() lets the block die, and its finalizer
        # (_lost_lease) counts it.
        self._leases: "weakref.WeakValueDictionary[int, ArenaBlock]" = (
            weakref.WeakValueDictionary()
        )
        self._closed = False
        # Counters (the warm-path acceptance gate reads these).
        self.allocations = 0  # new blocks created
        self.reuses = 0  # leases served from a free list
        self.releases = 0
        self.trimmed = 0  # blocks destroyed by the byte bound
        self.leaked = 0  # blocks still leased at close()
        self.auto_reclaimed = 0  # lost leases reclaimed at GC

    # ------------------------------------------------------------------
    def acquire(self, nbytes: int) -> ArenaBlock:
        """Lease a block of at least ``nbytes`` (refcount 1)."""
        cls = size_class(nbytes)
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            bucket = self._free.get(cls)
            if bucket:
                block = bucket.pop()
                self._free_bytes -= block.capacity
                block.refs = 1
                self.reuses += 1
                self._leases[id(block)] = block
                return block
            self.allocations += 1
        # Zero-filling a large block takes a while; do it outside the
        # lock and only then account the lease.
        block = ArenaBlock(self, cls)
        with self._lock:
            self._leases[id(block)] = block
        return block

    def empty(self, shape, dtype) -> Tuple[ArenaBlock, np.ndarray]:
        """``np.empty`` replacement: a leased block plus its view."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        block = self.acquire(max(count * dtype.itemsize, 1))
        return block, block.ndarray(shape, dtype)

    # ---- refcounting (called through ArenaBlock) ---------------------
    def _retain(self, block: ArenaBlock) -> None:
        with self._lock:
            if block.refs <= 0:
                raise RuntimeError("retain() on a block that is not leased")
            block.refs += 1

    def _release(self, block: ArenaBlock) -> None:
        destroy = None
        with self._lock:
            if block.refs <= 0:
                raise RuntimeError("release() on a block that is not leased")
            block.refs -= 1
            if block.refs:
                return
            self._leases.pop(id(block), None)
            self.releases += 1
            if (
                self._closed
                or block.capacity + self._free_bytes > self.max_free_bytes
            ):
                if not self._closed:
                    self.trimmed += 1
                destroy = block
            else:
                self._free.setdefault(block.capacity, []).append(block)
                self._free_bytes += block.capacity
        if destroy is not None:
            destroy._destroy()

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Just the integer event/occupancy counters of :meth:`stats`.

        The serving snapshot folds these under ``serving.arena.*`` so
        lease churn and leaks show up next to the request counters.
        """
        s = self.stats()
        return {
            k: int(s[k])
            for k in (
                "allocations",
                "reuses",
                "releases",
                "trimmed",
                "leaked",
                "auto_reclaimed",
                "active_blocks",
                "active_bytes",
            )
        }

    def stats(self) -> dict:
        with self._lock:
            active = list(self._leases.values())
            with self._reclaim_lock:
                reclaimed = self.auto_reclaimed
            return {
                "allocations": self.allocations,
                "reuses": self.reuses,
                "releases": self.releases,
                "trimmed": self.trimmed,
                "leaked": self.leaked,
                "auto_reclaimed": reclaimed,
                "active_blocks": len(active),
                "active_bytes": sum(b.capacity for b in active),
                "free_blocks": sum(len(v) for v in self._free.values()),
                "free_bytes": self._free_bytes,
                "max_free_bytes": self.max_free_bytes,
            }

    def close(self, strict: bool = False) -> dict:
        """Destroy the free pool and leak-check the leases.

        Pooled blocks are freed.  Still-leased blocks are *leaks*: they
        are counted but keep their memory, so caller-held views remain
        valid.  With ``strict=True`` a leak
        raises ``RuntimeError`` after the cleanup.  Returns the final
        stats snapshot.  Idempotent.
        """
        with self._lock:
            already, self._closed = self._closed, True
            if already:
                leaked = free = []
            else:
                free = [b for bucket in self._free.values() for b in bucket]
                self._free.clear()
                self._free_bytes = 0
                leaked = list(self._leases.values())
                self.leaked += len(leaked)
        for block in free:
            block._destroy()
        for block in leaked:
            block._destroy(leaked=True)
        if strict and leaked:
            raise RuntimeError(
                f"arena closed with {len(leaked)} leased block(s) "
                "still outstanding"
            )
        return self.stats()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "BufferArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

