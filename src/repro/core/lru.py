"""A small thread-safe bounded LRU mapping — the repository's one LRU.

Every memoization cache in the planning, execution and serving layers
is one of these: geometry features, DRAM-transaction totals, candidate
lower bounds, compiled executor programs, the service's plan cache and
:func:`~repro.core.cache.cached_plan`'s.  Entries are evicted least
recently used first, optionally bounded by an approximate byte budget
as well (for caches whose values own scratch buffers).

:meth:`BoundedLRU.get_or_build` is also the repository's one
build-once mechanism (single-flight): among concurrent callers that
miss on one key exactly one builds, and the rest wait for its value,
so a cold burst of one problem pays one planning search or one nest
lowering.

The class is deliberately not a full ``MutableMapping``: the cache call
sites only ever need ``get``/``put``/``get_or_build``/``clear``/``len``/
containment, and keeping the surface small keeps the locking story
obvious.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future
from threading import Lock
from typing import Any, Callable, Hashable, Optional, Tuple


class BoundedLRU:
    """LRU-evicting key/value cache with entry-count and byte budgets.

    ``maxsize`` bounds the number of entries; ``max_bytes`` (optional)
    additionally bounds ``sum(sizeof(value))`` using the ``sizeof``
    callable (default: everything costs 0 bytes, i.e. no byte bound).
    Reads and writes are O(1) and thread-safe; ``hits``/``misses``
    counters make cache effectiveness observable (the runtime metrics
    snapshot them), and ``coalesced`` counts the hits of
    :meth:`get_or_build` that waited on another caller's build.
    ``on_evict`` (optional) is called once per evicted entry, under the
    cache lock: keep it cheap, and never call back into the cache from
    it.
    """

    def __init__(
        self,
        maxsize: int,
        max_bytes: Optional[int] = None,
        sizeof: Optional[Callable[[Any], int]] = None,
        on_evict: Optional[Callable[[], None]] = None,
    ):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._sizeof = sizeof if sizeof is not None else (lambda _: 0)
        self._on_evict = on_evict
        self._lock = Lock()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Key -> the future of its in-flight :meth:`get_or_build`.
        self._flights: "dict[Hashable, Future]" = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        size = self._sizeof(value)
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._bytes -= self._sizeof(old)
            self._data[key] = value
            self._bytes += size
            while len(self._data) > self.maxsize or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._data) > 1
            ):
                _, evicted = self._data.popitem(last=False)
                self._bytes -= self._sizeof(evicted)
                self.evictions += 1
                if self._on_evict is not None:
                    self._on_evict()

    def get_or_build(
        self, key: Hashable, build: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """The cached value of ``key``, building and inserting it on a
        miss; returns ``(value, hit)``.

        Among concurrent callers that miss on one key exactly one runs
        ``build`` (and counts the miss); the others wait for its value
        and count a hit, and a ``coalesced`` wait.  If ``build``
        raises, every waiter gets the builder's own exception object,
        nothing is cached, and the next call builds again.  ``build``
        runs outside the lock, so builds of different keys run
        concurrently; it must not call back into this cache for the
        same key.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key], True
            flight = self._flights.get(key)
            waiting = flight is not None
            if waiting:
                self.hits += 1
                self.coalesced += 1
            else:
                self.misses += 1
                flight = self._flights[key] = Future()
        if waiting:
            return flight.result(), True
        try:
            value = build()
            self.put(key, value)  # lands before the flight retires: no gap
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            del self._flights[key]
        flight.set_result(value)
        return value, False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    @property
    def nbytes(self) -> int:
        """Approximate bytes held, per the ``sizeof`` accounting."""
        with self._lock:
            return self._bytes

    def values(self) -> list:
        """Snapshot of the cached values, oldest first."""
        with self._lock:
            return list(self._data.values())

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._data.clear()
            self._bytes = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.coalesced = 0
            self.evictions = 0

    def stats(self) -> dict:
        """JSON-friendly snapshot of occupancy and effectiveness."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._data),
                "maxsize": self.maxsize,
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
