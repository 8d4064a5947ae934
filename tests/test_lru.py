"""Unit + concurrency tests for repro.core.lru.BoundedLRU.

The LRU backs the plan caches and the process-wide program cache,
where scheduler threads and stats readers hit it concurrently — so
beyond the single-threaded contract, a multi-threaded hammer asserts the bounds
and counters stay coherent under contention.
"""

import threading

import pytest

from repro.core.lru import BoundedLRU


class TestContract:
    def test_get_put_roundtrip(self):
        lru = BoundedLRU(maxsize=4)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert "a" in lru
        assert lru.get("missing") is None
        assert lru.get("missing", 0) == 0

    def test_count_bound_evicts_oldest(self):
        lru = BoundedLRU(maxsize=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert "a" not in lru
        assert lru.get("b") == 2 and lru.get("c") == 3
        assert lru.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        lru = BoundedLRU(maxsize=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # now "b" is the oldest
        lru.put("c", 3)
        assert "a" in lru
        assert "b" not in lru

    def test_byte_bound_evicts(self):
        lru = BoundedLRU(maxsize=100, max_bytes=10, sizeof=len)
        lru.put("a", b"xxxx")
        lru.put("b", b"xxxx")
        lru.put("c", b"xxxx")  # 12 bytes total: "a" must go
        assert "a" not in lru
        assert lru.nbytes == 8

    def test_values_snapshot_oldest_first(self):
        lru = BoundedLRU(maxsize=4)
        for i in range(3):
            lru.put(i, i * 10)
        assert lru.values() == [0, 10, 20]

    def test_clear_and_reset(self):
        lru = BoundedLRU(maxsize=4, max_bytes=100, sizeof=lambda v: 8)
        lru.put("a", 1)
        lru.get("a")
        lru.clear()
        assert len(lru) == 0
        assert lru.nbytes == 0
        lru.reset_stats()
        assert lru.stats()["hits"] == 0


class TestConcurrentHammer:
    """Many threads get/put/read one small LRU; the bounds and the
    books must hold at every observation point and at the end."""

    THREADS = 8
    OPS = 400
    MAXSIZE = 16
    MAX_BYTES = 1024

    def test_hammer(self):
        lru = BoundedLRU(
            maxsize=self.MAXSIZE,
            max_bytes=self.MAX_BYTES,
            sizeof=lambda v: len(v),
        )
        start = threading.Barrier(self.THREADS)
        errors = []

        def worker(tid):
            try:
                start.wait()
                for i in range(self.OPS):
                    key = (tid * 7 + i) % 40  # overlapping key space
                    if i % 3 == 0:
                        lru.put(key, bytes(8 + (key % 5) * 16))
                    elif i % 3 == 1:
                        value = lru.get(key)
                        assert value is None or isinstance(value, bytes)
                    else:
                        # Snapshot reads race the writers.
                        assert len(lru) <= self.MAXSIZE
                        assert lru.nbytes <= self.MAX_BYTES
                        for value in lru.values():
                            assert isinstance(value, bytes)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert len(lru) <= self.MAXSIZE
        assert lru.nbytes <= self.MAX_BYTES
        stats = lru.stats()
        assert stats["entries"] == len(lru)
        assert stats["bytes"] == lru.nbytes
        assert stats["hits"] + stats["misses"] > 0
        # Final sanity: the byte books rebalance from scratch.
        expected = sum(len(v) for v in lru.values())
        assert lru.nbytes == expected

    def test_get_or_build_hammer_builds_each_key_once(self):
        """More threads than cores race get_or_build over overlapping
        keys with a short switch interval: every key is built exactly
        once, and every call is counted as one hit or one miss."""
        import sys

        lru = BoundedLRU(maxsize=64)
        keys, calls_each = 24, 50
        builds = []
        start = threading.Barrier(self.THREADS)
        errors = []

        def build(key):
            builds.append(key)
            return ("value", key)

        def worker(tid):
            try:
                start.wait()
                for i in range(calls_each):
                    key = (tid * 5 + i) % keys
                    value, _ = lru.get_or_build(key, lambda: build(key))
                    assert value == ("value", key)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(tid,))
                for tid in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sorted(builds) == list(range(keys))
        stats = lru.stats()
        assert stats["misses"] == keys
        assert stats["hits"] + stats["misses"] == self.THREADS * calls_each
        assert stats["coalesced"] <= stats["hits"]

    def test_hammer_with_concurrent_clear(self):
        lru = BoundedLRU(maxsize=8)
        stop = threading.Event()
        errors = []

        def churn():
            try:
                i = 0
                while not stop.is_set():
                    lru.put(i % 20, i)
                    lru.get((i + 3) % 20)
                    i += 1
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(50):
            lru.clear()
            assert len(lru) <= 8
        stop.set()
        for t in threads:
            t.join()
        assert not errors


@pytest.mark.parametrize("maxsize", [0, -1])
def test_nonpositive_maxsize_rejected(maxsize):
    with pytest.raises(ValueError):
        BoundedLRU(maxsize=maxsize)
