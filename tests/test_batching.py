"""Coalescing primitives: BoundedLRU.get_or_build's single flight,
MicroBatcher.

get_or_build's failure semantics are load-bearing for the plan and
program caches: a builder's exception must reach every concurrent
waiter (they cannot hang), and nothing may be cached so a later call
retries instead of being poisoned forever.  MicroBatcher must flush
each bucket exactly once — via the window timer, the max_batch fast
path, or close() — and resolve (or fail) every promised future.
"""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.core.lru import BoundedLRU
from repro.runtime.batching import MicroBatcher


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


# ----------------------------------------------------------------------
# BoundedLRU.get_or_build: one build per key
# ----------------------------------------------------------------------


def test_get_or_build_builder_exception_reaches_waiters():
    lru = BoundedLRU(maxsize=4)
    release = threading.Event()
    n_waiters = 4
    results = []
    boom = RuntimeError("planning failed")

    def failing_build():
        release.wait(timeout=5)
        raise boom

    def builder():
        try:
            lru.get_or_build("k", failing_build)
        except RuntimeError as exc:
            results.append(("builder", exc))

    def waiter():
        try:
            lru.get_or_build("k", lambda: pytest.fail("waiter must never build"))
        except RuntimeError as exc:
            results.append(("waiter", exc))

    bt = threading.Thread(target=builder)
    bt.start()
    assert _wait_until(lambda: lru.stats()["misses"] == 1)
    # The builder holds the flight open until every waiter has joined.
    waiters = [threading.Thread(target=waiter) for _ in range(n_waiters)]
    for t in waiters:
        t.start()
    assert _wait_until(lambda: lru.stats()["coalesced"] == n_waiters)
    release.set()
    bt.join(timeout=5)
    for t in waiters:
        t.join(timeout=5)
    assert len(results) == n_waiters + 1
    # Everyone saw the builder's exception object, not a wrapper.
    assert all(exc is boom for _, exc in results)
    assert "k" not in lru


def test_get_or_build_failed_build_is_retried():
    lru = BoundedLRU(maxsize=4)
    calls = []

    def failing():
        calls.append("fail")
        raise ValueError("transient")

    with pytest.raises(ValueError):
        lru.get_or_build("k", failing)
    assert len(lru) == 0  # nothing cached ...
    value, hit = lru.get_or_build("k", lambda: "recovered")  # ... so this retries
    assert (value, hit) == ("recovered", False)
    assert calls == ["fail"]
    assert lru.stats()["misses"] == 2


def test_get_or_build_elects_one_builder():
    lru = BoundedLRU(maxsize=4)
    release = threading.Event()
    builds = []
    outcomes = []

    def build():
        builds.append(threading.get_ident())
        release.wait(timeout=5)
        return 42

    def call():
        outcomes.append(lru.get_or_build("k", build))

    threads = [threading.Thread(target=call) for _ in range(5)]
    for t in threads:
        t.start()
    assert _wait_until(lambda: lru.stats()["coalesced"] == 4)
    release.set()
    for t in threads:
        t.join(timeout=5)
    assert [v for v, _ in outcomes] == [42] * 5
    assert sum(1 for _, hit in outcomes if not hit) == 1
    assert len(builds) == 1
    stats = lru.stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 4, 1)


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------


def _collecting_batcher(**kwargs):
    flushed = []

    def flush(key, payloads, futures):
        flushed.append((key, list(payloads)))
        for i, f in enumerate(futures):
            f.set_result((key, payloads[i]))

    return MicroBatcher(flush, **kwargs), flushed


def test_microbatcher_window_coalesces():
    mb, flushed = _collecting_batcher(window_s=0.05, max_batch=64)
    futs = [mb.submit("k", i) for i in range(3)]
    assert mb.stats()["pending"] == 3  # window still open
    assert [f.result(timeout=5) for f in futs] == [("k", i) for i in range(3)]
    assert flushed == [("k", [0, 1, 2])]
    s = mb.stats()
    assert s["requests"] == 3 and s["flushes"] == 1 and s["coalesced"] == 2
    assert s["per_key"]["k"]["max_batch"] == 3
    mb.close()


def test_microbatcher_max_batch_flushes_immediately():
    mb, flushed = _collecting_batcher(window_s=30.0, max_batch=2)
    f1 = mb.submit("k", "a")
    f2 = mb.submit("k", "b")  # hits max_batch: flushes on this thread
    assert f1.result(timeout=1) == ("k", "a")
    assert f2.result(timeout=1) == ("k", "b")
    assert len(flushed) == 1 and flushed[0][1] == ["a", "b"]
    mb.close()


def test_microbatcher_zero_window_is_passthrough():
    mb, flushed = _collecting_batcher(window_s=0.0)
    assert mb.submit("k", 1).result(timeout=1) == ("k", 1)
    assert mb.submit("k", 2).result(timeout=1) == ("k", 2)
    assert len(flushed) == 2
    assert mb.stats()["coalesced"] == 0
    mb.close()


def test_microbatcher_keys_isolate_buckets():
    mb, flushed = _collecting_batcher(window_s=30.0, max_batch=2)
    fa = [mb.submit("a", i) for i in range(2)]
    fb = [mb.submit("b", i) for i in range(2)]
    for f in fa + fb:
        f.result(timeout=1)
    assert sorted(k for k, _ in flushed) == ["a", "b"]
    assert mb.stats()["per_key"]["a"]["requests"] == 2
    mb.close()


def test_microbatcher_flush_exception_fails_all_futures():
    boom = RuntimeError("flush blew up")

    def flush(key, payloads, futures):
        raise boom

    mb = MicroBatcher(flush, window_s=30.0, max_batch=2)
    f1 = mb.submit("k", 1)
    f2 = mb.submit("k", 2)
    assert f1.exception(timeout=1) is boom
    assert f2.exception(timeout=1) is boom
    # The failed bucket is retired; the batcher keeps serving.
    f3 = mb.submit("k", 3)
    f4 = mb.submit("k", 4)
    assert f4.exception(timeout=1) is boom and f3.exception(timeout=1) is boom
    mb.close()


def test_microbatcher_close_flushes_open_buckets():
    mb, flushed = _collecting_batcher(window_s=30.0, max_batch=64)
    fut = mb.submit("k", "pending")
    mb.close()  # window never expired; close drains the bucket
    assert fut.result(timeout=1) == ("k", "pending")
    assert flushed == [("k", ["pending"])]
    with pytest.raises(RuntimeError):
        mb.submit("k", "late")


def test_microbatcher_timer_and_full_path_flush_exactly_once():
    """A bucket filling right as its timer fires must flush once."""
    flushes = []
    done = threading.Event()

    def flush(key, payloads, futures):
        flushes.append(list(payloads))
        for f in futures:
            f.set_result(None)
        done.set()

    mb = MicroBatcher(flush, window_s=0.001, max_batch=3)
    for round_no in range(20):
        done.clear()
        futs = [mb.submit("k", (round_no, i)) for i in range(3)]
        assert done.wait(timeout=5)
        for f in futs:
            f.result(timeout=5)
    assert sum(len(p) for p in flushes) == 60
    mb.close()


def test_microbatcher_validates_parameters():
    with pytest.raises(ValueError):
        MicroBatcher(lambda *a: None, window_s=-1)
    with pytest.raises(ValueError):
        MicroBatcher(lambda *a: None, max_batch=0)


def test_future_type_is_concurrent_futures():
    mb, _ = _collecting_batcher(window_s=0.0)
    assert isinstance(mb.submit("k", 1), Future)
    mb.close()
