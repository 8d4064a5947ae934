"""Tests for the runtime metrics registry."""

import json
import threading

import pytest

from repro.runtime.metrics import (
    METRICS_FORMAT_VERSION,
    LatencyHistogram,
    MetricsRegistry,
)


class TestLatencyHistogram:
    def test_record_and_snapshot(self):
        h = LatencyHistogram()
        for v in (1e-6, 2e-6, 1e-3, 5.0):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum_s"] == pytest.approx(1e-6 + 2e-6 + 1e-3 + 5.0)
        assert snap["min_s"] == pytest.approx(1e-6)
        assert snap["max_s"] == pytest.approx(5.0)
        assert sum(snap["buckets"].values()) == 4

    def test_overflow_bucket(self):
        h = LatencyHistogram()
        h.record(1e4)  # far beyond the largest bound
        assert h.snapshot()["buckets"] == {"overflow": 1}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_empty_snapshot(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean_s"] == 0.0
        assert snap["min_s"] == 0.0

    def test_reset(self):
        h = LatencyHistogram()
        h.record(1.0)
        h.reset()
        assert h.snapshot()["count"] == 0


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        m.set_gauge("depth", 3)
        m.max_gauge("peak", 2)
        m.max_gauge("peak", 1)  # lower: ignored
        assert m.counter("a") == 5
        assert m.counter("missing") == 0
        assert m.gauge("depth") == 3
        assert m.gauge("peak") == 2

    def test_observe_creates_histogram(self):
        m = MetricsRegistry()
        m.observe("lat", 1e-3)
        m.observe("lat", 2e-3)
        assert m.histogram("lat").count == 2
        assert m.histogram("other") is None

    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.inc("x")
        m.observe("lat", 0.5)
        snap = m.snapshot()
        assert snap["format_version"] == METRICS_FORMAT_VERSION == 3
        assert set(snap) == {"format_version", "counters", "gauges", "histograms"}
        assert snap["counters"] == {"x": 1}
        assert snap["histograms"]["lat"]["count"] == 1
        json.dumps(snap)  # JSON-serializable throughout

    def test_snapshot_and_reset_is_windowed(self):
        m = MetricsRegistry()
        m.inc("x", 7)
        first = m.snapshot(reset=True)
        second = m.snapshot()
        assert first["counters"]["x"] == 7
        assert second["counters"] == {}

    def test_concurrent_increments_lose_nothing(self):
        m = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def work():
            for _ in range(per_thread):
                m.inc("n")
                m.observe("lat", 1e-6)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == n_threads * per_thread
        assert m.histogram("lat").count == n_threads * per_thread

    def test_save_and_load(self, tmp_path):
        m = MetricsRegistry()
        m.inc("served", 3)
        path = m.save(tmp_path / "metrics.json")
        payload = MetricsRegistry.load_snapshot(path)
        assert payload["counters"]["served"] == 3

    def test_load_rejects_bad_version(self, tmp_path):
        p = tmp_path / "bad.json"
        for version in (2, 999):  # 2 carried the dropped samples section
            p.write_text(json.dumps({"format_version": version}))
            with pytest.raises(ValueError):
                MetricsRegistry.load_snapshot(p)
