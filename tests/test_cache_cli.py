"""Tests for the plan caches and the CLI entry point."""

import json
import subprocess
import sys

import pytest

import repro.core.cache as cache_mod
import repro.runtime.service as service_mod
from repro.core.cache import cached_plan
from repro.gpusim.spec import KEPLER_K40C, PASCAL_P100
from repro.model.pretrained import oracle_predictor
from repro.runtime import TransposeService

ORACLE = oracle_predictor()


@pytest.fixture
def service():
    with TransposeService(predictor=ORACLE, num_streams=1) as svc:
        yield svc


@pytest.fixture
def small_service(monkeypatch):
    """A service whose plan cache holds two plans."""
    monkeypatch.setattr(service_mod, "DEFAULT_CAPACITY", 2)
    with TransposeService(predictor=ORACLE, num_streams=1) as svc:
        yield svc


class TestPlanCache:
    """The service's plan LRU and :func:`cached_plan`'s, both
    :class:`~repro.core.lru.BoundedLRU` keyed by ``content_key``."""

    def test_hit_returns_same_plan(self, service):
        a = service.plan((8, 8, 8), (2, 1, 0))
        b = service.plan((8, 8, 8), (2, 1, 0))
        assert a is b
        counters = service.metrics.counters()
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 1

    def test_distinct_problems_miss(self, service):
        service.plan((8, 8, 8), (2, 1, 0))
        service.plan((8, 8, 8), (1, 2, 0))
        assert service.metrics.counter("cache_misses") == 2

    def test_device_in_key(self, service):
        a = service.plan((8, 8, 8), (2, 1, 0), spec=KEPLER_K40C)
        b = service.plan((8, 8, 8), (2, 1, 0), spec=PASCAL_P100)
        assert a is not b
        assert b.kernel.spec is PASCAL_P100

    def test_eviction(self, small_service):
        for dims in ((4, 4), (4, 8), (8, 4)):
            small_service.plan(dims, (1, 0))
        assert small_service.stats()["cache"]["entries"] == 2
        assert small_service.metrics.counter("cache_evictions") == 1

    def test_lru_order(self, small_service):
        a = small_service.plan((4, 4), (1, 0))
        small_service.plan((4, 8), (1, 0))
        small_service.plan((4, 4), (1, 0))  # refresh a
        small_service.plan((8, 4), (1, 0))  # evicts (4,8)
        assert small_service.plan((4, 4), (1, 0)) is a
        small_service.plan((4, 8), (1, 0))
        assert small_service.metrics.counter("plans_built") == 4

    def test_global_cache_shared(self):
        cache_mod._PLANS.clear()
        cache_mod._PLANS.reset_stats()
        a = cached_plan((6, 6, 6), (2, 0, 1), predictor=ORACLE)
        b = cached_plan((6, 6, 6), (2, 0, 1), predictor=ORACLE)
        assert a is b
        assert cache_mod._PLANS.stats()["hit_rate"] == 0.5

    def test_same_name_different_geometry_does_not_alias(self, service):
        # Two specs sharing a *name* but differing in any field must get
        # distinct cache entries (the key carries a content fingerprint).
        impostor = KEPLER_K40C.with_overrides(num_sms=2)
        assert impostor.name == KEPLER_K40C.name
        a = service.plan((8, 8, 8), (2, 1, 0), spec=KEPLER_K40C)
        b = service.plan((8, 8, 8), (2, 1, 0), spec=impostor)
        assert a is not b
        assert service.metrics.counter("cache_misses") == 2
        assert service.stats()["cache"]["entries"] == 2
        c = cached_plan((8, 8, 8), (2, 1, 0), spec=KEPLER_K40C, predictor=ORACLE)
        d = cached_plan((8, 8, 8), (2, 1, 0), spec=impostor, predictor=ORACLE)
        assert c is not d

    def test_snapshot_stats_reset_is_windowed(self, service):
        service.plan((8, 8, 8), (2, 1, 0))
        service.plan((8, 8, 8), (2, 1, 0))
        snap = service.metrics.snapshot(reset=True)["counters"]
        assert (snap["cache_hits"], snap["cache_misses"]) == (1, 1)
        service.plan((8, 8, 8), (2, 1, 0))
        after = service.metrics.snapshot()["counters"]
        assert after.get("cache_hits") == 1 and "cache_misses" not in after

    def test_stats_reset_in_place(self):
        cached_plan((6, 6, 6), (2, 0, 1), predictor=ORACLE)
        cached_plan((6, 6, 6), (2, 0, 1), predictor=ORACLE)
        cache = cache_mod._PLANS
        cache.reset_stats()
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
        assert len(cache) > 0  # the plans survive a stats reset

    def test_counters_see_hits_misses_builds(self, service):
        service.plan((8, 8, 8), (2, 1, 0))
        service.plan((8, 8, 8), (2, 1, 0))
        counters = service.metrics.counters()
        assert counters["cache_misses"] == 1
        assert counters["plans_built"] == 1
        assert counters["cache_hits"] == 1
        assert "plans_restored" not in counters

    def test_eviction_events(self, monkeypatch):
        monkeypatch.setattr(service_mod, "DEFAULT_CAPACITY", 1)
        with TransposeService(predictor=ORACLE, num_streams=1) as svc:
            svc.plan((4, 4), (1, 0))
            svc.plan((4, 8), (1, 0))
            assert svc.metrics.counter("cache_evictions") == 1


def run_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestCli:
    def test_plan(self):
        out = run_cli("plan", "16,16,16", "2,1,0")
        assert "schema" in out and "bandwidth" in out

    def test_predict(self):
        out = run_cli("predict", "32,8,16", "1,2,0")
        assert "kernel time" in out

    def test_compare(self):
        out = run_cli("compare", "8,8,8,8", "3,2,1,0")
        assert "TTLG" in out and "cuTT Measure" in out

    def test_device(self):
        out = run_cli("device", "p100")
        assert "P100" in out

    def test_plan_f32(self):
        out = run_cli("plan", "16,16,16", "2,1,0", "--dtype", "f32")
        assert "schema" in out

    def test_bad_dims_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "plan", "16,x", "1,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0

    def test_predict_dtype_parity(self):
        out = run_cli("predict", "16,16,16", "2,1,0", "--dtype", "f32")
        assert "kernel time" in out

    def test_unknown_dtype_lists_supported(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "plan", "8,8,8", "2,1,0",
             "--dtype", "f16"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert "f16" in proc.stderr
        assert "f32" in proc.stderr and "f64" in proc.stderr


class TestServeStatsCli:
    def test_serve_then_stats(self, tmp_path):
        state = str(tmp_path / "state")
        out = run_cli(
            "serve",
            "--problem", "8,8,8:2,1,0",
            "--problem", "16,4,8:1,2,0",
            "--requests", "6",
            "--clients", "2",
            "--streams", "2",
            "--state-dir", state,
        )
        assert "served 6 requests" in out
        assert "plans: 2 built" in out

        stats_out = run_cli("stats", "--state-dir", state)
        assert "plans_built" in stats_out
        # Without --payload every request plans (and none executes).
        assert "plan_requests" in stats_out
        assert "executions_completed" not in stats_out
        assert "cache:" in stats_out and "store:" in stats_out

        raw = run_cli("stats", "--state-dir", state, "--json")
        payload = json.loads(raw)
        assert payload["metrics"]["counters"]["plans_built"] == 2
        assert payload["metrics"]["counters"]["plan_requests"] == 6

        # A second serve session warm-starts from the persistent store.
        out2 = run_cli(
            "serve",
            "--problem", "8,8,8:2,1,0",
            "--problem", "16,4,8:1,2,0",
            "--requests", "6",
            "--clients", "2",
            "--streams", "2",
            "--state-dir", state,
        )
        assert "plans: 0 built, 2 restored" in out2

        # With --payload every request executes instead, and none plans.
        run_cli(
            "serve",
            "--problem", "8,8,8:2,1,0",
            "--requests", "4",
            "--payload",
            "--state-dir", state,
        )
        raw = run_cli("stats", "--state-dir", state, "--json")
        counters = json.loads(raw)["metrics"]["counters"]
        assert counters["executions_completed"] == 4
        assert "plan_requests" not in counters

    def test_stats_without_serve(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stats",
             "--state-dir", str(tmp_path / "empty")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "no metrics snapshot" in proc.stderr
