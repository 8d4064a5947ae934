"""Tests for the plan cache and the CLI entry point."""

import json
import subprocess
import sys

import pytest

from repro.core.cache import PlanCache, cached_plan, global_cache
from repro.gpusim.spec import KEPLER_K40C, PASCAL_P100
from repro.model.pretrained import oracle_predictor

ORACLE = oracle_predictor()


class TestPlanCache:
    def test_hit_returns_same_plan(self):
        cache = PlanCache()
        a = cache.get((8, 8, 8), (2, 1, 0), predictor=ORACLE)
        b = cache.get((8, 8, 8), (2, 1, 0), predictor=ORACLE)
        assert a is b
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_problems_miss(self):
        cache = PlanCache()
        cache.get((8, 8, 8), (2, 1, 0), predictor=ORACLE)
        cache.get((8, 8, 8), (1, 2, 0), predictor=ORACLE)
        assert cache.stats.misses == 2

    def test_device_in_key(self):
        cache = PlanCache()
        a = cache.get((8, 8, 8), (2, 1, 0), spec=KEPLER_K40C, predictor=ORACLE)
        b = cache.get(
            (8, 8, 8), (2, 1, 0), spec=PASCAL_P100,
            predictor=oracle_predictor(PASCAL_P100),
        )
        assert a is not b

    def test_eviction(self):
        cache = PlanCache(capacity=2)
        cache.get((4, 4), (1, 0), predictor=ORACLE)
        cache.get((4, 8), (1, 0), predictor=ORACLE)
        cache.get((8, 4), (1, 0), predictor=ORACLE)
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_lru_order(self):
        cache = PlanCache(capacity=2)
        a = cache.get((4, 4), (1, 0), predictor=ORACLE)
        cache.get((4, 8), (1, 0), predictor=ORACLE)
        cache.get((4, 4), (1, 0), predictor=ORACLE)  # refresh a
        cache.get((8, 4), (1, 0), predictor=ORACLE)  # evicts (4,8)
        assert cache.get((4, 4), (1, 0), predictor=ORACLE) is a

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_global_cache_shared(self):
        global_cache().clear()
        a = cached_plan((6, 6, 6), (2, 0, 1), predictor=ORACLE)
        b = cached_plan((6, 6, 6), (2, 0, 1), predictor=ORACLE)
        assert a is b
        assert global_cache().stats.hit_rate == 0.5

    def test_same_name_different_geometry_does_not_alias(self):
        # Two specs sharing a *name* but differing in any field must get
        # distinct cache entries (the key carries a content fingerprint).
        cache = PlanCache()
        impostor = KEPLER_K40C.with_overrides(num_sms=2)
        assert impostor.name == KEPLER_K40C.name
        a = cache.get((8, 8, 8), (2, 1, 0), spec=KEPLER_K40C, predictor=ORACLE)
        b = cache.get((8, 8, 8), (2, 1, 0), spec=impostor, predictor=ORACLE)
        assert a is not b
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_snapshot_stats_reset_is_windowed(self):
        cache = PlanCache()
        cache.get((8, 8, 8), (2, 1, 0), predictor=ORACLE)
        cache.get((8, 8, 8), (2, 1, 0), predictor=ORACLE)
        snap = cache.snapshot_stats(reset=True)
        assert (snap.hits, snap.misses) == (1, 1)
        after = cache.snapshot_stats()
        assert (after.hits, after.misses) == (0, 0)
        # reset() zeroes in place: the stats object identity is stable so
        # concurrent readers never observe a half-swapped object.
        assert cache.stats is not snap

    def test_stats_reset_in_place(self):
        stats_obj = PlanCache().stats
        stats_obj.hits = 3
        stats_obj.store_hits = 2
        stats_obj.reset()
        assert stats_obj.hits == 0
        assert stats_obj.store_hits == 0

    def test_event_hook_sees_hits_misses_builds(self):
        events = []
        cache = PlanCache(on_event=events.append)
        cache.get((8, 8, 8), (2, 1, 0), predictor=ORACLE)
        cache.get((8, 8, 8), (2, 1, 0), predictor=ORACLE)
        assert events == ["miss", "build", "hit"]

    def test_eviction_events(self):
        events = []
        cache = PlanCache(capacity=1, on_event=events.append)
        cache.get((4, 4), (1, 0), predictor=ORACLE)
        cache.get((4, 8), (1, 0), predictor=ORACLE)
        assert events.count("eviction") == 1


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
