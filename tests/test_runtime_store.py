"""Persistent plan store: round-trips, corruption recovery, warm restarts."""

import errno
import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.cache import content_key
from repro.core.plan import make_plan
from repro.gpusim.spec import KEPLER_K40C, PASCAL_P100
from repro.model.pretrained import oracle_predictor
from repro.runtime import PlanStore, TransposeService
from repro.runtime.store import STORE_VERSION, rehydrate_plan, serialize_plan

ORACLE = oracle_predictor()

#: One case per persistable schema (see test_covers_every_schema).
CASES = [
    ((64, 8, 8), (0, 2, 1)),      # fvi-match-large
    ((8, 8, 8, 8), (0, 3, 1, 2)),  # fvi-match-small
    ((128, 4, 128), (2, 1, 0)),   # orthogonal-distinct
    ((16, 16, 16), (2, 1, 0)),    # orthogonal-arbitrary
    ((15, 17, 9), (1, 0, 2)),     # ragged extents, partial tiles
]


class TestRoundTrip:
    @pytest.mark.parametrize("dims,perm", CASES)
    def test_plan_round_trip(self, tmp_path, dims, perm):
        plan = make_plan(dims, perm, 8, KEPLER_K40C, ORACLE)
        store = PlanStore(tmp_path / "plans.json")
        store.put(plan)

        reopened = PlanStore(tmp_path / "plans.json")
        restored = reopened.get(dims, perm, 8, KEPLER_K40C)
        assert restored is not None
        assert restored.schema == plan.schema
        assert restored.num_candidates == plan.num_candidates
        assert restored.plan_time == plan.plan_time
        assert restored.coarsening == plan.coarsening
        assert restored.simulated_time() == pytest.approx(
            plan.simulated_time(), rel=1e-12
        )
        x = np.arange(int(np.prod(dims)), dtype=np.float64)
        assert np.array_equal(restored.execute(x), plan.execute(x))

    def test_covers_every_schema(self):
        schemas = {
            make_plan(d, p, 8, KEPLER_K40C, ORACLE).schema.value
            for d, p in CASES
        }
        assert schemas == {
            "fvi-match-large",
            "fvi-match-small",
            "orthogonal-distinct",
            "orthogonal-arbitrary",
        }

    def test_serialize_rehydrate_direct(self):
        plan = make_plan((8, 8, 8), (2, 1, 0), 4, KEPLER_K40C, ORACLE)
        entry = serialize_plan(plan)
        json.dumps(entry)  # JSON-friendly
        back = rehydrate_plan(entry, KEPLER_K40C)
        assert back.schema == plan.schema
        assert back.elem_bytes == 4

    def test_spec_mismatch_is_a_miss(self, tmp_path):
        plan = make_plan((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C, ORACLE)
        store = PlanStore(tmp_path / "plans.json")
        store.put(plan)
        # Same *name*, different geometry: the fingerprint in the key
        # differs, so the lookup misses instead of aliasing.
        impostor = KEPLER_K40C.with_overrides(num_sms=2)
        assert store.get((8, 8, 8), (2, 1, 0), 8, impostor) is None


class TestContentKey:
    def test_key_is_content_addressed(self):
        """Rebuilding the same problem yields the same key; a different
        problem does not collide."""
        a = make_plan((27, 27, 27, 27), (2, 3, 0, 1))
        b = make_plan((27, 27, 27, 27), (2, 3, 0, 1))
        c = make_plan((27, 27, 27, 27), (3, 0, 2, 1))

        def key(plan):
            return content_key(
                plan.layout.dims, plan.perm.mapping, plan.elem_bytes,
                plan.kernel.spec,
            )

        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_golden_key(self):
        """The exact string: it keys every existing ``plans.json``, so
        it must never move."""
        assert content_key((16, 8, 4), (2, 0, 1), 8, KEPLER_K40C) == (
            "16x8x4|2,0,1|8|Tesla K40c (simulated)|660f9a66aa8c5182"
        )
        assert content_key([64, 32, 16, 16], [3, 2, 1, 0], 4, PASCAL_P100) == (
            "64x32x16x16|3,2,1,0|4|Tesla P100 (simulated)|791880712903d402"
        )

    def test_store_entries_are_keyed_by_content_key(self, tmp_path):
        plan = make_plan((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C, ORACLE)
        store = PlanStore(tmp_path / "plans.json")
        store.put(plan)
        assert store.keys() == [content_key((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C)]


class TestOlderFiles:
    def test_artifacts_section_is_ignored_and_plans_restore(self, tmp_path):
        """A file from before the descriptor cache left the store still
        carries nest descriptors under ``artifacts``: its plans restore,
        nothing is quarantined, and the next flush drops the section."""
        problems = [((8, 8, 8), (2, 1, 0)), ((16, 4, 8), (1, 2, 0))]
        entries = {
            content_key(d, p, 8, KEPLER_K40C): serialize_plan(
                make_plan(d, p, 8, KEPLER_K40C, ORACLE)
            )
            for d, p in problems
        }
        descriptor = {
            "codegen_version": 3, "in_shape": [64, 32, 32, 32],
            "axes": [3, 2, 1, 0], "elem_bytes": 8, "tiles": [32, 32, 32, 64],
            "order": [0, 3], "cost": 1.0, "cache_budget": 786432,
            "search_ms": 0.4, "micro": "direct", "stage": None,
        }
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({
            "store_version": STORE_VERSION,
            "entries": entries,
            "artifacts": {"nest3|64x32x32x32|3,2,1,0|8": descriptor},
        }))
        with TransposeService(
            predictor=ORACLE, store_path=path, num_streams=1
        ) as service:
            for dims, perm in problems:
                service.plan(dims, perm)
            counters = service.metrics.counters()
            assert counters["plans_restored"] == len(problems)
            assert "plans_built" not in counters
            assert service.store.corrupt_entries == 0
            assert not service.store.recovered_from_corruption
            service.store.put(make_plan((4, 4), (1, 0), 8, KEPLER_K40C, ORACLE))
        assert set(json.loads(path.read_text())) == {"store_version", "entries"}


class TestFlush:
    def test_concurrent_autoflushed_puts(self, tmp_path):
        """Writers flushing at once never remove each other's temp file,
        and the last write holds every entry."""
        plans = [
            make_plan((4 + i, 8), (1, 0), 8, KEPLER_K40C, ORACLE)
            for i in range(4 * 30)
        ]
        path = tmp_path / "plans.json"
        store = PlanStore(path)
        errors = []

        def writer(chunk):
            try:
                for plan in chunk:
                    store.put(plan)
            except OSError as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(plans[i::4],))
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(PlanStore(path)) == len(plans)
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_rename_is_retried_on_close(self, tmp_path, monkeypatch):
        """A full disk at the rename: planning still answers, the error
        is counted, no temp file is left, and close() writes the entry."""
        real_replace = os.replace
        failures = []

        def replace_failing_once(src, dst):
            if not failures:
                failures.append(dst)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_once)
        path = tmp_path / "plans.json"
        service = TransposeService(predictor=ORACLE, store_path=path, num_streams=1)
        plan = service.plan((8, 8, 8), (2, 1, 0))
        assert plan.schema is not None
        assert service.metrics.counter("store_errors") == 1
        assert failures and not path.exists()
        assert not list(tmp_path.glob("*.tmp"))
        service.close()
        assert PlanStore(path).get((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C) is not None
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptionRecovery:
    def test_unreadable_file_is_quarantined(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{not json at all")
        store = PlanStore(path)
        assert len(store) == 0
        assert store.recovered_from_corruption
        assert path.with_suffix(".json.corrupt").exists()
        # The store is fully usable afterwards.
        store.put(make_plan((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C, ORACLE))
        assert len(PlanStore(path)) == 1

    def test_version_mismatch_is_quarantined(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"store_version": 999, "entries": {}}))
        store = PlanStore(path)
        assert len(store) == 0
        assert store.recovered_from_corruption

    def test_bad_entries_are_dropped_on_load(self, tmp_path):
        plan = make_plan((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C, ORACLE)
        path = tmp_path / "plans.json"
        good = PlanStore(path)
        good.put(plan)
        payload = json.loads(path.read_text())
        payload["entries"]["junk-key"] = 42
        payload["entries"]["junk-key-2"] = {"no": "schema"}
        path.write_text(json.dumps(payload))

        store = PlanStore(path)
        assert len(store) == 1
        assert store.corrupt_entries == 2
        assert store.get((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C) is not None

    def test_malformed_entry_on_get_is_dropped(self, tmp_path):
        plan = make_plan((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C, ORACLE)
        path = tmp_path / "plans.json"
        store = PlanStore(path)
        store.put(plan)
        payload = json.loads(path.read_text())
        (key,) = payload["entries"]
        payload["entries"][key]["kernel_params"] = {"garbage": True}
        path.write_text(json.dumps(payload))

        reopened = PlanStore(path)
        assert reopened.get((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C) is None
        assert reopened.corrupt_entries == 1
        assert len(reopened) == 0  # entry was evicted, not retried forever

    def test_store_version_constant_in_file(self, tmp_path):
        path = tmp_path / "plans.json"
        store = PlanStore(path)
        store.put(make_plan((8, 8, 8), (2, 1, 0), 8, KEPLER_K40C, ORACLE))
        assert json.loads(path.read_text())["store_version"] == STORE_VERSION


class TestWarmRestart:
    """Fig. 12 in runtime terms: a warm store restores the repeated-use
    bandwidth immediately after a process restart, skipping the planning
    search whose amortization Fig. 12 sweeps over call counts."""

    DIMS = (16,) * 6
    PERM = (4, 1, 2, 5, 3, 0)  # Fig. 12b's plan-heavy permutation

    def test_warm_store_reproduces_repeated_call_speedup(self, tmp_path):
        store_path = tmp_path / "plans.json"
        with TransposeService(
            predictor=ORACLE, store_path=store_path, num_streams=2
        ) as cold:
            plan = cold.plan(self.DIMS, self.PERM)
            cold_counters = cold.metrics.snapshot()["counters"]
        assert cold_counters["plans_built"] == 1

        # "Process restart": a fresh service warm-starts from the store.
        with TransposeService(
            predictor=ORACLE, store_path=store_path, num_streams=2
        ) as warm:
            restored = warm.plan(self.DIMS, self.PERM)
            warm_counters = warm.metrics.snapshot()["counters"]
        assert warm_counters.get("plans_built", 0) == 0
        assert warm_counters["plans_restored"] == 1

        # Bench_fig12 terms: the first call of a cold process pays
        # plan + kernel (single-use bandwidth); the warm process's first
        # call achieves the fully amortized repeated-use bandwidth.
        single_use = plan.bandwidth_gbps(repeats=1, include_plan=True)
        amortized = plan.bandwidth_gbps(repeats=4096, include_plan=True)
        warm_first_call = restored.bandwidth_gbps(repeats=1, include_plan=False)
        assert warm_first_call > 2 * single_use
        assert warm_first_call == pytest.approx(amortized, rel=0.05)
        # And the restored plan is the same plan, not a lookalike.
        assert restored.schema == plan.schema
        assert restored.simulated_time() == pytest.approx(
            plan.simulated_time(), rel=1e-12
        )
