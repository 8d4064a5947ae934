"""Concurrency and scheduling tests for the transpose-serving runtime."""

import threading

import numpy as np
import pytest

import repro.core.cache as cache_mod
from repro.core.api import transpose as api_transpose
from repro.gpusim.spec import KEPLER_K40C, PASCAL_P100
from repro.model.pretrained import oracle_predictor
from repro.runtime import (
    SingleFlight,
    StreamScheduler,
    TransposeService,
    get_default_service,
    set_default_service,
)

ORACLE = oracle_predictor()

PROBLEMS = [
    ((8, 8, 8), (2, 1, 0)),
    ((16, 4, 8), (1, 2, 0)),
    ((8, 8, 8, 8), (0, 3, 1, 2)),
]


class TestExactlyOncePlanning:
    def test_hammer_overlapping_keys(self, monkeypatch):
        """8 threads x overlapping keys -> one make_plan call per key."""
        builds = []
        build_lock = threading.Lock()
        real_make_plan = cache_mod.make_plan

        def counting_make_plan(dims, perm, *args, **kwargs):
            with build_lock:
                builds.append((tuple(dims), tuple(perm)))
            return real_make_plan(dims, perm, *args, **kwargs)

        monkeypatch.setattr(cache_mod, "make_plan", counting_make_plan)

        n_threads, rounds = 8, 5
        service = TransposeService(predictor=ORACLE, num_streams=2)
        barrier = threading.Barrier(n_threads)
        failures = []

        def client():
            try:
                barrier.wait()
                for _ in range(rounds):
                    for dims, perm in PROBLEMS:
                        service.plan(dims, perm)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=client) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()

        assert not failures
        # Exactly-once construction per distinct key.
        assert sorted(set(builds)) == sorted(PROBLEMS)
        assert len(builds) == len(PROBLEMS)
        counters = service.metrics.snapshot()["counters"]
        assert counters["plans_built"] == len(PROBLEMS)
        assert counters["cache_misses"] == len(PROBLEMS)
        expected = n_threads * rounds * len(PROBLEMS)
        assert counters["plan_requests"] == expected
        assert counters["cache_hits"] + counters["cache_misses"] + counters.get(
            "requests_coalesced", 0
        ) == expected

    def test_single_flight_leader_failure_propagates_then_retries(self):
        flight = SingleFlight()
        calls = []

        def boom():
            calls.append("boom")
            raise RuntimeError("planning failed")

        with pytest.raises(RuntimeError):
            flight.do("k", boom)
        # The flight retired: a later call retries instead of caching the error.
        value, leader = flight.do("k", lambda: 42)
        assert (value, leader) == (42, True)
        assert flight.in_flight() == 0


class TestScheduler:
    def test_outputs_match_numpy_across_streams(self):
        service = TransposeService(predictor=ORACLE, num_streams=3)
        rng = np.random.default_rng(0)
        arrays = [
            rng.random((4, 6, 8)),
            rng.random((8, 3, 5)),
            rng.random((2, 7, 9)),
        ]
        futures, expected = [], []
        for a in arrays:
            for axes in [(2, 0, 1), (1, 2, 0), (2, 1, 0)]:
                dims = a.shape[::-1]
                from repro.core.api import axes_to_perm

                futures.append(
                    service.submit(
                        dims, axes_to_perm(axes), 8, payload=a.reshape(-1)
                    )
                )
                expected.append(np.transpose(a, axes).reshape(-1))
        for fut, want in zip(futures, expected):
            report = fut.result(timeout=60)
            assert np.array_equal(report.output, want)
            assert report.sim_time_s > 0
            assert 0 <= report.stream < 3
        snap = service.scheduler.snapshot()
        assert sum(snap["jobs_done"]) == len(futures)
        assert sum(snap["sim_clock_s"]) > 0
        service.close()

    def test_timing_only_jobs_advance_sim_clocks(self):
        service = TransposeService(predictor=ORACLE, num_streams=2)
        for _ in range(4):
            report = service.execute((8, 8, 8), (2, 1, 0))
            assert report.output is None
            assert report.sim_time_s > 0
        counters = service.metrics.snapshot()["counters"]
        assert counters["executions_completed"] == 4
        hists = service.metrics.snapshot()["histograms"]
        schema = service.plan((8, 8, 8), (2, 1, 0)).schema.value
        assert hists[f"sim_s.{schema}"]["count"] == 4
        assert hists[f"wall_s.{schema}"]["count"] == 4
        service.close()

    def test_multi_device_streams(self):
        scheduler = StreamScheduler(
            num_streams=2, devices=[KEPLER_K40C, PASCAL_P100]
        )
        assert scheduler.snapshot()["devices"] == [
            KEPLER_K40C.name,
            PASCAL_P100.name,
        ]
        scheduler.shutdown()

    def test_submit_after_shutdown_raises(self):
        service = TransposeService(predictor=ORACLE, num_streams=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.plan((8, 8), (1, 0))

    def test_invalid_stream_count(self):
        with pytest.raises(ValueError):
            StreamScheduler(num_streams=0)


class TestServiceApi:
    def test_transpose_matches_numpy(self):
        with TransposeService(predictor=ORACLE, num_streams=2) as service:
            a = np.arange(4 * 5 * 6, dtype=np.float64).reshape(4, 5, 6)
            out = service.transpose(a, (2, 0, 1))
            assert np.array_equal(out, np.transpose(a, (2, 0, 1)))

    def test_stats_shape(self):
        with TransposeService(predictor=ORACLE, num_streams=2) as service:
            service.execute((8, 8, 8), (2, 1, 0))
            stats = service.stats()
        assert stats["cache"]["misses"] == 1
        assert stats["scheduler"]["num_streams"] == 2
        assert stats["store"] is None
        assert stats["metrics"]["counters"]["plans_built"] == 1

    def test_store_and_store_path_conflict(self, tmp_path):
        from repro.runtime import PlanStore

        store = PlanStore(tmp_path / "a.json")
        with pytest.raises(ValueError):
            TransposeService(store=store, store_path=tmp_path / "b.json")

    def test_default_service_routes_api(self):
        service = TransposeService(predictor=ORACLE, num_streams=2)
        previous = set_default_service(service)
        try:
            a = np.arange(3 * 4 * 5, dtype=np.float64).reshape(3, 4, 5)
            out = api_transpose(a, (2, 0, 1))
            assert np.array_equal(out, np.transpose(a, (2, 0, 1)))
            counters = service.metrics.snapshot()["counters"]
            assert counters["plan_requests"] == 1
            # Explicit predictors bypass the shared service.
            api_transpose(a, (1, 0, 2), predictor=ORACLE)
            assert service.metrics.counter("plan_requests") == 1
        finally:
            set_default_service(previous)
            service.close()
        assert get_default_service() is previous


class TestPayloadValidation:
    def test_submit_rejects_wrong_element_count(self):
        from repro.errors import InvalidLayoutError

        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            with pytest.raises(InvalidLayoutError, match="60"):
                service.submit((4, 3, 5), (2, 0, 1), payload=np.zeros(59))

    def test_submit_rejects_dtype_disagreement(self):
        from repro.errors import InvalidLayoutError

        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            with pytest.raises(InvalidLayoutError, match="elem_bytes"):
                service.submit(
                    (4, 3, 5), (2, 0, 1),
                    payload=np.zeros(60, dtype=np.float32),
                )
            # Matching elem_bytes passes.
            service.execute(
                (4, 3, 5), (2, 0, 1), elem_bytes=4,
                payload=np.zeros(60, dtype=np.float32),
            )

    def test_batched_rejects_bad_payload_before_scheduling(self):
        from repro.errors import InvalidLayoutError

        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            with pytest.raises(InvalidLayoutError):
                service.submit_batched((4, 4), (1, 0), payload=np.zeros(15))
            assert service.metrics.counter("batch_requests") == 0


class TestOutParameter:
    """``out=``: the transpose lands in caller-provided storage (how the
    zero-copy serving path points execution at an arena lease)."""

    def test_out_receives_transpose_and_is_the_report_output(self):
        rng = np.random.default_rng(21)
        dims, perm = (4, 5, 6), (2, 0, 1)
        src = rng.standard_normal(int(np.prod(dims)))
        dest = np.empty_like(src)
        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            expected = np.asarray(
                service.execute(dims, perm, payload=src).output
            ).copy()
            report = service.submit(dims, perm, payload=src, out=dest).result(
                timeout=60
            )
        np.testing.assert_array_equal(dest, expected)
        # No arena block is leased: the report's output is a view over
        # the caller's buffer, not a fresh allocation.
        assert np.shares_memory(np.asarray(report.output), dest)
        report.release()  # a no-op for caller-owned storage
        np.testing.assert_array_equal(dest, expected)

    def test_out_without_payload_rejected(self):
        from repro.errors import InvalidLayoutError

        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            with pytest.raises(InvalidLayoutError, match="payload"):
                service.submit((4, 3, 5), (2, 0, 1), out=np.zeros(60))

    def test_out_wrong_volume_rejected(self):
        from repro.errors import InvalidLayoutError

        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            with pytest.raises(InvalidLayoutError):
                service.submit(
                    (4, 3, 5), (2, 0, 1),
                    payload=np.zeros(60), out=np.zeros(59),
                )


class TestBatchedService:
    def test_batched_outputs_match_single_requests(self):
        rng = np.random.default_rng(7)
        dims, perm = (6, 5, 7), (2, 0, 1)
        srcs = [rng.standard_normal(210) for _ in range(4)]
        with TransposeService(
            predictor=ORACLE, num_streams=2,
            batch_window_s=30.0, batch_max=4,
        ) as service:
            refs = [service.execute(dims, perm, payload=s).output for s in srcs]
            futs = [service.submit_batched(dims, perm, payload=s) for s in srcs]
            reports = [f.result(timeout=30) for f in futs]
            for report, ref in zip(reports, refs):
                assert report.batch == 4
                np.testing.assert_array_equal(report.output, ref)

    def test_batched_requires_payload(self):
        from repro.errors import InvalidLayoutError

        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            with pytest.raises(InvalidLayoutError):
                service.submit_batched((4, 4), (1, 0), payload=None)

    def test_distinct_problems_do_not_coalesce(self):
        rng = np.random.default_rng(8)
        with TransposeService(
            predictor=ORACLE, num_streams=2,
            batch_window_s=0.02, batch_max=64,
        ) as service:
            f1 = service.submit_batched(
                (4, 3, 5), (2, 0, 1), payload=rng.standard_normal(60)
            )
            f2 = service.submit_batched(
                (5, 4, 3), (1, 2, 0), payload=rng.standard_normal(60)
            )
            r1, r2 = f1.result(timeout=30), f2.result(timeout=30)
            assert r1.batch == 1 and r2.batch == 1
            assert service.metrics.counter("batch_flushes") == 2
            assert service.metrics.counter("batch_coalesced") == 0

    def test_close_drains_open_batch_window(self):
        rng = np.random.default_rng(9)
        service = TransposeService(
            predictor=ORACLE, num_streams=2,
            batch_window_s=30.0, batch_max=64,
        )
        fut = service.submit_batched(
            (4, 3, 5), (2, 0, 1), payload=rng.standard_normal(60)
        )
        service.close()  # window never expired; close flushes it
        assert fut.result(timeout=30).batch == 1
