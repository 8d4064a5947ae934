"""ThroughputCalibrator: explore/exploit schedule and persistence.

The calibrator replaces caller-guessed ``parts=``: it must round-robin
the candidate grid until each candidate has ``min_samples``
measurements, then lock onto the measured-throughput argmax, and its
table must survive a process restart (with corrupt or foreign state
discarded rather than trusted).
"""

import json

import pytest

from repro.runtime.autotune import (
    AUTOTUNE_VERSION,
    DEFAULT_MIN_SAMPLES,
    ThroughputCalibrator,
    parts_candidates,
)


def test_parts_candidates_grid():
    assert parts_candidates(1) == [1]
    assert parts_candidates(2) == [1, 2]
    assert parts_candidates(4) == [1, 2, 4]
    assert parts_candidates(6) == [1, 2, 4, 6]
    assert parts_candidates(8) == [1, 2, 4, 8]


def test_size_class_buckets():
    sc = ThroughputCalibrator.size_class
    assert sc(0) == 0 and sc(1) == 0
    assert sc(2) == 1
    assert sc(1024) == 10
    assert sc(1025) == 11


def test_explores_candidates_in_order_then_exploits():
    cal = ThroughputCalibrator(pool_size=4, min_samples=2)
    nbytes = 1 << 20
    choices = []
    for _ in range(6):
        p = cal.choose("view", nbytes)
        choices.append(p)
        # parts=2 is made to look twice as fast as the others.
        cal.record("view", nbytes, p, 0.5 if p == 2 else 1.0)
    assert choices == [1, 1, 2, 2, 4, 4]  # ascending, min_samples each
    assert cal.calibrated("view", nbytes)
    assert cal.choose("view", nbytes) == 2  # measured argmax wins


def test_cells_keyed_by_kind_and_size_class():
    cal = ThroughputCalibrator(pool_size=2, min_samples=1)
    small, large = 1 << 10, 1 << 24
    for p in (1, 2):
        cal.record("view", small, p, 1.0)
        # For large payloads the measured winner is the other candidate.
        cal.record("view", large, p, 1.0 if p == 2 else 4.0)
        cal.record("indexed", small, p, 1.0 if p == 1 else 4.0)
    assert cal.choose("view", large) == 2
    assert cal.choose("indexed", small) == 1
    # Same kind, same size class as an earlier record: independent cell
    # untouched by the other kinds/classes.
    assert not cal.calibrated("nest", small)


def test_record_ignores_degenerate_samples():
    cal = ThroughputCalibrator(pool_size=2)
    cal.record("view", 1024, 1, 0.0)
    cal.record("view", 1024, 0, 1.0)
    assert cal.table()["cells"] == {}


def test_table_snapshot_shape():
    cal = ThroughputCalibrator(pool_size=2, min_samples=1)
    cal.record("view", 1 << 20, 1, 0.001)
    t = cal.table()
    assert t["pool_size"] == 2 and t["candidates"] == [1, 2]
    cell = t["cells"]["view|2^20"]
    assert cell["parts"]["1"]["count"] == 1
    assert cell["parts"]["1"]["gbps"] > 0
    assert cell["best_parts"] == 1  # only sampled candidate so far


def test_persistence_roundtrip(tmp_path):
    path = tmp_path / "autotune.json"
    cal = ThroughputCalibrator(pool_size=4, path=path, min_samples=1)
    for p in (1, 2, 4):
        cal.record("view", 1 << 20, p, 0.5 if p == 4 else 1.0)
    cal.close()  # flushes dirty state
    assert path.exists()

    reborn = ThroughputCalibrator(pool_size=4, path=path, min_samples=1)
    assert reborn.calibrated("view", 1 << 20)
    assert reborn.choose("view", 1 << 20) == 4  # starts exploited


def test_persistence_rejects_foreign_pool_size(tmp_path):
    path = tmp_path / "autotune.json"
    cal = ThroughputCalibrator(pool_size=4, path=path, min_samples=1)
    cal.record("view", 1 << 20, 1, 1.0)
    cal.flush()
    other = ThroughputCalibrator(pool_size=8, path=path, min_samples=1)
    assert other.table()["cells"] == {}  # foreign table discarded


def test_persistence_tolerates_corruption(tmp_path):
    path = tmp_path / "autotune.json"
    path.write_text("{ not json")
    cal = ThroughputCalibrator(pool_size=2, path=path)
    assert cal.table()["cells"] == {}
    path.write_text(json.dumps({"autotune_version": 999, "pool_size": 2}))
    cal = ThroughputCalibrator(pool_size=2, path=path)
    assert cal.table()["cells"] == {}
    # Older tables (v1-v3) keyed cells by backend: discarded wholesale.
    for version in (1, 2, 3):
        path.write_text(
            json.dumps(
                {
                    "autotune_version": version,
                    "pool_size": 2,
                    "cells": {
                        "thread:view|2^20": {
                            "1": {
                                "count": 1,
                                "total_s": 1.0,
                                "total_bytes": 1e6,
                                "mean_bps": 1e6,
                                "m2_bps": 0.0,
                            }
                        }
                    },
                }
            )
        )
        cal = ThroughputCalibrator(pool_size=2, path=path)
        assert cal.table()["cells"] == {}
    path.write_text(
        json.dumps(
            {
                "autotune_version": AUTOTUNE_VERSION,
                "pool_size": 2,
                "cells": {
                    "view|2^20": {
                        "1": {
                            "count": 1,
                            "total_s": 1.0,
                            "total_bytes": 1e6,
                            "mean_bps": 1e6,
                            "m2_bps": 0.0,
                        },
                        "bogus": {"count": "x"},
                    }
                },
            }
        )
    )
    cal = ThroughputCalibrator(pool_size=2, path=path, min_samples=1)
    # The valid entry survives, the corrupt one is dropped.
    assert cal.table()["cells"]["view|2^20"]["parts"] == {
        "1": {"count": 1, "mean_ms": 1000.0, "gbps": 0.001}
    }


def test_validates_pool_size():
    with pytest.raises(ValueError):
        ThroughputCalibrator(pool_size=0)


def test_default_min_samples_positive():
    assert DEFAULT_MIN_SAMPLES >= 1
    cal = ThroughputCalibrator(pool_size=2, min_samples=0)
    assert cal.min_samples == 1  # clamped


def test_reset_clears_table(tmp_path):
    path = tmp_path / "autotune.json"
    cal = ThroughputCalibrator(pool_size=2, path=path, min_samples=1)
    cal.record("view", 1024, 1, 1.0)
    cal.reset()
    assert cal.table()["cells"] == {}
    cal.close()
    reborn = ThroughputCalibrator(pool_size=2, path=path)
    assert reborn.table()["cells"] == {}


class TestV3Migration:
    """Per-candidate throughput moments (UCB exploit) and the table's
    persistence across versions."""

    def test_migrated_cells_keep_accumulating_variance(self, tmp_path):
        """Cells reloaded from disk keep their moments and accumulate."""
        path = tmp_path / "autotune.json"
        cal = ThroughputCalibrator(pool_size=2, path=path, min_samples=1)
        for _ in range(3):
            cal.record("nest", 1 << 22, 2, 1.0)
        cal.close()
        reborn = ThroughputCalibrator(pool_size=2, path=path, min_samples=1)
        stats = reborn._cells["nest|2^22"]["2"]
        assert stats["count"] == 3 and stats["m2_bps"] == 0.0
        reborn.record("nest", 1 << 22, 2, 0.25)
        assert stats["count"] == 4
        assert stats["m2_bps"] > 0  # the new, faster run spread the cell

    def test_truncated_file_fresh_table_and_service_start(self, tmp_path):
        """A half-written autotune.json must not take down service
        construction; the calibrator restarts empty and recalibrates."""
        from repro.runtime.service import TransposeService

        state = tmp_path / "state"
        state.mkdir()
        (state / "autotune.json").write_text(
            json.dumps({"autotune_version": AUTOTUNE_VERSION})[:25]
        )
        with TransposeService(store_path=state / "plans.json") as svc:
            assert svc.autotuner.table()["cells"] == {}
            report = svc.execute(
                (8, 8, 8), (2, 1, 0), 8,
                payload=__import__("numpy").arange(512, dtype=float),
            )
            assert report.output is not None

    def test_ucb_beta_in_table_snapshot(self):
        cal = ThroughputCalibrator(pool_size=2, ucb_beta=1.5)
        assert cal.table()["ucb_beta"] == 1.5

    def test_negative_ucb_beta_rejected(self):
        with pytest.raises(ValueError):
            ThroughputCalibrator(pool_size=2, ucb_beta=-0.1)

    def test_ucb_explores_high_variance_cells(self):
        """With positive beta, a noisy-but-equal-mean candidate ranks
        above a steady one; with beta 0 the tie stands."""
        noisy = ThroughputCalibrator(pool_size=2, min_samples=2, ucb_beta=2.0)
        nbytes = 1 << 20
        # parts=1: two identical runs.  parts=2: same mean, high spread.
        for s in (1.0, 1.0):
            noisy.record("view", nbytes, 1, s)
        for s in (0.5, 1.5):
            noisy.record("view", nbytes, 2, s)
        assert noisy.choose("view", nbytes) == 2
