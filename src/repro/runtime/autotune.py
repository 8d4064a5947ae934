"""Online throughput calibration for partitioned/batched execution.

``submit_partitioned`` historically required the caller to guess
``parts=`` — how many disjoint tasks to fan one program across the
worker pool.  The right answer depends on the program kind (a view
chain's strided copies release the GIL very differently from a fused
gather), on the problem size (small moves are dominated by task
dispatch, large ones by bandwidth), and on the host — none of which a
caller can know.  cuTT ships heuristics tuned offline for exactly this
choice; here the heuristic is *measured online*: the first runs of each
``(kind, size-class)`` cell round-robin through a small candidate set
of part counts, the observed wall-clock throughput is recorded, and
every later run exploits the measured argmax.

The calibration table persists as JSON next to the plan store
(``autotune.json``), so a restarted process starts exploited, not
exploring — the same across-restart amortization the plan store gives
planning.

Each candidate keeps a Welford running mean/variance of its per-run
throughput, and once the fixed minimum-sample explore pass finishes,
:meth:`~ThroughputCalibrator.choose` picks the **UCB** argmax —
measured throughput plus ``ucb_beta`` standard errors — so a candidate
whose few samples were noisy keeps earning re-measurement while
consistently-measured cells lock in.  With zero observed variance UCB
degenerates to the plain argmax.  Cells are keyed by program kind and
payload size class only: which program runs is the lowering rule's
decision (:func:`~repro.kernels.executor.compile_executor`), not the
calibrator's.  Tables of any other version are discarded on load.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from threading import Lock
from typing import Dict, List, Optional, Union

#: Version 4 dropped the backend axis from the cell keys; tables of
#: any other version start fresh.
AUTOTUNE_VERSION = 4

#: Measurements per (cell, candidate) before the calibrator stops
#: exploring that candidate.
DEFAULT_MIN_SAMPLES = 2

#: Standard-error multiplier on the UCB exploration bonus.  2.0 keeps a
#: noisy candidate in contention until its mean is pinned down to about
#: two standard errors; 0.0 recovers the pre-v3 plain argmax.
DEFAULT_UCB_BETA = 2.0


def parts_candidates(pool_size: int) -> List[int]:
    """Candidate part counts: powers of two up to the pool, plus the
    pool size itself — a tiny grid that still brackets the optimum."""
    out = {1, max(1, pool_size)}
    p = 2
    while p < pool_size:
        out.add(p)
        p *= 2
    return sorted(out)


class ThroughputCalibrator:
    """Measured-throughput table choosing ``parts`` per program kind.

    Cells are keyed by ``(program kind, log2 size class of the moved
    payload bytes)``.  :meth:`choose` returns the first
    under-sampled candidate (exploration, in ascending order) until
    every candidate of the cell has ``min_samples`` measurements, then
    the candidate with the highest **upper confidence bound** on the
    measured bytes/second — throughput plus ``ucb_beta`` standard
    errors of its per-run samples (Bayesian exploitation: noisy
    candidates stay in contention, stable ones lock in).
    :meth:`record` feeds a finished run back in.  Thread-safe; state
    optionally persists to ``path`` (atomic JSON, corruption-tolerant).
    """

    def __init__(
        self,
        pool_size: int,
        path: Optional[Union[str, Path]] = None,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        autoflush: bool = False,
        ucb_beta: float = DEFAULT_UCB_BETA,
    ):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        if ucb_beta < 0:
            raise ValueError(f"ucb_beta must be >= 0, got {ucb_beta}")
        self.pool_size = pool_size
        self.candidates = parts_candidates(pool_size)
        self.min_samples = max(1, min_samples)
        self.ucb_beta = float(ucb_beta)
        self.path = Path(path) if path is not None else None
        self.autoflush = autoflush
        self._lock = Lock()
        #: cell key -> {str(parts): {"count": int, "total_s": float,
        #:   "total_bytes": float, "mean_bps": float, "m2_bps": float}}
        #: where mean/m2 are the Welford running moments of per-run
        #: bytes/second (m2 = sum of squared deviations).
        self._cells: Dict[str, Dict[str, dict]] = {}
        self._dirty = False
        if self.path is not None:
            self._load()

    # ---- keying ------------------------------------------------------
    @staticmethod
    def size_class(total_bytes: int) -> int:
        """Log2 bucket of the payload size (0 for <= 1 byte)."""
        return max(0, int(total_bytes) - 1).bit_length()

    def _key(self, kind: str, total_bytes: int) -> str:
        return f"{kind}|2^{self.size_class(total_bytes)}"

    # ---- scoring -----------------------------------------------------
    @staticmethod
    def _bps(stats: dict) -> float:
        """Aggregate measured throughput of one candidate's samples."""
        return stats["total_bytes"] / max(stats["total_s"], 1e-12)

    def _ucb(self, stats: dict) -> float:
        """Upper confidence bound on a candidate's throughput.

        Aggregate bytes/second plus ``ucb_beta`` standard errors of the
        per-run throughput samples.  One sample (or zero variance)
        contributes no bonus, so deterministic measurements reduce to
        the plain argmax.
        """
        n = stats["count"]
        bonus = 0.0
        if n > 1 and self.ucb_beta > 0:
            var = max(stats.get("m2_bps", 0.0), 0.0) / (n - 1)
            bonus = self.ucb_beta * math.sqrt(var / n)
        return self._bps(stats) + bonus

    # ---- choose / record --------------------------------------------
    def choose(self, kind: str, total_bytes: int) -> int:
        """The ``parts`` to run with: explore until calibrated, then
        the UCB argmax over the measured candidates."""
        key = self._key(kind, total_bytes)
        with self._lock:
            cell = self._cells.get(key, {})
            for p in self.candidates:
                stats = cell.get(str(p))
                if stats is None or stats["count"] < self.min_samples:
                    return p
            return max(self.candidates, key=lambda p: self._ucb(cell[str(p)]))

    def record(
        self,
        kind: str,
        total_bytes: int,
        parts: int,
        seconds: float,
    ) -> None:
        """Feed one finished run's wall time back into the table."""
        if seconds <= 0 or parts <= 0:
            return
        key = self._key(kind, total_bytes)
        run_bps = float(total_bytes) / float(seconds)
        with self._lock:
            cell = self._cells.setdefault(key, {})
            stats = cell.setdefault(
                str(parts),
                {
                    "count": 0,
                    "total_s": 0.0,
                    "total_bytes": 0.0,
                    "mean_bps": 0.0,
                    "m2_bps": 0.0,
                },
            )
            stats["count"] += 1
            stats["total_s"] += float(seconds)
            stats["total_bytes"] += float(total_bytes)
            # Welford update of the per-run throughput moments.
            delta = run_bps - stats["mean_bps"]
            stats["mean_bps"] += delta / stats["count"]
            stats["m2_bps"] += delta * (run_bps - stats["mean_bps"])
            self._dirty = True
        if self.autoflush:
            self.flush()

    def calibrated(self, kind: str, total_bytes: int) -> bool:
        """Whether :meth:`choose` has left exploration for this cell."""
        key = self._key(kind, total_bytes)
        with self._lock:
            cell = self._cells.get(key, {})
            return all(
                cell.get(str(p), {"count": 0})["count"] >= self.min_samples
                for p in self.candidates
            )

    # ---- introspection ----------------------------------------------
    def table(self) -> dict:
        """JSON-friendly snapshot: per cell, per-candidate mean time and
        measured throughput, plus the current winner."""
        with self._lock:
            cells = {}
            for key, cell in sorted(self._cells.items()):
                rows = {}
                best, best_bps = None, -1.0
                for p_str, s in sorted(cell.items(), key=lambda kv: int(kv[0])):
                    bps = s["total_bytes"] / max(s["total_s"], 1e-12)
                    rows[p_str] = {
                        "count": s["count"],
                        "mean_ms": round(s["total_s"] / s["count"] * 1e3, 4),
                        "gbps": round(bps / 1e9, 3),
                    }
                    if s["count"] >= self.min_samples and bps > best_bps:
                        best, best_bps = int(p_str), bps
                cells[key] = {"parts": rows, "best_parts": best}
            return {
                "pool_size": self.pool_size,
                "candidates": self.candidates,
                "min_samples": self.min_samples,
                "ucb_beta": self.ucb_beta,
                "path": str(self.path) if self.path else None,
                "cells": cells,
            }

    def reset(self) -> None:
        with self._lock:
            self._cells.clear()
            self._dirty = True

    # ---- persistence -------------------------------------------------
    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("autotune_version") != AUTOTUNE_VERSION
            or payload.get("pool_size") != self.pool_size
        ):
            # A foreign pool shape measured different candidates; its
            # numbers would mislead choose().  Older tables key cells by
            # backend.  Start fresh.
            return
        cells = payload.get("cells")
        if not isinstance(cells, dict):
            return
        for key, cell in cells.items():
            if not isinstance(cell, dict):
                continue
            clean = {}
            for p_str, s in cell.items():
                try:
                    clean[str(int(p_str))] = {
                        "count": int(s["count"]),
                        "total_s": float(s["total_s"]),
                        "total_bytes": float(s["total_bytes"]),
                        "mean_bps": float(s["mean_bps"]),
                        "m2_bps": max(float(s["m2_bps"]), 0.0),
                    }
                except (KeyError, TypeError, ValueError):
                    continue
            if clean:
                self._cells[key] = clean

    def flush(self) -> None:
        """Atomically persist the table (no-op without a path)."""
        if self.path is None:
            return
        with self._lock:
            payload = {
                "autotune_version": AUTOTUNE_VERSION,
                "pool_size": self.pool_size,
                "cells": {
                    k: {p: dict(s) for p, s in v.items()}
                    for k, v in self._cells.items()
                },
            }
            self._dirty = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)

    def close(self) -> None:
        if self.path is not None and self._dirty:
            self.flush()
