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

The table has a **backend axis**: cells are keyed
``backend:kind|2^cls`` and :meth:`ThroughputCalibrator.choose_backend`
picks between backends for the cells where the router has a real
choice (large indexed/chunked programs), by the same
explore-then-exploit rule ``choose`` uses for ``parts``.  The scheduler
routes between ``thread`` and ``codegen`` — the same thread pool, but
running a generated cache-blocked loop nest
(:mod:`repro.kernels.codegen`) instead of the index-map program.  Cells
under any other backend name (such as ``process:`` cells written by
older versions) are kept on load but never consulted.

A backend can turn out not to *exist* for a cell: the
nest search may judge a geometry unprofitable and fall back.  The
scheduler reports that with :meth:`ThroughputCalibrator
.mark_unavailable`, which pins the cell off that backend so
``choose_backend`` never explores it again (otherwise the explore rule
would retry the doomed backend forever).  Unavailability persists with
the measurements.

The v3 table turns exploitation **Bayesian**: each candidate keeps a
Welford running mean/variance of its per-run throughput, and once the
fixed minimum-sample explore pass finishes, :meth:`choose` and
:meth:`choose_backend` pick the **UCB** argmax — measured throughput
plus ``ucb_beta`` standard errors — so a candidate whose few samples
were noisy keeps earning re-measurement while consistently-measured
cells lock in.  With zero observed variance UCB degenerates to the old
plain argmax, so low-noise hosts behave exactly as before.  v2 tables
migrate in place (aggregate throughput becomes the mean, variance
starts at zero); v1 and corrupt tables are still discarded.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from threading import Lock
from typing import Dict, List, Optional, Sequence, Set, Union

#: Version 2 added the backend axis to the cell keys (v1 files would
#: alias thread and process measurements, so they are discarded on
#: load).  Version 3 added per-candidate Welford mean/variance of the
#: per-run throughput for UCB exploit; v2 files migrate losslessly.
AUTOTUNE_VERSION = 3

#: The cell-key backend prefix used when the caller does not say —
#: the thread pool running the compiled program as is.
DEFAULT_BACKEND = "thread"

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

    Cells are keyed by ``(backend, program kind, log2 size class of the
    moved payload bytes)``.  :meth:`choose` returns the first
    under-sampled candidate (exploration, in ascending order) until
    every candidate of the cell has ``min_samples`` measurements, then
    the candidate with the highest **upper confidence bound** on the
    measured bytes/second — throughput plus ``ucb_beta`` standard
    errors of its per-run samples (Bayesian exploitation: noisy
    candidates stay in contention, stable ones lock in);
    :meth:`choose_backend` applies the same rule across the
    ``backends`` the scheduler runs.  :meth:`record` feeds a finished
    run back in.  Thread-safe; state optionally persists to ``path``
    (atomic JSON, corruption-tolerant, v2 tables migrate in place).
    """

    def __init__(
        self,
        pool_size: int,
        path: Optional[Union[str, Path]] = None,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        autoflush: bool = False,
        backends: Sequence[str] = (DEFAULT_BACKEND,),
        ucb_beta: float = DEFAULT_UCB_BETA,
    ):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        if not backends:
            raise ValueError("at least one backend is required")
        if ucb_beta < 0:
            raise ValueError(f"ucb_beta must be >= 0, got {ucb_beta}")
        self.pool_size = pool_size
        self.candidates = parts_candidates(pool_size)
        self.backends = tuple(backends)
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
        #: Cell keys whose backend declined the work (codegen fallback):
        #: choose_backend skips these instead of exploring them forever.
        self._unavailable: Set[str] = set()
        self._dirty = False
        if self.path is not None:
            self._load()

    # ---- keying ------------------------------------------------------
    @staticmethod
    def size_class(total_bytes: int) -> int:
        """Log2 bucket of the payload size (0 for <= 1 byte)."""
        return max(0, int(total_bytes) - 1).bit_length()

    def _key(
        self, kind: str, total_bytes: int, backend: str = DEFAULT_BACKEND
    ) -> str:
        return f"{backend}:{kind}|2^{self.size_class(total_bytes)}"

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
        the plain argmax the pre-v3 table used.
        """
        n = stats["count"]
        bonus = 0.0
        if n > 1 and self.ucb_beta > 0:
            var = max(stats.get("m2_bps", 0.0), 0.0) / (n - 1)
            bonus = self.ucb_beta * math.sqrt(var / n)
        return self._bps(stats) + bonus

    # ---- choose / record --------------------------------------------
    def choose(
        self, kind: str, total_bytes: int, backend: str = DEFAULT_BACKEND
    ) -> int:
        """The ``parts`` to run with: explore until calibrated, then
        the UCB argmax over the measured candidates."""
        key = self._key(kind, total_bytes, backend)
        with self._lock:
            cell = self._cells.get(key, {})
            for p in self.candidates:
                stats = cell.get(str(p))
                if stats is None or stats["count"] < self.min_samples:
                    return p
            return max(self.candidates, key=lambda p: self._ucb(cell[str(p)]))

    def _best_bps(self, cell: Dict[str, dict]) -> float:
        """Highest calibrated measured throughput in a cell (lock held)."""
        best = -1.0
        for s in cell.values():
            if s["count"] >= self.min_samples:
                best = max(best, self._bps(s))
        return best

    def _best_ucb(self, cell: Dict[str, dict]) -> float:
        """Highest calibrated UCB score in a cell (lock held)."""
        best = -1.0
        for s in cell.values():
            if s["count"] >= self.min_samples:
                best = max(best, self._ucb(s))
        return best

    def choose_backend(
        self,
        kind: str,
        total_bytes: int,
        among: Optional[Sequence[str]] = None,
    ) -> str:
        """The execution backend to run with, among ``self.backends``.

        Same explore-then-exploit shape as :meth:`choose`, one level
        up: while any backend's cell is still exploring ``parts``, that
        backend runs next (so both sides of the crossover get measured);
        once every backend is calibrated, the one whose best candidate
        measured the highest bytes/second wins.  ``among`` restricts
        the contest to the backends the caller's routing rules left
        eligible for this job (the scheduler excludes, e.g., codegen
        for payloads below its size floor); backends a
        fallback declared unavailable for the cell are always skipped.
        """
        backends = [
            b for b in self.backends if among is None or b in among
        ]
        if not backends:
            backends = [self.backends[0]]
        if len(backends) == 1:
            return backends[0]
        with self._lock:
            scored = []
            for backend in backends:
                key = self._key(kind, total_bytes, backend)
                if key in self._unavailable:
                    continue
                cell = self._cells.get(key, {})
                for p in self.candidates:
                    stats = cell.get(str(p))
                    if stats is None or stats["count"] < self.min_samples:
                        return backend
                scored.append((self._best_ucb(cell), backend))
            if not scored:
                return backends[0]
            return max(scored)[1]

    def mark_unavailable(
        self, kind: str, total_bytes: int, backend: str
    ) -> None:
        """Pin a cell off a backend that declined the work.

        The codegen router calls this when the nest search judges a
        geometry unprofitable: the job silently ran on the thread
        backend instead, so leaving the ``codegen`` cell unmeasured
        would make :meth:`choose_backend` re-explore it on every later
        request.  Persisted alongside the measurements.
        """
        key = self._key(kind, total_bytes, backend)
        with self._lock:
            if key not in self._unavailable:
                self._unavailable.add(key)
                self._dirty = True
        if self.autoflush:
            self.flush()

    def backend_wins(self) -> Dict[str, Dict[str, int]]:
        """Per program kind, how many calibrated cells each backend wins.

        The CLI's codegen-vs-indexed scoreboard: a cell counts for the
        backend whose best calibrated candidate measured the highest
        throughput among all backends sharing that ``kind|2^cls`` cell
        (cells still exploring, or with a single contender, are
        skipped).
        """
        with self._lock:
            grouped: Dict[str, Dict[str, float]] = {}
            for key, cell in self._cells.items():
                backend, _, rest = key.partition(":")
                best = self._best_bps(cell)
                if best < 0:
                    continue
                grouped.setdefault(rest, {})[backend] = best
            wins: Dict[str, Dict[str, int]] = {}
            for rest, per_backend in grouped.items():
                if len(per_backend) < 2:
                    continue
                kind = rest.split("|", 1)[0]
                winner = max(per_backend.items(), key=lambda kv: kv[1])[0]
                wins.setdefault(kind, {})
                wins[kind][winner] = wins[kind].get(winner, 0) + 1
            return wins

    def record(
        self,
        kind: str,
        total_bytes: int,
        parts: int,
        seconds: float,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        """Feed one finished run's wall time back into the table."""
        if seconds <= 0 or parts <= 0:
            return
        key = self._key(kind, total_bytes, backend)
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
            delta = run_bps - stats.get("mean_bps", 0.0)
            stats["mean_bps"] = stats.get("mean_bps", 0.0) + delta / stats["count"]
            stats["m2_bps"] = stats.get("m2_bps", 0.0) + delta * (
                run_bps - stats["mean_bps"]
            )
            self._dirty = True
        if self.autoflush:
            self.flush()

    def calibrated(
        self, kind: str, total_bytes: int, backend: str = DEFAULT_BACKEND
    ) -> bool:
        """Whether :meth:`choose` has left exploration for this cell."""
        key = self._key(kind, total_bytes, backend)
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
                "backends": list(self.backends),
                "min_samples": self.min_samples,
                "ucb_beta": self.ucb_beta,
                "path": str(self.path) if self.path else None,
                "unavailable": sorted(self._unavailable),
                "cells": cells,
            }

    def reset(self) -> None:
        with self._lock:
            self._cells.clear()
            self._unavailable.clear()
            self._dirty = True

    # ---- persistence -------------------------------------------------
    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("autotune_version") not in (2, AUTOTUNE_VERSION)
            or payload.get("pool_size") != self.pool_size
        ):
            # A foreign pool shape measured different candidates; its
            # numbers would mislead choose().  v1 tables (no backend
            # prefix) would alias thread/process cells.  Start fresh.
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
                    count = int(s["count"])
                    total_s = float(s["total_s"])
                    total_bytes = float(s["total_bytes"])
                    # v2 cells (and hand-trimmed v3 files) carry no
                    # throughput moments: seed the mean from the
                    # aggregate and the variance from zero, which is
                    # exactly the lossless "no spread observed yet"
                    # migration — UCB then equals the old argmax until
                    # fresh runs land.
                    mean_bps = float(
                        s.get("mean_bps", total_bytes / max(total_s, 1e-12))
                    )
                    m2_bps = max(float(s.get("m2_bps", 0.0)), 0.0)
                    clean[str(int(p_str))] = {
                        "count": count,
                        "total_s": total_s,
                        "total_bytes": total_bytes,
                        "mean_bps": mean_bps,
                        "m2_bps": m2_bps,
                    }
                except (KeyError, TypeError, ValueError):
                    continue
            if clean:
                self._cells[key] = clean
        unavailable = payload.get("unavailable", [])
        if isinstance(unavailable, list):
            self._unavailable.update(
                k for k in unavailable if isinstance(k, str)
            )
        if payload.get("autotune_version") != AUTOTUNE_VERSION:
            self._dirty = True  # rewrite migrated tables in v3 form

    def flush(self) -> None:
        """Atomically persist the table (no-op without a path)."""
        if self.path is None:
            return
        with self._lock:
            payload = {
                "autotune_version": AUTOTUNE_VERSION,
                "pool_size": self.pool_size,
                "unavailable": sorted(self._unavailable),
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
