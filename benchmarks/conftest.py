"""Shared fixtures for the figure/table benches.

Heavy sweeps are computed once per session and cached; each bench then
derives its figure from the cached plans, writes the paper-style table
to ``results/<name>.txt``, and lets pytest-benchmark time a cheap
representative operation (one planning call) so ``--benchmark-only``
still exercises real code.

Set ``REPRO_BENCH_QUICK=1`` to subsample the 720-permutation sweeps
(every 10th case) for fast iterations.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.baselines import CuttHeuristic, CuttMeasure, TTC, TTLG
from repro.baselines.library import LibraryPlan, TransposeLibrary
from repro.bench.suites import BenchCase, six_d_suite

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))


# ----------------------------------------------------------------------
# Shared harness of the standalone `python benchmarks/bench_*.py` scripts
# ----------------------------------------------------------------------


def bench_parser(description: str) -> argparse.ArgumentParser:
    """The uniform CLI every standalone bench shares.

    ``--smoke`` is the CI mode: fewer repeats, gate checks only, no file
    output.  Scripts add their own extra arguments on top.
    """
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: fewer repeats, threshold check, no file output",
    )
    ap.add_argument("--repeats", type=int, default=None)
    return ap


def pick_repeats(args, full: int, smoke: int = 3) -> int:
    """Repeat count: explicit ``--repeats`` wins, else the mode default."""
    if args.repeats is not None:
        return args.repeats
    return smoke if args.smoke else full


def gate(label: str, failures: List[str], smoke: bool = False) -> int:
    """Uniform verdict printing; the exit code for ``main()``.

    Every bench reports threshold violations the same way, so CI logs
    grep identically across benches.
    """
    if failures:
        print(f"{label}:", *failures, sep="\n  ")
        return 1
    if smoke:
        print("smoke thresholds OK")
    return 0


def interleaved_ms(fns: Dict[str, object], repeats: int) -> Dict[str, tuple]:
    """Best/median ms per labelled path, measured round-robin so host
    drift hits every path equally."""
    times: Dict[str, List[float]] = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name].append((time.perf_counter() - t0) * 1e3)
    return {
        name: (min(ts), statistics.median(ts)) for name, ts in times.items()
    }


def env_stamp(gated: bool, gate_reason: str = "") -> Dict[str, object]:
    """The host/environment block every results JSON embeds.

    Trajectory comparisons across machines are meaningless without it:
    a bench may gate its speedup check on the CPU count, and a 1-CPU
    container's numbers must not be read as a regression against an
    8-core run.  ``gated`` records whether the
    bench's performance thresholds were actually enforced on this host,
    and ``gate_reason`` why not.
    """
    import platform
    import sys as _sys

    import numpy as _np

    from repro.kernels.native import compiler_info

    cc = compiler_info()
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _np.__version__,
        "platform": _sys.platform,
        "machine": platform.machine(),
        "cc": cc["path"],
        "cc_version": cc["version"],
        "perf_gated": bool(gated),
        "gate_reason": gate_reason,
    }


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def libraries() -> List[TransposeLibrary]:
    return [TTLG(), CuttHeuristic(), CuttMeasure(), TTC()]


class PlannedSweep:
    """All libraries' plans for every case of one 6D suite."""

    def __init__(self, extent: int, libraries: List[TransposeLibrary]):
        self.extent = extent
        self.cases: List[BenchCase] = six_d_suite(extent)
        if QUICK:
            self.cases = self.cases[::10]
        self.plans: List[Dict[str, LibraryPlan]] = []
        for case in self.cases:
            row: Dict[str, LibraryPlan] = {}
            for lib in libraries:
                row[lib.name] = lib.plan(case.dims, case.perm)
            self.plans.append(row)

    def bandwidths(self, scenario: str) -> List[Dict[str, float]]:
        include_plan = scenario == "single"
        out = []
        for row in self.plans:
            out.append(
                {
                    name: plan.bandwidth_gbps(include_plan=include_plan)
                    for name, plan in row.items()
                    # The paper's single-use charts omit TTC (its plan is
                    # offline code generation).
                    if not (include_plan and name == "TTC")
                }
            )
        return out


_sweep_cache: Dict[int, PlannedSweep] = {}


@pytest.fixture(scope="session")
def sweep_factory(libraries):
    def get(extent: int) -> PlannedSweep:
        if extent not in _sweep_cache:
            _sweep_cache[extent] = PlannedSweep(extent, libraries)
        return _sweep_cache[extent]

    return get


def render_sweep(sweep: PlannedSweep, scenario: str, title: str) -> str:
    """Paper-style chart data: per-case series plus per-rank means."""
    import numpy as np

    from repro.bench.ascii_plot import multi_series

    rows = sweep.bandwidths(scenario)
    libs = list(rows[0].keys())
    lines = [title, f"{len(rows)} cases, extent {sweep.extent}, {scenario} use"]
    # Per-scaled-rank means (the staircase).
    lines.append(
        f"{'scaled rank':>12s} {'#cases':>7s} "
        + " ".join(f"{n:>15s}" for n in libs)
    )
    by_rank: Dict[int, List[Dict[str, float]]] = {}
    for case, row in zip(sweep.cases, rows):
        by_rank.setdefault(case.scaled_rank, []).append(row)
    for rank in sorted(by_rank):
        vals = by_rank[rank]
        cells = " ".join(
            f"{np.mean([v[n] for v in vals]):>15.1f}" for n in libs
        )
        lines.append(f"{rank:>12d} {len(vals):>7d} {cells}")
    # Overall summary.
    lines.append("")
    for n in libs:
        series = [r[n] for r in rows]
        lines.append(
            f"{n:<16s} mean {np.mean(series):7.1f}  "
            f"median {np.median(series):7.1f}  peak {np.max(series):7.1f} GB/s"
        )
    wins = {n: 0 for n in libs}
    ties = 0
    for r in rows:
        best = max(r, key=r.get)
        runner_up = max((v for k, v in r.items() if k != best), default=0.0)
        if r[best] > 1.01 * runner_up:
            wins[best] += 1
        else:
            ties += 1
    lines.append(
        "wins (>1 % margin): "
        + "  ".join(f"{n}={wins[n]}" for n in libs)
        + f"  ties={ties}"
    )
    lines.append("")
    lines.append(
        multi_series(
            {n: [r[n] for r in rows] for n in libs},
            y_label="GB/s",
            x_label="case (sorted by scaled rank)",
        )
    )
    return "\n".join(lines)
