"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py PARENT_SET CHANGE_SET

A set is a directory of runs: one subdirectory per run (ordered by
name, numerically when the names are numbers) holding the
``<workload>.json`` records that ``run.py --out`` writes.  Runs pair up
by position, so make the two sets alternately.

Every end-to-end metric of ``BENCHMARK.json`` gets a row with each
side's median and quartiles, the change in the median, the pairs the
change won, and a verdict:

``unresolved``
    either side's quartile spread is wider than the metric's bound,
    unless every change run beats every parent run (a gain);
``gain``
    the change wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the parent's quartile
    spread;
``worse``
    the change's median is worse than the parent's by more than the
    bound;
``no change``
    otherwise.

An ``error_rate`` row per workload compares failed / attempted; any
increase is ``worse``.  The exit status is 1 when any row is worse.
Comparing an untraced set with a traced one gives the tracing overhead
of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from harness import quartiles

ROOT = Path(__file__).resolve().parent.parent.parent

#: Share of pairs the change must win to claim a gain.
GAIN_PAIR_SHARE = 0.9


def _run_order(path: Path):
    return (0, int(path.name), "") if path.name.isdigit() else (1, 0, path.name)


def load_set(path: Path) -> Dict[str, List[dict]]:
    """Records of one set, per workload, in run order."""
    runs = sorted((d for d in path.iterdir() if d.is_dir()), key=_run_order)
    out: Dict[str, List[dict]] = defaultdict(list)
    for run in runs:
        for f in sorted(run.glob("*.json")):
            with open(f) as fh:
                record = json.load(fh)
            out[record["workload"]].append(record)
    return out


def spread(values: Sequence[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(
    parent: Sequence[float], change: Sequence[float], bound: float, better: str
) -> Tuple[str, int, int]:
    """``(verdict, pairs won, pairs)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    if max(spread(parent), spread(change)) > bound:
        every_run_better = min(sign * c for c in change) > max(
            sign * p for p in parent
        )
        return ("gain" if every_run_better else "unresolved"), wins, len(pairs)
    if wins >= GAIN_PAIR_SHARE * len(pairs) and sign * (med_c - med_p) > q3 - q1:
        return "gain", wins, len(pairs)
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "worse", wins, len(pairs)
    return "no change", wins, len(pairs)


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load_set(args.parent), load_set(args.change)
    rows = []
    for wl in [w["name"] for w in spec["workloads"]]:
        a, b = parent.get(wl, []), change.get(wl, [])
        if not a or not b:
            continue
        for m in spec["end_to_end"]:
            pa = [r["metrics"][m["name"]] for r in a]
            pb = [r["metrics"][m["name"]] for r in b]
            v, wins, n = verdict(pa, pb, m["bound"], m["better"])
            delta = quartiles(pb)[1] / quartiles(pa)[1] - 1
            rows.append((wl, m["name"], _cell(pa), _cell(pb),
                         f"{delta:+.1%}", f"{wins}/{n}", v))
        ea = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        eb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        v = "worse" if eb > ea else ("gain" if eb < ea else "no change")
        rows.append((wl, "error_rate", f"{ea:.4g}", f"{eb:.4g}", "", "", v))
    head = ("workload", "metric", "parent median [q1, q3]",
            "change median [q1, q3]", "change", "wins", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [head]) for i in range(len(head))]
    for row in [head] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
