"""Warm wall-clock execute() throughput through the compiled executors.

Times the repeated-use data-movement path (the paper's Fig. 12
scenario): per case, the pre-compiled-executor **per-call** path (which
rebuilt the full gather/scatter index tensors on every call), the
**cold** compiled call (first execution, program compilation included),
the **warm** compiled call (cached program), the warm call with a
caller-provided ``out=`` buffer, and NumPy's ``reference_transpose``.
All paths are asserted bit-identical before anything is timed.

Cases cover both orthogonal schemas on 6D problems — through the
planner where it selects them, and directly constructed where it
prefers another schema — with exact and partial tiles (the slice
choice does not change the lowered program, only the per-call path's
index maps), plus an FVI-Match problem and the fully-reversed
permutation (the strided-copy worst case, reported
but not acceptance-gated: its per-call baseline is itself close to the
memory floor, so the warm win there is honest but modest).

Run directly::

    PYTHONPATH=src python benchmarks/bench_exec_throughput.py

writes a JSON summary to ``results/exec_throughput.json``.  CI runs
``--smoke``: fewer repeats, no file output, and a hard failure when the
warm compiled path is not comfortably faster than the per-call path on
the orthogonal cases — so a future change cannot silently reintroduce
per-call index construction.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from conftest import bench_parser, gate, interleaved_ms, pick_repeats
from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.core.plan import make_plan
from repro.kernels.common import reference_transpose
from repro.kernels.executor import clear_exec_caches, executor_for
from repro.kernels.orthogonal_distinct import OrthogonalDistinctKernel

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "results" / "exec_throughput.json"
)


def _planned(dims, perm):
    return make_plan(dims, perm).kernel


def _od_6d(perm, blockA, blockB):
    return OrthogonalDistinctKernel(
        TensorLayout((8, 6, 10, 9, 5, 12)),
        Permutation(perm),
        in_prefix=1,
        blockA=blockA,
        out_prefix=1,
        blockB=blockB,
    )


#: name -> (kernel factory, whether the issue's >=3x acceptance applies).
CASES = {
    "oa-6d": (lambda: _planned([16, 8, 4, 8, 4, 16], [5, 4, 3, 2, 1, 0]), True),
    "oa-6d-partial": (
        lambda: _planned([4, 16, 8, 8, 16, 4], [2, 3, 4, 5, 0, 1]),
        True,
    ),
    "od-6d-partial": (lambda: _od_6d((2, 3, 4, 5, 0, 1), 4, 3), True),
    "od-6d-exact": (lambda: _od_6d((3, 4, 5, 0, 1, 2), 6, 5), True),
    "od-6d-reverse": (lambda: _od_6d((5, 4, 3, 2, 1, 0), 4, 3), False),
    "fvi-large-4d": (lambda: _planned([64, 16, 16, 16], [0, 3, 2, 1]), False),
}

#: Smoke threshold on the orthogonal cases (the committed full run shows
#: >=3x; 2x keeps slow shared CI runners green while still failing any
#: return to per-call index construction).
SMOKE_MIN_SPEEDUP = 2.0


_interleaved_ms = interleaved_ms


def bench_case(kernel, repeats):
    src = np.random.default_rng(7).standard_normal(kernel.volume)
    ref = reference_transpose(src, kernel.layout, kernel.perm)
    out = np.empty_like(src)

    per_call = getattr(kernel, "execute_per_call", None)
    if per_call is None:
        # FVI/naive kernels' pre-executor execute() WAS the reference path.
        def per_call(s):
            return reference_transpose(kernel.check_input(s), kernel.layout, kernel.perm)

    # Parity first: every timed path must be bit-identical.
    clear_exec_caches()
    assert np.array_equal(kernel.execute(src), ref), "cold parity"
    assert np.array_equal(kernel.execute(src), ref), "warm parity"
    kernel.execute(src, out=out)
    assert np.array_equal(out, ref), "out= parity"
    assert np.array_equal(per_call(src), ref), "per-call parity"

    clear_exec_caches()
    t0 = time.perf_counter()
    kernel.execute(src)
    cold_ms = (time.perf_counter() - t0) * 1e3

    timed = _interleaved_ms(
        {
            "warm": lambda: kernel.execute(src),
            "warm_out": lambda: kernel.execute(src, out=out),
            "per_call": lambda: per_call(src),
            "reference": lambda: reference_transpose(
                src, kernel.layout, kernel.perm
            ),
        },
        repeats,
    )
    warm_ms, warm_med = timed["warm"]
    warm_out_ms, _ = timed["warm_out"]
    per_call_ms, _ = timed["per_call"]
    ref_ms, _ = timed["reference"]

    bytes_moved = 2 * kernel.volume * src.itemsize  # one read + one write
    return {
        "schema": kernel.schema.value,
        "volume": kernel.volume,
        "program": executor_for(kernel).kind,
        "per_call_ms": round(per_call_ms, 3),
        "cold_ms": round(cold_ms, 3),
        "warm_ms": round(warm_ms, 3),
        "warm_median_ms": round(warm_med, 3),
        "warm_out_ms": round(warm_out_ms, 3),
        "reference_ms": round(ref_ms, 3),
        "warm_gbps": round(bytes_moved / (warm_ms * 1e-3) / 1e9, 2),
        "speedup_vs_per_call": round(per_call_ms / warm_ms, 2),
        "speedup_cold_vs_per_call": round(per_call_ms / cold_ms, 2),
    }


def run(repeats):
    results = {}
    for name, (factory, gated) in CASES.items():
        row = bench_case(factory(), repeats)
        row["acceptance_gated"] = gated
        results[name] = row
    return results


def main(argv=None):
    ap = bench_parser(__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=RESULTS_PATH)
    args = ap.parse_args(argv)

    repeats = pick_repeats(args, full=11)
    results = run(repeats)

    print(
        f"{'case':<16s} {'schema':<22s} {'prog':<8s} {'per-call':>9s} "
        f"{'cold':>8s} {'warm':>8s} {'warm out':>9s} {'GB/s':>7s} {'speedup':>8s}"
    )
    for name, r in results.items():
        print(
            f"{name:<16s} {r['schema']:<22s} {r['program']:<8s} "
            f"{r['per_call_ms']:>7.2f}ms {r['cold_ms']:>6.2f}ms "
            f"{r['warm_ms']:>6.2f}ms {r['warm_out_ms']:>7.2f}ms "
            f"{r['warm_gbps']:>7.2f} {r['speedup_vs_per_call']:>7.2f}x"
        )

    if args.smoke:
        failures = [
            f"{name}: warm speedup {r['speedup_vs_per_call']}x < "
            f"{SMOKE_MIN_SPEEDUP}x over per-call"
            for name, r in results.items()
            if r["acceptance_gated"]
            and r["speedup_vs_per_call"] < SMOKE_MIN_SPEEDUP
        ]
        return gate("EXEC THROUGHPUT REGRESSION", failures, smoke=True)

    gated = [r["speedup_vs_per_call"] for r in results.values() if r["acceptance_gated"]]
    summary = {
        "repeats": repeats,
        "min_gated_speedup": math.floor(min(gated) * 100) / 100,
        "cases": results,
    }
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
