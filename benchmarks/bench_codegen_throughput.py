"""Codegen throughput: generated loop nests vs the fancy-indexing path.

The 64 MiB OD/OA cases are the regime the codegen tier (``docs/codegen.md``) was built for: forced index-map
programs stream a volume-sized int64 gather map alongside the data, so
they are memory-traffic-bound on any host.  Per case:

**parity first** — the generated :class:`~repro.kernels.codegen
.NestProgram` must produce bit-identical output to the
``IndexedProgram`` reference on ``run``, ``run_batch``, and the
``partition``/``run_part`` path, before anything is timed.

**warm throughput** — warm ``run`` of the nest vs the indexed program,
interleaved; the acceptance gate is ``>= MIN_CODEGEN_SPEEDUP`` in full
mode (codegen's win is single-threaded DRAM traffic, so it gates on
any CPU count).

**warm restart** — the plan store is reopened and every compiled
program dropped, as a restarted process would; recompiling the nests
must run ZERO loop-order searches (the artifact-cache hit counter is
asserted equal to the case count, and the search seconds saved are
reported).

Run directly::

    PYTHONPATH=src python benchmarks/bench_codegen_throughput.py

writes ``results/codegen_throughput.json``.  CI runs ``--smoke``:
smaller operands (still above the 1 MiB nest floor), fewer repeats,
gating only the deterministic invariants (parity, the view chain below
the floor, zero-search warm restart).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from conftest import bench_parser, env_stamp, gate, interleaved_ms, pick_repeats
from repro.core.plan import make_plan
from repro.kernels.codegen import codegen_stats, reset_codegen_stats
from repro.kernels.common import reference_transpose
from repro.kernels.executor import (
    compile_executor,
    index_map_program,
    problem_of,
)

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent
    / "results"
    / "codegen_throughput.json"
)

#: name -> (full dims, smoke dims, perm).  All f64; the full cases are
#: 64 MiB, the smoke cases ~8 MiB (still above NEST_MIN_BYTES, so they
#: lower to a nest).
CASES = {
    "od-reverse-64MiB": (
        (128, 64, 32, 32),
        (64, 32, 16, 16),
        (3, 2, 1, 0),
    ),
    "oa-partial-64MiB": (
        (32, 64, 64, 64),
        (16, 32, 32, 32),
        (1, 0, 3, 2),
    ),
}

#: Warm nest over warm indexed, full mode, any host.
MIN_CODEGEN_SPEEDUP = 1.5

#: Batch rows for the run_batch parity check.
PARITY_BATCH = 2


def bench_case(name, dims, perm, repeats, store, smoke):
    plan = make_plan(dims, perm)
    volume = plan.layout.volume
    src = np.random.default_rng(3).standard_normal(volume)
    ref = reference_transpose(src, plan.layout, plan.perm)

    problem = problem_of(plan.kernel)
    indexed = index_map_program(plan.kernel)
    assert indexed.kind in ("indexed", "chunked"), indexed.kind

    t0 = time.perf_counter()
    nest = compile_executor(*problem, artifacts=store)
    compile_ms = (time.perf_counter() - t0) * 1e3
    assert nest.kind == "nest", (
        f"{name}: a {src.nbytes >> 20} MiB case lowered to {nest.kind}"
    )
    # Time what steady state runs: the C nest once its background
    # compile lands (the Python nest without a toolchain).
    nest.wait_native()

    # Parity on every execution surface before any timing.
    assert np.array_equal(indexed.run(src), ref), f"{name}: indexed parity"
    assert np.array_equal(nest.run(src), ref), f"{name}: nest run parity"
    srcs = np.stack([src * (i + 1) for i in range(PARITY_BATCH)])
    refs = np.stack(
        [reference_transpose(s, plan.layout, plan.perm) for s in srcs]
    )
    assert np.array_equal(nest.run_batch(srcs), refs), (
        f"{name}: nest run_batch parity"
    )
    tasks = nest.partition(4)
    assert len(tasks) > 1, f"{name}: degenerate partition {tasks}"
    out = np.empty(volume)
    for task in tasks:
        nest.run_part(src, out, task)
    assert np.array_equal(out, ref), f"{name}: nest partition parity"

    out_i = np.empty(volume)
    out_n = np.empty(volume)
    indexed.run(src, out=out_i)  # warm both before interleaving
    nest.run(src, out=out_n)
    timed = interleaved_ms(
        {
            "indexed": lambda: indexed.run(src, out=out_i),
            "codegen": lambda: nest.run(src, out=out_n),
        },
        repeats,
    )
    indexed_ms, _ = timed["indexed"]
    nest_ms, _ = timed["codegen"]
    desc = nest.descriptor
    return {
        "dims": list(dims),
        "perm": list(perm),
        "schema": plan.schema.value,
        "indexed_kind": indexed.kind,
        "payload_mib": round(src.nbytes / (1 << 20), 1),
        "tiles": list(desc["tiles"]),
        "order": list(desc["order"]),
        "model_cost_lines": desc["cost"],
        "backend": desc["backend"],
        "search_ms": desc["search_ms"],
        "compile_ms": round(compile_ms, 3),
        "indexed_ms": round(indexed_ms, 3),
        "codegen_ms": round(nest_ms, 3),
        "codegen_speedup": round(indexed_ms / nest_ms, 3),
    }


def check_small_case(store):
    """A cache-resident case must keep the view chain."""
    plan = make_plan((8, 8, 8), (2, 1, 0))
    program = compile_executor(*problem_of(plan.kernel), artifacts=store)
    assert program.kind == "view", (
        f"tiny case lowered to a {program.kind} program"
    )
    src = np.random.default_rng(5).standard_normal(plan.layout.volume)
    ref = reference_transpose(src, plan.layout, plan.perm)
    assert np.array_equal(program.run(src), ref), "view parity"


def main(argv=None):
    ap = bench_parser(__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=RESULTS_PATH)
    args = ap.parse_args(argv)
    repeats = pick_repeats(args, full=7, smoke=2)

    from repro.runtime.store import PlanStore

    state_dir = Path(tempfile.mkdtemp(prefix="repro-codegen-bench-"))
    store = PlanStore(state_dir / "plans.json")
    reset_codegen_stats()

    results = {}
    for name, (full_dims, smoke_dims, perm) in CASES.items():
        dims = smoke_dims if args.smoke else full_dims
        results[name] = bench_case(name, dims, perm, repeats, store, args.smoke)
    check_small_case(store)

    cold = codegen_stats()
    failures = []
    if cold["searches"] != len(CASES):
        failures.append(
            f"cold pass ran {cold['searches']} searches for "
            f"{len(CASES)} cases"
        )

    # Warm restart: reopen the store and drop every compiled program,
    # exactly what a new process sees.  Rebuilding the nests must hit
    # the artifact cache for every case and search zero times.
    store.close()
    from repro.kernels.executor import clear_exec_caches

    clear_exec_caches()
    reset_codegen_stats()
    warm_store = PlanStore(state_dir / "plans.json")
    for name, (full_dims, smoke_dims, perm) in CASES.items():
        dims = smoke_dims if args.smoke else full_dims
        plan = make_plan(dims, perm)
        program = compile_executor(
            *problem_of(plan.kernel), artifacts=warm_store
        )
        assert program.kind == "nest", f"{name}: warm rebuild fell back"
    warm = codegen_stats()
    if warm["searches"] != 0:
        failures.append(
            f"warm restart re-ran {warm['searches']} loop-order searches "
            "(expected 0)"
        )
    if warm["artifact_hits"] != len(CASES):
        failures.append(
            f"warm restart hit {warm['artifact_hits']} artifacts for "
            f"{len(CASES)} cases"
        )

    print(
        f"{'case':<20s} {'prog':<8s} {'MiB':>6s} {'indexed':>9s} "
        f"{'codegen':>9s} {'speedup':>8s}  {'tiles':<18s} {'search':>8s}"
    )
    for name, r in results.items():
        print(
            f"{name:<20s} {r['indexed_kind']:<8s} {r['payload_mib']:>6.1f} "
            f"{r['indexed_ms']:>7.2f}ms {r['codegen_ms']:>7.2f}ms "
            f"{r['codegen_speedup']:>7.2f}x  "
            f"{'x'.join(str(t) for t in r['tiles']):<18s} "
            f"{r['search_ms']:>6.2f}ms"
        )
    print(
        f"warm restart: "
        f"{warm['searches']} searches, {warm['artifact_hits']} artifact "
        f"hits, {warm['search_s_saved'] * 1e3:.2f} ms search saved"
    )

    if args.smoke:
        # Throughput needs a quiet host; smoke gates only the
        # deterministic invariants (parity and the view chain asserted
        # in bench_case/check_small_case, search/artifact counters
        # above).
        return gate("CODEGEN SMOKE REGRESSION", failures, smoke=True)

    failures += [
        f"{name}: codegen speedup {r['codegen_speedup']}x < "
        f"{MIN_CODEGEN_SPEEDUP}x over the indexed program"
        for name, r in results.items()
        if r["codegen_speedup"] < MIN_CODEGEN_SPEEDUP
    ]
    summary = {
        "env": env_stamp(True),
        "repeats": repeats,
        "min_codegen_speedup": MIN_CODEGEN_SPEEDUP,
        "warm_restart": {
            "searches": warm["searches"],
            "artifact_hits": warm["artifact_hits"],
            "search_ms_saved": round(warm["search_s_saved"] * 1e3, 3),
        },
        "cases": results,
    }
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return gate("ACCEPTANCE THRESHOLDS NOT MET", failures)


if __name__ == "__main__":
    sys.exit(main())
