"""Codegen throughput: generated loop nests vs the fancy-indexing path.

The 64 MiB OD/OA cases are the regime the codegen tier (``docs/codegen.md``) was built for: forced index-map
programs stream a volume-sized int64 gather map alongside the data, so
they are memory-traffic-bound on any host.  Per case:

**parity first** — the generated :class:`~repro.kernels.codegen
.NestProgram` must produce bit-identical output to the
``IndexedProgram`` reference on ``run``, ``run_batch``, and the
``batch_tasks`` split, before anything is timed.

**warm throughput** — warm ``run`` of the nest vs the indexed program,
interleaved; the acceptance gate is ``>= MIN_CODEGEN_SPEEDUP`` in full
mode (codegen's win is single-threaded DRAM traffic, so it gates on
any CPU count).

**warm restart** — the plan store is reopened and every compiled
program dropped, as a restarted process would; recompiling the nests
must run ZERO loop-order searches (the artifact-cache hit counter is
asserted equal to the case count, and the search seconds saved are
reported).

**measured refinement** — for each case (plus a rotation the analytic
model misjudges) the search keeps its top ``REFINE_K`` configurations
and a short timed micro-probe on this host picks the winner
(:func:`repro.kernels.codegen.refine_descriptor`).  Gates: the refined
config is never slower than the analytic winner (warm, interleaved,
within noise tolerance) and strictly faster on at least one case.  The
refined descriptor persists as a plan-store artifact, so a warm restart
recompiles every case with ZERO searches and ZERO probes.

Run directly::

    PYTHONPATH=src python benchmarks/bench_codegen_throughput.py

writes ``results/codegen_throughput.json``.  CI runs ``--smoke``:
smaller operands (still above the 1 MiB nest floor), fewer repeats,
gating only the deterministic invariants (parity, the view chain below
the floor, zero-search and zero-probe warm restarts).
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
from repro.kernels import codegen as cg
from repro.kernels.codegen import codegen_stats, reset_codegen_stats
from repro.kernels.common import reference_transpose
from repro.kernels.executor import (
    clear_exec_caches,
    compile_executor,
    index_map_program,
    problem_of,
)
from repro.runtime.store import PlanStore

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

#: The refinement cases: the throughput cases plus a rotation whose
#: loop order the analytic DRAM model misjudges.
REFINE_CASES = {
    **CASES,
    "od-rotate-64MiB": (
        (64, 64, 64, 32),
        (32, 32, 32, 16),
        (2, 3, 0, 1),
    ),
}

#: Warm nest over warm indexed, full mode, any host.
MIN_CODEGEN_SPEEDUP = 1.5

#: Candidates the analytic search keeps for the refinement micro-probe.
REFINE_K = 8

#: Full-mode noise tolerance on "refined never slower than analytic".
NEVER_SLOWER_TOL = 1.10

#: "Strictly faster" margin for the >= 1 refinement case gate.
STRICT_MARGIN = 0.98

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
    outs = np.empty_like(srcs)
    tasks = nest.batch_tasks(srcs, outs, 4)
    assert len(tasks) > 1, f"{name}: degenerate batch split {tasks}"
    for task in tasks:
        task()
    assert np.array_equal(outs, refs), f"{name}: nest batch split parity"

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


def bench_refinement(dims, perm, repeats, reps):
    """Analytic winner vs measured-refined config for one case."""
    analytic = cg.search_nest(dims, perm, 8, top_k=REFINE_K)
    assert len(analytic["candidates"]) >= 2, f"{dims}/{perm}: no shortlist"
    refined = cg.refine_descriptor(analytic, reps=reps)
    assert refined.get("refined"), "refine_descriptor left no annotation"
    probe = refined["probe"]
    prog_a = cg.NestProgram(
        {k: v for k, v in analytic.items() if k != "candidates"}
    )
    prog_r = cg.NestProgram({k: v for k, v in refined.items() if k != "probe"})

    volume = int(np.prod(dims))
    src = np.random.default_rng(11).standard_normal(volume)
    ref = prog_a.run(src)
    assert np.array_equal(prog_r.run(src), ref), "refined config parity"
    out_a, out_r = np.empty(volume), np.empty(volume)
    prog_a.run(src, out=out_a)  # warm both before interleaving
    prog_r.run(src, out=out_r)
    timed = interleaved_ms(
        {
            "analytic": lambda: prog_a.run(src, out=out_a),
            "refined": lambda: prog_r.run(src, out=out_r),
        },
        repeats,
    )
    analytic_ms, refined_ms = timed["analytic"][0], timed["refined"][0]
    probe_ms = probe["measured_ms"]
    return {
        "dims": list(dims),
        "perm": list(perm),
        "payload_mib": round(volume * 8 / (1 << 20), 1),
        "candidates": len(analytic["candidates"]),
        "picked": probe["picked"],
        "switched": probe["picked"] != 0,
        "probe_ms": round(probe["probe_ms"], 2),
        "probe_speedup": round(probe_ms[0] / probe_ms[probe["picked"]], 3),
        "analytic_tiles": list(analytic["tiles"]),
        "refined_tiles": list(refined["tiles"]),
        "analytic_ms": round(analytic_ms, 3),
        "refined_ms": round(refined_ms, 3),
        "speedup": round(analytic_ms / refined_ms, 3),
    }


def refine_restart(problems):
    """Codegen counters of a refining cold pass and of a warm restart,
    which must replay every refined descriptor without search or probe."""
    state_dir = Path(tempfile.mkdtemp(prefix="repro-refine-bench-"))
    passes = []
    for _ in ("cold", "warm"):
        clear_exec_caches()
        reset_codegen_stats()
        store = PlanStore(state_dir / "plans.json")
        try:
            for problem in problems:
                program = compile_executor(
                    *problem, artifacts=store, refine=REFINE_K
                )
                assert program.kind == "nest", "refined case fell back"
                assert program.descriptor.get("refined"), (
                    "rebuild lost the refined descriptor"
                )
        finally:
            store.close()
        passes.append(codegen_stats())
    return passes


def main(argv=None):
    ap = bench_parser(__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=RESULTS_PATH)
    args = ap.parse_args(argv)
    repeats = pick_repeats(args, full=7, smoke=2)

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

    # Measured refinement, then its zero-search/zero-probe restart.
    probe_reps = 1 if args.smoke else cg.PROBE_REPS
    refine_dims = {
        name: (smoke_dims if args.smoke else full_dims, perm)
        for name, (full_dims, smoke_dims, perm) in REFINE_CASES.items()
    }
    refinement = {
        name: bench_refinement(dims, perm, repeats, probe_reps)
        for name, (dims, perm) in refine_dims.items()
    }
    refine_cold, refine_warm = refine_restart(
        [
            problem_of(make_plan(dims, perm).kernel)
            for dims, perm in refine_dims.values()
        ]
    )
    if refine_cold["refinements"] != len(REFINE_CASES):
        failures.append(
            f"refining cold pass probed {refine_cold['refinements']} "
            f"cases, expected {len(REFINE_CASES)}"
        )
    if refine_warm["searches"] or refine_warm["refinements"]:
        failures.append(
            f"refined warm restart re-ran {refine_warm['searches']} "
            f"searches / {refine_warm['refinements']} probes "
            "(expected 0 / 0)"
        )
    if refine_warm["artifact_hits"] != len(REFINE_CASES):
        failures.append(
            f"refined warm restart hit {refine_warm['artifact_hits']} "
            f"artifacts for {len(REFINE_CASES)} cases"
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
    print(
        f"{'refined case':<20s} {'MiB':>6s} {'analytic':>10s} "
        f"{'refined':>9s} {'speedup':>8s} {'picked':>7s} {'probe':>9s}"
    )
    for name, r in refinement.items():
        print(
            f"{name:<20s} {r['payload_mib']:>6.1f} "
            f"{r['analytic_ms']:>8.2f}ms {r['refined_ms']:>7.2f}ms "
            f"{r['speedup']:>7.2f}x {r['picked']:>7d} "
            f"{r['probe_ms']:>7.1f}ms"
        )
    print(
        f"refined warm restart: {refine_warm['searches']} searches, "
        f"{refine_warm['refinements']} probes, "
        f"{refine_warm['artifact_hits']} artifact hits"
    )

    if args.smoke:
        # Throughput needs a quiet host; smoke gates only the
        # deterministic invariants (parity and the view chain asserted
        # in bench_case/check_small_case/bench_refinement, search,
        # probe and artifact counters above).
        return gate("CODEGEN SMOKE REGRESSION", failures, smoke=True)

    failures += [
        f"{name}: codegen speedup {r['codegen_speedup']}x < "
        f"{MIN_CODEGEN_SPEEDUP}x over the indexed program"
        for name, r in results.items()
        if r["codegen_speedup"] < MIN_CODEGEN_SPEEDUP
    ]
    failures += [
        f"{name}: refined config {r['refined_ms']:.2f} ms slower than "
        f"analytic {r['analytic_ms']:.2f} ms beyond {NEVER_SLOWER_TOL}x"
        for name, r in refinement.items()
        if r["refined_ms"] > r["analytic_ms"] * NEVER_SLOWER_TOL
    ]
    if not any(
        r["refined_ms"] < r["analytic_ms"] * STRICT_MARGIN
        or (r["switched"] and r["probe_speedup"] > 1.0 / STRICT_MARGIN)
        for r in refinement.values()
    ):
        failures.append(
            "no case where the measured refinement strictly beat the "
            "analytic winner"
        )
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
        "refine_k": REFINE_K,
        "probe_reps": probe_reps,
        "never_slower_tol": NEVER_SLOWER_TOL,
        "refinement": refinement,
        "refined_warm_restart": {
            "searches": refine_warm["searches"],
            "refinements": refine_warm["refinements"],
            "artifact_hits": refine_warm["artifact_hits"],
        },
    }
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return gate("ACCEPTANCE THRESHOLDS NOT MET", failures)


if __name__ == "__main__":
    sys.exit(main())
