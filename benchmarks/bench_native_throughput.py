"""Native throughput: C-emitted transpose kernels vs ``np.transpose``.

64 MiB OD/OA cases, the regime the generated loop nest
(``docs/codegen.md``) exists for.  The C backend emitted by
``repro.kernels.native`` (compiled out-of-band, loaded via ctypes with
the GIL released for the whole call) is compared with NumPy's own
transpose of the same operand into a preallocated output.  Per case:

**parity first** — the native-backed :class:`~repro.kernels.codegen
.NestProgram` must produce bit-identical output to ``np.transpose`` on
``run``, ``run_batch``, and the ``batch_tasks`` split, before
anything is timed.

**warm throughput** — warm ``run`` of the native program vs
``np.transpose`` of the same operand copied into an ``out`` buffer,
interleaved in the same run; the acceptance gate is ``>=
MIN_NATIVE_SPEEDUP`` in full mode (the win is the blocked, single-pass
C loop, so it gates on any CPU count).

**staged vs direct** — each case is also timed against a C twin of
the same descriptor on the other micro-kernel (staged or direct,
``codegen.micro_kernel``), interleaved.  The lowering stages the two
``e2e-*`` cases, the end-to-end benchmark's repeated-large
``od-reverse`` and ``oa-partial`` geometries; in full mode each staged
program must be ``>= MIN_STAGED_SPEEDUP`` faster than its direct twin.
The two older cases are their mirror images, whose direct nests
already read runs of 1 KiB (``od-reverse-64MiB``) and a dense 16 MiB
plane (``oa-partial-64MiB``), so they stay direct.
Two od-reverse-shaped cases sit on either side of the size gate (2 and
4 MiB), and the rule's pick is asserted to follow the host's gate.

A cache-resident case must keep the view chain.  The cold pass must
run exactly one loop-order search per geometry.

**warm restart** — the plan store is reopened, every compiled program
and dlopen handle dropped, exactly what a restarted process sees.
Rebuilding the programs must run ZERO compiler invocations: the
on-disk ``plans_native/`` object cache is asserted to serve every case
(``native_compiled == 0``, ``native_so_cache_hits >= cases``),
alongside the artifact cache: zero searches, one artifact hit per case.

Run directly::

    PYTHONPATH=src python benchmarks/bench_native_throughput.py

writes ``results/native_throughput.json``.  CI runs ``--smoke``:
smaller operands, fewer repeats, gating only the deterministic
invariants.  Without a C toolchain (``CC=/bin/false``) the perf gate is
skipped and the same parity/restart assertions run against the view
chain the nest falls back to — the bench must still pass.
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
from repro.kernels.codegen import (
    NestProgram,
    codegen_stats,
    native_enabled,
    reset_codegen_stats,
)
from repro.kernels.common import reference_transpose
from repro.kernels.executor import (
    clear_exec_caches,
    compile_executor,
    problem_of,
)
from repro.kernels.native import STAGE_TILE_BYTES, compiler_info, stage_tiles

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent
    / "results"
    / "native_throughput.json"
)

#: name -> (full dims, smoke dims, perm).  All f64; the full cases are
#: 64 MiB, the smoke cases ~8 MiB (still above NEST_MIN_BYTES).  The
#: oa-partial extents are skewed so the swapped inner pair forms a
#: strided plane well past the cache-resident span — the regime the
#: blocked micro-kernel exists for (a cube's inner plane is one
#: contiguous L1-resident block, where every implementation is just
#: memcpy-bound).
CASES = {
    "od-reverse-64MiB": (
        (128, 64, 32, 32),
        (64, 32, 16, 16),
        (3, 2, 1, 0),
    ),
    "oa-partial-64MiB": (
        (64, 32768, 2, 2),
        (32, 8192, 2, 2),
        (1, 0, 3, 2),
    ),
    "e2e-od-reverse-64MiB": (
        (32, 32, 64, 128),
        (16, 16, 32, 64),
        (3, 2, 1, 0),
    ),
    "e2e-oa-partial-64MiB": (
        (2, 2, 32768, 64),
        (2, 2, 8192, 32),
        (1, 0, 3, 2),
    ),
}

#: Warm native run over ``np.transpose`` into ``out``, full mode, any
#: host.
MIN_NATIVE_SPEEDUP = 2.0

#: Staged C program over its direct-C twin on the 64 MiB cases, full
#: mode.
MIN_STAGED_SPEEDUP = 1.3

#: The cases the lowering stages whenever they are past the host's size
#: gate (always in full mode).
STAGED_CASES = ("e2e-od-reverse-64MiB", "e2e-oa-partial-64MiB")

#: name -> (dims, perm): od-reverse-shaped f64 operands of 2 and 4 MiB,
#: below and above the staging size gate of a 1.5 MiB cache budget.
GATE_CASES = {
    "od-reverse-2MiB": ((16, 16, 32, 32), (3, 2, 1, 0)),
    "od-reverse-4MiB": ((16, 32, 32, 32), (3, 2, 1, 0)),
}

#: Batch rows for the run_batch parity check.
PARITY_BATCH = 2


def twin(program, micro, native_dir):
    """A C program of ``program``'s descriptor on the other micro-kernel
    (compiled before this returns)."""
    desc = dict(program.descriptor)
    if micro == "direct":
        desc.update(micro="direct", stage=None)
    else:
        budget = int(desc["cache_budget"])
        desc.update(
            micro="staged",
            stage=stage_tiles(
                desc["in_shape"], desc["axes"], desc["elem_bytes"],
                min(STAGE_TILE_BYTES, budget // 3),
            ),
        )
    return NestProgram(desc, native_dir=native_dir)


def staged_pick(nbytes: int) -> bool:
    """Whether the host's size gate puts an operand past it."""
    return nbytes > cg.STAGE_MIN_BUDGETS * cg.CACHE_BUDGET_BYTES


def bench_gate_case(name, dims, perm, repeats, store):
    """Time the rule's pick against its twin on the other side."""
    plan = make_plan(dims, perm)
    src = np.random.default_rng(5).standard_normal(plan.layout.volume)
    ref = reference_transpose(src, plan.layout, plan.perm)
    program = compile_executor(*problem_of(plan.kernel), artifacts=store)
    program.wait_native()
    want = "staged" if staged_pick(src.nbytes) else "direct"
    assert program.micro == want, f"{name}: rule picked {program.micro}"
    other = twin(program, "direct" if want == "staged" else "staged",
                 store.native_dir)
    out_p, out_o = np.empty_like(src), np.empty_like(src)
    assert np.array_equal(program.run(src, out=out_p), ref), f"{name}: parity"
    assert np.array_equal(other.run(src, out=out_o), ref), f"{name}: twin"
    timed = interleaved_ms(
        {
            want: lambda: program.run(src, out=out_p),
            other.micro: lambda: other.run(src, out=out_o),
        },
        repeats,
    )
    return {
        "dims": list(dims),
        "perm": list(perm),
        "payload_mib": round(src.nbytes / (1 << 20), 1),
        "micro": want,
        "backend": program.backend,
        "staged_ms": round(timed["staged"][0], 3),
        "direct_ms": round(timed["direct"][0], 3),
    }


def bench_case(name, dims, perm, repeats, store, have_cc):
    plan = make_plan(dims, perm)
    volume = plan.layout.volume
    src = np.random.default_rng(3).standard_normal(volume)
    ref = reference_transpose(src, plan.layout, plan.perm)

    t0 = time.perf_counter()
    nest = compile_executor(*problem_of(plan.kernel), artifacts=store)
    nest.wait_native()  # the C object compiles in the background
    compile_ms = (time.perf_counter() - t0) * 1e3
    assert nest.kind == "nest", (
        f"{name}: a {src.nbytes >> 20} MiB case lowered to {nest.kind}"
    )
    backend = nest.descriptor["backend"]
    if have_cc:
        assert backend == "c", (
            f"{name}: toolchain present but backend is {backend!r}"
        )

    # The comparator: NumPy's transpose of the same operand, written
    # into a preallocated output, as a caller without this library would.
    shape, axes = plan.layout.as_numpy_shape(), plan.perm.numpy_axes()
    out_shape = tuple(shape[a] for a in axes)

    def numpy_transpose(out):
        out.reshape(out_shape)[...] = np.transpose(src.reshape(shape), axes)
        return out

    if name in STAGED_CASES and staged_pick(src.nbytes):
        assert nest.micro == "staged", f"{name}: rule picked {nest.micro}"
    other = twin(
        nest, "direct" if nest.micro == "staged" else "staged",
        store.native_dir,
    )

    # Parity on every execution surface before any timing.
    assert np.array_equal(nest.run(src), ref), f"{name}: run parity"
    srcs = np.stack([src * (i + 1) for i in range(PARITY_BATCH)])
    refs = np.stack(
        [reference_transpose(s, plan.layout, plan.perm) for s in srcs]
    )
    assert np.array_equal(nest.run_batch(srcs), refs), (
        f"{name}: run_batch parity"
    )
    outs = np.empty_like(srcs)
    tasks = nest.batch_tasks(srcs, outs, 4)
    assert len(tasks) > 1, f"{name}: degenerate batch split {tasks}"
    for task in tasks:
        task()
    assert np.array_equal(outs, refs), f"{name}: batch split parity"
    assert np.array_equal(numpy_transpose(np.empty(volume)), ref), (
        f"{name}: np.transpose parity"
    )
    assert np.array_equal(other.run(src), ref), f"{name}: twin parity"

    out_n = np.empty(volume)
    out_t = np.empty(volume)
    out_o = np.empty(volume)
    nest.run(src, out=out_n)  # warm all three before interleaving
    numpy_transpose(out_t)
    other.run(src, out=out_o)
    timed = interleaved_ms(
        {
            "numpy": lambda: numpy_transpose(out_t),
            "native": lambda: nest.run(src, out=out_n),
            "twin": lambda: other.run(src, out=out_o),
        },
        repeats,
    )
    numpy_ms, _ = timed["numpy"]
    native_ms, _ = timed["native"]
    staged_ms, direct_ms = (
        (native_ms, timed["twin"][0]) if nest.micro == "staged"
        else (timed["twin"][0], native_ms)
    )
    desc = nest.descriptor
    return {
        "dims": list(dims),
        "perm": list(perm),
        "schema": plan.schema.value,
        "backend": backend,
        "payload_mib": round(src.nbytes / (1 << 20), 1),
        "tiles": list(desc["tiles"]),
        "order": list(desc["order"]),
        "micro": desc["micro"],
        "stage": desc["stage"],
        "compile_ms": round(compile_ms, 3),
        "search_ms": desc["search_ms"],
        "numpy_ms": round(numpy_ms, 3),
        "native_ms": round(native_ms, 3),
        "staged_ms": round(staged_ms, 3),
        "direct_ms": round(direct_ms, 3),
        "native_speedup": round(numpy_ms / native_ms, 3),
        "staged_speedup": round(direct_ms / staged_ms, 3),
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

    have_cc = native_enabled()
    cc = compiler_info()
    state_dir = Path(tempfile.mkdtemp(prefix="repro-native-bench-"))
    store = PlanStore(state_dir / "plans.json")
    reset_codegen_stats()

    results = {}
    for name, (full_dims, smoke_dims, perm) in CASES.items():
        dims = smoke_dims if args.smoke else full_dims
        results[name] = bench_case(name, dims, perm, repeats, store, have_cc)
    gate_results = {
        name: bench_gate_case(name, dims, perm, repeats, store)
        for name, (dims, perm) in GATE_CASES.items()
    }
    check_small_case(store)

    cold = codegen_stats()
    failures = []
    cases = len(CASES) + len(GATE_CASES)
    if cold["searches"] != cases:
        failures.append(
            f"cold pass ran {cold['searches']} searches for {cases} cases"
        )
    if have_cc and cold["native_attached"] < cases:
        failures.append(
            f"cold pass attached native to {cold['native_attached']} of "
            f"{cases} cases"
        )
    if have_cc and (
        cold["native_call_failures"]
        or cold["native_compile_failures"]
        or cold["native_load_failures"]
    ):
        failures.append(
            f"native fallbacks fired: "
            f"{cold['native_compile_failures']} compile / "
            f"{cold['native_load_failures']} load / "
            f"{cold['native_call_failures']} call"
        )

    # Warm restart: reopen the store, drop every compiled program and
    # dlopen handle — what a restarted process sees.
    # The on-disk object cache must serve every case: zero compiler
    # invocations, zero loop-order searches.
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
        if have_cc:
            # An object already on disk attaches before the call returns.
            assert program.descriptor["backend"] == "c", (
                f"{name}: warm rebuild lost the native backend"
            )
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
    if have_cc and warm["native_compiled"] != 0:
        failures.append(
            f"warm restart invoked the compiler {warm['native_compiled']} "
            "times (expected 0: the .so cache must serve every case)"
        )
    if have_cc and warm["native_so_cache_hits"] < len(CASES):
        failures.append(
            f"warm restart hit the .so cache {warm['native_so_cache_hits']} "
            f"times for {len(CASES)} cases"
        )

    print(
        f"{'case':<22s} {'backend':<8s} {'MiB':>6s} {'numpy':>9s} "
        f"{'native':>9s} {'speedup':>8s}  {'micro':<7s} {'staged':>9s} "
        f"{'direct':>9s}"
    )
    for name, r in results.items():
        print(
            f"{name:<22s} {r['backend']:<8s} {r['payload_mib']:>6.1f} "
            f"{r['numpy_ms']:>7.2f}ms {r['native_ms']:>7.2f}ms "
            f"{r['native_speedup']:>7.2f}x  {r['micro']:<7s} "
            f"{r['staged_ms']:>7.2f}ms {r['direct_ms']:>7.2f}ms"
        )
    print(f"size gate ({cg.STAGE_MIN_BUDGETS} cache budgets):")
    for name, r in gate_results.items():
        print(
            f"{name:<22s} {r['payload_mib']:>4.1f} MiB picks {r['micro']:<7s}"
            f" staged {r['staged_ms']:.2f}ms direct {r['direct_ms']:.2f}ms"
        )
    print(
        f"toolchain: {cc['path'] or 'none'}"
        + (f" ({cc['version']})" if cc["version"] else "")
        + f"; cold: {cold['native_compiled']} compiled; warm restart: "
        f"{warm['native_compiled']} compiles, "
        f"{warm['native_so_cache_hits']} .so cache hits, "
        f"{warm['searches']} searches, {warm['artifact_hits']} artifact "
        f"hits, {warm['search_s_saved'] * 1e3:.2f} ms search saved"
    )

    if args.smoke:
        # Throughput needs a quiet host; smoke gates only the
        # deterministic invariants (parity asserted in bench_case and
        # check_small_case, the compile/search/artifact counters above).
        return gate("NATIVE SMOKE REGRESSION", failures, smoke=True)

    if have_cc:
        failures += [
            f"{name}: native speedup {r['native_speedup']}x < "
            f"{MIN_NATIVE_SPEEDUP}x over np.transpose"
            for name, r in results.items()
            if r["native_speedup"] < MIN_NATIVE_SPEEDUP
        ]
        failures += [
            f"{name}: staged {r['staged_ms']}ms is only "
            f"{r['staged_speedup']}x the direct twin's {r['direct_ms']}ms "
            f"(< {MIN_STAGED_SPEEDUP}x)"
            for name, r in results.items()
            if r["micro"] == "staged"
            and r["staged_speedup"] < MIN_STAGED_SPEEDUP
        ]
    summary = {
        "env": env_stamp(have_cc, "" if have_cc else "no C toolchain"),
        "repeats": repeats,
        "min_native_speedup": MIN_NATIVE_SPEEDUP,
        "min_staged_speedup": MIN_STAGED_SPEEDUP,
        "cache_budget": cg.CACHE_BUDGET_BYTES,
        "stage_min_budgets": cg.STAGE_MIN_BUDGETS,
        "warm_restart": {
            "native_compiled": warm["native_compiled"],
            "native_so_cache_hits": warm["native_so_cache_hits"],
            "searches": warm["searches"],
            "artifact_hits": warm["artifact_hits"],
            "search_ms_saved": round(warm["search_s_saved"] * 1e3, 3),
        },
        "cases": results,
        "size_gate_cases": gate_results,
    }
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return gate("ACCEPTANCE THRESHOLDS NOT MET", failures)


if __name__ == "__main__":
    sys.exit(main())
