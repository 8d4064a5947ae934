"""Native throughput: C-emitted transpose kernels vs ``np.transpose``.

64 MiB OD/OA cases, the regime the generated loop nest
(``docs/codegen.md``) exists for.  The C backend emitted by
``repro.kernels.native`` (compiled out-of-band, loaded via ctypes with
the GIL released for the whole call) is compared with NumPy's own
transpose of the same operand into a preallocated output.  Per case:

**parity first** — the native-backed :class:`~repro.kernels.codegen
.NestProgram` must produce bit-identical output to ``np.transpose`` on
``run``, ``run_batch`` (each row where it lies, in C once attached),
and its C call split into ranges (one, two, the program's own count
and one per trip of the split loop), before anything is timed.

**warm throughput** — warm ``run`` of the native program, which splits
its call over every usable CPU (``NestProgram.parts``), vs
``np.transpose`` of the same operand copied into an ``out`` buffer and
vs the same C call on one thread, interleaved in the same run.  The
gates in full mode: ``>= MIN_NATIVE_SPEEDUP`` over NumPy on any CPU
count (the win is the blocked, single-pass C loop), and ``>=
MIN_SPLIT_SPEEDUP`` of the split call over the one-thread call only
when at least 2 CPUs are usable.  Each call's ``bw_fraction`` is
``2 * nbytes / time`` over a host copy (``np.copyto``) with the same
thread count, timed in the same interleaved rounds: the split call
against a copy split the same way over every CPU, the one-thread call
against a one-thread copy.  Times are medians of the rounds.

**staged vs direct** — each case's one-thread call is also timed
against the one-thread call of a C twin of the same descriptor on the
other micro-kernel (staged or direct, ``codegen.micro_kernel``, which
prices one thread's reads and writes), interleaved.  The lowering stages all four
cases (``STAGED_CASES``) at full size whenever they are past the host's
size gate, and that pick is asserted in every mode (``check_rule``,
``--smoke`` included, which runs smaller operands): the two
``e2e-*`` cases, the end-to-end benchmark's repeated-large
``od-reverse`` and ``oa-partial`` geometries, and their mirror images,
whose direct nests read runs of 1 KiB (``od-reverse-64MiB``) and a
dense 16 MiB plane (``oa-partial-64MiB``) but write short runs to rows
in flight at aliasing strides.  In full mode each staged program must
be ``>= MIN_STAGED_SPEEDUP`` faster than its direct twin.
Two od-reverse-shaped cases sit on either side of the size gate (2 and
4 MiB), and the rule's pick is asserted to follow the host's gate.

A cache-resident case must keep the view chain.  The cold pass must
run exactly one loop-order search per geometry.

**warm restart** — every compiled program and dlopen handle is
dropped, exactly what a restarted process sees.  Rebuilding the
programs searches again and must yield the cold pass's descriptors
(all but ``search_ms``), so it emits the same C source, and must run
ZERO compiler invocations: the on-disk ``plans_native/`` object cache
is asserted to serve every case (``native_compiled == 0``,
``native_so_cache_hits >= cases``).

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
import math
import shutil
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
from repro.kernels import native
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

#: Staged C program over its direct-C twin on the 64 MiB cases, one
#: thread each, full mode.
MIN_STAGED_SPEEDUP = 1.3

#: The split call over the same C call on one thread, full mode, gated
#: only where at least 2 CPUs are usable.
MIN_SPLIT_SPEEDUP = 1.3

#: The cases the lowering stages whenever they are past the host's size
#: gate (always in full mode): all of them.
STAGED_CASES = tuple(CASES)

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
    program = NestProgram(desc, native_dir=native_dir)
    program.wait_native()
    return program


class HostCopy:
    """``np.copyto`` between two buffers of ``nbytes`` of their own, on
    one thread or split into one range per usable CPU on the split
    calls' helpers: the ceiling of a call with that many threads."""

    def __init__(self, nbytes: int):
        self.src = np.ones(nbytes // 8)
        self.dst = np.empty_like(self.src)
        np.copyto(self.dst, self.src)  # fault the pages in, untimed
        n = native.CPUS
        self.bounds = [self.src.size * i // n for i in range(n + 1)]

    def one_thread(self):
        np.copyto(self.dst, self.src)

    def split(self):
        b = self.bounds
        native.run_parts(
            lambda i: np.copyto(self.dst[b[i]:b[i + 1]], self.src[b[i]:b[i + 1]]),
            len(b) - 1,
        )

    def gbps(self, ms: float) -> float:
        return 2 * self.src.nbytes / (ms * 1e-3) / 1e9


def staged_pick(nbytes: int) -> bool:
    """Whether the host's size gate puts an operand past it."""
    return nbytes > cg.STAGE_MIN_BUDGETS * cg.CACHE_BUDGET_BYTES


def lowering(desc: dict) -> dict:
    """A descriptor without its search time and attach state."""
    return {k: v for k, v in desc.items() if k not in ("search_ms", "backend")}


def bench_gate_case(name, dims, perm, repeats, native_dir):
    """Time the rule's pick against its twin on the other side."""
    plan = make_plan(dims, perm)
    src = np.random.default_rng(5).standard_normal(plan.layout.volume)
    ref = reference_transpose(src, plan.layout, plan.perm)
    program = compile_executor(*problem_of(plan.kernel), native_dir=native_dir)
    program.wait_native()
    want = "staged" if staged_pick(src.nbytes) else "direct"
    assert program.micro == want, f"{name}: rule picked {program.micro}"
    other = twin(program, "direct" if want == "staged" else "staged",
                 native_dir)
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


def bench_case(name, dims, perm, repeats, native_dir, have_cc, copy):
    """The case's record, plus its program's descriptor."""
    plan = make_plan(dims, perm)
    volume = plan.layout.volume
    src = np.random.default_rng(3).standard_normal(volume)
    ref = reference_transpose(src, plan.layout, plan.perm)

    t0 = time.perf_counter()
    nest = compile_executor(*problem_of(plan.kernel), native_dir=native_dir)
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

    other = twin(
        nest, "direct" if nest.micro == "staged" else "staged", native_dir
    )

    def one_thread(program, out):
        """The program's C call on one thread (its view chain without
        a C object)."""
        if not program._run_native(src, out, parts=1):
            program.run(src, out=out)

    # Parity on every execution surface before any timing.
    assert np.array_equal(nest.run(src), ref), f"{name}: run parity"
    srcs = np.stack([src * (i + 1) for i in range(PARITY_BATCH)])
    refs = np.stack(
        [reference_transpose(s, plan.layout, plan.perm) for s in srcs]
    )
    assert np.array_equal(nest.run_batch(srcs), refs), (
        f"{name}: run_batch parity"
    )
    if have_cc:
        outs = np.empty_like(srcs)
        assert nest.run_batch(srcs, out=outs) is outs
        assert nest.backend == "c", f"{name}: run_batch left the C object"
        assert np.array_equal(outs, refs), f"{name}: C run_batch parity"
        for parts in sorted({1, 2, nest.parts(), nest._trips}):
            outs[0] = 0
            assert nest._run_native(src, outs[0], parts=parts)
            assert np.array_equal(outs[0], ref), (
                f"{name}: parity in {parts} ranges"
            )
        del outs
    del srcs, refs
    assert np.array_equal(numpy_transpose(np.empty(volume)), ref), (
        f"{name}: np.transpose parity"
    )
    assert np.array_equal(other.run(src), ref), f"{name}: twin parity"

    out_n = np.empty(volume)
    out_t = np.empty(volume)
    out_o = np.empty(volume)
    nest.run(src, out=out_n)  # warm all four before interleaving
    one_thread(nest, out_n)
    numpy_transpose(out_t)
    one_thread(other, out_o)
    timed = interleaved_ms(
        {
            "numpy": lambda: numpy_transpose(out_t),
            "native": lambda: nest.run(src, out=out_n),
            "one_thread": lambda: one_thread(nest, out_n),
            "twin": lambda: one_thread(other, out_o),
            "copy": copy.split,
            "copy_one_thread": copy.one_thread,
        },
        repeats,
    )
    numpy_ms, native_ms, one_ms, twin_ms, copy_ms, copy1_ms = (
        timed[k][1] for k in (
            "numpy", "native", "one_thread", "twin", "copy", "copy_one_thread"
        )
    )
    staged_ms, direct_ms = (
        (one_ms, twin_ms) if nest.micro == "staged" else (twin_ms, one_ms)
    )
    gbps = 2 * src.nbytes / (native_ms * 1e-3) / 1e9
    gbps_one = 2 * src.nbytes / (one_ms * 1e-3) / 1e9
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
        "split_trips": nest._trips,
        "parts": nest.parts(),
        "compile_ms": round(compile_ms, 3),
        "search_ms": desc["search_ms"],
        "numpy_ms": round(numpy_ms, 3),
        "native_ms": round(native_ms, 3),
        "one_thread_ms": round(one_ms, 3),
        "staged_ms": round(staged_ms, 3),
        "direct_ms": round(direct_ms, 3),
        "copy_ms": round(copy_ms, 3),
        "copy_one_thread_ms": round(copy1_ms, 3),
        "native_speedup": round(numpy_ms / native_ms, 3),
        "split_speedup": round(one_ms / native_ms, 3),
        "staged_speedup": round(direct_ms / staged_ms, 3),
        "bw_fraction": round(gbps / copy.gbps(copy_ms), 3),
        "bw_fraction_one_thread": round(gbps_one / copy.gbps(copy1_ms), 3),
    }, desc


def check_rule():
    """The rule's pick for every case at its full size, whatever the
    mode: staged past the host's size gate.  The search is analytic, so
    this runs nothing and times nothing."""
    for name, (full_dims, _, perm) in CASES.items():
        in_shape, axes, eb = problem_of(make_plan(full_dims, perm).kernel)
        desc = cg.search_nest(in_shape, axes, eb)
        nbytes = math.prod(in_shape) * eb
        want = "staged" if staged_pick(nbytes) else "direct"
        assert desc["micro"] == want, (
            f"{name}: rule picked {desc['micro']}, not {want}"
        )


def check_small_case():
    """A cache-resident case must keep the view chain."""
    plan = make_plan((8, 8, 8), (2, 1, 0))
    program = compile_executor(*problem_of(plan.kernel))
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
    # The compiled objects live only as long as the run.
    state = Path(tempfile.mkdtemp(prefix="repro-native-bench-"))
    try:
        return run(args, state / "native")
    finally:
        shutil.rmtree(state, ignore_errors=True)


def run(args, native_dir):
    repeats = pick_repeats(args, full=7, smoke=2)
    have_cc = native_enabled()
    cc = compiler_info()
    check_rule()
    reset_codegen_stats()

    results, cold_descs = {}, {}
    copy = HostCopy(max(
        8 * math.prod(smoke_dims if args.smoke else full_dims)
        for full_dims, smoke_dims, _ in CASES.values()
    ))
    for name, (full_dims, smoke_dims, perm) in CASES.items():
        dims = smoke_dims if args.smoke else full_dims
        results[name], cold_descs[name] = bench_case(
            name, dims, perm, repeats, native_dir, have_cc, copy
        )
    del copy
    gate_results = {
        name: bench_gate_case(name, dims, perm, repeats, native_dir)
        for name, (dims, perm) in GATE_CASES.items()
    }
    check_small_case()

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

    # Warm restart: drop every compiled program and dlopen handle — what
    # a restarted process sees.  The search runs again and must lower
    # each case exactly as the cold pass did; the on-disk object cache
    # must then serve every case: zero compiler invocations.
    clear_exec_caches()
    reset_codegen_stats()
    for name, (full_dims, smoke_dims, perm) in CASES.items():
        dims = smoke_dims if args.smoke else full_dims
        plan = make_plan(dims, perm)
        program = compile_executor(
            *problem_of(plan.kernel), native_dir=native_dir
        )
        assert program.kind == "nest", f"{name}: warm rebuild fell back"
        if lowering(program.descriptor) != lowering(cold_descs[name]):
            failures.append(
                f"{name}: warm restart lowered to {lowering(program.descriptor)}"
                f", the cold pass to {lowering(cold_descs[name])}"
            )
        if have_cc:
            # An object already on disk attaches before the call returns.
            assert program.descriptor["backend"] == "c", (
                f"{name}: warm rebuild lost the native backend"
            )
    warm = codegen_stats()
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
        f"{'native':>9s} {'speedup':>8s} {'1-thread':>9s} {'split':>6s} "
        f"{'bw':>5s} {'bw1':>5s}  {'micro':<7s} {'staged':>9s} {'direct':>9s}"
    )
    for name, r in results.items():
        print(
            f"{name:<22s} {r['backend']:<8s} {r['payload_mib']:>6.1f} "
            f"{r['numpy_ms']:>7.2f}ms {r['native_ms']:>7.2f}ms "
            f"{r['native_speedup']:>7.2f}x {r['one_thread_ms']:>7.2f}ms "
            f"{r['split_speedup']:>5.2f}x {r['bw_fraction']:>5.2f} "
            f"{r['bw_fraction_one_thread']:>5.2f}  {r['micro']:<7s} "
            f"{r['staged_ms']:>7.2f}ms {r['direct_ms']:>7.2f}ms"
        )
    print(
        f"{native.CPUS} usable CPUs; bw = split call over a {native.CPUS}-"
        "thread copy, bw1 = one-thread call over a one-thread copy"
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
        f"{warm['searches']} searches ({warm['search_s'] * 1e3:.2f} ms)"
    )

    if args.smoke:
        # Throughput needs a quiet host; smoke gates only the
        # deterministic invariants (parity asserted in bench_case and
        # check_small_case, the descriptor and compile counters above).
        return gate("NATIVE SMOKE REGRESSION", failures, smoke=True)

    if have_cc:
        failures += [
            f"{name}: native speedup {r['native_speedup']}x < "
            f"{MIN_NATIVE_SPEEDUP}x over np.transpose"
            for name, r in results.items()
            if r["native_speedup"] < MIN_NATIVE_SPEEDUP
        ]
        if native.CPUS >= 2:
            failures += [
                f"{name}: split call only {r['split_speedup']}x the "
                f"one-thread call (< {MIN_SPLIT_SPEEDUP}x)"
                for name, r in results.items()
                if r["split_speedup"] < MIN_SPLIT_SPEEDUP
            ]
        failures += [
            f"{name}: staged {r['staged_ms']}ms is only "
            f"{r['staged_speedup']}x the direct twin's {r['direct_ms']}ms "
            f"(< {MIN_STAGED_SPEEDUP}x)"
            for name, r in results.items()
            if name in STAGED_CASES
            and r["staged_speedup"] < MIN_STAGED_SPEEDUP
        ]
    summary = {
        "env": env_stamp(have_cc, "" if have_cc else "no C toolchain"),
        "repeats": repeats,
        "min_native_speedup": MIN_NATIVE_SPEEDUP,
        "min_staged_speedup": MIN_STAGED_SPEEDUP,
        "min_split_speedup": MIN_SPLIT_SPEEDUP,
        "split_gated": native.CPUS >= 2,
        "usable_cpus": native.CPUS,
        "cache_budget": cg.CACHE_BUDGET_BYTES,
        "stage_min_budgets": cg.STAGE_MIN_BUDGETS,
        "warm_restart": {
            "native_compiled": warm["native_compiled"],
            "native_so_cache_hits": warm["native_so_cache_hits"],
            "searches": warm["searches"],
            "search_ms": round(warm["search_s"] * 1e3, 3),
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
