"""Kernel bounds: what a strided read and a strided write cost here.

A transpose reads and writes every byte once, but at least one side
moves in short *runs*: the contiguous bytes it moves before it jumps
to another row.  This bench measures what run length costs on this
host, separately for each side, so a kernel change can aim at the side
that bounds it:

- **read-only sweep** — every byte of a ``--mib`` buffer read once, in
  runs of 64 B to 4 KiB, the buffer cut into 32, 128 or 512 rows and
  consecutive runs one row apart (so as many streams in flight);
- **write-only sweep** — the same walk, storing instead of loading;
- **contiguous copy** — ``memcpy`` of the whole buffer, the ceiling
  (reported as GB/s of bytes read plus written);
- **tile pass** — the staged micro-kernel's extra work: a
  cache-resident 512 KiB tile of f64 transposed in 8x8 blocks into a
  second one (rows padded by a cache line, as ``native.stage_layout``
  pads them), repeated until as many bytes as the buffer have moved.

``codegen.micro_kernel`` prices the direct and the staged C nest from
these numbers (``codegen.READ_MS``, ``WRITE_MS``, ``TILE_PASS_MS``);
``tests/test_staged_kernel.py`` checks the constants against this file.

Each sweep is C compiled by the native tier's toolchain with its
``CFLAGS`` and called through ctypes; times are the best of
``--repeats``, interleaved.  Buffers are written before timing, so no
page is first touched inside a timed call.  The transparent-huge-page
mode (read from sysfs, never written) and whether NumPy asks for huge
pages are recorded with the numbers: page backing moves them.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel_bounds.py

writes ``results/kernel_bounds.json``.  ``--smoke`` (CI) sweeps an
8 MiB buffer twice and writes nothing.  Without a C toolchain it prints
why and exits 0.
"""

from __future__ import annotations

import ctypes
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import bench_parser, env_stamp, gate, interleaved_ms, pick_repeats
from repro.kernels import native

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "results" / "kernel_bounds.json"
)

#: Run lengths swept, in bytes.
RUNS = (64, 256, 1024, 4096)

#: Rows the buffer is cut into; consecutive runs are one row apart.
#: 128 rows of a 64 MiB buffer are od-reverse's 512 KiB read stride.
ROWS = (32, 128, 512)

THP_PATH = "/sys/kernel/mm/transparent_hugepage/enabled"

SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Every byte of a rows x (n / rows) buffer once, run bytes at a time,
   visiting the rows in turn before moving along them. */
uint64_t read_sweep(const uint64_t *buf, int64_t n, int64_t rows,
                    int64_t run) {
    int64_t row = n / rows, words = run / 8;
    uint64_t acc = 0;
    for (int64_t col = 0; col < row; col += run)
        for (int64_t r = 0; r < rows; ++r) {
            const uint64_t *p = buf + (r * row + col) / 8;
            for (int64_t w = 0; w < words; ++w) acc ^= p[w];
        }
    return acc;
}

void write_sweep(uint64_t *buf, int64_t n, int64_t rows, int64_t run) {
    int64_t row = n / rows, words = run / 8;
    for (int64_t col = 0; col < row; col += run)
        for (int64_t r = 0; r < rows; ++r) {
            uint64_t *p = buf + (r * row + col) / 8;
            for (int64_t w = 0; w < words; ++w) p[w] = (uint64_t)w;
        }
}

void copy(void *dst, const void *src, int64_t n) { memcpy(dst, src, n); }

/* A TILE x TILE f64 tile transposed in 8x8 blocks into a second one
   whose rows are padded by a cache line, reps times. */
#define TILE 256
void tile_pass(uint64_t *dst, const uint64_t *src, int64_t reps) {
    for (int64_t r = 0; r < reps; ++r)
        for (int64_t ib = 0; ib < TILE; ib += 8)
            for (int64_t jb = 0; jb < TILE; jb += 8) {
                #pragma GCC unroll 8
                for (int p = 0; p < 8; ++p)
                    #pragma GCC unroll 8
                    for (int q = 0; q < 8; ++q)
                        dst[(ib + p) * (TILE + 8) + jb + q] =
                            src[(jb + q) * TILE + ib + p];
            }
}
"""

#: Bytes of one tile of the tile pass (``TILE`` x ``TILE`` f64).
TILE_BYTES = 256 * 256 * 8


def thp_mode() -> str:
    """The bracketed transparent-huge-page mode, or ``unknown``."""
    try:
        text = Path(THP_PATH).read_text()
    except OSError:
        return "unknown"
    start, end = text.find("["), text.find("]")
    return text[start + 1:end] if 0 <= start < end else text.strip()


def numpy_hugepage() -> object:
    """Whether NumPy madvises huge pages for large arrays (``None``
    when this NumPy does not say)."""
    core = getattr(np, "_core", None) or np.core
    probe = getattr(core.multiarray, "_get_madvise_hugepage", None)
    return bool(probe()) if probe else None


def load(directory: Path):
    tc = native.toolchain()
    lib = ctypes.CDLL(str(native.ensure_compiled(SOURCE, directory, tc)))
    i64, vp = ctypes.c_int64, ctypes.c_void_p
    lib.read_sweep.restype = ctypes.c_uint64
    lib.read_sweep.argtypes = [vp, i64, i64, i64]
    lib.write_sweep.restype = None
    lib.write_sweep.argtypes = [vp, i64, i64, i64]
    lib.copy.restype = None
    lib.copy.argtypes = [vp, vp, i64]
    lib.tile_pass.restype = None
    lib.tile_pass.argtypes = [vp, vp, i64]
    return lib


def main(argv=None):
    ap = bench_parser(__doc__.splitlines()[0])
    ap.add_argument("--mib", type=int, default=None, help="buffer size")
    ap.add_argument("--out", type=Path, default=RESULTS_PATH)
    args = ap.parse_args(argv)
    repeats = pick_repeats(args, full=7, smoke=2)
    mib = args.mib or (8 if args.smoke else 64)
    if native.toolchain() is None:
        print("no C toolchain: kernel bounds not measured")
        return 0

    with tempfile.TemporaryDirectory(prefix="repro-bounds-") as tmp:
        lib = load(Path(tmp))  # stays mapped after its file is removed
    n = mib << 20
    src = np.empty(n, dtype=np.uint8)
    dst = np.empty(n, dtype=np.uint8)
    src[:] = 1  # fault every page in before timing
    dst[:] = 2
    s, d = src.ctypes.data, dst.ctypes.data
    tile_src = np.ones(TILE_BYTES // 8, dtype=np.uint64)
    tile_dst = np.zeros(TILE_BYTES // 8 + 256 * 8, dtype=np.uint64)
    ts, td = tile_src.ctypes.data, tile_dst.ctypes.data
    fns = {
        "copy": lambda: lib.copy(d, s, n),
        "tile": lambda: lib.tile_pass(td, ts, n // TILE_BYTES),
    }
    for rows in ROWS:
        for run in RUNS:
            fns[f"read-{rows}-{run}"] = (
                lambda rows=rows, run=run: lib.read_sweep(s, n, rows, run)
            )
            fns[f"write-{rows}-{run}"] = (
                lambda rows=rows, run=run: lib.write_sweep(d, n, rows, run)
            )
    for fn in fns.values():
        fn()  # warm-up
    best = {name: t for name, (t, _) in interleaved_ms(fns, repeats).items()}

    copy_gbps = 2 * n / (best["copy"] / 1e3) / 1e9
    sweeps = {
        f"{rows}x{run}": {
            "rows": rows,
            "run_bytes": run,
            "read_ms": round(best[f"read-{rows}-{run}"], 3),
            "write_ms": round(best[f"write-{rows}-{run}"], 3),
        }
        for rows in ROWS
        for run in RUNS
    }
    print(f"{mib} MiB, best of {repeats}; THP {thp_mode()}; read/write ms")
    print(f"{'run':>6s}" + "".join(f"{f'{r} rows':>16s}" for r in ROWS))
    for run in RUNS:
        cells = [sweeps[f"{rows}x{run}"] for rows in ROWS]
        print(
            f"{f'{run} B':>6s}"
            + "".join(f"{c['read_ms']:>8.2f}/{c['write_ms']:<7.2f}" for c in cells)
        )
    print(f"contiguous copy {best['copy']:.2f} ms = {copy_gbps:.1f} GB/s")
    print(f"tile pass {best['tile']:.2f} ms")

    failures = []
    if not all(t > 0 for t in best.values()):
        failures.append("a sweep timed at zero")
    if args.smoke:
        return gate("KERNEL BOUNDS SMOKE", failures, smoke=True)
    summary = {
        "env": env_stamp(False, "measurement only, no thresholds"),
        "thp": thp_mode(),
        "numpy_madvise_hugepage": numpy_hugepage(),
        "buffer_mib": mib,
        "repeats": repeats,
        "copy_ms": round(best["copy"], 3),
        "copy_gbps": round(copy_gbps, 2),
        "tile_pass_ms": round(best["tile"], 3),
        "sweeps": sweeps,
    }
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return gate("KERNEL BOUNDS", failures)


if __name__ == "__main__":
    sys.exit(main())
