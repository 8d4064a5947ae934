"""Native execution tier: C-emitted transpose kernels.

The codegen tier (:mod:`repro.kernels.codegen`) searches HPTT-style
block/loop-order configurations; HPTT and TTC show such a search pays
off when the winning nest is emitted as *compiled C* with a
contiguous-innermost micro-kernel.  This module is that lowering:

1. **Emission** (:func:`native_source`) — the searched descriptor
   (shape, axes, tiles, loop order, element width) is emitted as a
   self-contained C translation unit: the tile loops and element loops
   with every extent, block size, and stride baked in as constants,
   an innermost micro-kernel that is a ``memcpy`` when the transpose
   preserves the innermost axis and a cache-blocked 2-D transpose on
   the (input-fastest, output-fastest) plane otherwise, and a fused
   batch entry point striding whole operands.  Large operands whose
   direct nest reads short runs get the **staged** micro-kernel
   instead: a cache-resident tile with long runs on both sides,
   written out with non-temporal stores (``codegen.micro_kernel``
   picks it).
2. **Toolchain** (:func:`detect_toolchain`) — the host C compiler is
   detected once per process, like
   :func:`~repro.kernels.codegen.detect_cache_budget` detects the
   cache budget: ``REPRO_CC``/``CC`` win verbatim when set (and are
   *not* second-guessed — ``CC=/bin/false`` deliberately disables the
   tier), otherwise ``cc``/``gcc``/``clang`` are probed on ``PATH``.
   The compiler's ``--version`` line is hashed into a fingerprint that
   keys the object cache, so a toolchain upgrade recompiles instead of
   reusing stale objects.
3. **Object cache** (:func:`ensure_compiled`) — sources compile
   out-of-band (``cc -O3 -shared -fPIC`` via subprocess) into a
   directory that lives next to the runtime's ``PlanStore``, named by
   source hash + compiler fingerprint.  An existing ``.so`` is a cache
   hit: warm restarts run **zero compiles**.
4. **Background attach** (:func:`attach_kernel`) — an object already on
   disk attaches at once; a missing one is compiled by one daemon
   compile thread at lowered CPU priority, and the caller gets the
   entry points through a callback when it lands, so no caller waits
   on a compiler.  At interpreter exit an in-flight compile is stopped
   (its process group killed, its temp files removed) and the
   per-process default object directory is deleted.
5. **Loading** (:func:`load_kernel`) — the shared object is loaded
   through :mod:`ctypes`; foreign calls through ``CDLL`` release the
   GIL for the **whole call**, not per tile, so the row ranges of a
   split nest batch scale on the thread pool with zero interpreter
   work inside.

Every failure mode — no toolchain, unsupported element width,
compile error, ``dlopen`` error — yields no entry points and the
caller (:class:`~repro.kernels.codegen.NestProgram`) keeps its NumPy
view chain, bit-exactly.  Counters are reported through a hook
installed by :mod:`repro.kernels.codegen` so all codegen statistics
share one lock (see ``codegen_stats``).
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import math
import os
import queue
import shutil
import signal
import subprocess
import tempfile
import threading
from pathlib import Path
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Bumped when the emitted C changes shape: old shared objects are
#: never reused against sources they no longer match.
NATIVE_VERSION = 3

#: Element widths the emitter knows a C type for.  Anything else
#: (exotic void dtypes) declines and keeps the view chain.
SUPPORTED_ELEM_BYTES = (1, 2, 4, 8, 16)

_C_TYPES = {1: "uint8_t", 2: "uint16_t", 4: "uint32_t", 8: "uint64_t"}

#: Compilers probed on PATH when no env override names one.
_CC_CANDIDATES = ("cc", "gcc", "clang")

#: Compile line; kept flag-stable so the source hash + compiler
#: fingerprint fully determine the object.
CFLAGS = ("-O3", "-shared", "-fPIC")

#: Seconds one out-of-band compile may take before it is declared
#: failed (a wedged compiler must not hang the serving path).
COMPILE_TIMEOUT_S = 60.0

#: One tile's (read, write) plane span below which the micro-kernel
#: keeps plain loops: the strided side stays cache-resident anyway, and
#: unblocked runs vectorize better than short blocked trip counts.
_RESIDENT_PLANE_BYTES = 32 * 1024

#: Largest tile the staged micro-kernel gathers into its scratch buffer
#: (:func:`stage_tiles`), in bytes.
STAGE_TILE_BYTES = 512 * 1024

#: Edge of the staged gather's constant-bound block on the
#: (input-fastest, output-fastest) plane.
STAGE_BLOCK = 8


class NativeCompileError(RuntimeError):
    """The host toolchain rejected an emitted source."""


# ----------------------------------------------------------------------
# Counter hook (installed by repro.kernels.codegen so every codegen
# counter lives in one dict under one lock)
# ----------------------------------------------------------------------


def _noop_count(name: str, value=1) -> None:  # pragma: no cover - default
    return None


_COUNT = _noop_count


def set_counter(fn) -> None:
    """Route this module's counters through ``fn(name, value=1)``."""
    global _COUNT
    _COUNT = fn


# ----------------------------------------------------------------------
# Toolchain detection (resolved once, like detect_cache_budget)
# ----------------------------------------------------------------------

_UNRESOLVED = object()
_TOOLCHAIN = _UNRESOLVED
_TOOLCHAIN_LOCK = Lock()


def detect_toolchain(env=None) -> Optional[dict]:
    """Probe the host C compiler, or ``None`` when there isn't one.

    ``REPRO_CC`` (then ``CC``) wins verbatim when set and is the *only*
    candidate tried — an explicit ``CC=/bin/false`` must disable the
    tier, not silently fall through to a system ``cc``.  Otherwise
    ``cc``/``gcc``/``clang`` are probed on ``PATH``.  A candidate
    counts only if ``--version`` runs and exits 0; its first output
    line becomes the version string and, hashed with the resolved
    path, the object-cache ``fingerprint``.
    """
    env = os.environ if env is None else env
    override = env.get("REPRO_CC") or env.get("CC")
    names = [override] if override else list(_CC_CANDIDATES)
    for name in names:
        if not name:
            continue
        path = name if os.path.sep in name else shutil.which(name)
        if not path or not os.path.isfile(path):
            continue
        try:
            proc = subprocess.run(
                [path, "--version"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if proc.returncode != 0:
            continue
        version = proc.stdout.decode(errors="replace").splitlines()
        version = version[0].strip() if version else ""
        fingerprint = hashlib.sha1(
            (path + "\x00" + version + "\x00" + " ".join(CFLAGS)).encode()
        ).hexdigest()[:12]
        return {"path": path, "version": version, "fingerprint": fingerprint}
    return None


def toolchain() -> Optional[dict]:
    """The process-wide detected toolchain (probed once, then cached)."""
    global _TOOLCHAIN
    if _TOOLCHAIN is _UNRESOLVED:
        with _TOOLCHAIN_LOCK:
            if _TOOLCHAIN is _UNRESOLVED:
                _TOOLCHAIN = detect_toolchain()
    return _TOOLCHAIN  # type: ignore[return-value]


def reset_toolchain_cache() -> None:
    """Forget the cached probe (tests that monkeypatch ``CC``)."""
    global _TOOLCHAIN
    with _TOOLCHAIN_LOCK:
        _TOOLCHAIN = _UNRESOLVED


def compiler_info() -> dict:
    """Toolchain summary for stats tables and benchmark env stamps."""
    tc = toolchain()
    if tc is None:
        return {"available": False, "path": None, "version": None,
                "fingerprint": None}
    return {"available": True, **tc}


# ----------------------------------------------------------------------
# Object cache directory
# ----------------------------------------------------------------------

_DEFAULT_DIR: Optional[Path] = None
_DEFAULT_DIR_PID: Optional[int] = None
_DEFAULT_DIR_LOCK = Lock()


def default_cache_dir() -> Path:
    """The object-cache directory used when the caller pins none.

    ``REPRO_NATIVE_CACHE_DIR`` wins; else a per-process tempdir (still
    correct — just no cross-restart reuse), removed at interpreter exit.
    """
    override = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if override:
        return Path(override)
    global _DEFAULT_DIR, _DEFAULT_DIR_PID
    with _DEFAULT_DIR_LOCK:
        if _DEFAULT_DIR is None:
            _DEFAULT_DIR = Path(tempfile.mkdtemp(prefix="repro-native-"))
            _DEFAULT_DIR_PID = os.getpid()
        return _DEFAULT_DIR


# ----------------------------------------------------------------------
# C source emission
# ----------------------------------------------------------------------


def _strides_of(shape: Sequence[int]) -> List[int]:
    strides = [0] * len(shape)
    s = 1
    for a in range(len(shape) - 1, -1, -1):
        strides[a] = s
        s *= int(shape[a])
    return strides


def _inverse(axes: Sequence[int]) -> List[int]:
    inv = [0] * len(axes)
    for k, a in enumerate(axes):
        inv[a] = k
    return inv


def stage_tiles(
    in_shape: Sequence[int],
    axes: Sequence[int],
    elem_bytes: int,
    tile_bytes: int = STAGE_TILE_BYTES,
) -> List[int]:
    """The staged micro-kernel's tile, one extent per output axis.

    A run is the contiguous elements one side moves before it jumps to
    another row: on the input side the tile's extents along the
    input-fastest axes, on the output side along the output-fastest
    axes, each walk stopping after the first axis the tile cuts short.
    Starting from one element, each step doubles the shorter run (the
    input run on a tie) by doubling its first cut-short axis, until the
    next step would take the tile past ``tile_bytes`` or the tile is the
    whole operand.
    """
    out_shape = [int(in_shape[a]) for a in axes]
    nd = len(out_shape)
    inv = _inverse(axes)
    sides = (
        [inv[a] for a in range(nd - 1, -1, -1)],  # input-fastest first
        list(range(nd - 1, -1, -1)),  # output-fastest first
    )
    tiles = [1] * nd

    def run(side: List[int]) -> int:
        r = 1
        for k in side:
            r *= tiles[k]
            if tiles[k] < out_shape[k]:
                break
        return r

    while True:
        runs = [run(side) for side in sides]
        grow = None
        for i in sorted((0, 1), key=runs.__getitem__):
            grow = next((k for k in sides[i] if tiles[k] < out_shape[k]), None)
            if grow is not None:
                break
        if grow is None:
            return tiles
        wider = min(2 * tiles[grow], out_shape[grow])
        if math.prod(tiles) // tiles[grow] * wider * int(elem_bytes) > tile_bytes:
            return tiles
        tiles[grow] = wider


def native_source(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    order: Sequence[int],
    elem_bytes: int,
    stage: Optional[Sequence[int]] = None,
) -> str:
    """The C translation unit for one searched nest configuration.

    Exports two entry points (default visibility, loaded by ctypes)::

        void repro_nest(const void *src, void *dst, void *scratch);
        void repro_nest_batch(const void *src, void *dst,
                              int64_t nbatch, void *scratch);

    ``src`` is the flat C-contiguous input, ``dst`` the flat output;
    the batch entry strides whole ``volume``-element operands for
    ``run_batch``.  Without ``stage`` this is the **direct** nest and
    ``scratch`` is unused: the tile loops follow the descriptor's tiles
    and loop order exactly; inside a tile, element loops cover the
    remaining output axes and the innermost work is a single ``memcpy``
    when the transpose preserves the input's fastest axis (both sides
    contiguous), or a cache-blocked 2-D transpose on the
    (input-fastest, output-fastest) axis plane otherwise.

    ``stage`` (per-output-axis extents, at most the axis extents; see
    :func:`stage_tiles`) emits the **staged** micro-kernel instead: each
    tile of that shape is gathered into ``scratch`` (at least
    ``prod(stage) * elem_bytes`` bytes, owned by the caller) in
    input-axis order, in constant-bound 8x8 blocks on the
    (input-fastest, output-fastest) plane, then written out one output
    run at a time with non-temporal stores and one ``sfence`` per call.
    """
    nd = len(in_shape)
    if nd == 0:
        raise ValueError("cannot emit a rank-0 nest")
    eb = int(elem_bytes)
    out_shape = [int(in_shape[a]) for a in axes]
    src_strides = _strides_of(in_shape)
    out_strides = _strides_of(out_shape)
    moved = [src_strides[axes[k]] for k in range(nd)]
    volume = math.prod(int(d) for d in in_shape)

    if stage is not None and axes[nd - 1] == nd - 1:
        raise ValueError("the staged micro-kernel needs a moved fastest axis")
    # GCC's -O3 loop interchange turns the constant-bound plane loops
    # inside out, making the write side stride across rows (od-rotate
    # ran 2.4x slower); the loop order here is chosen, so keep it.
    lines = [
        "#include <stdint.h>",
        "#include <string.h>",
        "#if defined(__GNUC__) && !defined(__clang__)",
        '#pragma GCC optimize ("no-loop-interchange")',
        "#endif",
    ]
    if stage is not None:
        lines += [
            "#if defined(__SSE2__) && defined(__x86_64__)",
            "#include <emmintrin.h>",
            "#define STREAM 1",
            "#endif",
        ]
    lines.append("")
    if eb == 16:
        lines.append("typedef struct { uint64_t w0, w1; } elem_t;")
    else:
        lines.append(f"typedef {_C_TYPES[eb]} elem_t;")
    lines.append("")
    if stage is None:
        lines += _direct_nest(
            out_shape, moved, out_strides, tiles, order, axes, eb
        )
        fence = []
    else:
        lines += _STREAM_RUN
        lines += _staged_nest(out_shape, moved, out_strides, stage, axes)
        fence = ["#ifdef STREAM", "    _mm_sfence();", "#endif"]
    lines += [
        "",
        "void repro_nest(const void *src, void *dst, void *scratch) {",
        "    nest((const elem_t *)src, (elem_t *)dst, (elem_t *)scratch);",
        *fence,
        "}",
        "",
        "void repro_nest_batch(const void *src, void *dst,"
        " int64_t nbatch, void *scratch) {",
        "    const elem_t *s = (const elem_t *)src;",
        "    elem_t *d = (elem_t *)dst;",
        "    for (int64_t b = 0; b < nbatch; ++b) {",
        f"        nest(s + b * INT64_C({volume}), d + b * INT64_C({volume}),"
        " (elem_t *)scratch);",
        "    }",
        *fence,
        "}",
    ]
    return "\n".join(lines) + "\n"


_NEST_HEAD = (
    "static void nest(const elem_t * restrict src, elem_t * restrict dst,"
    " elem_t * restrict buf) {"
)


def _direct_nest(out_shape, moved, out_strides, tiles, order, axes, eb):
    nd = len(out_shape)
    tiles = [min(int(t), e) for t, e in zip(tiles, out_shape)]
    lines = [_NEST_HEAD, "    (void)buf;"]
    pad = "    "
    depth = 1
    closes = 0
    bounds: Dict[int, Tuple[str, str]] = {}
    for a in order:
        if tiles[a] == out_shape[a]:
            continue
        lines.append(
            f"{pad * depth}for (int64_t i{a} = 0; i{a} < {out_shape[a]};"
            f" i{a} += {tiles[a]}) {{"
        )
        depth += 1
        closes += 1
        lines.append(
            f"{pad * depth}int64_t u{a} = i{a} + {tiles[a]} < {out_shape[a]}"
            f" ? i{a} + {tiles[a]} : {out_shape[a]};"
        )
        bounds[a] = (f"i{a}", f"u{a}")

    n1 = nd - 1
    m1 = moved[n1]
    # Position (in output axes) of the input's fastest axis: the one
    # output axis whose reads are contiguous.  When it IS the innermost
    # output axis, both sides of the innermost run are contiguous.
    k0 = list(axes).index(nd - 1)
    elem_axes = [a for a in range(nd - 1) if m1 == 1 or a != k0]
    for a in elem_axes:
        lo_e, hi_e = bounds.get(a, ("0", str(out_shape[a])))
        lines.append(
            f"{pad * depth}for (int64_t x{a} = {lo_e}; x{a} < {hi_e};"
            f" ++x{a}) {{"
        )
        depth += 1
        closes += 1

    souter = "".join(f" + x{a} * {moved[a]}" for a in elem_axes)
    douter = "".join(f" + x{a} * {out_strides[a]}" for a in elem_axes)
    start, stop = bounds.get(n1, ("0", str(out_shape[n1])))
    if m1 == 1:
        # The transpose preserves the input's fastest axis: both sides
        # of the innermost run are contiguous — straight memcpy.
        lines.append(
            f"{pad * depth}const elem_t * restrict s ="
            f" src + {start}{souter};"
        )
        lines.append(
            f"{pad * depth}elem_t * restrict d = dst + {start}{douter};"
        )
        lines.append(
            f"{pad * depth}memcpy(d, s,"
            f" (size_t)({stop} - {start}) * sizeof(elem_t));"
        )
    else:
        # Contiguous-innermost micro-kernel: a 2-D transpose on the
        # (k0, innermost) plane.  Reads are contiguous along j (the
        # input's fastest axis), writes contiguous along x (the
        # output's fastest axis).  When one tile's plane exceeds the
        # cache-resident span, both loops are blocked so each block's
        # read and write lines stay resident while they are reused,
        # instead of streaming one strided side line-by-line; a
        # resident plane keeps plain loops (longer vectorizable runs,
        # no blocking overhead).
        dj = out_strides[k0]
        j_lo, j_hi = bounds.get(k0, ("0", str(out_shape[k0])))
        j_ext = tiles[k0]
        x_ext = tiles[n1]
        span = ((j_ext - 1) + (x_ext - 1) * m1 + 1) * eb
        span_w = ((j_ext - 1) * dj + (x_ext - 1) + 1) * eb
        lines.append(
            f"{pad * depth}const elem_t * restrict s = src{souter};"
        )
        lines.append(f"{pad * depth}elem_t * restrict d = dst{douter};")
        if max(span, span_w) <= _RESIDENT_PLANE_BYTES:
            lines.append(
                f"{pad * depth}for (int64_t j = {j_lo}; j < {j_hi};"
                f" ++j) {{"
            )
            lines.append(
                f"{pad * (depth + 1)}const elem_t * restrict ss = s + j;"
            )
            lines.append(
                f"{pad * (depth + 1)}elem_t * restrict dd = d + j * {dj};"
            )
            lines.append(
                f"{pad * (depth + 1)}for (int64_t x = {start}; x < {stop};"
                f" ++x) {{ dd[x] = ss[x * {m1}]; }}"
            )
            lines.append(f"{pad * depth}}}")
        else:
            block = min(64, max(8, 256 // eb))
            lines.append(
                f"{pad * depth}for (int64_t jb = {j_lo}; jb < {j_hi};"
                f" jb += {block}) {{"
            )
            lines.append(
                f"{pad * (depth + 1)}int64_t je = jb + {block} < {j_hi}"
                f" ? jb + {block} : {j_hi};"
            )
            lines.append(
                f"{pad * (depth + 1)}for (int64_t xb = {start};"
                f" xb < {stop}; xb += {block}) {{"
            )
            lines.append(
                f"{pad * (depth + 2)}int64_t xe = xb + {block} < {stop}"
                f" ? xb + {block} : {stop};"
            )
            lines.append(
                f"{pad * (depth + 2)}for (int64_t j = jb; j < je; ++j) {{"
            )
            lines.append(
                f"{pad * (depth + 3)}const elem_t * restrict ss = s + j;"
            )
            lines.append(
                f"{pad * (depth + 3)}elem_t * restrict dd ="
                f" d + j * {dj};"
            )
            lines.append(
                f"{pad * (depth + 3)}for (int64_t x = xb; x < xe; ++x) {{"
                f" dd[x] = ss[x * {m1}]; }}"
            )
            lines.append(f"{pad * (depth + 2)}}}")
            lines.append(f"{pad * (depth + 1)}}}")
            lines.append(f"{pad * depth}}}")
    for _ in range(closes):
        depth -= 1
        lines.append(f"{pad * depth}}}")
    lines.append("}")
    return lines


#: Copies one output run from the staged tile with non-temporal stores
#: (SSE2 on x86-64; a plain ``memcpy`` elsewhere): 4-byte stores up to
#: 8-byte alignment and for a 4-byte tail, 8-byte stores between, and
#: ``memcpy`` for what a 4-byte store cannot cover (1- and 2-byte
#: elements, a destination not 4-byte aligned).
_STREAM_RUN = [
    "static inline void stream_run(char * restrict d,"
    " const char * restrict s, size_t n) {",
    "#ifdef STREAM",
    "    if (((uintptr_t)d & 3) == 0) {",
    "        int w;",
    "        long long v;",
    "        if (((uintptr_t)d & 4) && n >= 4) {",
    "            memcpy(&w, s, 4); _mm_stream_si32((int *)d, w);",
    "            d += 4; s += 4; n -= 4;",
    "        }",
    "        for (; n >= 8; d += 8, s += 8, n -= 8) {",
    "            memcpy(&v, s, 8); _mm_stream_si64((long long *)d, v);",
    "        }",
    "        if (n >= 4) {",
    "            memcpy(&w, s, 4); _mm_stream_si32((int *)d, w);",
    "            d += 4; s += 4; n -= 4;",
    "        }",
    "    }",
    "#endif",
    "    memcpy(d, s, n);",
    "}",
    "",
]


def _staged_nest(out_shape, moved, out_strides, stage, axes) -> List[str]:
    nd = len(out_shape)
    tile = [int(t) for t in stage]
    buf_strides = _strides_of(tile)  # the tile, stored in output order
    inv = _inverse(axes)
    blk = STAGE_BLOCK
    # The block plane: on each side the fastest axis the tile holds a
    # whole block of.  The faster axes before it on either side (the
    # "inner" axes, each under a block wide) move inside the block
    # body, so a pair of swapped 2-wide axes still gets 8x8 blocks on
    # the next axes out.
    in_side = [inv[a] for a in range(nd - 1, -1, -1)]
    out_side = list(range(nd - 1, -1, -1))
    p_ax = next((k for k in in_side if tile[k] >= blk), None)
    q_ax = next((k for k in out_side if tile[k] >= blk), None)
    blocked = p_ax is not None and q_ax is not None and p_ax != q_ax
    inner = []
    if blocked:
        inner = in_side[: in_side.index(p_ax)]
        inner += [k for k in out_side[: out_side.index(q_ax)] if k not in inner]
    lines = [_NEST_HEAD]
    pad = "    "
    depth = 1
    ext = {}
    tiled = [k for k in range(nd) if tile[k] < out_shape[k]]
    for k in range(nd):
        ext[k] = str(tile[k])
        if k not in tiled:
            continue
        lines.append(
            f"{pad * depth}for (int64_t i{k} = 0; i{k} < {out_shape[k]};"
            f" i{k} += {tile[k]}) {{"
        )
        depth += 1
        lines.append(
            f"{pad * depth}const int64_t e{k} = {out_shape[k]} - i{k}"
            f" < {tile[k]} ? {out_shape[k]} - i{k} : {tile[k]};"
        )
        ext[k] = f"e{k}"
    tile_depth = depth
    lines.append(
        f"{pad * depth}const elem_t * restrict s = src"
        + "".join(f" + i{k} * {moved[k]}" for k in tiled) + ";"
    )
    lines.append(
        f"{pad * depth}elem_t * restrict d = dst"
        + "".join(f" + i{k} * {out_strides[k]}" for k in tiled) + ";"
    )

    def offsets(names: Dict[int, str], strides) -> str:
        return "".join(f" + {names[k]} * {strides[k]}" for k in sorted(names))

    # Gather: the tile in input-axis order, slowest axis outermost.  The
    # plane axes step by whole blocks at their input-order positions.
    var = {}
    for a in range(nd):
        k = inv[a]
        if tile[k] == 1 or k in inner:
            continue
        if blocked and k in (p_ax, q_ax):
            var[k] = f"b{k}"
            step = f"{var[k]} += {blk}"
        else:
            var[k] = f"x{k}"
            step = f"++{var[k]}"
        lines.append(
            f"{pad * depth}for (int64_t {var[k]} = 0; {var[k]} < {ext[k]};"
            f" {step}) {{"
        )
        depth += 1
    if not blocked:
        boff, soff = offsets(var, buf_strides), offsets(var, moved)
        lines.append(
            f"{pad * depth}buf[{boff[3:] or '0'}] = s[{soff[3:] or '0'}];"
        )
    else:
        # The body: p walks the input-side plane axis, q the output
        # side's (writes along q are contiguous in the tile), and the
        # inner axes run innermost in input order.
        body = {p_ax: "p", q_ax: "q"}
        body.update({k: f"y{k}" for k in inner})
        move = (
            f"t[{offsets(body, buf_strides)[3:]}]"
            f" = g[{offsets(body, moved)[3:]}];"
        )
        inner_loops = [
            f"for (int64_t y{k} = 0; y{k} < {ext[k]}; ++y{k})"
            for k in sorted(inner, key=lambda k: -in_side.index(k))
        ]
        left_p = f"{ext[p_ax]} - {var[p_ax]}"
        left_q = f"{ext[q_ax]} - {var[q_ax]}"

        def block(np_: str, nq: str, ctype: str) -> List[str]:
            # GCC keeps even the constant 8x8 loops rolled at -O3;
            # unrolled, the full-block path ran 1.2-1.5x faster.
            unroll = f"#pragma GCC unroll {blk}\n" if ctype == "int" else ""
            loops = [
                f"{unroll}for ({ctype} p = 0; p < {np_}; ++p)",
                f"{unroll}for ({ctype} q = 0; q < {nq}; ++q)",
                *inner_loops,
            ]
            out = []
            for i, loop in enumerate(loops):
                out += [f"{pad * (depth + 1 + i)}{ln}" for ln in loop.split("\n")]
            return out + [f"{pad * (depth + 1 + len(loops))}{move}"]

        lines += [
            f"{pad * depth}const elem_t * restrict g = s{offsets(var, moved)};",
            f"{pad * depth}elem_t * restrict t = buf{offsets(var, buf_strides)};",
            f"{pad * depth}if ({left_p} >= {blk} && {left_q} >= {blk}) {{",
            *block(str(blk), str(blk), "int"),
            f"{pad * depth}}} else {{",
            f"{pad * (depth + 1)}const int64_t np = {left_p} < {blk}"
            f" ? {left_p} : {blk};",
            f"{pad * (depth + 1)}const int64_t nq = {left_q} < {blk}"
            f" ? {left_q} : {blk};",
            *block("np", "nq", "int64_t"),
            f"{pad * depth}}}",
        ]
    while depth > tile_depth:
        depth -= 1
        lines.append(f"{pad * depth}}}")

    # Write-out: every output run of the tile, in output order.  A run
    # spans the output-fastest axes the tile covers whole plus the
    # first one it cuts short.
    kr = tiled[-1] if tiled else -1
    run = f"{ext[kr]} * {buf_strides[kr]}" if kr >= 0 else str(math.prod(tile))
    outer = [k for k in range(max(kr, 0)) if tile[k] > 1]
    for k in outer:
        lines.append(
            f"{pad * depth}for (int64_t x{k} = 0; x{k} < {ext[k]}; ++x{k})"
        )
        depth += 1
    dout = "".join(f" + x{k} * {out_strides[k]}" for k in outer)
    bout = "".join(f" + x{k} * {buf_strides[k]}" for k in outer)
    lines.append(
        f"{pad * depth}stream_run((char *)(d{dout}),"
        f" (const char *)(buf{bout}), (size_t)({run}) * sizeof(elem_t));"
    )
    depth = tile_depth
    while depth > 1:
        depth -= 1
        lines.append(f"{pad * depth}}}")
    lines.append("}")
    return lines


# ----------------------------------------------------------------------
# Out-of-band compilation + the on-disk object cache
# ----------------------------------------------------------------------


def object_name(c_source: str, fingerprint: str) -> str:
    """Cache filename of one (source, compiler) pair."""
    sha = hashlib.sha1(c_source.encode()).hexdigest()
    return f"nest{NATIVE_VERSION}-{sha[:16]}-{fingerprint}.so"


#: Serializes in-process compiles: the temp names are unique per PID,
#: so two *threads* of one process would otherwise share them — the
#: loser's rename fails and the winner's published object can still be
#: written through the loser's open fd.
_COMPILE_LOCK = Lock()

#: Running compiler processes and their temp objects, so interpreter
#: exit can stop them (:func:`_shutdown`).  ``_STOPPING`` refuses new
#: compiles once exit has begun.
_INFLIGHT: Dict[subprocess.Popen, Path] = {}
_INFLIGHT_LOCK = Lock()
_STOPPING = False


def ensure_compiled(c_source: str, cache_dir: Path, tc: dict) -> Path:
    """The compiled shared object for ``c_source``, compiling on miss.

    An existing object under the source-hash + compiler-fingerprint
    name is returned untouched (counted as ``native_so_cache_hits`` —
    this is the zero-compile warm-restart path).  On a miss the source
    is written next to the object for debuggability and compiled with
    :data:`CFLAGS` into a unique temp name, then atomically renamed in,
    so concurrent compilers of the same source converge on one object:
    threads serialize on :data:`_COMPILE_LOCK` (re-checking the cache
    once inside it), processes on the PID-unique temp + rename.
    Raises :class:`NativeCompileError` on any toolchain failure.
    """
    cache_dir = Path(cache_dir)
    so_path = cache_dir / object_name(c_source, tc["fingerprint"])
    if so_path.is_file():
        _COUNT("native_so_cache_hits")
        return so_path
    with _COMPILE_LOCK:
        if so_path.is_file():
            _COUNT("native_so_cache_hits")
            return so_path
        _compile(c_source, cache_dir, so_path, tc)
    _COUNT("native_compiled")
    return so_path


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a compiler and everything it spawned (its own session)."""
    for sig, wait_s in ((signal.SIGTERM, 1.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except OSError:
            pass
        try:
            proc.wait(timeout=wait_s)
            return
        except subprocess.TimeoutExpired:
            continue


def _compile(c_source: str, cache_dir: Path, so_path: Path, tc: dict):
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        c_path = so_path.with_suffix(".c")
        tmp_c = c_path.with_name(c_path.name + f".{os.getpid()}.tmp")
        tmp_c.write_text(c_source)
        os.replace(tmp_c, c_path)
        tmp_so = so_path.with_name(so_path.name + f".{os.getpid()}.tmp")
        with _INFLIGHT_LOCK:
            if _STOPPING:
                raise NativeCompileError("interpreter is exiting")
            # A session of its own, so exit can kill the compiler's
            # children (cc1, as, ld) along with it.
            proc = subprocess.Popen(
                [tc["path"], *CFLAGS, "-o", str(tmp_so), str(c_path)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
            _INFLIGHT[proc] = tmp_so
        try:
            _, err = proc.communicate(timeout=COMPILE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            err = b"compile timed out"
        finally:
            with _INFLIGHT_LOCK:
                _INFLIGHT.pop(proc, None)
                stopping = _STOPPING
        if proc.returncode != 0 or stopping:
            tmp_so.unlink(missing_ok=True)
            raise NativeCompileError(err.decode(errors="replace")[:2000])
        os.replace(tmp_so, so_path)
    except NativeCompileError:
        raise
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeCompileError(str(exc)) from exc


# One CDLL handle per object path: dlopen is cheap but not free, and
# every NestProgram of one geometry shares the same object.
_LOADED: Dict[str, Tuple] = {}
_LOADED_LOCK = Lock()


def load_kernel(so_path) -> Tuple:
    """``(fn, batch_fn)`` ctypes entry points of one compiled object.

    ``CDLL`` (not ``PyDLL``) releases the GIL around every foreign
    call — the whole nest runs GIL-free.  Raises ``OSError`` when the
    object cannot be loaded or lacks the expected symbols.
    """
    key = str(so_path)
    with _LOADED_LOCK:
        hit = _LOADED.get(key)
        if hit is not None:
            return hit
    lib = ctypes.CDLL(key)
    try:
        fn = lib.repro_nest
        batch_fn = lib.repro_nest_batch
    except AttributeError as exc:  # pragma: no cover - corrupt object
        raise OSError(f"missing nest symbols in {key}") from exc
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
    batch_fn.restype = None
    batch_fn.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
    ]
    with _LOADED_LOCK:
        _LOADED[key] = (fn, batch_fn)
    return fn, batch_fn


def clear_loaded_cache() -> None:
    """Drop the in-memory dlopen handles (cold-start benchmark
    conditions; the on-disk object cache is deliberately kept)."""
    with _LOADED_LOCK:
        _LOADED.clear()


def _compiled_kit(source: str, directory: Path, tc: dict) -> Optional[Tuple]:
    """Compile (or reuse) and load one source; ``None`` on failure,
    counted per cause."""
    try:
        so_path = ensure_compiled(source, directory, tc)
    except NativeCompileError:
        if not _STOPPING:
            _COUNT("native_compile_failures")
        return None
    try:
        return load_kernel(so_path)
    except OSError:
        _COUNT("native_load_failures")
        return None


# ----------------------------------------------------------------------
# The background compile thread
# ----------------------------------------------------------------------

_JOBS: "queue.Queue" = queue.Queue()
#: Object path -> callbacks waiting on that object, so several programs
#: of one geometry share a single compile.
_WAITING: Dict[Path, List[Callable]] = {}
_WORKER: Optional[threading.Thread] = None
_WORKER_LOCK = Lock()


def _compile_worker() -> None:
    try:
        # A compile shares the host with the calls it will speed up, so
        # it runs at nice +10; Linux nice values are per thread and
        # inherited by the compiler this thread forks.
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 10)
    except (AttributeError, OSError):
        pass
    while True:
        job = _JOBS.get()
        if job is None or _STOPPING:
            return
        source, directory, tc, so_path = job
        kit = _compiled_kit(source, directory, tc)
        with _WORKER_LOCK:
            callbacks = _WAITING.pop(so_path, [])
        for on_ready in callbacks:
            on_ready(kit)


def _submit(source: str, directory: Path, tc: dict, so_path: Path,
            on_ready: Callable) -> None:
    global _WORKER
    with _WORKER_LOCK:
        waiting = _WAITING.get(so_path)
        if waiting is not None:
            waiting.append(on_ready)
            return
        _WAITING[so_path] = [on_ready]
        if _WORKER is None:
            _WORKER = threading.Thread(
                target=_compile_worker, name="repro-native-compile",
                daemon=True,
            )
            _WORKER.start()
    _JOBS.put((source, directory, tc, so_path))


def attach_kernel(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    order: Sequence[int],
    elem_bytes: int,
    on_ready: Callable[[Optional[Tuple]], None],
    cache_dir=None,
    background: bool = False,
    stage: Optional[Sequence[int]] = None,
) -> Optional[Callable[[], None]]:
    """Hand ``(fn, batch_fn)`` for one configuration to ``on_ready``.

    ``stage`` selects the staged micro-kernel (see :func:`native_source`).

    ``on_ready(None)`` — counted per cause — means the caller keeps the
    NumPy view chain: no toolchain (``native_toolchain_missing``),
    unsupported element width (``native_unsupported``), compile
    failure (``native_compile_failures``), or load failure
    (``native_load_failures``).  An object already on disk is loaded
    and handed over before this returns.  A missing one is compiled
    inline; with ``background`` it is not compiled here at all: the
    returned ``start()`` queues it on the compile thread, which calls
    ``on_ready`` when the object lands.  Never raises.
    """
    if len(in_shape) == 0 or int(elem_bytes) not in SUPPORTED_ELEM_BYTES:
        _COUNT("native_unsupported")
        on_ready(None)
        return None
    tc = toolchain()
    if tc is None:
        _COUNT("native_toolchain_missing")
        on_ready(None)
        return None
    source = native_source(in_shape, axes, tiles, order, elem_bytes, stage)
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    so_path = directory / object_name(source, tc["fingerprint"])
    if background and not so_path.is_file():
        return lambda: _submit(source, directory, tc, so_path, on_ready)
    on_ready(_compiled_kit(source, directory, tc))
    return None


def _shutdown() -> None:
    """Interpreter exit: stop compiles, then drop the per-process dir.

    The running compiler's process group is killed and its temp object
    unlinked; the compile thread sees ``_STOPPING`` and exits without
    publishing.  The default object directory is removed only by the
    process that created it; a pinned ``REPRO_NATIVE_CACHE_DIR`` or a
    store's ``native_dir`` is kept.
    """
    global _STOPPING
    with _INFLIGHT_LOCK:
        _STOPPING = True
        inflight = list(_INFLIGHT.items())
    _JOBS.put(None)
    for proc, tmp_so in inflight:
        _kill_group(proc)
        tmp_so.unlink(missing_ok=True)
    if _WORKER is not None:
        _WORKER.join(timeout=10.0)
    if _DEFAULT_DIR is not None and _DEFAULT_DIR_PID == os.getpid():
        shutil.rmtree(_DEFAULT_DIR, ignore_errors=True)


atexit.register(_shutdown)
