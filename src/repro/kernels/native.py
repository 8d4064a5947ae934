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
   the (input-fastest, output-fastest) plane otherwise, behind one
   range entry point.  Large operands whose
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
   GIL for the **whole call**, not per tile.
6. **Split calls** (:func:`run_parts`) — the emitted nest runs any
   range of its outermost loop (:func:`split_trips`), so one large
   call is cut into ranges that the calling thread and a process-wide
   set of ``CPUS - 1`` daemon helpers claim from one counter, with zero
   interpreter work inside each range.  A helper claims a range only
   while fewer C calls than ``CPUS`` are in flight in the process, so
   concurrent calls each keep their own CPU.

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
NATIVE_VERSION = 5

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

#: Cache-line bytes: the padding a staged tile row gets, and the
#: granularity of the CPU cost model (``codegen``).
LINE_BYTES = 64

#: The L1 data cache's set period (sets x line, 64 x 64 B on x86-64
#: cores with a 12-way 48 KiB or 8-way 32 KiB L1): rows this many bytes
#: apart fall into the same set.
L1_SET_PERIOD = 4096




def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


#: CPUs this process may run on, read once at import: a split call runs
#: on all of them (the caller and ``CPUS - 1`` helpers); with one CPU
#: nothing splits.
CPUS = _usable_cpus()


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


def _sides(axes: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Output axes, fastest first, on the input side and the output side."""
    nd = len(axes)
    inv = _inverse(axes)
    return [inv[a] for a in range(nd - 1, -1, -1)], list(range(nd - 1, -1, -1))


def _run(tiles, side, out_shape) -> int:
    """Elements of one run of a tile along ``side``: its extents along
    that side's fastest axes, through the first one it cuts short."""
    r = 1
    for k in side:
        r *= tiles[k]
        if tiles[k] < out_shape[k]:
            break
    return r


def stage_runs(
    in_shape: Sequence[int],
    axes: Sequence[int],
    stage: Sequence[int],
    elem_bytes: int,
) -> Tuple[int, int]:
    """Bytes of one input run and one output run of a staged tile.

    The output run is the one the write-out streams: it ends at a
    padded row (:func:`stage_layout`), past which the buffer is not
    contiguous.
    """
    out_shape = [int(in_shape[a]) for a in axes]
    tile = [int(t) for t in stage]
    strides, _ = stage_layout(tile, axes, elem_bytes)
    dense = math.prod(tile[_dense_from(tile, strides):])
    sides = _sides(axes)
    eb = int(elem_bytes)
    return (
        _run(tile, sides[0], out_shape) * eb,
        min(_run(tile, sides[1], out_shape), dense) * eb,
    )


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
    sides = _sides(axes)
    tiles = [1] * nd
    while True:
        runs = [_run(tiles, side, out_shape) for side in sides]
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


def _stage_plane(tile: Sequence[int], axes: Sequence[int]):
    """The staged gather's block plane, ``(p, q, inner)`` output axes, or
    ``None`` when no plane holds a whole block on both sides.

    On each side the plane axis is the fastest axis the tile holds a
    whole block of: ``p`` on the input side, ``q`` on the output side
    (writes along ``q`` are contiguous in the tile).  The faster axes
    before them on either side (the "inner" axes, each under a block
    wide) move inside the block body, so a pair of swapped 2-wide axes
    still gets 8x8 blocks on the next axes out.
    """
    in_side, out_side = _sides(axes)
    p_ax = next((k for k in in_side if tile[k] >= STAGE_BLOCK), None)
    q_ax = next((k for k in out_side if tile[k] >= STAGE_BLOCK), None)
    if p_ax is None or q_ax is None or p_ax == q_ax:
        return None
    inner = in_side[: in_side.index(p_ax)]
    inner += [k for k in out_side[: out_side.index(q_ax)] if k not in inner]
    return p_ax, q_ax, inner


def stage_layout(
    stage: Sequence[int], axes: Sequence[int], elem_bytes: int
) -> Tuple[List[int], int]:
    """The staged tile's buffer: ``(strides, elements)``, per output axis.

    The tile is stored in output order.  The rows one gather block
    writes, one per step of the plane's input-side axis ``p``, are
    padded by one cache line when their byte stride is a multiple of
    :data:`L1_SET_PERIOD`: unpadded, every row the gather's innermost
    loop writes falls into one L1 set and they evict each other.  A tile
    whose rows do not alias is left dense.  ``elements`` is the exact
    extent the gather and the write-out touch: the scratch buffer must
    hold ``elements * elem_bytes`` bytes (:func:`stage_scratch_bytes`).
    """
    tile = [int(t) for t in stage]
    eb = int(elem_bytes)
    nd = len(tile)
    plane = _stage_plane(tile, axes)
    strides = [0] * nd
    s = 1
    for k in range(nd - 1, -1, -1):
        if plane and k == plane[0] and s * eb % L1_SET_PERIOD == 0:
            s += max(LINE_BYTES // eb, 1)
        strides[k] = s
        s *= tile[k]
    return strides, sum((t - 1) * st for t, st in zip(tile, strides)) + 1


def _dense_from(tile: Sequence[int], strides: Sequence[int]) -> int:
    """The first output axis from which the staged buffer is contiguous
    (the one after the innermost padded row)."""
    return max(
        (k + 1 for k in range(len(tile) - 1)
         if strides[k] != strides[k + 1] * tile[k + 1]),
        default=0,
    )


def stage_scratch_bytes(
    stage: Sequence[int], axes: Sequence[int], elem_bytes: int
) -> int:
    """Bytes of scratch one staged C call needs (:func:`stage_layout`)."""
    return stage_layout(stage, axes, elem_bytes)[1] * int(elem_bytes)


def native_source(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    order: Sequence[int],
    elem_bytes: int,
    stage: Optional[Sequence[int]] = None,
) -> str:
    """The C translation unit for one searched nest configuration.

    Exports one entry point (default visibility, loaded by ctypes)::

        void repro_nest_range(const void *src, void *dst,
                              int64_t lo, int64_t hi, void *scratch);

    ``src`` is the flat C-contiguous input, ``dst`` the flat output.
    The range entry runs trips ``[lo, hi)`` of the nest's split loop,
    its outermost loop with more than one trip (:func:`split_trips`);
    the whole call is ``(0, trips)``, and ranges that cover the trips
    between them move every element exactly once. Without ``stage`` this
    is the **direct** nest and ``scratch`` is unused: the tile loops
    follow the descriptor's tiles and loop order exactly; inside a tile,
    element loops cover the remaining output axes and the innermost work
    is a single ``memcpy`` when the transpose preserves the input's
    fastest axis (both sides contiguous), or a cache-blocked 2-D
    transpose on the (input-fastest, output-fastest) axis plane
    otherwise.

    ``stage`` (per-output-axis extents, at most the axis extents; see
    :func:`stage_tiles`) emits the **staged** micro-kernel instead: each
    tile of that shape is gathered into ``scratch`` (laid out by
    :func:`stage_layout`, :func:`stage_scratch_bytes` bytes, owned by
    the caller, one per concurrent call) in input-axis order, in
    constant-bound 8x8 blocks on the (input-fastest, output-fastest)
    plane, then written out one output run at a time with non-temporal
    stores.  Those stores are ordered per thread, so each entry ends
    with its own ``sfence``.
    """
    nd = len(in_shape)
    if nd == 0:
        raise ValueError("cannot emit a rank-0 nest")
    eb = int(elem_bytes)
    out_shape = [int(in_shape[a]) for a in axes]
    src_strides = _strides_of(in_shape)
    out_strides = _strides_of(out_shape)
    moved = [src_strides[axes[k]] for k in range(nd)]

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
    split = _split_loop(out_shape, axes, tiles, order, stage)
    if stage is None:
        lines += _direct_nest(
            out_shape, moved, out_strides, tiles, order, axes, eb, split
        )
        fence = []
    else:
        lines += _STREAM_RUN
        lines += _staged_nest(
            out_shape, moved, out_strides, stage, axes, eb, split
        )
        fence = ["#ifdef STREAM", "    _mm_sfence();", "#endif"]
    lines += [
        "",
        "void repro_nest_range(const void *src, void *dst,"
        " int64_t lo, int64_t hi, void *scratch) {",
        "    nest((const elem_t *)src, (elem_t *)dst, (elem_t *)scratch,"
        " lo, hi);",
        *fence,
        "}",
    ]
    return "\n".join(lines) + "\n"


_NEST_HEAD = (
    "static void nest(const elem_t * restrict src, elem_t * restrict dst,"
    " elem_t * restrict buf, int64_t lo, int64_t hi) {"
)


def _split_loop(out_shape, axes, tiles, order, stage) -> Optional[Tuple[int, int]]:
    """``(output axis, step)`` of the nest's split loop, its outermost
    loop with more than one trip, or ``None`` when it has none.

    The staged nest's outermost loop is its first tile loop (tiles in
    output-axis order).  The direct nest's is its first tile loop in the
    descriptor's loop order, else, with every axis whole, its first
    element loop over an axis longer than one; its plane loops are never
    split.  A tile loop steps by the tile, an element loop by one.
    """
    out_shape = [int(e) for e in out_shape]
    nd = len(out_shape)
    if stage is not None:
        tile = [int(t) for t in stage]
        return next(
            ((k, tile[k]) for k in range(nd) if tile[k] < out_shape[k]), None
        )
    tiles = [min(int(t), e) for t, e in zip(tiles, out_shape)]
    tiled = next((a for a in order if tiles[a] < out_shape[a]), None)
    if tiled is not None:
        return tiled, tiles[tiled]
    k0 = list(axes).index(nd - 1)
    return next(
        ((a, 1) for a in range(nd - 1)
         if (axes[nd - 1] == nd - 1 or a != k0) and out_shape[a] > 1),
        None,
    )


def split_trips(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    order: Sequence[int],
    stage: Optional[Sequence[int]] = None,
) -> int:
    """Trips of the emitted nest's split loop (:func:`native_source`):
    the range entry takes ``0 <= lo <= hi <=`` this.  One when the nest
    has no loop to split."""
    out_shape = [int(in_shape[a]) for a in axes]
    split = _split_loop(out_shape, axes, tiles, order, stage)
    return -(-out_shape[split[0]] // split[1]) if split else 1


def _range(split, axis: int, step: int) -> Optional[Tuple[str, str]]:
    """Bounds of the loop over ``axis`` when it is the split loop."""
    if split is None or split[0] != axis:
        return None
    if step == 1:
        return "lo", "hi"
    return f"lo * {step}", f"hi * {step}"


def _plane_block(j_ext, x_ext, m1, dj, eb) -> Optional[int]:
    """The direct nest's block edge on its (input-fastest j,
    output-fastest x) plane, or ``None`` for plain loops: one tile's
    read or write span past the cache-resident plane gets blocked."""
    span = ((j_ext - 1) + (x_ext - 1) * m1 + 1) * eb
    span_w = ((j_ext - 1) * dj + (x_ext - 1) + 1) * eb
    if max(span, span_w) <= _RESIDENT_PLANE_BYTES:
        return None
    return min(64, max(8, 256 // eb))


def direct_loops(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    order: Sequence[int],
    elem_bytes: int,
) -> List[Tuple[int, int, int]]:
    """The direct nest's loops, innermost first, as ``(trips, input
    stride, output stride)`` in elements: the plane's ``x`` and ``j``
    loops (and, blocked, their block loops), the element loops, then
    the tile loops.  Loops of one trip are left out.  This is the loop
    structure :func:`native_source` emits without ``stage``, for pricing
    it (``codegen.micro_kernel``); it needs a moved fastest axis."""
    nd = len(in_shape)
    out_shape = [int(in_shape[a]) for a in axes]
    tiles = [min(int(t), e) for t, e in zip(tiles, out_shape)]
    src_strides = _strides_of(in_shape)
    out_strides = _strides_of(out_shape)
    moved = [src_strides[axes[k]] for k in range(nd)]
    n1, k0 = nd - 1, list(axes).index(nd - 1)
    m1, dj = moved[n1], out_strides[k0]
    j_ext, x_ext = tiles[k0], tiles[n1]
    block = _plane_block(j_ext, x_ext, m1, dj, int(elem_bytes))
    if block is None:
        loops = [(x_ext, m1, 1), (j_ext, 1, dj)]
    else:
        loops = [
            (min(x_ext, block), m1, 1),
            (min(j_ext, block), 1, dj),
            (-(-x_ext // block), block * m1, block),
            (-(-j_ext // block), block, block * dj),
        ]
    loops += [
        (tiles[a], moved[a], out_strides[a])
        for a in reversed(range(nd - 1)) if a != k0
    ]
    loops += [
        (-(-out_shape[a] // tiles[a]), tiles[a] * moved[a],
         tiles[a] * out_strides[a])
        for a in reversed(order) if tiles[a] < out_shape[a]
    ]
    return [loop for loop in loops if loop[0] > 1]


def _direct_nest(out_shape, moved, out_strides, tiles, order, axes, eb,
                 split):
    nd = len(out_shape)
    tiles = [min(int(t), e) for t, e in zip(tiles, out_shape)]
    lines = [_NEST_HEAD, "    (void)buf;"]
    if split is None:
        lines.append("    if (lo >= hi) return;")
    pad = "    "
    depth = 1
    closes = 0
    bounds: Dict[int, Tuple[str, str]] = {}
    for a in order:
        if tiles[a] == out_shape[a]:
            continue
        lo_t, hi_t = _range(split, a, tiles[a]) or ("0", str(out_shape[a]))
        lines.append(
            f"{pad * depth}for (int64_t i{a} = {lo_t}; i{a} < {hi_t};"
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
        lo_e, hi_e = bounds.get(a) or _range(split, a, 1) or (
            "0", str(out_shape[a])
        )
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
        block = _plane_block(tiles[k0], tiles[n1], m1, dj, eb)
        lines.append(
            f"{pad * depth}const elem_t * restrict s = src{souter};"
        )
        lines.append(f"{pad * depth}elem_t * restrict d = dst{douter};")
        if block is None:
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


def _staged_nest(out_shape, moved, out_strides, stage, axes, eb,
                 split) -> List[str]:
    nd = len(out_shape)
    tile = [int(t) for t in stage]
    buf_strides, _ = stage_layout(tile, axes, eb)
    inv = _inverse(axes)
    blk = STAGE_BLOCK
    plane = _stage_plane(tile, axes)
    blocked = plane is not None
    p_ax, q_ax, inner = plane if blocked else (None, None, [])
    in_side, _ = _sides(axes)
    lines = [_NEST_HEAD]
    if split is None:
        lines.append("    if (lo >= hi) return;")
    pad = "    "
    depth = 1
    ext = {}
    tiled = [k for k in range(nd) if tile[k] < out_shape[k]]
    for k in range(nd):
        ext[k] = str(tile[k])
        if k not in tiled:
            continue
        lo_t, hi_t = _range(split, k, tile[k]) or ("0", str(out_shape[k]))
        lines.append(
            f"{pad * depth}for (int64_t i{k} = {lo_t}; i{k} < {hi_t};"
            f" i{k} += {tile[k]}) {{"
        )
        depth += 1
        if tile[k] == 1:  # a one-wide tile is never cut short
            continue
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
    # first one it cuts short, and ends at a padded row: past it the
    # buffer is not contiguous.
    kr = tiled[-1] if tiled else -1
    c = max(kr, _dense_from(tile, buf_strides))
    run = f"{ext[c]} * {buf_strides[c]}"
    outer = [k for k in range(c) if tile[k] > 1]
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
_LOADED: Dict[str, Callable] = {}
_LOADED_LOCK = Lock()


def load_kernel(so_path) -> Callable:
    """The ``repro_nest_range`` ctypes entry point of one compiled
    object (:func:`native_source`).

    ``CDLL`` (not ``PyDLL``) releases the GIL around every foreign
    call — the whole nest runs GIL-free.  Raises ``OSError`` when the
    object cannot be loaded or lacks the range entry: an object
    emitted before the range entry exported a three-argument
    ``repro_nest`` instead, which must never be called with five.
    """
    key = str(so_path)
    with _LOADED_LOCK:
        hit = _LOADED.get(key)
        if hit is not None:
            return hit
    lib = ctypes.CDLL(key)
    try:
        fn = lib.repro_nest_range
    except AttributeError as exc:
        raise OSError(f"missing nest symbol in {key}") from exc
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p,
    ]
    with _LOADED_LOCK:
        _LOADED[key] = fn
    return fn


def clear_loaded_cache() -> None:
    """Drop the in-memory dlopen handles (cold-start benchmark
    conditions; the on-disk object cache is deliberately kept)."""
    with _LOADED_LOCK:
        _LOADED.clear()


def _compiled_kit(source: str, directory: Path, tc: dict) -> Optional[Callable]:
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


def _set_aside(so_path: Path) -> bool:
    """Move a cached object that does not load (cut short, built for
    another machine) to ``<name>.corrupt``, as the plan store does with
    its file, so the next attach compiles it again; ``False`` when it
    cannot be moved."""
    try:
        so_path.replace(so_path.with_name(so_path.name + ".corrupt"))
    except OSError:
        return False
    _COUNT("native_corrupt_objects")
    return True


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
    on_ready: Callable[[Optional[Callable]], None],
    cache_dir=None,
    stage: Optional[Sequence[int]] = None,
) -> Optional[Callable[[], None]]:
    """Hand the range entry point (:func:`load_kernel`) for one
    configuration to ``on_ready``.

    ``stage`` selects the staged micro-kernel (see :func:`native_source`).

    ``on_ready(None)`` — counted per cause — means the caller keeps the
    NumPy view chain: no toolchain (``native_toolchain_missing``),
    unsupported element width (``native_unsupported``), compile
    failure (``native_compile_failures``), or load failure
    (``native_load_failures``).  An object already on disk is loaded
    and handed over before this returns.  A missing one is not
    compiled here at all: the returned ``start()`` queues it on the
    compile thread, which calls ``on_ready`` when the object lands.
    An object on disk that fails to load is set aside
    (``native_corrupt_objects``) and handled as a missing one.
    Never raises.
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
    if so_path.is_file():
        kit = _compiled_kit(source, directory, tc)
        if kit is not None or not _set_aside(so_path):
            on_ready(kit)
            return None
    return lambda: _submit(source, directory, tc, so_path, on_ready)


# ----------------------------------------------------------------------
# Split calls: the ranges of one call on the caller and the helpers
# ----------------------------------------------------------------------


class _Split:
    """One split call: ``n`` ranges, claimed from one counter by the
    caller and any helper that picks the call up."""

    def __init__(self, work: Callable[[int], None], n: int):
        self.work = work
        self.n = n
        self.claimed = 0
        self.done = 0
        self.error: Optional[BaseException] = None
        self.lock = Lock()
        self.finished = threading.Event()

    def help(self, helper: bool = False) -> None:
        """Run unclaimed ranges until none is left; a ``helper`` stops
        early once every CPU has a call of its own."""
        while True:
            with self.lock:
                i = self.claimed
                if i == self.n or (helper and _CALLS[0] >= CPUS):
                    return
                self.claimed += 1
            try:
                self.work(i)
            except BaseException as exc:  # re-raised on the caller
                with self.lock:
                    self.error = self.error or exc
            finally:
                with self.lock:
                    self.done += 1
                    last = self.done == self.n
                if last:
                    self.finished.set()


_SPLITS: "queue.SimpleQueue" = queue.SimpleQueue()
_HELPERS: List[threading.Thread] = []

#: C calls in flight in the process (one-element list: its lock-guarded
#: counter is read without the lock by the helpers' gate).
_CALLS = [0]
_CALLS_LOCK = Lock()


def _helper() -> None:
    while True:
        split = _SPLITS.get()
        if split is None:
            return
        split.help(helper=True)


def _helpers_ready() -> bool:
    """Start the ``CPUS - 1`` part helpers on first use; ``False`` once
    interpreter exit has begun (the caller then runs every range)."""
    if len(_HELPERS) == CPUS - 1:
        return not _STOPPING
    with _WORKER_LOCK:
        if _STOPPING:
            return False
        while len(_HELPERS) < CPUS - 1:
            helper = threading.Thread(
                target=_helper, name="repro-native-part", daemon=True
            )
            helper.start()
            _HELPERS.append(helper)
    return True


def run_parts(work: Callable[[int], None], n: int) -> None:
    """``work(i)`` for every ``i < n``, the ranges of one split call.

    The calling thread and up to ``n - 1`` helpers claim ranges from one
    counter, so the caller never waits on a range that no thread has
    started: when every helper is busy with other calls, or as many
    calls as ``CPUS`` are in flight, the caller runs all ``n`` itself.
    Returns once every range has run; the first error a range raised is
    raised here.
    """
    with _CALLS_LOCK:
        _CALLS[0] += 1
    try:
        if n <= 1 or CPUS < 2 or not _helpers_ready():
            for i in range(n):
                work(i)
            return
        split = _Split(work, n)
        for _ in range(min(n - 1, len(_HELPERS))):
            _SPLITS.put(split)
        split.help()
        split.finished.wait()
        split.work = None  # a helper yet to pop its stale entry holds no operand
        if split.error is not None:
            raise split.error
    finally:
        with _CALLS_LOCK:
            _CALLS[0] -= 1


def _shutdown() -> None:
    """Interpreter exit: stop compiles and the part helpers, then drop
    the per-process dir.

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
    with _WORKER_LOCK:
        helpers = list(_HELPERS)
    for _ in helpers:
        _SPLITS.put(None)
    for helper in helpers:
        helper.join(timeout=10.0)
    if _DEFAULT_DIR is not None and _DEFAULT_DIR_PID == os.getpid():
        shutil.rmtree(_DEFAULT_DIR, ignore_errors=True)


atexit.register(_shutdown)
