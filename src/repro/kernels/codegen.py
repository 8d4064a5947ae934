"""Codegen execution tier: specialized cache-blocked loop-nest kernels.

HPTT and TTC show that on CPUs a cache-blocked loop nest, with its
loop order and blocking picked by a search and emitted as C, moves a
transposition's bytes near the machine's copy bandwidth.  This module
is that tier:

1. **Search** (:func:`search_nest`) — an HPTT-style enumeration over
   the two *critical* output axes (where the source's fastest axis
   lands, and the output's own fastest axis), block-size candidates
   per axis, and the tile-loop orders — scored entirely by the
   repository's analytic DRAM model (:func:`nest_cost`, built on
   :func:`~repro.kernels.common.lattice_run_transactions`), never by
   measurement.  The paper's own slice search (Alg. 3) is the shape:
   tiny candidate grid, analytic scoring, deterministic winner.  The
   cache budget the reuse test prices against is probed from the host
   at import (:func:`detect_cache_budget`).
2. **Emission** — the winning configuration, with the C micro-kernel
   :func:`micro_kernel` picks for it, is emitted as C
   (:mod:`repro.kernels.native`): an object already on disk attaches
   at once, a missing one compiles on a background thread and attaches
   when it lands.  Until then, after any native failure and on a host
   without a C toolchain, the :class:`NestProgram` runs the NumPy view
   chain it inherits from :class:`~repro.kernels.executor.ViewProgram`.

:func:`~repro.kernels.executor.compile_executor` lowers every operand
of at least :data:`~repro.kernels.executor.NEST_MIN_BYTES` to a
:class:`NestProgram`; the search's job is only to pick its tiles and
loop order.  The search is analytic and deterministic, so it runs
again in every process (0.1-1.7 ms per geometry on the 64 MiB cases of
``results/native_throughput.json``) and emits the same C source; the
compiled object, cached on disk by its source hash, is what a warm
restart reuses.
"""

from __future__ import annotations

import math
import os
import time
from threading import Event, Lock
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import native as _native
from repro.kernels.common import lattice_run_transactions, strides_lattice
from repro.kernels.executor import ViewProgram

#: Cache-line granularity of the CPU cost model (bytes).
LINE_BYTES = _native.LINE_BYTES

#: Fallback effective cache budget when the host exposes no cache
#: topology (3/4 of a typical 1 MiB L2): the reuse working set shares
#: the cache with the destination stream and everything else, so a
#: tile whose reuse distance *equals* the nominal capacity already
#: thrashes.
DEFAULT_CACHE_BUDGET = (1 << 20) * 3 // 4

#: Where Linux exposes the per-core cache hierarchy.
_SYSFS_CACHE_ROOT = "/sys/devices/system/cpu/cpu0/cache"


def parse_cache_size(text) -> Optional[int]:
    """Bytes of a sysfs cache ``size`` string (``"48K"``, ``"2M"``)."""
    if not isinstance(text, str):
        return None
    text = text.strip()
    scale = 1
    if text[-1:] in ("K", "k"):
        scale, text = 1024, text[:-1]
    elif text[-1:] in ("M", "m"):
        scale, text = 1 << 20, text[:-1]
    elif text[-1:] in ("G", "g"):
        scale, text = 1 << 30, text[:-1]
    try:
        n = int(text)
    except ValueError:
        return None
    return n * scale if n > 0 else None


def probe_cache_bytes(root: str = _SYSFS_CACHE_ROOT) -> Optional[int]:
    """The host's largest *per-core* data cache, in bytes, or ``None``.

    Walks ``cache/index*/`` under cpu0 and keeps the biggest
    non-instruction cache at level <= 2.  The shared L3 is deliberately
    excluded: the reuse test models what one worker thread can keep
    resident, and on a loaded pool the LLC belongs to everyone.
    """
    best: Optional[int] = None
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return None
    for name in entries:
        if not name.startswith("index"):
            continue
        d = os.path.join(root, name)
        try:
            with open(os.path.join(d, "type")) as f:
                ctype = f.read().strip()
            with open(os.path.join(d, "level")) as f:
                level = int(f.read().strip())
            with open(os.path.join(d, "size")) as f:
                size = parse_cache_size(f.read())
        except (OSError, ValueError):
            continue
        if ctype == "Instruction" or level > 2 or size is None:
            continue
        if best is None or size > best:
            best = size
    return best


def detect_cache_budget(root: str = _SYSFS_CACHE_ROOT) -> int:
    """The effective cache budget for the reuse test, in bytes: 3/4 of
    the probed per-core cache (:func:`probe_cache_bytes`), otherwise
    :data:`DEFAULT_CACHE_BUDGET`.  The cost functions take
    ``cache_budget=`` to price any other budget.
    """
    probed = probe_cache_bytes(root)
    if probed:
        return probed * 3 // 4
    return DEFAULT_CACHE_BUDGET


#: Effective cache budget for the source-line reuse test, resolved at
#: import: probed from sysfs, else the fallback.
#: Cost functions read it at call time (or take ``cache_budget=``), so
#: tests pin it explicitly.
CACHE_BUDGET_BYTES = detect_cache_budget()

#: Modeled fixed cost per tile, in cache-line equivalents.  It makes
#: the model prefer large tiles (fewer, longer loop trips in the C nest).
#: The value dates from when each tile was one Python slice-assignment
#: dispatch; it is kept because the searched tiles, the cached C
#: objects and the golden C all follow from it.
TILE_OVERHEAD_LINES = 256

#: Block-size candidates per critical axis (the axis's full extent is
#: always added).  Powers of two bracketing one cache line of f64/f32
#: elements up to a typical L1-resident panel.
BLOCK_CANDIDATES = (8, 16, 32, 64)

#: Writing destination lines out of ascending order defeats the
#: hardware's sequential-writeback prefetch; tile-loop orders whose
#: innermost loop is not the output's fastest axis pay this factor on
#: the destination stream.
NONSEQ_DST_FACTOR = 1.05

#: The staged micro-kernel's size gate, in cache budgets: an operand
#: must exceed this many budgets to be staged.  Measured on a 2 MiB-L2
#: host (1.5 MiB budget, so 3 MiB): staging won 1.2-1.6x on
#: od-reverse-shaped operands of 4 MiB and 1.6-2.4x from 8 MiB, drew
#: level on oa-partial shapes at 3-4 MiB, and lost at 2 MiB.
STAGE_MIN_BUDGETS = 2

#: Ranges per usable CPU that a C call past the size gate is cut into
#: (:meth:`NestProgram.parts`): a range that a busy CPU starts late then
#: holds the call up by about a quarter of that CPU's share.
PARTS_PER_CPU = 4

#: What one side of a transpose costs, from
#: ``results/kernel_bounds.json`` (2-vCPU reference host, GCC 12): ms to
#: read (``READ_MS``) or write (``WRITE_MS``) every byte of 64 MiB in
#: runs of ``BOUND_RUNS`` bytes with ``BOUND_ROWS`` rows in flight, one
#: tuple per row count.  :func:`micro_kernel` prices both C nests with
#: them; ``tests/test_staged_kernel.py`` checks them against the file.
BOUND_RUNS = (64, 256, 1024, 4096)
BOUND_ROWS = (32, 128, 512)
READ_MS = (
    (17.669, 11.004, 10.448, 10.454),
    (37.564, 19.19, 8.969, 7.992),
    (26.427, 17.155, 9.692, 11.081),
)
WRITE_MS = (
    (17.864, 11.237, 10.689, 9.846),
    (38.448, 26.604, 12.834, 9.585),
    (31.453, 24.762, 13.602, 9.955),
)

#: The staged tile's extra pass, from the same file: ms to move 64 MiB
#: through a cache-resident tile in 8x8 blocks.
TILE_PASS_MS = 6.25

#: Ways of the L1 data cache the residency test assumes (8 on a 32 KiB
#: L1, 12 on a 48 KiB one; both have :data:`~repro.kernels.native
#: .L1_SET_PERIOD` of sets).
L1_WAYS = 8


# ----------------------------------------------------------------------
# Optional native (C) backend — repro.kernels.native
# ----------------------------------------------------------------------

def native_enabled() -> bool:
    """Whether the native (C) backend may attach to new programs: a
    host C toolchain was found (``CC=/bin/false`` hides it)."""
    return _native.toolchain() is not None


# ----------------------------------------------------------------------
# Module-level codegen statistics
# ----------------------------------------------------------------------

_STATS_LOCK = Lock()

#: Zero state of every counter.  Snapshot and reset both operate on the
#: whole dict under :data:`_STATS_LOCK` — one lock, whole-dict copy —
#: so concurrent schedulers can never observe a torn mix of pre- and
#: post-reset values.
_STATS_ZERO = {
    "searches": 0,
    "search_s": 0.0,
    "programs_generated": 0,
    # Native (C) backend — counted by repro.kernels.native through the
    # set_counter hook, so they live under this same lock.
    "native_compiled": 0,
    "native_so_cache_hits": 0,
    "native_compile_failures": 0,
    "native_load_failures": 0,
    "native_corrupt_objects": 0,
    "native_call_failures": 0,
    "native_unsupported": 0,
    "native_toolchain_missing": 0,
    "native_attached": 0,
    # The C micro-kernel picked for each generated program
    # (``micro_kernel``), counted once per program.
    "micro_direct": 0,
    "micro_memcpy": 0,
    "micro_staged": 0,
}

_STATS = dict(_STATS_ZERO)


def _count(name: str, value=1) -> None:
    with _STATS_LOCK:
        _STATS[name] += value


# Route the native module's counters through the same dict + lock:
# codegen_stats() is then a single consistent snapshot.
_native.set_counter(_count)


def codegen_stats() -> dict:
    """One atomic snapshot of the search/backend counters.

    The counter dict is copied whole under the single module lock
    (never key-by-key), so a snapshot taken while other schedulers are
    counting — or while :func:`reset_codegen_stats` runs — is always
    internally consistent.  The derived ``native`` field is a pure
    function of process state, appended after the copy.
    """
    with _STATS_LOCK:
        snap = dict(_STATS)
    info = _native.compiler_info()
    snap["native"] = {
        "available": bool(info["available"]),
        "cc": info["path"],
        "cc_version": info["version"],
    }
    return snap


def reset_codegen_stats() -> None:
    """Zero the counters (benchmark cold-start conditions).

    The zero state replaces the live values in one operation under the
    same lock :func:`_count` and :func:`codegen_stats` take, so a
    concurrent snapshot sees either the old epoch or the new one —
    never a mix.
    """
    with _STATS_LOCK:
        _STATS.update(_STATS_ZERO)


# ----------------------------------------------------------------------
# Analytic cost model
# ----------------------------------------------------------------------


def nest_cost(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    elem_bytes: int,
    order: Sequence[int] = (),
    cache_budget: Optional[int] = None,
) -> float:
    """Modeled cache-line traffic of one blocked nest configuration.

    ``in_shape``/``axes`` are the NumPy input shape and transpose axes;
    ``tiles`` gives the tile extent per *output* axis (full extent =
    unblocked); ``order`` lists the blocked output axes outermost
    first.  The unit is cache lines — comparable across configurations,
    nothing more.

    The model reuses the kernels' DRAM primitives: per tile, the
    destination touches ``tile_vol / r_dst`` contiguous runs and the
    source ``tile_vol / r_src`` (``r`` = the contiguous run length the
    tiling preserves on each side), each run costing
    :func:`~repro.kernels.common.lattice_run_transactions` lines on its
    stride lattice.  Source lines are *refetched* when the reuse
    distance between consecutive visits — everything the nest touches
    across the inner axes, twice (source + destination streams) —
    exceeds :data:`CACHE_BUDGET_BYTES`; the penalty saturates at the
    per-line element count.  A per-tile interpreter overhead term
    (:data:`TILE_OVERHEAD_LINES`) makes small tiles lose.
    """
    nd = len(in_shape)
    budget = CACHE_BUDGET_BYTES if cache_budget is None else int(cache_budget)
    out_shape = [int(in_shape[a]) for a in axes]
    tiles = [min(int(t), e) for t, e in zip(tiles, out_shape)]
    src_strides = _native._strides_of(in_shape)
    out_strides = _native._strides_of(out_shape)
    moved_strides = [src_strides[axes[k]] for k in range(nd)]
    inv = _native._inverse(axes)
    eb = int(elem_bytes)

    tile_vol = math.prod(tiles)
    n_tiles = math.prod(
        -(-out_shape[k] // tiles[k]) for k in range(nd)
    )

    # Contiguous run lengths a tile preserves on each side: walk the
    # fastest axes inward until one is blocked below its full extent.
    r_dst = 1
    for k in range(nd - 1, -1, -1):
        r_dst *= tiles[k]
        if tiles[k] < out_shape[k]:
            break
    r_src = 1
    for a in range(nd - 1, -1, -1):
        r_src *= tiles[inv[a]]
        if tiles[inv[a]] < int(in_shape[a]):
            break

    lat_dst = strides_lattice(
        [out_strides[k] * eb for k in range(nd)], LINE_BYTES
    )
    lat_src = strides_lattice(
        [moved_strides[k] * eb for k in range(nd)], LINE_BYTES
    )
    dst_lines = (
        tile_vol / max(r_dst, 1)
        * lattice_run_transactions(r_dst, eb, lat_dst, LINE_BYTES)
    )
    src_lines = (
        tile_vol / max(r_src, 1)
        * lattice_run_transactions(r_src, eb, lat_src, LINE_BYTES)
    )

    # Source-line refetch: the source's fastest axis lands at output
    # position p.  Between consecutive values of that axis the nest
    # sweeps every inner output axis, touching source + destination
    # once each; when that working set overflows the cache budget, the
    # partially-consumed source lines are gone and each line is re-read
    # once per element it holds.
    p = inv[nd - 1]
    refetch = 1.0
    if p != nd - 1:
        reuse_elems = math.prod(tiles[k] for k in range(p + 1, nd))
        if 2 * reuse_elems * eb > budget:
            refetch = float(min(max(LINE_BYTES // eb, 1), tiles[p]))

    dst_factor = 1.0
    if order and order[-1] != nd - 1 and tiles[nd - 1] < out_shape[nd - 1]:
        dst_factor = NONSEQ_DST_FACTOR

    cost = (src_lines * refetch + dst_lines * dst_factor) * n_tiles
    cost += TILE_OVERHEAD_LINES * n_tiles
    return cost


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------


def critical_axes(axes: Sequence[int]) -> List[int]:
    """The output axes worth blocking, HPTT-style: where the source's
    fastest (stride-1) axis lands, and the output's own fastest axis.
    Blocking any other axis changes neither side's run structure."""
    nd = len(axes)
    if nd == 0:
        return []
    p = _native._inverse(axes)[nd - 1]
    return sorted({p, nd - 1})


def _axis_candidates(extent: int) -> List[int]:
    cands = {c for c in BLOCK_CANDIDATES if c < extent}
    cands.add(int(extent))
    return sorted(cands)


def _loop_orders(blocked: Sequence[int], nd: int) -> List[Tuple[int, ...]]:
    """Tile-loop order candidates: output axis 0 first, then the other
    blocked axes in each relative order."""
    inner = [a for a in blocked if a != 0]
    orders = [tuple(inner)]
    if len(inner) == 2:
        orders.append((inner[1], inner[0]))
    return [(0,) + o for o in orders]


def search_nest(
    in_shape: Sequence[int],
    axes: Sequence[int],
    elem_bytes: int,
    cache_budget: Optional[int] = None,
) -> dict:
    """Exhaustive scored search over blocks x loop orders.

    Returns the winning descriptor::

        {"in_shape", "axes", "elem_bytes", "tiles", "order", "cost",
         "cache_budget", "search_ms", "micro", "stage"}

    ``micro``/``stage`` are the C micro-kernel :func:`micro_kernel`
    picks for the winner (``stage`` is ``None`` unless it is staged).

    Deterministic: ties break toward larger blocks (fewer tiles) and
    the destination-sequential loop order, both already encoded in the
    score.
    """
    started = time.perf_counter()
    nd = len(in_shape)
    budget = CACHE_BUDGET_BYTES if cache_budget is None else int(cache_budget)
    out_shape = [int(in_shape[a]) for a in axes]
    crit = critical_axes(axes)
    per_axis = [_axis_candidates(out_shape[a]) for a in crit]
    orders = _loop_orders(sorted(set(crit) | {0}), nd)

    scored: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
    combos: List[List[int]] = [[]]
    for cands in per_axis:
        combos = [c + [b] for c in combos for b in cands]
    for combo in combos:
        tiles = list(out_shape)
        for a, b in zip(crit, combo):
            tiles[a] = b
        for order in orders:
            cost = nest_cost(
                in_shape, axes, tiles, elem_bytes, order, cache_budget=budget
            )
            scored.append((cost, tuple(tiles), order))
    assert scored
    scored.sort()
    cost, tiles, order = scored[0]
    elapsed = time.perf_counter() - started
    _count("searches")
    _count("search_s", elapsed)
    desc = {
        "in_shape": [int(d) for d in in_shape],
        "axes": [int(a) for a in axes],
        "elem_bytes": int(elem_bytes),
        "tiles": list(tiles),
        "order": list(order),
        "cost": round(cost, 3),
        "cache_budget": budget,
        "search_ms": round(elapsed * 1e3, 4),
    }
    desc.update(micro_kernel(desc))
    return desc


def _resident(rows: int, stride_bytes: int) -> bool:
    """Whether a line of each of ``rows`` rows ``stride_bytes`` apart
    can stay in L1 at once: rows whose stride is a multiple of the set
    period share a set, and a set holds :data:`L1_WAYS` lines."""
    period = _native.L1_SET_PERIOD
    lines = stride_bytes // LINE_BYTES if stride_bytes % LINE_BYTES == 0 else 1
    sets = period // LINE_BYTES // math.gcd(lines, period // LINE_BYTES)
    return -(-rows // sets) <= L1_WAYS


def _side(loops: Sequence[Tuple[int, int]], eb: int) -> Tuple[int, int]:
    """``(run bytes, rows in flight)`` of one side of a loop nest.

    ``loops`` are ``(trips, stride)`` pairs, innermost first.  A loop
    whose stride is the run so far continues it; one that does not
    visits more rows before any is continued.  A loop that continues
    rows already in flight merges its visits into one run only while
    they move partial cache lines that stay resident (:func:`_resident`);
    otherwise each row is revisited once per ``rows`` others, which is
    what the bound sweeps measure.
    """
    run, rows, stride = 1, 1, 0
    for trips, s in loops:
        if s == run and rows == 1:
            run *= trips
        elif s != run:
            if rows == 1:
                stride = s
            rows *= trips
        elif run * eb % LINE_BYTES and _resident(rows, stride * eb):
            run *= trips
            if stride == run:  # the rows abut: one dense block
                run, rows = run * rows, 1
        else:
            break
    return run * eb, rows


def _bound_ms(table, run_bytes: int, rows: int) -> float:
    """``table`` (:data:`READ_MS` or :data:`WRITE_MS`) at a run length
    and a row count, interpolated in their logarithms and clamped to
    the measured grid."""

    def at(grid, value):
        x = min(max(math.log2(value), math.log2(grid[0])), math.log2(grid[-1]))
        i = min(sum(math.log2(g) <= x for g in grid) - 1, len(grid) - 2)
        lo, hi = math.log2(grid[i]), math.log2(grid[i + 1])
        return i, (x - lo) / (hi - lo)

    i, u = at(BOUND_ROWS, rows)
    j, v = at(BOUND_RUNS, run_bytes)
    return (
        (1 - u) * ((1 - v) * table[i][j] + v * table[i][j + 1])
        + u * ((1 - v) * table[i + 1][j] + v * table[i + 1][j + 1])
    )


def direct_sides(desc: dict) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """``((run bytes, rows), (run bytes, rows))``: the read side and the
    write side of the direct C nest (:func:`_side` over
    :func:`~repro.kernels.native.direct_loops`)."""
    loops = _native.direct_loops(
        desc["in_shape"], desc["axes"], desc["tiles"], desc["order"],
        desc["elem_bytes"],
    )
    eb = int(desc["elem_bytes"])
    return (
        _side([(n, si) for n, si, _ in loops], eb),
        _side([(n, so) for n, _, so in loops], eb),
    )


def direct_ms(desc: dict) -> float:
    """The direct C nest's price, in ms per 64 MiB: each side's bound."""
    (r_run, r_rows), (w_run, w_rows) = direct_sides(desc)
    return _bound_ms(READ_MS, r_run, r_rows) + _bound_ms(WRITE_MS, w_run, w_rows)


def staged_ms(desc: dict, stage: Sequence[int]) -> float:
    """The staged C nest's price, in ms per 64 MiB: the tile's input and
    output runs, each with the fewest rows the sweeps measured in flight
    (the gather and the write-out move one tile at a time), plus the
    tile's pass through the cache."""
    in_run, out_run = _native.stage_runs(
        desc["in_shape"], desc["axes"], stage, desc["elem_bytes"]
    )
    rows = BOUND_ROWS[0]
    return (
        _bound_ms(READ_MS, in_run, rows)
        + _bound_ms(WRITE_MS, out_run, rows)
        + TILE_PASS_MS
    )


def micro_kernel(desc: dict) -> dict:
    """The C micro-kernel for one descriptor: ``{"micro", "stage"}``.

    ``memcpy`` when the transpose keeps the input's fastest axis
    innermost (both sides contiguous, never staged).  ``staged`` when
    the operand is past :data:`STAGE_MIN_BUDGETS` cache budgets
    (``desc["cache_budget"]``) and the staged nest prices below the
    direct one (:func:`staged_ms`, :func:`direct_ms`); ``stage`` is
    then its tile (:func:`~repro.kernels.native.stage_tiles`), a third
    of the cache budget at most :data:`~repro.kernels.native
    .STAGE_TILE_BYTES`.  ``direct`` otherwise.
    """
    in_shape, axes = desc["in_shape"], desc["axes"]
    nd = len(axes)
    eb = int(desc["elem_bytes"])
    if nd == 0 or axes[nd - 1] == nd - 1:
        return {"micro": "memcpy", "stage": None}
    budget = int(desc.get("cache_budget", CACHE_BUDGET_BYTES))
    nbytes = math.prod(int(d) for d in in_shape) * eb
    if nbytes > STAGE_MIN_BUDGETS * budget:
        tile_bytes = min(_native.STAGE_TILE_BYTES, budget // 3)
        stage = _native.stage_tiles(in_shape, axes, eb, tile_bytes)
        if staged_ms(desc, stage) < direct_ms(desc):
            return {"micro": "staged", "stage": stage}
    return {"micro": "direct", "stage": None}


# ----------------------------------------------------------------------
# The program kind
# ----------------------------------------------------------------------


class NestProgram(ViewProgram):
    """A generated cache-blocked loop nest, specialized to one problem.

    Holds the descriptor the search produced and, once it attaches, the
    C object emitted from it (:mod:`repro.kernels.native`).  Until then,
    after a demotion and on a host without a toolchain, calls run the
    inherited :class:`~repro.kernels.executor.ViewProgram` chain, which
    moves the same bytes.

    The C object's one range entry point attaches as ``_kit``, read
    once per operand, so an operand moves wholly in C or wholly in
    NumPy even while a background compile lands.  An object already on
    disk attaches before the constructor returns.  A missing one
    compiles on the native compile thread, queued by the program's
    second call (its first reuse, so a single-use program never pays
    for a compiler) or by :meth:`wait_native`; the view chain runs
    until the object lands.  A call is one :meth:`run` or one
    :meth:`run_batch`, and a batch runs row by row, each row where it
    lies.

    A C call over an operand past the size gate is split (:meth:`parts`)
    into ranges of the nest's outermost loop, run by
    :func:`~repro.kernels.native.run_parts` on every usable CPU.  The
    C object runs the
    descriptor's ``micro`` kernel (:func:`micro_kernel`).  A staged
    kernel gathers each tile into a scratch buffer the program owns:
    one per range in flight, kept on a free list for the next range, so
    the C code holds no state.
    """

    kind = "nest"

    def __init__(
        self,
        descriptor: dict,
        native_dir=None,
    ):
        super().__init__(
            tuple(int(d) for d in descriptor["in_shape"]),
            tuple(int(a) for a in descriptor["axes"]),
        )
        self.descriptor = dict(descriptor)
        self.tiles = tuple(int(t) for t in descriptor["tiles"])
        self.order = tuple(int(a) for a in descriptor["order"])
        self.micro = descriptor["micro"]
        stage = descriptor["stage"]
        self._elem_bytes = int(descriptor["elem_bytes"])
        self._scratch_bytes = (
            _native.stage_scratch_bytes(stage, self.axes, self._elem_bytes)
            if stage else 0
        )
        self._spare: List[np.ndarray] = []
        #: Trips of the emitted nest's split loop, and whether an operand
        #: is past the size gate, where a C call splits.
        self._trips = _native.split_trips(
            self.in_shape, self.axes, self.tiles, self.order, stage
        )
        self._past_gate = (
            self.volume * self._elem_bytes
            > STAGE_MIN_BUDGETS * int(descriptor["cache_budget"])
        )
        self.descriptor["backend"] = "numpy"
        # Native (C) backend: compiled out-of-band, loaded via ctypes,
        # GIL released for the whole call.  Any failure to attach —
        # no toolchain, unsupported width, compile or dlopen error —
        # keeps the view chain, bit-exactly.
        self._kit: Optional[Callable] = None
        self._native_settled = Event()
        self._called = False
        self._start_compile = _native.attach_kernel(
            self.in_shape, self.axes, self.tiles, self.order,
            self._elem_bytes, self._attach, cache_dir=native_dir, stage=stage,
        )
        _count("programs_generated")
        _count(f"micro_{self.micro}")

    def _attach(self, kit: Optional[Callable]) -> None:
        if kit is not None:
            self._kit = kit
            self.descriptor["backend"] = "c"
            _count("native_attached")
        self._native_settled.set()

    def _compile_later(self) -> None:
        """Queue a deferred background compile (at most once)."""
        start, self._start_compile = self._start_compile, None
        if start is not None:
            start()

    def _note_call(self) -> None:
        if self._start_compile is not None:
            if self._called:
                self._compile_later()
            self._called = True

    def wait_native(self, timeout: Optional[float] = None) -> bool:
        """Start a deferred compile now and block until the C attach
        has landed or failed; ``True`` when the C entry points are
        attached."""
        self._compile_later()
        self._native_settled.wait(timeout)
        return self._kit is not None

    @property
    def backend(self) -> str:
        return self.descriptor["backend"]

    def parts(self) -> int:
        """Ranges of the nest's outermost loop that a C call over one
        operand (one row of a batch) is split into.

        One for the view chain, on a single usable CPU, and for operands
        of at most :data:`STAGE_MIN_BUDGETS` cache budgets, where a split
        gains nothing.  Past that gate, :data:`PARTS_PER_CPU` per usable
        CPU, capped by the loop's trips.
        """
        if self._kit is None or not self._past_gate or _native.CPUS < 2:
            return 1
        return max(1, min(PARTS_PER_CPU * _native.CPUS, self._trips))

    def _native_failed(self) -> None:
        # A foreign call raised (corrupt object, dlclose under us):
        # nothing moved, so drop to the view chain permanently.
        self._kit = None
        self.descriptor["backend"] = "numpy"
        _count("native_call_failures")

    def _run_native(self, src: np.ndarray, dst: np.ndarray,
                    parts: Optional[int] = None) -> bool:
        """Run one C call over one operand in ``parts`` ranges of the
        split loop (default :meth:`parts`).  ``False`` when it may not
        run or a range raised (the program is then demoted and the
        caller rewrites every element).

        The emitted object bakes the element width in, and raw pointers
        require both flat buffers to be C-contiguous (they always are
        on the scheduler path; oddly-strided callers just take the view
        chain).
        """
        range_fn = self._kit
        if (
            range_fn is None
            or src.dtype.itemsize != self._elem_bytes
            or not src.flags["C_CONTIGUOUS"]
            or not dst.flags["C_CONTIGUOUS"]
        ):
            return False
        n = max(1, min(self.parts() if parts is None else parts, self._trips))
        bounds = [self._trips * i // n for i in range(n + 1)]
        s, d = src.ctypes.data, dst.ctypes.data

        def run_range(i: int) -> None:
            lo, hi = bounds[i], bounds[i + 1]
            scratch = None
            if self._scratch_bytes:
                try:
                    scratch = self._spare.pop()
                except IndexError:
                    scratch = np.empty(self._scratch_bytes, dtype=np.uint8)
            ptr = None if scratch is None else scratch.ctypes.data
            try:
                range_fn(s, d, lo, hi, ptr)
            finally:
                if scratch is not None:
                    self._spare.append(scratch)

        try:
            _native.run_parts(run_range, n)
            return True
        except Exception:
            self._native_failed()
            return False

    def run(self, src: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        self._note_call()
        if self._kit is not None:
            dst = out if out is not None else np.empty(self.volume, dtype=src.dtype)
            if self._run_native(src, dst):
                return dst
            out = dst
        return self._run_view(src, out)

    def run_batch(self, srcs, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Move each row where it lies, one :meth:`run` move per row
        into its row of ``out``: no stacked copy of the inputs."""
        self._note_call()
        rows = self.batch_rows(srcs)
        if out is None:
            dtype = rows[0].dtype if len(rows) else None
            out = np.empty((len(rows), self.volume), dtype=dtype)
        for row, dst in zip(rows, out):
            if not self._run_native(row, dst):
                self._run_view(row, dst)
        return out

    @property
    def nbytes(self) -> int:
        # No frozen index arrays and no sources: one staged tile.
        return self._scratch_bytes
