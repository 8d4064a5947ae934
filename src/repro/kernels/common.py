"""Shared kernel machinery: slice coverage, grid enumeration, tile math.

The kernels all follow the same structure: some tensor dimensions are
*inside* the per-thread-block slice (fully, or a block of ``b`` values),
the rest form the launch grid.  :class:`SliceCoverage` captures that
split once, and provides both the analytic view (how many blocks of each
full/partial variant exist — the paper's N1..N4 slice counts) and the
functional view (the input/output base address of every block, for the
vectorized NumPy execution).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.layout import TensorLayout
from repro.core.lru import BoundedLRU
from repro.core.permutation import Permutation
from repro.errors import SchemaError
from repro.gpusim.spec import DeviceSpec
from repro.gpusim.transactions import contiguous_run_transactions


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def slice_gather_rel(row_off: np.ndarray, a: int) -> np.ndarray:
    """Relative gather map of one slice: ``rel[y, x] = row_off[y] + x``.

    Both orthogonal kernels read (and the OD kernel writes) their slices
    as *rows of a contiguous axis* at per-row offsets — this is Alg. 4's
    access pattern, shared between :meth:`OrthogonalArbitraryKernel
    .execute_per_call` and :meth:`OrthogonalDistinctKernel
    .execute_per_call`.
    """
    return row_off[:, None] + np.arange(a, dtype=np.int64)[None, :]


def block_gather_indices(bases: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Absolute per-block index maps: ``bases`` broadcast over ``rel``.

    ``bases`` has one element offset per thread block; ``rel`` is a
    relative slice map (any shape).  Returns shape
    ``(len(bases), rel.size)`` — the full gather/scatter index tensor
    the vectorized NumPy execution paths feed to fancy indexing.
    """
    return bases[:, None] + rel.reshape(1, -1)


def reference_transpose(
    src_flat: np.ndarray, layout: TensorLayout, perm: Permutation
) -> np.ndarray:
    """Ground-truth transposition via NumPy (used by tests and kernels
    whose data movement is a pure reshape/transpose of contiguous runs).

    ``src_flat`` is the linearized input (dim 0 fastest); the result is
    the linearized output.
    """
    arr = np.asarray(src_flat).reshape(layout.as_numpy_shape())
    return np.ascontiguousarray(np.transpose(arr, perm.numpy_axes())).reshape(-1)


def lattice_run_transactions(
    run_elems: int,
    elem_bytes: int,
    lattice_bytes: int,
    transaction_bytes: int = 128,
) -> float:
    """Expected 128 B transactions for a contiguous run whose start byte is
    uniformly distributed over multiples of ``lattice_bytes``.

    Kernels know the address lattice their run starts live on (the gcd of
    the strides that vary across runs); this gives the exact average
    transaction count over that lattice.  ``lattice_bytes`` that is a
    multiple of the transaction size collapses to the aligned count.
    """
    if run_elems <= 0:
        return 0.0
    g = math.gcd(int(lattice_bytes), transaction_bytes) or transaction_bytes
    phases = transaction_bytes // g
    total = 0
    for p in range(phases):
        total += contiguous_run_transactions(
            p * g, run_elems, elem_bytes, transaction_bytes
        )
    return total / phases


def strides_lattice(
    stride_bytes: Iterable[int], transaction_bytes: int = 128
) -> int:
    """The alignment lattice generated by a set of byte strides.

    Run start addresses are integer combinations of these strides, so
    modulo the transaction size they live on multiples of
    ``gcd(transaction, *strides)``.
    """
    g = transaction_bytes
    for s in stride_bytes:
        g = math.gcd(g, int(s))
        if g == 1:
            break
    return max(g, 1)


# ----------------------------------------------------------------------
# Slice-parameter normalization (shared by kernels and the planner's
# lightweight candidate descriptors)
# ----------------------------------------------------------------------


class OAGeometry(NamedTuple):
    """Normalized Orthogonal-Arbitrary slice parameters.

    This is the single source of truth for the parameter normalization
    the OA kernel constructor performs; the planner's phase-1 candidate
    enumeration uses it to derive slice geometry (and dedup keys) without
    constructing kernel objects.
    """

    in_prefix: int
    blockA: int
    out_prefix: int
    blockB: int
    a_dim: Optional[int]
    b_dim: Optional[int]
    in_group: Tuple[int, ...]
    only_out: Tuple[int, ...]       # only-out dims incl. the blocked one
    only_out_full: Tuple[int, ...]  # fully covered only-out dims
    A: int
    B: int


def normalize_oa_geometry(
    dims: Sequence[int],
    out_order: Sequence[int],
    in_prefix: int,
    blockA: int,
    out_prefix: int,
    blockB: int,
) -> OAGeometry:
    """Normalize OA slice parameters exactly as the kernel constructor.

    Full-extent blocks fold into the prefixes; an output-side block on a
    dim the input group already covers contributes nothing and is
    dropped.  Raises :class:`SchemaError` for an empty input group.
    """
    rank = len(dims)
    while in_prefix < rank and blockA == dims[in_prefix]:
        in_prefix, blockA = in_prefix + 1, 1
    while out_prefix < rank and blockB == dims[out_order[out_prefix]]:
        out_prefix, blockB = out_prefix + 1, 1
    if in_prefix == 0 and blockA == 1:
        raise SchemaError("input group is empty")
    a_dim = in_prefix if (in_prefix < rank and blockA > 1) else None
    b_dim = out_order[out_prefix] if (out_prefix < rank and blockB > 1) else None
    in_group = tuple(range(in_prefix)) + ((a_dim,) if a_dim is not None else ())
    if b_dim is not None and b_dim in in_group:
        # The output-side block falls on a dim the input group already
        # covers; the block adds nothing to the slice.
        b_dim, blockB = None, 1
    only_out_full = tuple(
        d for d in out_order[:out_prefix] if d not in in_group
    )
    only_out = only_out_full + ((b_dim,) if b_dim is not None else ())
    A = math.prod(dims[:in_prefix]) * blockA
    B = max(1, math.prod(dims[d] for d in only_out_full) * blockB)
    return OAGeometry(
        in_prefix=in_prefix,
        blockA=blockA,
        out_prefix=out_prefix,
        blockB=blockB,
        a_dim=a_dim,
        b_dim=b_dim,
        in_group=in_group,
        only_out=only_out,
        only_out_full=only_out_full,
        A=A,
        B=B,
    )


class ODGeometry(NamedTuple):
    """Normalized Orthogonal-Distinct slice parameters."""

    in_prefix: int
    blockA: int
    out_prefix: int
    blockB: int
    a_dim: Optional[int]
    b_dim: Optional[int]
    in_full: Tuple[int, ...]
    out_full: Tuple[int, ...]
    A: int
    B: int


def normalize_od_geometry(
    dims: Sequence[int],
    out_order: Sequence[int],
    in_prefix: int,
    blockA: int,
    out_prefix: int,
    blockB: int,
) -> ODGeometry:
    """Normalize OD slice parameters exactly as the kernel constructor.

    Raises :class:`SchemaError` for out-of-range parameters or
    overlapping FVI groups (the Orthogonal-Distinct precondition).
    """
    rank = len(dims)
    if not 0 <= in_prefix <= rank or not 0 <= out_prefix <= rank:
        raise SchemaError("group prefix out of range")
    while in_prefix < rank and blockA == dims[in_prefix]:
        in_prefix, blockA = in_prefix + 1, 1
    while out_prefix < rank and blockB == dims[out_order[out_prefix]]:
        out_prefix, blockB = out_prefix + 1, 1
    a_dim = in_prefix if (in_prefix < rank and blockA > 1) else None
    b_dim = (
        out_order[out_prefix] if (out_prefix < rank and blockB > 1) else None
    )
    if blockA > 1 and in_prefix >= rank:
        raise SchemaError("blockA given but no dimension left to block")
    if blockB > 1 and out_prefix >= rank:
        raise SchemaError("blockB given but no dimension left to block")
    if a_dim is not None and not 1 <= blockA <= dims[a_dim]:
        raise SchemaError(f"blockA={blockA} out of range")
    if b_dim is not None and not 1 <= blockB <= dims[b_dim]:
        raise SchemaError(f"blockB={blockB} out of range")
    in_full = tuple(range(in_prefix))
    out_full = tuple(out_order[q] for q in range(out_prefix))
    in_group = set(in_full) | ({a_dim} if a_dim is not None else set())
    out_group = set(out_full) | ({b_dim} if b_dim is not None else set())
    if in_group & out_group:
        raise SchemaError(
            "Orthogonal-Distinct requires disjoint FVI groups; "
            f"overlap: {sorted(in_group & out_group)}"
        )
    A = math.prod(dims[:in_prefix]) * blockA
    B = math.prod(dims[d] for d in out_full) * blockB
    if A <= 0 or B <= 0:
        raise SchemaError("empty slice")
    return ODGeometry(
        in_prefix=in_prefix,
        blockA=blockA,
        out_prefix=out_prefix,
        blockB=blockB,
        a_dim=a_dim,
        b_dim=b_dim,
        in_full=in_full,
        out_full=out_full,
        A=A,
        B=B,
    )


def oa_coverages(geom: OAGeometry, rank: int) -> List["DimCoverage"]:
    """Per-dim coverage of an OA slice (kernel + descriptor shared)."""
    full = set(range(geom.in_prefix)) | set(geom.only_out_full)
    covs: List[DimCoverage] = []
    for d in range(rank):
        if d in full:
            covs.append(DimCoverage(d, Coverage.FULL))
        elif d == geom.a_dim:
            covs.append(DimCoverage(d, Coverage.BLOCK, geom.blockA))
        elif d == geom.b_dim:
            covs.append(DimCoverage(d, Coverage.BLOCK, geom.blockB))
        else:
            covs.append(DimCoverage(d, Coverage.OUTER))
    return covs


def od_coverages(geom: ODGeometry, rank: int) -> List["DimCoverage"]:
    """Per-dim coverage of an OD slice (kernel + descriptor shared)."""
    full = set(geom.in_full) | set(geom.out_full)
    covs: List[DimCoverage] = []
    for d in range(rank):
        if d in full:
            covs.append(DimCoverage(d, Coverage.FULL))
        elif d == geom.a_dim:
            covs.append(DimCoverage(d, Coverage.BLOCK, geom.blockA))
        elif d == geom.b_dim:
            covs.append(DimCoverage(d, Coverage.BLOCK, geom.blockB))
        else:
            covs.append(DimCoverage(d, Coverage.OUTER))
    return covs


#: Memoized transaction totals keyed by the full problem+coverage
#: signature.  The same geometry is queried by the descriptor lower
#: bound, the materialized kernel's counters, and every repeat plan of
#: the same problem, so sharing one entry across all of them is the
#: planner's main warm-path saving.  LRU-bounded: a workload cycling
#: through more geometries than the cap evicts the coldest entries
#: instead of dropping the whole cache.
_DRAM_TX_CACHE: BoundedLRU = BoundedLRU(maxsize=4096)


def clear_dram_tx_cache() -> None:
    """Forget memoized transaction totals (cold-start benchmarks)."""
    _DRAM_TX_CACHE.clear()


def dram_transaction_totals(
    layout: TensorLayout,
    perm: Permutation,
    by_dim: Dict[int, "DimCoverage"],
    elem_bytes: int,
    spec: DeviceSpec,
) -> Tuple[int, int]:
    """Whole-launch DRAM (load, store) transaction counts via the
    effective-run decomposition (shared by the OD/OA kernels and the
    planner's analytic pruning bound)."""
    key = (
        layout.dims,
        perm.mapping,
        tuple(
            (d, c.coverage.name, c.block) for d, c in sorted(by_dim.items())
        ),
        elem_bytes,
        spec,
    )
    hit = _DRAM_TX_CACHE.get(key)
    if hit is not None:
        return hit
    vol = layout.volume
    resident = spec.block_slots
    in_runs = effective_runs(
        range(layout.rank), by_dim, layout.dims, vol, resident
    )
    out_runs = effective_runs(
        perm.mapping, by_dim, layout.dims, vol, resident
    )

    def total(runs):
        t = 0.0
        for count, r in runs:
            lat = math.gcd(spec.transaction_bytes, r * elem_bytes)
            t += count * lattice_run_transactions(r, elem_bytes, lat)
        return int(round(t))

    result = (total(in_runs), total(out_runs))
    _DRAM_TX_CACHE.put(key, result)
    return result


# ----------------------------------------------------------------------
# Slice coverage and grid enumeration
# ----------------------------------------------------------------------


class Coverage(enum.Enum):
    """How one tensor dimension relates to the per-block slice."""

    FULL = "full"      # entirely inside the slice
    BLOCK = "block"    # a block of `b` consecutive values inside the slice
    OUTER = "outer"    # grid dimension, one value per thread block


@dataclass(frozen=True)
class DimCoverage:
    dim: int
    coverage: Coverage
    block: int = 1  # meaningful for Coverage.BLOCK

    def positions(self, extent: int) -> int:
        """Grid positions this dimension contributes."""
        if self.coverage is Coverage.FULL:
            return 1
        if self.coverage is Coverage.OUTER:
            return extent
        return ceil_div(extent, self.block)

    def remainder(self, extent: int) -> int:
        """Size of the partial block (0 when the extent divides evenly)."""
        if self.coverage is Coverage.BLOCK:
            return extent % self.block
        return 0


@dataclass(frozen=True)
class SliceVariant:
    """One full/partial slice shape with its multiplicity.

    ``sizes`` maps blocked dim id -> covered size in this variant
    (block or remainder).  The paper's N1..N4 with f1..f4 cycles.
    """

    count: int
    sizes: Dict[int, int]

    def size_of(self, dim: int, default: int) -> int:
        return self.sizes.get(dim, default)


class SliceCoverage:
    """The slice/grid split of one kernel instance."""

    def __init__(
        self,
        layout: TensorLayout,
        perm: Permutation,
        coverages: Sequence[DimCoverage],
    ):
        if sorted(c.dim for c in coverages) != list(range(layout.rank)):
            raise ValueError("coverages must mention every dimension exactly once")
        self.layout = layout
        self.perm = perm
        self.out_layout = layout.permuted(perm)
        self.by_dim: Dict[int, DimCoverage] = {c.dim: c for c in coverages}
        # Output position of each input dim, for output base strides.
        self._out_pos = [0] * layout.rank
        for q, d in enumerate(perm.mapping):
            self._out_pos[d] = q

    # -- basic geometry -------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return math.prod(
            self.by_dim[d].positions(self.layout.dims[d])
            for d in range(self.layout.rank)
        )

    def slice_volume(self) -> int:
        vol = 1
        for d in range(self.layout.rank):
            c = self.by_dim[d]
            if c.coverage is Coverage.FULL:
                vol *= self.layout.dims[d]
            elif c.coverage is Coverage.BLOCK:
                vol *= c.block
        return vol

    def outer_dims(self) -> Tuple[int, ...]:
        return tuple(
            d
            for d in range(self.layout.rank)
            if self.by_dim[d].coverage is not Coverage.FULL
        )

    # -- analytic variant enumeration ------------------------------------
    def variants(self) -> List[SliceVariant]:
        """All full/partial slice variants with multiplicities.

        With ``k`` blocked dims whose extents do not divide evenly there
        are up to ``2**k`` variants; in practice k <= 2 (the paper's four
        N_i counts).
        """
        dims = self.layout.dims
        parts: List[List[Tuple[int, Optional[Tuple[int, int]]]]] = []
        blocked = [
            d
            for d in range(self.layout.rank)
            if self.by_dim[d].coverage is Coverage.BLOCK
        ]
        outer_count = 1
        for d in range(self.layout.rank):
            c = self.by_dim[d]
            if c.coverage is Coverage.OUTER:
                outer_count *= dims[d]
        variants = [SliceVariant(count=outer_count, sizes={})]
        for d in blocked:
            c = self.by_dim[d]
            nfull = dims[d] // c.block
            rem = dims[d] % c.block
            new: List[SliceVariant] = []
            for v in variants:
                if nfull:
                    new.append(
                        SliceVariant(
                            count=v.count * nfull, sizes={**v.sizes, d: c.block}
                        )
                    )
                if rem:
                    new.append(
                        SliceVariant(count=v.count, sizes={**v.sizes, d: rem})
                    )
            variants = new
        return variants

    # -- functional enumeration ------------------------------------------
    def block_bases(
        self, max_blocks: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-block ``(in_base, out_base, variant_id)`` arrays.

        ``variant_id`` indexes :meth:`variants_order`, grouping blocks by
        their full/partial shape so callers can vectorize per group.
        Bases are element offsets into the linearized input/output.
        """
        dims = self.layout.dims
        in_strides = self.layout.strides
        out_strides = self.out_layout.strides
        order = list(range(self.layout.rank))  # fastest grid dim first

        pos_counts = [self.by_dim[d].positions(dims[d]) for d in order]
        n = math.prod(pos_counts)
        if max_blocks is not None:
            n = min(n, max_blocks)
        ids = np.arange(n, dtype=np.int64)
        in_base = np.zeros(n, dtype=np.int64)
        out_base = np.zeros(n, dtype=np.int64)
        variant = np.zeros(n, dtype=np.int64)
        vmul = 1
        rem_ids = ids.copy()
        for d, count in zip(order, pos_counts):
            c = self.by_dim[d]
            pos = rem_ids % count
            rem_ids //= count
            if c.coverage is Coverage.FULL:
                continue
            step = c.block if c.coverage is Coverage.BLOCK else 1
            off = pos * step
            in_base += off * in_strides[d]
            out_base += off * out_strides[self._out_pos[d]]
            if c.coverage is Coverage.BLOCK and dims[d] % c.block:
                is_partial = (pos == count - 1).astype(np.int64)
                variant += vmul * is_partial
                vmul *= 2
        return in_base, out_base, variant

    def variants_order(self) -> List[Dict[int, int]]:
        """Variant-id -> blocked-dim sizes, matching :meth:`block_bases`.

        Variant id bit ``k`` set means the k-th *uneven* blocked dim (in
        input order) is at its remainder size.
        """
        dims = self.layout.dims
        uneven = [
            d
            for d in range(self.layout.rank)
            if self.by_dim[d].coverage is Coverage.BLOCK
            and dims[d] % self.by_dim[d].block
        ]
        out: List[Dict[int, int]] = []
        for vid in range(2 ** len(uneven)):
            sizes: Dict[int, int] = {}
            for d in range(self.layout.rank):
                c = self.by_dim[d]
                if c.coverage is Coverage.BLOCK:
                    sizes[d] = c.block
            for k, d in enumerate(uneven):
                if vid >> k & 1:
                    sizes[d] = dims[d] % self.by_dim[d].block
            out.append(sizes)
        return out


def effective_runs(
    address_order: Sequence[int],
    coverage_by_dim: Dict[int, DimCoverage],
    dims: Sequence[int],
    volume: int,
    resident_blocks: int,
) -> List[Tuple[int, int]]:
    """Decompose one side's traffic into contiguous address spans that are
    read/written within one temporal window: ``[(count, run_elems), ...]``.

    ``address_order`` lists the tensor dims from fastest to slowest in the
    address space being analyzed (input order for loads, output order for
    stores).  A span extends through a dimension when either

    - the slice covers it fully (all its values moved by one block), or
    - the blocks that supply its values are *temporally co-resident*:
      grid ids enumerate the non-covered dims in input order, so the
      blocks touching one contiguous span occupy a window of grid ids
      whose size is the product of the grid positions of every grid dim
      up to the slowest one consumed; while that window fits within the
      device's resident-block count, their overlapping execution lets
      the L2 merge boundary lines.

    A partially covered (blocked) dimension whose extent does not divide
    the block ends the span with a full part and a remainder part when
    it cannot chain.

    This is what the transaction counters divide the traffic by; it
    generalizes the naive "run = slice prefix" rule and matches the
    per-warp replay on dense tilings (see tests).
    """

    def grid_positions(j: int) -> int:
        cov = coverage_by_dim.get(j)
        if cov is None or cov.coverage is Coverage.OUTER:
            return dims[j]
        if cov.coverage is Coverage.BLOCK:
            return ceil_div(dims[j], cov.block)
        return 1  # FULL: not a grid dim

    def window_for(max_grid_id: int) -> int:
        """Grid-id window spanned when every grid dim up to
        ``max_grid_id`` participates in one contiguous span."""
        w = 1
        for j in range(max_grid_id + 1):
            w *= grid_positions(j)
        return w

    run = 1
    max_grid = -1  # slowest grid dim consumed so far
    for d in address_order:
        cov = coverage_by_dim.get(d)
        extent = dims[d]
        if cov is None or cov.coverage is Coverage.OUTER:
            if window_for(max(d, max_grid)) > resident_blocks:
                break
            run *= extent
            max_grid = max(max_grid, d)
        elif cov.coverage is Coverage.FULL:
            run *= extent
        else:  # BLOCK
            if window_for(max(d, max_grid)) <= resident_blocks:
                # Sub-blocks along this dim are co-resident: the spans
                # chain through the whole dimension (remainder included).
                run *= extent
                max_grid = max(max_grid, d)
            else:
                # Span ends inside this dim: full sub-blocks plus an
                # optional remainder sub-block per outer setting.
                n_outer = volume // (run * extent)
                full = extent // cov.block
                rem = extent % cov.block
                out = []
                if full:
                    out.append((n_outer * full, run * cov.block))
                if rem:
                    out.append((n_outer, run * rem))
                return out
    return [(volume // run, run)]


# ----------------------------------------------------------------------
# Warp-efficiency "cycles" (Sec. V features)
# ----------------------------------------------------------------------


def tile_cycles(a: int, b: int, ws: int = 32) -> int:
    """The paper's per-slice cycle count for the Orthogonal-Distinct
    kernel: an ``a x b`` slice is processed in ``ws x ws`` tiles; a full
    tile costs ``ws + ws`` cycles (copy-in rows + copy-out columns) and a
    partial tile costs its remainder sides instead.

    ``f1 = n1*(32+32) + n2*(32+rem2) + n3*(rem1+32) + n4*(rem1+rem2)``.
    """
    if a <= 0 or b <= 0:
        return 0
    fa, rem_a = divmod(a, ws)
    fb, rem_b = divmod(b, ws)
    n1 = fa * fb
    n2 = fa * (1 if rem_b else 0)
    n3 = (1 if rem_a else 0) * fb
    n4 = 1 if (rem_a and rem_b) else 0
    return (
        n1 * (ws + ws)
        + n2 * (ws + rem_b)
        + n3 * (rem_a + ws)
        + n4 * (rem_a + rem_b)
    )


def weighted_slice_cycles(
    variants: Iterable[Tuple[int, int, int]], ws: int = 32
) -> int:
    """Total cycles over slice variants: ``sum(N_i * f_i)``.

    ``variants`` yields ``(count, a, b)`` triples.
    """
    return sum(count * tile_cycles(a, b, ws) for count, a, b in variants)
