"""Orthogonal-Distinct kernel (Alg. 2, Fig. 2).

The combined input-FVI group (dims ``0..in_prefix-1`` plus ``blockA``
values of dim ``in_prefix``) and the combined output-FVI group (the first
``out_prefix`` output dims plus ``blockB`` values of the next) are
disjoint, so the per-block slice is the 2D cartesian product
``A x B`` (``A`` contiguous in input, ``B`` contiguous in output) — a
direct generalization of 2D matrix transposition.

Each block walks the slice in ``32 x 32`` tiles through a fixed padded
``32 x 33`` shared-memory buffer (thread coarsening when the slice
exceeds one tile):

- copy-in: warps read 32-element rows along the input-contiguous axis,
  addressed as ``in_base + in_offset[y] + x`` (the ``in_offset`` array is
  precomputed by Alg. 4 and lives in texture memory);
- copy-out: warps read buffer columns and write 32-element rows along the
  output-contiguous axis at ``out_base + out_offset[x] + y``.

Both global phases are fully coalesced; the padded pitch makes the column
reads bank-conflict-free (Sec. III).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.core.taxonomy import Schema
from repro.gpusim.counters import KernelCounters, LaunchGeometry
from repro.gpusim.engine import WarpAccess
from repro.gpusim.sharedmem import column_access_degree
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec
from repro.core.lru import BoundedLRU
from repro.kernels.base import TransposeKernel
from repro.kernels.common import (
    SliceCoverage,
    block_gather_indices,
    ceil_div,
    dram_transaction_totals,
    normalize_od_geometry,
    od_coverages,
    slice_gather_rel,
    weighted_slice_cycles,
)

#: Fixed tile side (warp size) and pad of the shared buffer (32 x 33).
TILE = 32
PAD = 1

#: Memoized model features per kernel variant (see the OA kernel's
#: cache; cleared via ``repro.core.plan.clear_plan_caches``).
_FEATURE_CACHE: BoundedLRU = BoundedLRU(maxsize=4096)


def clear_feature_cache() -> None:
    """Drop memoized OD feature vectors (cold-start benchmarks)."""
    _FEATURE_CACHE.clear()


class OrthogonalDistinctKernel(TransposeKernel):
    """Generalized tiled matrix transposition over disjoint FVI groups."""

    schema = Schema.ORTHOGONAL_DISTINCT

    THREADS = 256

    def __init__(
        self,
        layout: TensorLayout,
        perm: Permutation,
        in_prefix: int,
        blockA: int,
        out_prefix: int,
        blockB: int,
        elem_bytes: int = 8,
        spec: DeviceSpec = KEPLER_K40C,
    ):
        super().__init__(layout, perm, elem_bytes, spec)
        rank = layout.rank
        geom = normalize_od_geometry(
            layout.dims, perm.mapping, in_prefix, blockA, out_prefix, blockB
        )
        self.geometry = geom
        self.in_prefix, self.blockA = geom.in_prefix, geom.blockA
        self.out_prefix, self.blockB = geom.out_prefix, geom.blockB
        self.a_dim, self.b_dim = geom.a_dim, geom.b_dim
        self.in_full, self.out_full = set(geom.in_full), set(geom.out_full)
        self.A, self.B = geom.A, geom.B

        self.coverage = SliceCoverage(layout, perm, od_coverages(geom, rank))
        self._out_pos = {d: q for q, d in enumerate(perm.mapping)}
        self._in_off_cache: Dict[int, np.ndarray] = {}
        self._out_off_cache: Dict[int, np.ndarray] = {}
        self._dram_tx: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    @property
    def launch_geometry(self) -> LaunchGeometry:
        return LaunchGeometry(
            num_blocks=self.coverage.num_blocks,
            threads_per_block=self.THREADS,
            shared_mem_per_block=TILE * (TILE + PAD) * self.elem_bytes,
        )

    # -- offset arrays (Alg. 4 restricted to the disjoint case) ---------
    def in_offset_array(self, b_size: Optional[int] = None) -> np.ndarray:
        """Input offset of each output-group row ``y`` (element units).

        Cached per covered size: partial variants reuse the array across
        :meth:`execute` calls and per-block :meth:`trace` visits.
        """
        b_size = self.B if b_size is None else b_size
        hit = self._in_off_cache.get(b_size)
        if hit is not None:
            return hit
        dims, strides = self.layout.dims, self.layout.strides
        # Output-group dims in OUTPUT order, fastest first.
        order = [self.perm.mapping[q] for q in range(self.out_prefix)]
        extents = [dims[d] for d in order]
        if self.b_dim is not None:
            order.append(self.b_dim)
            extents.append(
                max(1, b_size // max(math.prod(extents), 1))
                if extents
                else b_size
            )
        ys = np.arange(b_size, dtype=np.int64)
        off = np.zeros(b_size, dtype=np.int64)
        rem = ys.copy()
        for d, e in zip(order, extents):
            off += (rem % e) * strides[d]
            rem //= e
        self._in_off_cache[b_size] = off
        return off

    def out_offset_array(self, a_size: Optional[int] = None) -> np.ndarray:
        """Output offset of each input-group column ``x`` (element units).

        Cached per covered size, like :meth:`in_offset_array`.
        """
        a_size = self.A if a_size is None else a_size
        hit = self._out_off_cache.get(a_size)
        if hit is not None:
            return hit
        dims = self.layout.dims
        out_strides = self.out_layout.strides
        order = list(range(self.in_prefix))
        extents = [dims[d] for d in order]
        if self.a_dim is not None:
            order.append(self.a_dim)
            extents.append(
                max(1, a_size // max(math.prod(extents), 1))
                if extents
                else a_size
            )
        xs = np.arange(a_size, dtype=np.int64)
        off = np.zeros(a_size, dtype=np.int64)
        rem = xs.copy()
        for d, e in zip(order, extents):
            off += (rem % e) * out_strides[self._out_pos[d]]
            rem //= e
        self._out_off_cache[a_size] = off
        return off

    def tex_array_bytes(self) -> int:
        return (self.A + self.B) * 4  # int32 offset arrays

    # ------------------------------------------------------------------
    def dram_tx_totals(self) -> Tuple[int, int]:
        """Whole-launch DRAM (load, store) transaction counts.

        Traffic on each side decomposes into effective contiguous runs
        (:func:`repro.kernels.common.effective_runs`): slice rows chained
        through fully covered dims and temporally adjacent blocks, each
        costing its covering 128 B lines once.  Memoized per instance.
        """
        if self._dram_tx is None:
            self._dram_tx = dram_transaction_totals(
                self.layout,
                self.perm,
                self.coverage.by_dim,
                self.elem_bytes,
                self.spec,
            )
        return self._dram_tx

    def _variant_counters(self, a: int, b: int) -> KernelCounters:
        """Analytic counters for one slice of shape ``a x b``.

        DRAM transactions are accounted globally (:meth:`dram_tx_totals`);
        this method covers the per-slice warp/lane/smem/texture activity.
        """
        c = KernelCounters()
        eb, ws = self.elem_bytes, self.spec.warp_size
        # copy-in: for each of b rows, ceil(a/ws) warp reads of <=ws
        # contiguous elements; tile boundaries align to ws*eb.
        ld_acc = b * ceil_div(a, ws)
        st_acc = a * ceil_div(b, ws)
        vol = a * b
        c.dram_ld_useful_bytes = vol * eb
        c.dram_st_useful_bytes = vol * eb
        c.warp_ld_accesses = ld_acc
        c.warp_st_accesses = st_acc
        c.lane_slots = (ld_acc + st_acc) * ws
        c.active_lanes = 2 * vol
        c.smem_st_accesses = ld_acc
        c.smem_ld_accesses = st_acc
        degree = column_access_degree(
            min(ws, b), TILE + PAD, self.spec.shared_mem_banks
        )
        c.smem_conflict_cycles = (degree - 1) * st_acc
        c.tex_accesses = ld_acc + st_acc
        partial = int(a != self.A or b != self.B)
        c.special_ops = 2 * self.layout.rank + partial * 2 * (ld_acc + st_acc)
        c.alu_ops = 6 * vol
        return c

    def slice_variant_shapes(self) -> List[Tuple[int, int, int]]:
        """``(count, a, b)`` for every full/partial slice variant —
        the N1..N4 of the paper's cycles feature."""
        shapes: List[Tuple[int, int, int]] = []
        base_in = self.layout.prefix_volume(self.in_prefix)
        base_out = math.prod(self.layout.dims[d] for d in self.out_full)
        for v in self.coverage.variants():
            a = base_in * (
                v.size_of(self.a_dim, 1) if self.a_dim is not None else 1
            )
            b = base_out * (
                v.size_of(self.b_dim, 1) if self.b_dim is not None else 1
            )
            shapes.append((v.count, a, b))
        return shapes

    def cycles(self) -> int:
        """The Sec. V warp-inefficiency feature for this configuration."""
        return weighted_slice_cycles(self.slice_variant_shapes(), self.spec.warp_size)

    def counters(self) -> KernelCounters:
        total = KernelCounters()
        for count, a, b in self.slice_variant_shapes():
            total += self._variant_counters(a, b).scaled(count)
        total.dram_ld_tx, total.dram_st_tx = self.dram_tx_totals()
        return total

    def features(self) -> Dict[str, float]:
        key = (
            self.layout.dims,
            self.perm.mapping,
            self.in_prefix,
            self.blockA,
            self.out_prefix,
            self.blockB,
            self.elem_bytes,
            self.spec,
        )
        hit = _FEATURE_CACHE.get(key)
        if hit is None:
            hit = super().features()
            hit.update(
                input_slice=float(self.A),
                output_slice=float(self.B),
                cycles=float(self.cycles()),
            )
            _FEATURE_CACHE.put(key, hit)
        return dict(hit)

    # ------------------------------------------------------------------
    def _variant_slice_shape(self, sizes: Dict[int, int]) -> Tuple[int, int]:
        """``(a, b)`` slice extents of one variant."""
        base_in = self.layout.prefix_volume(self.in_prefix)
        base_out = math.prod(self.layout.dims[d] for d in self.out_full)
        a = base_in * (sizes.get(self.a_dim, 1) if self.a_dim is not None else 1)
        b = base_out * (sizes.get(self.b_dim, 1) if self.b_dim is not None else 1)
        return a, b

    def execute_per_call(self, src: np.ndarray) -> np.ndarray:
        """Move ``src`` through the kernel's own Alg. 2 offset arrays,
        rebuilding the gather and scatter index tensors on every call:
        the check of the paper's addressing against ``np.transpose``
        (see the OA kernel's ``execute_per_call``)."""
        src = self.check_input(src)
        dst = np.empty(self.volume, dtype=src.dtype)
        in_base, out_base, variant = self.coverage.block_bases()
        vorder = self.coverage.variants_order()
        for vid, sizes in enumerate(vorder):
            sel = np.nonzero(variant == vid)[0]
            if sel.size == 0:
                continue
            a, b = self._variant_slice_shape(sizes)
            in_off = self.in_offset_array(b)
            out_off = self.out_offset_array(a)
            # Gather the slice as [block, y(B), x(A)] -- the copy-in phase
            # (rows along the input-contiguous axis through the tile
            # buffer), then scatter columns -- the copy-out phase.
            gather = block_gather_indices(
                in_base[sel], slice_gather_rel(in_off, a)
            )
            buf = src[gather].reshape(sel.size, b, a)
            scatter = block_gather_indices(
                out_base[sel], slice_gather_rel(out_off, b)
            )
            dst[scatter.reshape(sel.size, a, b)] = buf.transpose(0, 2, 1)
        return dst

    # ------------------------------------------------------------------
    def trace(self, max_blocks: Optional[int] = None) -> Iterator[WarpAccess]:
        eb, ws = self.elem_bytes, self.spec.warp_size
        in_base, out_base, variant = self.coverage.block_bases(max_blocks)
        vorder = self.coverage.variants_order()
        base_in = self.layout.prefix_volume(self.in_prefix)
        base_out = math.prod(self.layout.dims[d] for d in self.out_full)
        pitch = TILE + PAD
        for blk in range(len(in_base)):
            sizes = vorder[variant[blk]]
            a = base_in * (sizes.get(self.a_dim, 1) if self.a_dim is not None else 1)
            b = base_out * (sizes.get(self.b_dim, 1) if self.b_dim is not None else 1)
            in_off = self.in_offset_array(b)
            out_off = self.out_offset_array(a)
            ib, ob = int(in_base[blk]), int(out_base[blk])
            for ty in range(0, b, TILE):
                hy = min(TILE, b - ty)
                for tx in range(0, a, TILE):
                    hx = min(TILE, a - tx)
                    # copy-in rows
                    for y in range(ty, ty + hy):
                        lanes = np.arange(tx, tx + hx, dtype=np.int64)
                        yield WarpAccess(
                            "gld", (ib + in_off[y] + lanes) * eb, eb, ws
                        )
                        yield WarpAccess("tld", np.array([y * 4]), 4, ws)
                        srow = (y - ty) * pitch + (lanes - tx)
                        yield WarpAccess("sst", srow * eb, eb, ws)
                    # copy-out columns
                    for x in range(tx, tx + hx):
                        lanes = np.arange(ty, ty + hy, dtype=np.int64)
                        scol = (lanes - ty) * pitch + (x - tx)
                        yield WarpAccess("sld", scol * eb, eb, ws)
                        yield WarpAccess("tld", np.array([x * 4]), 4, ws)
                        yield WarpAccess(
                            "gst", (ob + out_off[x] + lanes) * eb, eb, ws
                        )
