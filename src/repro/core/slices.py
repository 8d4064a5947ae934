"""Slice-size and blocking-factor search (Alg. 3).

For the Orthogonal-Distinct and Orthogonal-Arbitrary kernels the combined
input-group volume ``A`` and output-group volume ``B`` are free
parameters.  Alg. 3 enumerates targets ``limit_a``/``limit_b`` in warp
multiples, derives the minimal prefix+block that reaches each target, and
keeps the configuration with the best *predicted* time.

The enumeration deduplicates derived ``(in_prefix, blockA, out_prefix,
blockB)`` tuples — many warp-multiple targets collapse to the same
configuration (for the paper's 27^5 example this yields the ~31 slice
variants of Fig. 5).

The upper bound on slice volume keeps the grid "overbooked": at least
``overbooking_factor`` times the number of thread blocks that can be
resident on the whole device, so SMs never starve (the paper determined
the factor empirically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.layout import TensorLayout
from repro.core.lru import BoundedLRU
from repro.core.permutation import Permutation
from repro.core.taxonomy import Schema
from repro.errors import PlanError, SchemaError
from repro.gpusim.spec import DeviceSpec
from repro.kernels.base import TransposeKernel
from repro.kernels.common import (
    OAGeometry,
    ODGeometry,
    dram_transaction_totals,
    normalize_oa_geometry,
    normalize_od_geometry,
    oa_coverages,
    od_coverages,
)
from repro.kernels.orthogonal_arbitrary import OrthogonalArbitraryKernel
from repro.kernels.orthogonal_distinct import OrthogonalDistinctKernel
from repro.kernels.orthogonal_distinct import PAD, TILE

#: The paper's empirical grid-overbooking multiplier.
DEFAULT_OVERBOOKING = 4

#: Pruning slack: a candidate survives phase 1 while its analytic
#: DRAM-transaction lower bound stays within this factor of the
#: incumbent's *predicted* time.  The bound is a true floor on the cost
#: model, but the regression predictors carry fit error, so the margin
#: absorbs model optimism (empirically the bound never exceeds ~0.92x
#: the prediction; 1.5x leaves a wide safety band).
PRUNE_SAFETY = 1.5

#: A predictor maps a candidate kernel to an estimated time in seconds.
#: Predictors may additionally expose ``predict_batch(kernels)`` to
#: score many candidates in one pass (see :mod:`repro.model.pretrained`).
Predictor = Callable[[TransposeKernel], float]

#: Fallback tie-break precedence between schemas when the caller has no
#: taxonomy decision to rank by: enum definition order, not the
#: alphabetical accident of the schema value strings.
_SCHEMA_RANK = {schema: i for i, schema in enumerate(Schema)}

#: Optional mapping from schema to its tie-break precedence (lower wins).
#: The planner passes the taxonomy decision's candidate order so exact
#: predicted-time ties resolve toward the decision's preferred schema,
#: matching the historical first-enumerated-wins behavior.
SchemaRank = Optional[dict]


def _rank_of(schema: Schema, schema_rank: SchemaRank) -> int:
    if schema_rank is None:
        return _SCHEMA_RANK[schema]
    return schema_rank.get(schema, len(schema_rank) + _SCHEMA_RANK[schema])


@dataclass(frozen=True)
class GroupChoice:
    """One derived side of a slice: prefix dims + block on the next."""

    prefix: int
    block: int
    size: int  # combined extent


def derive_group(
    extents: Sequence[int], limit: int
) -> Optional[GroupChoice]:
    """Alg. 3 lines 8-12/13-18: smallest prefix+block reaching ``limit``.

    ``extents`` are the candidate dims' extents in combining order
    (input order for the input side, output order for the output side).
    Returns ``None`` when the whole tensor is smaller than ``limit``.
    """
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    vol = 1
    for k, e in enumerate(extents):
        if vol * e >= limit:
            block = math.ceil(limit / vol)
            return GroupChoice(prefix=k, block=block, size=vol * block)
        vol *= e
    return None


def max_slice_volume(
    layout: TensorLayout,
    spec: DeviceSpec,
    smem_per_block: int,
    overbooking: int = DEFAULT_OVERBOOKING,
) -> int:
    """Upper bound on per-block slice volume for grid overbooking.

    ``volume / slice_vol`` thread blocks must be at least ``overbooking``
    times the device's resident-block capacity (Alg. 3's ``maxlimit``).
    """
    resident_per_sm = max(1, spec.shared_mem_per_sm // max(smem_per_block, 1))
    resident_per_sm = min(resident_per_sm, spec.max_blocks_per_sm)
    min_num_blocks = spec.num_sms * resident_per_sm
    cap = layout.volume // max(overbooking * min_num_blocks, 1)
    return max(cap, spec.warp_size * spec.warp_size)


# ----------------------------------------------------------------------
# Orthogonal-Distinct enumeration
# ----------------------------------------------------------------------


def distinct_groups(
    extents: Sequence[int], ws: int, cap: int
) -> List[GroupChoice]:
    """All distinct groups derivable from warp-multiple targets.

    Equivalent to running :func:`derive_group` for every ``limit`` in
    ``ws, 2*ws, ...`` up to ``cap`` and deduplicating — the paper's two
    outer loops — but generated directly.
    """
    groups: List[GroupChoice] = []
    seen = set()
    # Pure-prefix groups *below* the warp-size target: when every
    # warp-sized grouping overlaps the other side, Alg. 3 settles for a
    # smaller disjoint group (the paper's 27^5 example has output slice
    # 27 < 32).  Prefixes at or above the warp size arise from the
    # derivation loop below (full-extent blocks normalize into prefixes).
    vol = 1
    for k, e in enumerate(extents):
        vol *= e
        if vol >= ws or vol > cap:
            break
        seen.add((k + 1, 1))
        groups.append(GroupChoice(prefix=k + 1, block=1, size=vol))
    limit = ws
    while limit <= cap:
        g = derive_group(extents, limit)
        if g is None:
            break
        candidates = [g]
        # Also consider the largest block *below* the derived one whose
        # size still clears the previous warp multiple — e.g. for extents
        # 27^5 and limit 192 the derived block is 8 (A = 216) but block 7
        # (A = 189 >= 176) is admissible and is the paper's Fig. 5 best.
        if g.block > 1:
            prev = GroupChoice(
                prefix=g.prefix,
                block=g.block - 1,
                size=g.size // g.block * (g.block - 1),
            )
            if prev.size >= ws:
                candidates.append(prev)
        for cand in candidates:
            key = (cand.prefix, cand.block)
            if key not in seen and cand.size <= max(cap, ws):
                seen.add(key)
                groups.append(cand)
        # Jump to the next limit that changes the derived group: the
        # smallest warp multiple exceeding the current derived size.
        limit = max(limit + ws, (g.size // ws + 1) * ws)
    return groups


def enumerate_orthogonal_distinct(
    layout: TensorLayout,
    perm: Permutation,
    spec: DeviceSpec,
    elem_bytes: int = 8,
    overbooking: int = DEFAULT_OVERBOOKING,
    max_configs: int = 256,
) -> List[OrthogonalDistinctKernel]:
    """All admissible OD slice configurations (deduplicated)."""
    ws = spec.warp_size
    smem = TILE * (TILE + PAD) * elem_bytes
    cap = max_slice_volume(layout, spec, smem, overbooking)
    out_extents = [layout.dims[d] for d in perm.mapping]
    kernels: List[OrthogonalDistinctKernel] = []
    for ga in distinct_groups(layout.dims, ws, cap):
        for gb in distinct_groups(out_extents, ws, max(cap // ga.size, ws)):
            if ga.size * gb.size > cap:
                break
            if len(kernels) >= max_configs:
                return kernels
            try:
                kernels.append(
                    OrthogonalDistinctKernel(
                        layout,
                        perm,
                        in_prefix=ga.prefix,
                        blockA=ga.block,
                        out_prefix=gb.prefix,
                        blockB=gb.block,
                        elem_bytes=elem_bytes,
                        spec=spec,
                    )
                )
            except SchemaError:
                pass  # overlapping groups — skip this combination
    return kernels


# ----------------------------------------------------------------------
# Orthogonal-Arbitrary enumeration
# ----------------------------------------------------------------------


def enumerate_orthogonal_arbitrary(
    layout: TensorLayout,
    perm: Permutation,
    spec: DeviceSpec,
    elem_bytes: int = 8,
    max_configs: int = 128,
) -> List[OrthogonalArbitraryKernel]:
    """All admissible OA slice configurations.

    The buffer holds the whole ``A x B`` slice, so admissibility is
    bounded by shared memory (the paper trained on ~10x fewer OA
    configurations for exactly this reason).
    """
    ws = spec.warp_size
    smem_words = spec.shared_mem_per_sm // elem_bytes
    out_extents = [layout.dims[d] for d in perm.mapping]
    kernels: List[OrthogonalArbitraryKernel] = []
    seen = set()
    # The empty output group (B = 1) matters when the input group itself
    # covers the output-fastest dims (e.g. a 16 x N matrix transpose
    # where blocking the slow dim makes both sides coalesced).
    empty_out = GroupChoice(prefix=0, block=1, size=1)
    for ga in distinct_groups(layout.dims, ws, smem_words):
        for gb in [empty_out] + distinct_groups(
            out_extents, ws, max(smem_words // ga.size, ws)
        ):
            if ga.size * gb.size > smem_words:
                break
            if len(kernels) >= max_configs:
                return kernels
            try:
                # pad="auto": TTLG's Sec. IV specialization — stagger the
                # buffer pitch when the gather pattern conflicts.
                k = OrthogonalArbitraryKernel(
                    layout,
                    perm,
                    in_prefix=ga.prefix,
                    blockA=ga.block,
                    out_prefix=gb.prefix,
                    blockB=gb.block,
                    elem_bytes=elem_bytes,
                    spec=spec,
                    pad="auto",
                )
            except SchemaError:
                continue  # infeasible combination (smem, empty group, ...)
            # Kernel construction normalizes parameters (full-extent and
            # input-covered blocks); dedupe on the normalized identity.
            key = (k.in_prefix, k.blockA, k.out_prefix, k.blockB, k.b_dim)
            if key not in seen:
                seen.add(key)
                kernels.append(k)
    return kernels


# ----------------------------------------------------------------------
# Lightweight candidate descriptors (two-phase search, phase 1)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateDesc:
    """Phase-1 candidate: normalized slice parameters, no kernel object.

    Descriptors carry everything the planner needs to rank and prune a
    configuration — the normalized geometry and an analytic identity —
    deferring the O(slice) constructor work (pad search, offset arrays)
    to :func:`materialize_candidate` for the single winner.  FVI
    candidates are cheap to build, so their descriptors simply wrap a
    prebuilt ``kernel``.
    """

    schema: Schema
    in_prefix: int = 0
    blockA: int = 1
    out_prefix: int = 0
    blockB: int = 1
    b: int = 0  # FVI-Match-Small blocking factor
    A: int = 1
    B: int = 1
    geometry: Optional[Union[OAGeometry, ODGeometry]] = field(
        default=None, compare=False, repr=False
    )
    kernel: Optional[TransposeKernel] = field(
        default=None, compare=False, repr=False
    )

    @property
    def param_key(self) -> Tuple[int, int, int, int, int]:
        """Within-schema stable order used for deterministic tie-breaking."""
        return (self.in_prefix, self.blockA, self.out_prefix, self.blockB, self.b)


def candidate_sort_key(
    kernel: TransposeKernel, schema_rank: SchemaRank = None
) -> Tuple[int, int, int, int, int, int]:
    """The deterministic tie-break key recovered from a built kernel.

    The eager and two-phase paths break exact predicted-time ties on the
    same key — schema precedence first (the taxonomy decision's order
    when given), then the normalized slice parameters — so they always
    agree on the winner regardless of enumeration order.
    """
    return (
        _rank_of(kernel.schema, schema_rank),
        getattr(kernel, "in_prefix", 0),
        getattr(kernel, "blockA", 1),
        getattr(kernel, "out_prefix", 0),
        getattr(kernel, "blockB", 1),
        getattr(kernel, "b", 0),
    )


def enumerate_orthogonal_distinct_descs(
    layout: TensorLayout,
    perm: Permutation,
    spec: DeviceSpec,
    elem_bytes: int = 8,
    overbooking: int = DEFAULT_OVERBOOKING,
    max_configs: int = 256,
) -> List[CandidateDesc]:
    """Descriptor twin of :func:`enumerate_orthogonal_distinct`.

    Walks the identical group lattice (same caps, same break and skip
    conditions) but only normalizes parameters instead of constructing
    kernels, so the list corresponds 1:1 with the eager enumeration.
    """
    ws = spec.warp_size
    smem = TILE * (TILE + PAD) * elem_bytes
    cap = max_slice_volume(layout, spec, smem, overbooking)
    out_extents = [layout.dims[d] for d in perm.mapping]
    descs: List[CandidateDesc] = []
    for ga in distinct_groups(layout.dims, ws, cap):
        for gb in distinct_groups(out_extents, ws, max(cap // ga.size, ws)):
            if ga.size * gb.size > cap:
                break
            if len(descs) >= max_configs:
                return descs
            try:
                geom = normalize_od_geometry(
                    layout.dims,
                    perm.mapping,
                    ga.prefix,
                    ga.block,
                    gb.prefix,
                    gb.block,
                )
            except SchemaError:
                continue  # overlapping groups — skip this combination
            descs.append(
                CandidateDesc(
                    schema=Schema.ORTHOGONAL_DISTINCT,
                    in_prefix=geom.in_prefix,
                    blockA=geom.blockA,
                    out_prefix=geom.out_prefix,
                    blockB=geom.blockB,
                    A=geom.A,
                    B=geom.B,
                    geometry=geom,
                )
            )
    return descs


def enumerate_orthogonal_arbitrary_descs(
    layout: TensorLayout,
    perm: Permutation,
    spec: DeviceSpec,
    elem_bytes: int = 8,
    max_configs: int = 128,
) -> List[CandidateDesc]:
    """Descriptor twin of :func:`enumerate_orthogonal_arbitrary`.

    Normalization and the shared-memory bound reproduce exactly the
    :class:`OrthogonalArbitraryKernel` constructor checks, and the dedup
    key matches the eager loop's, so descriptor count and order equal
    the eager kernel list.
    """
    ws = spec.warp_size
    smem_words = spec.shared_mem_per_sm // elem_bytes
    out_extents = [layout.dims[d] for d in perm.mapping]
    descs: List[CandidateDesc] = []
    seen = set()
    empty_out = GroupChoice(prefix=0, block=1, size=1)
    for ga in distinct_groups(layout.dims, ws, smem_words):
        for gb in [empty_out] + distinct_groups(
            out_extents, ws, max(smem_words // ga.size, ws)
        ):
            if ga.size * gb.size > smem_words:
                break
            if len(descs) >= max_configs:
                return descs
            try:
                geom = normalize_oa_geometry(
                    layout.dims,
                    perm.mapping,
                    ga.prefix,
                    ga.block,
                    gb.prefix,
                    gb.block,
                )
            except SchemaError:
                continue  # empty input group
            if geom.A * geom.B * elem_bytes > spec.shared_mem_per_sm:
                continue  # slice exceeds shared memory
            key = (
                geom.in_prefix,
                geom.blockA,
                geom.out_prefix,
                geom.blockB,
                geom.b_dim,
            )
            if key in seen:
                continue
            seen.add(key)
            descs.append(
                CandidateDesc(
                    schema=Schema.ORTHOGONAL_ARBITRARY,
                    in_prefix=geom.in_prefix,
                    blockA=geom.blockA,
                    out_prefix=geom.out_prefix,
                    blockB=geom.blockB,
                    A=geom.A,
                    B=geom.B,
                    geometry=geom,
                )
            )
    return descs


def materialize_candidate(
    desc: CandidateDesc,
    layout: TensorLayout,
    perm: Permutation,
    spec: DeviceSpec,
    elem_bytes: int = 8,
) -> TransposeKernel:
    """Phase-2 construction of the (few) candidates that survive pruning."""
    if desc.kernel is not None:
        return desc.kernel
    if desc.schema is Schema.ORTHOGONAL_DISTINCT:
        return OrthogonalDistinctKernel(
            layout,
            perm,
            in_prefix=desc.in_prefix,
            blockA=desc.blockA,
            out_prefix=desc.out_prefix,
            blockB=desc.blockB,
            elem_bytes=elem_bytes,
            spec=spec,
        )
    if desc.schema is Schema.ORTHOGONAL_ARBITRARY:
        return OrthogonalArbitraryKernel(
            layout,
            perm,
            in_prefix=desc.in_prefix,
            blockA=desc.blockA,
            out_prefix=desc.out_prefix,
            blockB=desc.blockB,
            elem_bytes=elem_bytes,
            spec=spec,
            pad="auto",
        )
    raise PlanError(
        f"descriptor for schema {desc.schema} has no prebuilt kernel"
    )


#: Memoized lower bounds: the slice parameters plus problem identity
#: pin the normalized geometry, so repeat plans of the same problem skip
#: the coverage and transaction analysis entirely.
_LB_CACHE: BoundedLRU = BoundedLRU(maxsize=8192)


def clear_lower_bound_cache() -> None:
    """Forget memoized candidate lower bounds (cold-start benchmarks)."""
    _LB_CACHE.clear()


def candidate_lower_bound(
    desc: CandidateDesc,
    layout: TensorLayout,
    perm: Permutation,
    spec: DeviceSpec,
    elem_bytes: int = 8,
) -> float:
    """Analytic floor on any candidate's time: minimum DRAM traffic at
    full effective bandwidth.

    Transposition is bandwidth-bound, so a kernel can never run faster
    than its DRAM transactions streamed at the device's achievable peak
    — every other cost-model term only adds on top.  Candidates whose
    floor exceeds the incumbent's predicted time (times
    :data:`PRUNE_SAFETY`) are pruned before scoring.
    """
    key = (
        layout.dims,
        perm.mapping,
        desc.schema,
        desc.param_key,
        elem_bytes,
        spec,
    )
    hit = _LB_CACHE.get(key)
    if hit is not None:
        return hit
    if desc.geometry is not None:
        covs = (
            oa_coverages(desc.geometry, layout.rank)
            if isinstance(desc.geometry, OAGeometry)
            else od_coverages(desc.geometry, layout.rank)
        )
        by_dim = {c.dim: c for c in covs}
        ld_tx, st_tx = dram_transaction_totals(
            layout, perm, by_dim, elem_bytes, spec
        )
        bytes_moved = (ld_tx + st_tx) * spec.transaction_bytes
    else:
        # FVI kernels read and write fully coalesced in the ideal case.
        bytes_moved = 2 * layout.volume * elem_bytes
    bound = bytes_moved / spec.effective_bandwidth
    _LB_CACHE.put(key, bound)
    return bound


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SliceSearchResult:
    kernel: TransposeKernel
    predicted_time: float
    num_candidates: int
    #: Candidates actually scored by the predictor (two-phase search
    #: only; ``None`` means the eager path scored everything).
    num_scored: Optional[int] = None


def choose_best(
    candidates: Sequence[TransposeKernel],
    predictor: Predictor,
    schema_rank: SchemaRank = None,
) -> SliceSearchResult:
    """Alg. 3's selection loop: keep the best predicted candidate.

    Exact predicted-time ties are broken on :func:`candidate_sort_key`
    so the winner never depends on enumeration order.
    """
    if not candidates:
        raise PlanError("no admissible slice configuration")
    best, best_t, best_key = None, math.inf, None
    for k in candidates:
        t = predictor(k)
        key = candidate_sort_key(k, schema_rank)
        if t < best_t or (t == best_t and (best_key is None or key < best_key)):
            best, best_t, best_key = k, t, key
    assert best is not None
    return SliceSearchResult(
        kernel=best, predicted_time=best_t, num_candidates=len(candidates)
    )


def _predict_many(
    predictor: Predictor, kernels: Sequence[TransposeKernel]
) -> np.ndarray:
    """Score kernels through ``predictor.predict_batch`` when available."""
    batch = getattr(predictor, "predict_batch", None)
    if batch is not None:
        return np.asarray(batch(kernels), dtype=float)
    return np.asarray([predictor(k) for k in kernels], dtype=float)


def choose_best_two_phase(
    descs: Sequence[CandidateDesc],
    layout: TensorLayout,
    perm: Permutation,
    spec: DeviceSpec,
    elem_bytes: int,
    predictor: Predictor,
    prune_safety: float = PRUNE_SAFETY,
    schema_rank: SchemaRank = None,
) -> SliceSearchResult:
    """Pruned, batched selection over descriptors (two-phase, phase 2).

    The candidate with the smallest analytic lower bound seeds the
    incumbent; every descriptor whose bound exceeds ``prune_safety``
    times the incumbent's predicted time is discarded unscored.  The
    survivors are materialized and scored in one batch, ties break on
    the same key as :func:`choose_best`, and the winner's time is
    re-derived through the scalar predictor so the result is
    bit-identical to the eager path.
    """
    if not descs:
        raise PlanError("no admissible slice configuration")
    if len(descs) == 1:
        only = materialize_candidate(descs[0], layout, perm, spec, elem_bytes)
        return SliceSearchResult(
            kernel=only,
            predicted_time=float(predictor(only)),
            num_candidates=1,
            num_scored=1,
        )

    def tie_key(desc: CandidateDesc):
        return (_rank_of(desc.schema, schema_rank),) + desc.param_key

    bounds = [
        candidate_lower_bound(d, layout, perm, spec, elem_bytes)
        for d in descs
    ]
    order = sorted(
        range(len(descs)), key=lambda i: (bounds[i], tie_key(descs[i]))
    )
    first = order[0]
    incumbent = materialize_candidate(descs[first], layout, perm, spec, elem_bytes)
    threshold = float(predictor(incumbent)) * prune_safety
    # The incumbent always survives, even if a (mis)fit predictor lands
    # below its own analytic floor.
    survivors = [i for i in order if i == first or bounds[i] <= threshold]
    kernels = [
        incumbent
        if i == first
        else materialize_candidate(descs[i], layout, perm, spec, elem_bytes)
        for i in survivors
    ]
    times = _predict_many(predictor, kernels)
    best_j = min(
        range(len(survivors)),
        key=lambda j: (times[j], tie_key(descs[survivors[j]])),
    )
    best = kernels[best_j]
    # Batched scoring can differ from the scalar predictor in the last
    # ulp (BLAS summation order); re-derive the winner's time through
    # the scalar path so the result is bit-identical to the eager one.
    if getattr(predictor, "predict_batch", None) is not None:
        best_t = float(predictor(best))
    else:
        best_t = float(times[best_j])
    return SliceSearchResult(
        kernel=best,
        predicted_time=best_t,
        num_candidates=len(descs),
        num_scored=len(survivors),
    )
