"""Public TTLG API.

Two entry levels:

- **NumPy convention** (friendly, one-shot): :func:`transpose` and
  :func:`transpose_many` behave like ``np.transpose(a, axes)``.  They
  execute first: the bytes move through a
  :class:`~repro.kernels.executor.ViewProgram` without building a TTLG
  plan, because on the host every plan's slice choice moves the same
  bytes.  They plan only when a process-wide service is installed
  (:func:`set_default_service`), which then owns planning, caching and
  metrics.
- **Paper convention** (dims with dim 0 fastest, permutation ``p[i] = j``
  meaning output dim ``i`` is input dim ``j``): :func:`plan_transpose`,
  :class:`Transposer`, :func:`predict_time`.  These are where a caller
  asks for a plan — the slice choice and its simulated GPU time.  A
  :class:`Transposer` builds its plan only when one of those is read;
  its calls run the problem's lowered program.

Every route checks the problem at the door with :func:`check_problem`,
so a bad problem raises the same typed error wherever it enters.

:func:`predict_time` is the paper's "performance modeling interface that
can be queried by an invoking context" — e.g. the TTGT contraction
planner in :mod:`repro.ttgt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from threading import Lock
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.core.plan import Predictor, TransposePlan, make_plan
from repro.core.taxonomy import Schema
from repro.errors import InvalidLayoutError
from repro.gpusim.cost import CostModel
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec
from repro.kernels.executor import ViewProgram, program_for

if TYPE_CHECKING:
    from repro.runtime.service import TransposeService


def axes_to_perm(axes: Sequence[int]) -> Tuple[int, ...]:
    """Convert NumPy ``transpose`` axes to the paper's permutation.

    With rank ``r``: ``p[i] = r - 1 - axes[r - 1 - i]``.
    """
    r = len(axes)
    return tuple(r - 1 - axes[r - 1 - i] for i in range(r))


def perm_to_axes(perm: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`axes_to_perm` (the conversion is an involution)."""
    return axes_to_perm(perm)


def check_problem(
    dims: Sequence[int], perm: Sequence[int], elem_bytes: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """The door check of a paper-convention problem, on every route.

    Raises what planning would raise, before anything is planned,
    lowered or enqueued: :class:`InvalidLayoutError` for a rank
    mismatch, a zero extent or an element width outside {4, 8};
    :class:`~repro.errors.InvalidPermutationError` for a bad perm.
    Returns ``(dims, perm, elem_bytes)`` as ints.
    """
    if len(dims) != len(perm):
        raise InvalidLayoutError(
            f"perm of length {len(perm)} for rank-{len(dims)} dims"
        )
    if elem_bytes not in (4, 8):
        raise InvalidLayoutError(
            f"TTLG kernels support 4- or 8-byte elements, got {elem_bytes}"
        )
    return TensorLayout(dims).dims, Permutation(perm).mapping, int(elem_bytes)


def _check_out(
    out: np.ndarray,
    dtype: np.dtype,
    shape: Optional[Tuple[int, ...]] = None,
    size: Optional[int] = None,
) -> np.ndarray:
    """Validate a caller-provided output buffer up front.

    The kernels' own ``check_output`` runs deep inside execution and
    raises ``SchemaError``; historically a non-contiguous or
    wrong-dtype ``out`` was accepted by some paths (silently copied) and
    rejected by others.  Every public ``out=`` now fails fast here with
    a consistent :class:`InvalidLayoutError`.
    """
    if not isinstance(out, np.ndarray):
        raise InvalidLayoutError(
            f"out must be a numpy array, got {type(out).__name__}"
        )
    if shape is not None and out.shape != tuple(shape):
        raise InvalidLayoutError(
            f"out has shape {out.shape}, expected {tuple(shape)}"
        )
    if size is not None and out.size != size:
        raise InvalidLayoutError(
            f"out has {out.size} elements, expected {size}"
        )
    if out.dtype != np.dtype(dtype):
        raise InvalidLayoutError(
            f"out has dtype {out.dtype}, expected {np.dtype(dtype)}"
        )
    if not out.flags.c_contiguous:
        raise InvalidLayoutError(
            "out must be C-contiguous (the kernels write the output "
            "linearization in place)"
        )
    if not out.flags.writeable:
        raise InvalidLayoutError("out is read-only")
    return out


# The process-wide service slot lives here, not in repro.runtime, so the
# one-shot path can look for a service without importing the runtime.
_default_lock = Lock()
_default_service: Optional["TransposeService"] = None


def get_default_service() -> Optional["TransposeService"]:
    """The installed process-wide service, or None when none is active."""
    return _default_service


def set_default_service(
    service: Optional["TransposeService"],
) -> Optional["TransposeService"]:
    """Install (or, with None, uninstall) the process-wide service.

    While a default service is installed, the entry points of this
    module route their planning through it.  Returns the previous
    default so callers can restore it.
    """
    global _default_service
    with _default_lock:
        previous = _default_service
        _default_service = service
    return previous


def install_default_service(**kwargs) -> "TransposeService":
    """Create a :class:`~repro.runtime.TransposeService` and install it
    as the default."""
    from repro.runtime.service import TransposeService

    service = TransposeService(**kwargs)
    set_default_service(service)
    return service


def _service_for(predictor: Optional[Predictor]) -> Optional["TransposeService"]:
    """The installed service, unless the caller pins a custom
    ``predictor``, which a shared service cannot honour per-call."""
    return _default_service if predictor is None else None


def _plan_for(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int,
    spec: DeviceSpec,
    predictor: Optional[Predictor],
) -> TransposePlan:
    """Plan directly, or through the installed runtime service.

    When a process-wide :class:`repro.runtime.TransposeService` is
    installed (see :func:`set_default_service`), planning routes through
    it — gaining request coalescing, the LRU cache, the persistent plan
    store, and metrics.
    """
    service = _service_for(predictor)
    if service is not None:
        return service.plan(dims, perm, elem_bytes, spec)
    return make_plan(dims, perm, elem_bytes, spec, predictor)


def _check_problem(a: np.ndarray, axes: Sequence[int]):
    """:func:`check_problem` of a one-shot NumPy-convention problem.

    Returns ``(dims, perm, elem_bytes, out_shape)``.
    """
    dims = a.shape[::-1]  # our dim 0 is the fastest (NumPy's last axis)
    perm = axes_to_perm(axes)
    check_problem(dims, perm, a.dtype.itemsize)
    out_shape = tuple(a.shape[ax] for ax in axes)
    return dims, perm, a.dtype.itemsize, out_shape


@dataclass(frozen=True)
class TransposeEstimate:
    """Answer of the queryable performance-model interface."""

    schema: Schema
    kernel_time: float
    plan_time: float
    bandwidth_gbps: float
    num_candidates: int

    @property
    def single_use_time(self) -> float:
        return self.kernel_time + self.plan_time


class Transposer:
    """A transposition handle for the repeated-use scenario.

    Check once, call many times; mirrors cuTT's plan handle and TTC's
    generated kernel.  Construction validates the problem and plans
    nothing: calls run the problem's lowered program, and the TTLG
    plan is built on the first read of :attr:`plan`, :attr:`schema`,
    :meth:`simulated_time` or :meth:`estimate`.

    Parameters use the paper convention; see :func:`transpose` for the
    NumPy-flavoured one-shot API.
    """

    def __init__(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        spec: DeviceSpec = KEPLER_K40C,
        predictor: Optional[Predictor] = None,
    ):
        dims, perm, elem_bytes = check_problem(dims, perm, elem_bytes)
        #: The NumPy-convention problem.
        self.problem = (dims[::-1], perm_to_axes(perm), elem_bytes)
        self.spec = spec
        self._predictor = predictor
        self.calls = 0

    # ------------------------------------------------------------------
    @cached_property
    def plan(self) -> TransposePlan:
        """The TTLG plan, built once on first read."""
        shape, axes, elem_bytes = self.problem
        return make_plan(
            shape[::-1], axes_to_perm(axes), elem_bytes, self.spec,
            self._predictor,
        )

    @property
    def schema(self) -> Schema:
        return self.plan.schema

    def __call__(
        self, src_flat: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Execute on linearized data (paper convention).

        With ``out`` (C-contiguous, same size and dtype) the result is
        written in place — the steady-state repeated-use call does no
        allocation at all.  An ``out`` of the wrong dtype, size, or
        memory layout raises :class:`InvalidLayoutError` before
        anything executes.
        """
        self.calls += 1
        volume = math.prod(self.problem[0])
        src = np.ascontiguousarray(src_flat).reshape(-1)
        if src.size != volume:
            raise InvalidLayoutError(
                f"input has {src.size} elements, expected {volume}"
            )
        if out is not None:
            out = _check_out(out, src.dtype, size=volume).reshape(-1)
        return program_for(self.problem)[0].run(src, out=out)

    def simulated_time(self) -> float:
        return self.plan.simulated_time(CostModel(self.spec))

    def estimate(self) -> TransposeEstimate:
        return _estimate(self.plan, CostModel(self.spec))


def plan_transpose(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int = 8,
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
) -> TransposePlan:
    """Plan a transposition in the paper convention (see module docs).

    Routes through the installed runtime service, when there is one.
    """
    return _plan_for(dims, perm, elem_bytes, spec, predictor)


def predict_time(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int = 8,
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
) -> TransposeEstimate:
    """Estimate a transposition without executing it.

    This is the interface a higher-level optimizer (e.g. a TTGT tensor
    contraction planner) queries to choose among layouts.
    """
    plan = _plan_for(dims, perm, elem_bytes, spec, predictor)
    return _estimate(plan, CostModel(spec))


def _estimate(plan: TransposePlan, cm: CostModel) -> TransposeEstimate:
    t = plan.simulated_time(cm)
    return TransposeEstimate(
        schema=plan.schema,
        kernel_time=t,
        plan_time=plan.plan_time,
        bandwidth_gbps=cm.bandwidth_gbps(plan.layout.volume, plan.elem_bytes, t),
        num_candidates=plan.num_candidates,
    )


def transpose_many(
    arrays: Sequence[np.ndarray],
    axes: Sequence[int],
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
) -> list:
    """Transpose a batch of same-shape arrays in ONE fused move.

    The repeated-use pattern (Fig. 12) as an API: the whole batch moves
    as **one** :meth:`~repro.kernels.executor.ExecutorProgram.run_batch`
    over a stacked leading axis, so the per-call cost is a single
    execution for the entire batch.  All arrays must share the first
    array's shape and dtype.

    Like :func:`transpose` this builds no plan.  The batch moves
    through a :class:`~repro.kernels.executor.ViewProgram` on the
    calling thread whether or not a default service is installed;
    ``spec`` and ``predictor`` only keep the signature in step with
    :func:`transpose`.
    """
    if not arrays:
        return []
    first = np.ascontiguousarray(arrays[0])
    dims, perm, elem_bytes, out_shape = _check_problem(first, axes)
    flats = []
    for a in arrays:
        a = np.ascontiguousarray(a)
        if a.shape != first.shape or a.dtype != first.dtype:
            raise InvalidLayoutError(
                "transpose_many requires a homogeneous batch: got "
                f"{a.shape}/{a.dtype} vs {first.shape}/{first.dtype}"
            )
        flats.append(a.reshape(-1))
    moved = ViewProgram(first.shape, tuple(axes)).run_batch(flats)
    return [row.reshape(out_shape) for row in moved]


def transpose(
    array: np.ndarray,
    axes: Sequence[int],
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``np.transpose(array, axes)``, executed first.

    The array must be C-contiguous (or convertible); the result is a
    new contiguous array (it never shares memory with ``array``),
    element-identical to NumPy's transposition.  With
    ``out`` (C-contiguous, the transposed shape, same dtype) the result
    is written in place and ``out`` is returned; a non-contiguous,
    wrong-shape, or wrong-dtype ``out`` raises
    :class:`InvalidLayoutError` before anything is planned or executed.

    A one-shot call builds no TTLG plan: it moves the bytes through a
    :class:`~repro.kernels.executor.ViewProgram`.  When a default
    service is installed (and no ``predictor`` is given) it runs as one
    of that service's executions instead, still without a plan.  Ask
    for a plan with :class:`Transposer`, :func:`plan_transpose` or
    :func:`predict_time`.
    """
    a = np.ascontiguousarray(array)
    dims, perm, elem_bytes, out_shape = _check_problem(a, axes)
    if out is not None:
        _check_out(out, a.dtype, shape=out_shape)
    service = _service_for(predictor)
    if service is None:
        run = ViewProgram(a.shape, tuple(axes)).run
        if out is None:
            return run(a.reshape(-1)).reshape(out_shape)
        run(a.reshape(-1), out=out)
        return out
    dest = out if out is not None else np.empty(out_shape, a.dtype)
    service.submit(
        dims, perm, elem_bytes, payload=a.reshape(-1), out=dest.reshape(-1)
    ).result()
    return dest
