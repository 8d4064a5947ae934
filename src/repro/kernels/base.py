"""Abstract base class for transposition kernels.

Every kernel binds a (fused) transposition problem to one data-movement
schema with concrete parameters, and provides three views of itself:

- :meth:`execute` — functional data movement with NumPy, element-exact
  against the reference transposition (used by the public API and tests).
  Execution runs through a compiled :class:`~repro.kernels.executor
  .ExecutorProgram` built once per problem and cached process-wide, so
  warm calls do zero per-call index construction (see
  ``docs/executor.md``);
- :meth:`counters` — fast analytic activity counts (Table I of the paper
  with partial-tile corrections), consumed by the cost model;
- :meth:`trace` — optional per-warp access trace for the detailed engine
  (validation of the analytic counts on small tensors).
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, Optional

import numpy as np

from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.core.taxonomy import Schema
from repro.errors import SchemaError
from repro.gpusim.counters import KernelCounters, LaunchGeometry
from repro.gpusim.cost import CostModel
from repro.gpusim.engine import WarpAccess
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec


class TransposeKernel(abc.ABC):
    """One schema bound to one problem with concrete parameters."""

    #: Schema implemented by the subclass.
    schema: Schema

    def __init__(
        self,
        layout: TensorLayout,
        perm: Permutation,
        elem_bytes: int = 8,
        spec: DeviceSpec = KEPLER_K40C,
    ):
        if perm.rank != layout.rank:
            raise SchemaError(
                f"permutation rank {perm.rank} != layout rank {layout.rank}"
            )
        if elem_bytes not in (4, 8):
            raise SchemaError(f"elem_bytes must be 4 or 8, got {elem_bytes}")
        self.layout = layout
        self.perm = perm
        self.elem_bytes = elem_bytes
        self.spec = spec
        self.out_layout = layout.permuted(perm)

    # ------------------------------------------------------------------
    @property
    def volume(self) -> int:
        return self.layout.volume

    @property
    @abc.abstractmethod
    def launch_geometry(self) -> LaunchGeometry:
        """Grid/block shape of the kernel launch."""

    @abc.abstractmethod
    def counters(self) -> KernelCounters:
        """Analytic activity counters for the full launch."""

    def execute(
        self, src: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Move data: 1-D linearized input -> 1-D linearized output.

        ``src`` must have ``self.volume`` elements; the result is an
        array in the output layout's linearization.  With ``out`` (a
        C-contiguous array of the same size and dtype) the result is
        written in place and returned, skipping the per-call allocation.

        Execution runs through the problem's lowered
        :class:`~repro.kernels.executor.ExecutorProgram` (built once,
        cached process-wide), so warm calls perform no per-call index
        construction.
        """
        from repro.kernels.executor import executor_for

        src = self.check_input(src)
        program = executor_for(self)
        if out is None:
            return program.run(src)
        return program.run(src, out=self.check_output(out, src.dtype))

    def executor(self):
        """The problem's cached lowered executor program."""
        from repro.kernels.executor import executor_for

        return executor_for(self)

    def trace(self, max_blocks: Optional[int] = None) -> Iterator[WarpAccess]:
        """Per-warp access trace (detailed engine input).

        Subclasses that support detailed validation override this;
        the default raises ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a detailed trace"
        )

    def tex_array_bytes(self) -> int:
        """Total bytes of texture-mapped offset arrays (0 if none)."""
        return 0

    def features(self) -> Dict[str, float]:
        """Raw feature values for the performance model (Sec. V)."""
        geom = self.launch_geometry
        return {
            "volume": float(self.volume),
            "num_blocks": float(geom.num_blocks),
            "num_threads": float(geom.total_threads),
        }

    # ------------------------------------------------------------------
    def simulated_time(
        self, cost_model: Optional[CostModel] = None, jitter_key=None
    ) -> float:
        """Simulated execution time of one launch, in seconds.

        Without ``jitter_key`` the time is a pure function of the kernel
        and the cost model's device, so it is computed once per
        (cost-model type, device) and memoized on the kernel.
        """
        cm = cost_model if cost_model is not None else CostModel(self.spec)
        if jitter_key is not None:
            return cm.kernel_time(
                self.counters(), self.launch_geometry, jitter_key
            )
        key = (type(cm), cm.spec)
        memo = self.__dict__.setdefault("_simulated_times", {})
        t = memo.get(key)
        if t is None:
            t = memo[key] = cm.kernel_time(
                self.counters(), self.launch_geometry
            )
        return t

    def check_input(self, src: np.ndarray) -> np.ndarray:
        """Validate and flatten the input array for :meth:`execute`."""
        arr = np.ascontiguousarray(src).reshape(-1)
        if arr.size != self.volume:
            raise SchemaError(
                f"input has {arr.size} elements, layout volume is {self.volume}"
            )
        return arr

    def check_output(self, out: np.ndarray, dtype) -> np.ndarray:
        """Validate and flatten a caller-provided output array.

        The array must be C-contiguous (a reshape of a non-contiguous
        array would silently copy, losing the in-place write), match the
        layout volume, and match the input dtype.
        """
        if not isinstance(out, np.ndarray) or not out.flags["C_CONTIGUOUS"]:
            raise SchemaError("out must be a C-contiguous ndarray")
        if out.size != self.volume:
            raise SchemaError(
                f"out has {out.size} elements, layout volume is {self.volume}"
            )
        if out.dtype != dtype:
            raise SchemaError(
                f"out dtype {out.dtype} does not match input dtype {dtype}"
            )
        return out.reshape(-1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dims={self.layout.dims}, "
            f"perm={self.perm.mapping})"
        )
