"""TTLG reproduction: a tensor transposition library for (simulated) GPUs.

Reimplements *TTLG - An Efficient Tensor Transposition Library for GPUs*
(Vedurada et al., IPDPS 2018) in Python, with a deterministic GPU
memory-system simulator standing in for the Tesla K40c testbed.

Quickstart::

    import numpy as np
    import repro

    a = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    b = repro.transpose(a, (2, 0, 1))          # like np.transpose
    est = repro.predict_time((32, 16, 8), (2, 1, 0))
    print(est.schema, est.kernel_time, est.bandwidth_gbps)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro.core.cache import cached_plan
from repro.core.api import (
    Transposer,
    TransposeEstimate,
    axes_to_perm,
    get_default_service,
    install_default_service,
    perm_to_axes,
    plan_transpose,
    predict_time,
    set_default_service,
    transpose,
    transpose_many,
)
from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.core.plan import TransposePlan, make_plan
from repro.core.taxonomy import Schema
from repro.gpusim.spec import KEPLER_K40C, PASCAL_P100, DeviceSpec
from repro.kernels.executor import clear_exec_caches, exec_cache_stats

__version__ = "1.0.0"

#: Names resolved lazily from :mod:`repro.runtime` so importing the
#: package stays light for callers who never start the serving layer.
_RUNTIME_EXPORTS = (
    "runtime",
    "TransposeService",
    "PlanStore",
    "StreamScheduler",
    "MetricsRegistry",
)


def __getattr__(name):
    if name in _RUNTIME_EXPORTS:
        import repro.runtime as _runtime

        return _runtime if name == "runtime" else getattr(_runtime, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_RUNTIME_EXPORTS,
    "get_default_service",
    "set_default_service",
    "install_default_service",
    "transpose",
    "transpose_many",
    "Transposer",
    "cached_plan",
    "TransposeEstimate",
    "plan_transpose",
    "predict_time",
    "make_plan",
    "TransposePlan",
    "TensorLayout",
    "Permutation",
    "Schema",
    "DeviceSpec",
    "KEPLER_K40C",
    "PASCAL_P100",
    "axes_to_perm",
    "perm_to_axes",
    "clear_exec_caches",
    "exec_cache_stats",
    "__version__",
]
