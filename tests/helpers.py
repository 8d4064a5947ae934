"""Shared helpers for kernel tests (importable, unlike conftest)."""

from __future__ import annotations

import numpy as np

from repro.core.permutation import Permutation
from repro.kernels.common import reference_transpose
from repro.kernels.executor import compile_executor, problem_of


def assert_kernel_correct(kernel, rng, dtype=np.float64):
    """Execute a kernel and compare element-exactly with the reference."""
    layout, perm = kernel.layout, kernel.perm
    src = rng.integers(0, 1 << 20, layout.volume).astype(dtype)
    ref = reference_transpose(src, layout, perm)
    out = kernel.execute(src)
    np.testing.assert_array_equal(out, ref)
    return out


def random_perm(rng, rank):
    p = np.arange(rank)
    rng.shuffle(p)
    return Permutation(tuple(int(x) for x in p))


def compile_for(kernel, **opts):
    """:func:`compile_executor` on a kernel's own problem."""
    return compile_executor(*problem_of(kernel), **opts)
