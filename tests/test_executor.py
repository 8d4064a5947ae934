"""Compiled-executor layer: parity grid, cache behavior, split calls.

Every program kind (view chain, generated nest) must be bit-identical
to :func:`repro.kernels.common.reference_transpose` (``np.transpose``)
across all four schemas, partial-tile geometries, both dtypes, cold
and warm calls, and the ``out=`` in-place form.  The OA/OD kernels of
the same grid check the paper's offset-array addressing (Alg. 4)
against that reference through ``execute_per_call``.
"""

import numpy as np
import pytest

from repro.core.layout import TensorLayout
from repro.core.lru import BoundedLRU
from repro.core.permutation import Permutation
from repro.errors import SchemaError
from repro.kernels.common import reference_transpose
from repro.kernels.executor import (
    ViewProgram,
    clear_exec_caches,
    exec_cache_stats,
    executor_for,
    problem_of,
    program_for,
)
from repro.kernels.fvi_match_large import FviMatchLargeKernel
from repro.kernels.fvi_match_small import FviMatchSmallKernel
from repro.kernels.naive import NaiveKernel
from repro.kernels.orthogonal_arbitrary import OrthogonalArbitraryKernel
from repro.kernels.orthogonal_distinct import OrthogonalDistinctKernel


def _od_partial():
    # 20 % 7 and 18 % 5 both nonzero: partial variants on each side.
    return OrthogonalDistinctKernel(
        TensorLayout((20, 6, 18)),
        Permutation((2, 1, 0)),
        in_prefix=0,
        blockA=7,
        out_prefix=0,
        blockB=5,
    )


def _od_exact():
    return OrthogonalDistinctKernel(
        TensorLayout((16, 6, 18)),
        Permutation((2, 1, 0)),
        in_prefix=0,
        blockA=8,
        out_prefix=0,
        blockB=6,
    )


def _oa_partial():
    # 5 % 3 and 5 % 2 nonzero through the blocked dims.
    return OrthogonalArbitraryKernel(
        TensorLayout((6, 5, 7, 4)),
        Permutation((2, 0, 3, 1)),
        in_prefix=1,
        blockA=3,
        out_prefix=1,
        blockB=2,
    )


def _oa_exact():
    return OrthogonalArbitraryKernel(
        TensorLayout((6, 5, 8, 4)),
        Permutation((2, 0, 3, 1)),
        in_prefix=1,
        blockA=5,
        out_prefix=1,
        blockB=2,
    )


def _fvi_small():
    return FviMatchSmallKernel(TensorLayout((8, 6, 5, 7)), Permutation((0, 3, 2, 1)), 4)


def _fvi_large():
    return FviMatchLargeKernel(TensorLayout((64, 4, 5, 3)), Permutation((0, 3, 2, 1)))


def _naive():
    return NaiveKernel(TensorLayout((5, 4, 3)), Permutation((1, 2, 0)))


KERNEL_FACTORIES = {
    "od-partial": _od_partial,
    "od-exact": _od_exact,
    "oa-partial": _oa_partial,
    "oa-exact": _oa_exact,
    "fvi-small": _fvi_small,
    "fvi-large": _fvi_large,
    "naive": _naive,
}


@pytest.fixture(autouse=True)
def _fresh_exec_cache():
    clear_exec_caches()
    yield
    clear_exec_caches()


# ----------------------------------------------------------------------
# Parity grid
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_execute_parity_cold_warm_out(name, dtype, rng):
    k = KERNEL_FACTORIES[name]()
    src = rng.standard_normal(k.volume).astype(dtype)
    ref = reference_transpose(src, k.layout, k.perm)

    cold = k.execute(src)  # compiles
    warm = k.execute(src)  # cached program
    out = np.empty(k.volume, dtype=dtype)
    res = k.execute(src, out=out)

    np.testing.assert_array_equal(cold, ref)
    np.testing.assert_array_equal(warm, ref)
    np.testing.assert_array_equal(out, ref)
    assert res.base is out or res is out


@pytest.mark.parametrize("name", ["od-partial", "od-exact", "oa-partial", "oa-exact"])
def test_per_call_path_matches_reference(name, rng):
    """The OA/OD kernels move the bytes through their own offset arrays
    (Alg. 4): the one check of that addressing, over the parity grid's
    OA/OD kernels and both dtypes."""
    k = KERNEL_FACTORIES[name]()
    for dtype in (np.float32, np.float64):
        src = rng.standard_normal(k.volume).astype(dtype)
        ref = reference_transpose(src, k.layout, k.perm)
        np.testing.assert_array_equal(k.execute_per_call(src), ref)


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_program_kind_selection(name):
    """Below 1 MiB every kernel, partial tiles or not, lowers to the
    view chain: the slice choice does not change the bytes."""
    k = KERNEL_FACTORIES[name]()
    program = executor_for(k)
    assert isinstance(program, ViewProgram)
    assert program.kind == "view"


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
@pytest.mark.parametrize("parts", [1, 3, 7])
def test_partitioned_execution_covers_output(name, parts, rng):
    """A nest's C call split into ``parts`` ranges of its outermost loop
    covers every output element once, for each row of a batch of a
    nest over each kernel's problem (the only kind that splits; the
    lowered view program never does), and ``run_batch`` moves every
    row."""
    from repro.kernels.codegen import NestProgram, search_nest

    k = KERNEL_FACTORIES[name]()
    srcs = rng.standard_normal((5, k.volume))
    refs = np.stack([reference_transpose(s, k.layout, k.perm) for s in srcs])
    assert executor_for(k).parts() == 1
    shape, axes, eb = problem_of(k)
    nest = NestProgram(search_nest(shape, axes, eb))
    attached = nest.wait_native()
    out = np.full_like(srcs, np.nan)
    if not attached:  # no toolchain: the split declines, the chain runs
        assert not nest._run_native(srcs[0], out[0], parts=parts)
        np.testing.assert_array_equal(nest.run_batch(srcs, out=out), refs)
        return
    for src, dst in zip(srcs, out):
        assert nest._run_native(src, dst, parts=min(parts, nest._trips))
    np.testing.assert_array_equal(out, refs)
    out[...] = np.nan
    np.testing.assert_array_equal(nest.run_batch(srcs, out=out), refs)
    assert nest.backend == "c"


def test_plan_and_transposer_out_threading(rng):
    import repro

    plan = repro.make_plan((20, 6, 18), (2, 1, 0))
    src = rng.standard_normal(plan.layout.volume)
    ref = reference_transpose(src, plan.layout, plan.perm)
    out = np.empty_like(src)
    plan.execute(src, out=out)
    np.testing.assert_array_equal(out, ref)
    assert plan.executor() is plan.executor()  # cached

    tr = repro.Transposer((20, 6, 18), (2, 1, 0))
    out2 = np.empty_like(src)
    tr(src, out=out2)
    np.testing.assert_array_equal(out2, ref)


def test_transpose_api_out(rng):
    import repro

    a = rng.standard_normal((5, 6, 7))
    expected = np.ascontiguousarray(np.transpose(a, (2, 0, 1)))
    out = np.empty_like(expected)
    got = repro.transpose(a, (2, 0, 1), out=out)
    assert got is out
    np.testing.assert_array_equal(out, expected)


def test_check_output_rejects_bad_out(rng):
    k = _od_partial()
    src = rng.standard_normal(k.volume)
    with pytest.raises(SchemaError):
        k.execute(src, out=np.empty(k.volume - 1))
    with pytest.raises(SchemaError):
        k.execute(src, out=np.empty(k.volume, dtype=np.float32))
    noncontig = np.empty((k.volume, 2))[:, 0]
    with pytest.raises(SchemaError):
        k.execute(src, out=noncontig)


# ----------------------------------------------------------------------
# Program cache
# ----------------------------------------------------------------------


def test_program_cache_shared_across_instances():
    k1, k2 = _od_partial(), _od_partial()
    p1, hit1 = program_for(problem_of(k1))
    p2, hit2 = program_for(problem_of(k2))
    assert not hit1 and hit2
    assert p1 is p2  # content key, not object identity
    stats = exec_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1
    assert stats["bytes"] == p1.nbytes


def test_one_program_per_problem_across_routes(rng):
    """A ``Transposer`` call and the plan kernel's ``execute`` on one
    problem share one program: :func:`program_for` keys the fused
    problem, whichever spelling it is handed."""
    import repro
    from repro.kernels.codegen import codegen_stats

    # (16, 16) and (32, 32) fuse: a 2 MiB (256, 1024) swap.
    dims, perm = (16, 16, 32, 32), (2, 3, 0, 1)
    generated = codegen_stats()["programs_generated"]
    src = rng.standard_normal(int(np.prod(dims)))
    tr = repro.Transposer(dims, perm)
    first = tr(src)
    plan = repro.make_plan(dims, perm)
    second = plan.kernel.execute(src)
    ref = reference_transpose(src, plan.layout, plan.perm)
    np.testing.assert_array_equal(first, ref)
    np.testing.assert_array_equal(second, ref)
    assert exec_cache_stats()["entries"] == 1
    assert codegen_stats()["programs_generated"] == generated + 1
    assert plan.executor().kind == "nest"


def test_concurrent_first_calls_build_one_program(monkeypatch, tmp_path):
    """Four threads missing on one nest problem at once: one search,
    one program, one cache miss, and every caller gets that program."""
    import threading
    import time

    import repro.kernels.codegen as cg

    real_search = cg.search_nest

    def slow_search(*args, **kwargs):
        time.sleep(0.05)  # hold the build open while the others arrive
        return real_search(*args, **kwargs)

    monkeypatch.setattr(cg, "search_nest", slow_search)
    # (16, 16) and (32, 32) fuse: a 2 MiB (256, 1024) swap, a nest.
    problem = ((32, 32, 16, 16), (2, 3, 0, 1), 8)
    before = cg.codegen_stats()
    barrier = threading.Barrier(4)
    programs = []

    def call():
        barrier.wait()
        programs.append(program_for(problem, native_dir=tmp_path)[0])

    threads = [threading.Thread(target=call) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    after = cg.codegen_stats()
    assert len(programs) == 4 and programs[0].kind == "nest"
    assert all(p is programs[0] for p in programs)
    assert after["searches"] == before["searches"] + 1
    assert after["programs_generated"] == before["programs_generated"] + 1
    stats = exec_cache_stats()
    assert (stats["misses"], stats["hits"], stats["coalesced"]) == (1, 3, 3)


def test_clear_exec_caches_resets():
    executor_for(_od_partial())
    assert exec_cache_stats()["entries"] == 1
    clear_exec_caches()
    stats = exec_cache_stats()
    assert stats["entries"] == 0 and stats["misses"] == 0


# ----------------------------------------------------------------------
# BoundedLRU
# ----------------------------------------------------------------------


def test_bounded_lru_evicts_lru_not_everything():
    lru = BoundedLRU(maxsize=3)
    for i in range(3):
        lru.put(i, i * 10)
    assert lru.get(0) == 0  # 0 now most-recent
    lru.put(3, 30)  # evicts 1 (LRU), NOT the whole cache
    assert 1 not in lru
    assert lru.get(0) == 0 and lru.get(2) == 20 and lru.get(3) == 30
    assert lru.evictions == 1


def test_bounded_lru_byte_budget():
    lru = BoundedLRU(maxsize=100, max_bytes=100, sizeof=len)
    lru.put("a", b"x" * 60)
    lru.put("b", b"y" * 60)  # over budget: evicts "a"
    assert "a" not in lru and "b" in lru
    assert lru.nbytes == 60
    # A single oversized entry stays resident (never evict to empty).
    lru.put("huge", b"z" * 500)
    assert "huge" in lru


def test_bounded_lru_stats_and_validation():
    lru = BoundedLRU(maxsize=2)
    lru.put("k", 1)
    lru.get("k")
    lru.get("absent")
    s = lru.stats()
    assert s["hits"] == 1 and s["misses"] == 1 and s["hit_rate"] == 0.5
    lru.reset_stats()
    assert lru.stats()["hits"] == 0
    with pytest.raises(ValueError):
        BoundedLRU(maxsize=0)
    with pytest.raises(ValueError):
        BoundedLRU(maxsize=1, max_bytes=0)

# ----------------------------------------------------------------------
# Runtime integration: metrics
# ----------------------------------------------------------------------


def test_scheduler_records_executor_metrics(rng):
    from repro.runtime import TransposeService

    dims, perm = (20, 6, 18), (2, 1, 0)
    src = rng.standard_normal(int(np.prod(dims)))
    with TransposeService(num_streams=2) as service:
        r1 = service.execute(dims, perm, payload=src)
        r2 = service.execute(dims, perm, payload=src)
        layout, p = TensorLayout(dims), Permutation(perm)
        ref = reference_transpose(src, layout, p)
        np.testing.assert_array_equal(r1.output, ref)
        np.testing.assert_array_equal(r2.output, ref)
        stats = service.stats()
    counters = stats["metrics"]["counters"]
    assert counters["exec_cache_misses"] == 1
    assert counters["exec_cache_hits"] == 1
    hists = stats["metrics"]["histograms"]
    assert hists["exec_cold_s"]["count"] == 1
    assert hists["exec_warm_s"]["count"] == 1
    assert stats["executor"]["entries"] >= 1
