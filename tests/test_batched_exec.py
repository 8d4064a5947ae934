"""Batched execution: run_batch parity and the scheduler's batch jobs.

Every program kind's :meth:`run_batch` over B stacked operands must be
bit-identical to B independent :meth:`run` calls — across schemas,
dtypes, forced program kinds (indexed gather/scatter, chunked), the
``out=`` in-place form, and both input shapes (a sequence of flat
operands and a pre-stacked ``(B, volume)`` block).  The scheduler's
batch jobs are covered too: every program kind but the nest runs its
batch as one task, whatever the pool size.
"""

import numpy as np
import pytest

from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.errors import SchemaError
from repro.kernels.common import reference_transpose
from repro.kernels.executor import (
    ChunkedProgram,
    IndexedProgram,
    clear_exec_caches,
    executor_for,
    index_map_program,
)
from tests.helpers import lowering_key
from tests.test_executor import KERNEL_FACTORIES


@pytest.fixture(autouse=True)
def _fresh_exec_cache():
    clear_exec_caches()
    yield
    clear_exec_caches()


def _batch(k, rng, b=4, dtype=np.float64):
    return [rng.standard_normal(k.volume).astype(dtype) for _ in range(b)]


def _refs(k, srcs):
    return [reference_transpose(s, k.layout, k.perm) for s in srcs]


# ----------------------------------------------------------------------
# Parity grid: run_batch == B independent runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_run_batch_matches_independent_runs(name, dtype, rng):
    k = KERNEL_FACTORIES[name]()
    program = executor_for(k)
    srcs = _batch(k, rng, dtype=dtype)
    moved = program.run_batch(srcs)
    assert moved.shape == (len(srcs), k.volume)
    for row, src in zip(moved, srcs):
        np.testing.assert_array_equal(row, program.run(src))


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_run_batch_out_in_place(name, rng):
    k = KERNEL_FACTORIES[name]()
    program = executor_for(k)
    srcs = _batch(k, rng, b=3)
    out = np.empty((3, k.volume), dtype=np.float64)
    res = program.run_batch(srcs, out=out)
    assert res is out
    for row, ref in zip(out, _refs(k, srcs)):
        np.testing.assert_array_equal(row, ref)


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_run_batch_accepts_prestacked_block(name, rng):
    k = KERNEL_FACTORIES[name]()
    program = executor_for(k)
    srcs = _batch(k, rng, b=3)
    stacked = np.stack(srcs)
    moved = program.run_batch(stacked)
    for row, ref in zip(moved, _refs(k, srcs)):
        np.testing.assert_array_equal(row, ref)


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_run_batch_single_and_empty(name, rng):
    k = KERNEL_FACTORIES[name]()
    program = executor_for(k)
    src = rng.standard_normal(k.volume)
    np.testing.assert_array_equal(
        program.run_batch([src])[0], program.run(src)
    )
    empty = program.run_batch([])
    assert empty.shape == (0, k.volume)


@pytest.mark.parametrize("name", ["od-partial", "oa-partial", "od-exact"])
def test_forced_indexed_and_chunked_batch_parity(name, rng):
    k = KERNEL_FACTORIES[name]()
    srcs = _batch(k, rng)
    refs = _refs(k, srcs)
    indexed = index_map_program(k)
    assert isinstance(indexed, IndexedProgram)
    for row, ref in zip(indexed.run_batch(srcs), refs):
        np.testing.assert_array_equal(row, ref)
    chunked = index_map_program(k, 1024)
    assert isinstance(chunked, ChunkedProgram)
    for row, ref in zip(chunked.run_batch(srcs), refs):
        np.testing.assert_array_equal(row, ref)
    out = np.empty((len(srcs), k.volume))
    chunked.run_batch(srcs, out=out)
    for row, ref in zip(out, refs):
        np.testing.assert_array_equal(row, ref)


@pytest.mark.parametrize("orientation", ["gather", "scatter"])
def test_indexed_orientations_batch_parity(orientation, rng):
    k = KERNEL_FACTORIES["od-partial"]()
    base = index_map_program(k)
    fwd = np.array(base.index_map)
    prog = IndexedProgram(fwd, orientation=orientation)
    srcs = _batch(k, rng)
    refs = _refs(k, srcs)
    for row, ref in zip(prog.run_batch(srcs), refs):
        np.testing.assert_array_equal(row, ref)
    out = np.empty((len(srcs), k.volume))
    prog.run_batch(srcs, out=out)
    for row, ref in zip(out, refs):
        np.testing.assert_array_equal(row, ref)


# ----------------------------------------------------------------------
# batch_view validation
# ----------------------------------------------------------------------


def test_batch_view_rejects_heterogeneous_operands(rng):
    k = KERNEL_FACTORIES["naive"]()
    program = executor_for(k)
    good = rng.standard_normal(k.volume)
    with pytest.raises(SchemaError):
        program.batch_view([good, rng.standard_normal(k.volume - 1)])
    with pytest.raises(SchemaError):
        program.batch_view([good, good.astype(np.float32)])
    with pytest.raises(SchemaError):
        program.batch_view(np.zeros((2, k.volume - 1)))


# ----------------------------------------------------------------------
# Scheduler submit_batch + service-level batched execution
# ----------------------------------------------------------------------


def test_scheduler_submit_batch_stack_parity(rng):
    from repro.runtime import TransposeService

    dims, perm = (20, 6, 18), (2, 1, 0)
    srcs = [rng.standard_normal(int(np.prod(dims))) for _ in range(5)]
    refs = [
        reference_transpose(s, TensorLayout(dims), Permutation(perm))
        for s in srcs
    ]
    with TransposeService(num_streams=3) as service:
        problem = lowering_key(dims, perm)
        report = service.scheduler.submit_batch(problem, srcs).result(timeout=30)
        assert report.batch == 5
        assert report.output.shape == (5, int(np.prod(dims)))
        for row, ref in zip(report.output, refs):
            np.testing.assert_array_equal(row, ref)


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
@pytest.mark.parametrize("parts", [2, 5])
def test_partition_parity_all_kinds(name, parts, rng):
    """A pool of ``parts`` streams runs a small (view) batch as one task,
    bit-exact for every kernel's problem."""
    from repro.runtime.scheduler import StreamScheduler

    k = KERNEL_FACTORIES[name]()
    srcs = _batch(k, rng, b=6)
    refs = [reference_transpose(s, k.layout, k.perm) for s in srcs]
    problem = lowering_key(k.layout.dims, k.perm.mapping)
    with StreamScheduler(num_streams=parts) as sched:
        report = sched.submit_batch(problem, srcs).result(timeout=30)
        assert (report.parts, report.batch) == (1, 6)
        for row, ref in zip(report.output, refs):
            np.testing.assert_array_equal(row, ref)
        report.release()


def test_scheduler_submit_batch_rejects_empty():
    from repro.runtime import TransposeService

    with TransposeService(num_streams=1) as service:
        with pytest.raises(ValueError):
            service.scheduler.submit_batch(lowering_key((4, 4), (1, 0)), [])


def test_service_submit_batched_coalesces_and_resolves(rng):
    from repro.runtime import TransposeService

    dims, perm = (6, 5, 7), (2, 0, 1)
    srcs = [rng.standard_normal(int(np.prod(dims))) for _ in range(4)]
    refs = [
        reference_transpose(s, TensorLayout(dims), Permutation(perm))
        for s in srcs
    ]
    # batch_max == B and a wide window: the 4th submission flushes the
    # bucket deterministically, no timing dependence.
    with TransposeService(
        num_streams=2, batch_window_s=30.0, batch_max=4
    ) as service:
        futs = [
            service.submit_batched(dims, perm, payload=s) for s in srcs
        ]
        reports = [f.result(timeout=30) for f in futs]
        for report, ref in zip(reports, refs):
            assert report.batch == 4
            np.testing.assert_array_equal(report.output, ref)
        stats = service.stats()
    counters = stats["metrics"]["counters"]
    assert counters["batch_requests"] == 4
    assert counters["batch_flushes"] == 1
    assert counters["batch_coalesced"] == 3
    key = "batch_coalesced.6x5x7|2,0,1"
    assert counters[key] == 3
    assert stats["batching"]["flushes"] == 1
