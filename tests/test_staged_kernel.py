"""The staged C micro-kernel and the rule that picks it.

The rule (``codegen.micro_kernel``) stages an operand past
``STAGE_MIN_BUDGETS`` cache budgets whose direct nest reads input runs
under ``STAGE_MAX_RUN_BYTES``; it is checked against the run lengths
and choices measured for the benchmark's cases.  The staged kernel
(``native.native_source`` with ``stage``) must then be bit-exact
against ``np.transpose`` on every execution surface: extents that
divide neither the tile nor the 8x8 gather block, every element width
the native tier emits, ``run``, ``run(out=)``, ``run_batch`` and the
``batch_tasks`` split, whose concurrent tasks each need their own
scratch buffer.
"""

import math
import threading

import numpy as np
import pytest

from repro.kernels import codegen as cg
from repro.kernels import native
from repro.kernels.codegen import NestProgram

#: The 1.5 MiB cache budget a 2 MiB private L2 probes to.
BUDGET = 1536 * 1024

#: NumPy shape, axes, element width, direct input run (bytes), choice.
RULE_CASES = {
    "od-reverse": ((128, 64, 32, 32), (3, 2, 1, 0), 8, 256, "staged"),
    "oa-partial": ((64, 32768, 2, 2), (1, 0, 3, 2), 8, 32, "staged"),
    "serve-large-32MiB": ((128, 64, 32, 16), (3, 2, 1, 0), 8, 128, "staged"),
    "od-rotate": ((24, 576, 24, 24), (3, 1, 0, 2), 8, 4608, "direct"),
    "fvi-match": ((256, 32, 32, 32), (0, 3, 2, 1), 4, 4096, "direct"),
    "serve-large-8MiB": ((32, 32, 32, 32), (1, 0, 3, 2), 8, 8192, "direct"),
    "serve-large-2MiB": ((64, 64, 64), (2, 1, 0), 8, 32768, "direct"),
}

WIDTHS = {1: np.uint8, 2: np.uint16, 4: np.float32, 8: np.float64,
          16: np.complex128}

HAVE_CC = cg.native_enabled()


@pytest.fixture(autouse=True)
def _fresh_counters():
    cg.reset_codegen_stats()
    yield
    cg.reset_codegen_stats()


def _source(volume, dtype, seed=5):
    raw = np.random.default_rng(seed).integers(
        0, 256, volume * np.dtype(dtype).itemsize, dtype=np.uint8
    )
    return raw.view(dtype)


def _reference(src, in_shape, axes):
    return np.ascontiguousarray(
        np.transpose(src.reshape(in_shape), axes)
    ).reshape(-1)


def _staged_program(in_shape, axes, dtype, budget=BUDGET):
    desc = cg.search_nest(
        in_shape, axes, np.dtype(dtype).itemsize, cache_budget=budget
    )
    assert desc["micro"] == "staged", desc
    program = NestProgram(desc)
    if HAVE_CC:
        assert program.backend == "c"
    return program


def _check_surfaces(program, src, ref, in_shape, axes):
    # Equality on raw bytes: NaN payloads in random float bits compare
    # unequal to themselves.
    def same(a, b):
        return np.array_equal(a.view(np.uint8), b.view(np.uint8))

    assert same(program.run(src), ref)
    out = np.zeros_like(src)
    assert program.run(src, out=out) is out
    assert same(out, ref)
    srcs = np.stack([src, np.roll(src, 3), src[::-1].copy()])
    refs = np.stack([_reference(s, in_shape, axes) for s in srcs])
    assert same(program.run_batch(srcs), refs)
    outs = np.zeros_like(srcs)
    assert program.run_batch(srcs, out=outs) is outs
    assert same(outs, refs)
    outs = np.zeros_like(srcs)
    tasks = program.batch_tasks(srcs, outs, 3)
    assert len(tasks) == 3
    threads = [threading.Thread(target=task) for task in tasks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert same(outs, refs)


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_rule_on_benchmark_cases(name):
    in_shape, axes, eb, run, micro = RULE_CASES[name]
    desc = cg.search_nest(in_shape, axes, eb, cache_budget=BUDGET)
    assert cg.direct_input_run(desc) == run
    assert desc["micro"] == micro
    assert (desc["stage"] is not None) == (micro == "staged")


def test_preserved_fastest_axis_is_never_staged():
    """The memcpy path: both sides contiguous, whatever the size."""
    desc = cg.search_nest((4096, 64, 64), (1, 0, 2), 8, cache_budget=1)
    assert desc["micro"] == "memcpy"
    assert desc["stage"] is None


def test_size_gate_is_in_cache_budgets():
    """The same geometry stages only past STAGE_MIN_BUDGETS budgets."""
    in_shape, axes = (32, 32, 32, 16), (3, 2, 1, 0)  # 4 MiB of f64
    nbytes = math.prod(in_shape) * 8
    over = nbytes // cg.STAGE_MIN_BUDGETS - 1
    under = nbytes // cg.STAGE_MIN_BUDGETS
    assert cg.search_nest(in_shape, axes, 8, cache_budget=over)["micro"] == (
        "staged"
    )
    assert cg.search_nest(in_shape, axes, 8, cache_budget=under)["micro"] == (
        "direct"
    )


def test_stage_tile_doubles_the_shorter_run():
    """od-reverse: both runs reach 2 KiB and the tile is 512 KiB."""
    tile = native.stage_tiles((128, 64, 32, 32), (3, 2, 1, 0), 8)
    assert tile == [32, 8, 2, 128]
    assert math.prod(tile) * 8 == native.STAGE_TILE_BYTES
    # oa-partial: the whole output run of one tile is contiguous.
    assert native.stage_tiles((64, 32768, 2, 2), (1, 0, 3, 2), 8) == [
        256, 64, 2, 2,
    ]
    # A cap below one element leaves one-element tiles.
    assert native.stage_tiles((5, 7), (1, 0), 8, tile_bytes=4) == [1, 1]
    # A cap past the operand covers it whole.
    assert native.stage_tiles((5, 7), (1, 0), 8, tile_bytes=1 << 20) == [7, 5]


def test_staged_source_needs_a_moved_fastest_axis():
    with pytest.raises(ValueError):
        native.native_source((4, 8), (0, 1), (4, 8), (0,), 8, stage=[4, 8])


def test_choice_is_recorded_and_counted(tmp_path):
    """The descriptor carries the choice into the artifact store, and a
    warm restart stages again with no search and no compile."""
    from repro.kernels.executor import clear_exec_caches, compile_executor
    from repro.runtime.store import PlanStore

    in_shape, axes = (64, 32, 32, 32), (3, 2, 1, 0)  # 8 MiB of f64
    store = PlanStore(tmp_path / "plans.json")
    program = compile_executor(in_shape, axes, 8, artifacts=store)
    assert program.kind == "nest"
    expected = cg.micro_kernel(program.descriptor)["micro"]
    assert program.micro == expected
    assert cg.codegen_stats()[f"micro_{expected}"] == 1
    program.wait_native(timeout=120)
    store.close()

    clear_exec_caches()
    cg.reset_codegen_stats()
    warm = compile_executor(
        in_shape, axes, 8, artifacts=PlanStore(tmp_path / "plans.json")
    )
    stats = cg.codegen_stats()
    assert warm.descriptor["micro"] == expected
    assert warm.descriptor["stage"] == program.descriptor["stage"]
    assert stats["searches"] == 0 and stats["native_compiled"] == 0
    assert stats[f"micro_{expected}"] == 1
    if HAVE_CC:
        assert warm.backend == "c"


# ----------------------------------------------------------------------
# Parity of the staged kernel
# ----------------------------------------------------------------------


def test_non_dividing_extents_full_size():
    """(130, 66, 30, 34) / (3, 2, 1, 0): no extent divides 8 or the
    tile, at the size the lowering stages it."""
    in_shape, axes = (130, 66, 30, 34), (3, 2, 1, 0)
    program = _staged_program(in_shape, axes, np.float64)
    assert all(e % 8 for e in in_shape)  # partial 8x8 blocks
    assert any(  # and partial tiles
        e % t for e, t in zip(program.out_shape, program.descriptor["stage"])
    )
    src = _source(program.volume, np.float64)
    ref = _reference(src, in_shape, axes)
    assert np.array_equal(program.run(src).view(np.uint8), ref.view(np.uint8))
    out = np.zeros_like(src)
    program.run(src, out=out)
    assert np.array_equal(out.view(np.uint8), ref.view(np.uint8))


@pytest.mark.parametrize("eb", sorted(WIDTHS))
@pytest.mark.parametrize(
    "in_shape,axes",
    [
        ((13, 66, 30, 34), (3, 2, 1, 0)),
        ((10, 258, 3, 2), (1, 0, 3, 2)),
        ((9, 11, 7, 5, 3), (4, 1, 2, 0, 3)),
    ],
)
def test_every_width_every_surface(in_shape, axes, eb):
    """Small cache budgets give many partial tiles and partial blocks."""
    dtype = WIDTHS[eb]
    nbytes = math.prod(in_shape) * eb
    program = _staged_program(in_shape, axes, dtype, budget=nbytes // 40)
    src = _source(program.volume, dtype)
    _check_surfaces(program, src, _reference(src, in_shape, axes), in_shape, axes)


def test_unaligned_output_takes_the_plain_copy():
    """A destination off 4-byte alignment still gets every byte."""
    in_shape, axes = (13, 66, 30, 34), (3, 2, 1, 0)
    program = _staged_program(in_shape, axes, np.uint8, budget=20000)
    src = _source(program.volume, np.uint8)
    backing = np.zeros(program.volume + 3, dtype=np.uint8)
    out = backing[3:]
    program.run(src, out=out)
    assert np.array_equal(out, _reference(src, in_shape, axes))


def test_scratch_buffers_are_reused_not_shared():
    """Concurrent C calls each take a buffer; later calls reuse them."""
    in_shape, axes = (13, 66, 30, 34), (3, 2, 1, 0)
    program = _staged_program(in_shape, axes, np.float64, budget=40000)
    src = _source(program.volume, np.float64)
    program.run(src)
    if not HAVE_CC:
        assert program._spare == []
        return
    assert len(program._spare) == 1
    first = program._spare[0]
    program.run(src)
    assert program._spare == [first]
    assert first.nbytes == math.prod(program.descriptor["stage"]) * 8
