"""The staged C micro-kernel and the rule that picks it.

The rule (``codegen.micro_kernel``) stages an operand past
``STAGE_MIN_BUDGETS`` cache budgets when the staged nest prices below
the direct one, each side priced from ``results/kernel_bounds.json``;
it is checked against the sides and choices measured for the
benchmark's cases.  The staged kernel (``native.native_source`` with
``stage``) must then be bit-exact against ``np.transpose`` on every
execution surface: extents that divide neither the tile nor the 8x8
gather block, every element width the native tier emits, ``run``,
``run(out=)``, ``run_batch`` and the C call split into ranges, whose
concurrent ranges each need their own scratch buffer.  A guard-page
sweep, in a subprocess, places the scratch tile and the operands
against ``PROT_NONE`` pages, so a kernel that writes past its padded
tile, or a range past its trips, faults instead of passing parity by
luck.
"""

import ctypes
import json
import math
import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import codegen as cg
from repro.kernels import native
from repro.kernels.codegen import NestProgram
from tests.helpers import check_splits, run_pairs

REPO = Path(__file__).resolve().parent.parent

#: The 1.5 MiB cache budget a 2 MiB private L2 probes to.
BUDGET = 1536 * 1024

#: NumPy shape, axes, element width, the direct nest's read and write
#: sides ((run bytes, rows in flight) each), and the choice: the twin
#: that ran faster on the 2-vCPU reference host.
RULE_CASES = {
    "fvi-match": (
        (256, 32, 32, 32), (0, 3, 2, 1), 4, (4, 32), (128, 32), "staged",
    ),
    "od-reverse": (
        (128, 64, 32, 32), (3, 2, 1, 0), 8, (8, 32), (256, 65536), "staged",
    ),
    "oa-partial": (
        (64, 32768, 2, 2), (1, 0, 3, 2), 8, (32, 64), (64 << 20, 1), "staged",
    ),
    "od-rotate": (
        (24, 576, 24, 24), (3, 1, 0, 2), 8, (4608, 24), (192, 24), "direct",
    ),
    "od-reverse-64MiB": (
        (32, 32, 64, 128), (3, 2, 1, 0), 8, (8, 32), (256, 128), "staged",
    ),
    "oa-partial-64MiB": (
        (2, 2, 32768, 64), (1, 0, 3, 2), 8, (256, 32768), (256, 32), "staged",
    ),
    "serve-large-32MiB": (
        (128, 64, 32, 16), (3, 2, 1, 0), 8, (8, 32), (256, 32768), "staged",
    ),
    "serve-large-8MiB": (
        (32, 32, 32, 32), (1, 0, 3, 2), 8, (8192, 32), (8 << 20, 1), "direct",
    ),
    # Below the size gate, whatever the prices say.
    "serve-large-2MiB": (
        (64, 64, 64), (2, 1, 0), 8, (8, 32), (256, 32), "direct",
    ),
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


def _staged_desc(in_shape, axes, eb, budget):
    """The staged twin of the searched descriptor, its tile capped at a
    third of ``budget`` as the rule caps it."""
    desc = cg.search_nest(in_shape, axes, eb, cache_budget=budget)
    desc.update(
        micro="staged",
        stage=native.stage_tiles(
            in_shape, axes, eb, min(native.STAGE_TILE_BYTES, budget // 3)
        ),
    )
    return desc


def _staged_program(in_shape, axes, dtype, budget=BUDGET):
    program = NestProgram(
        _staged_desc(in_shape, axes, np.dtype(dtype).itemsize, budget)
    )
    program.wait_native()
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
    check_splits(program, src, ref, srcs, refs)


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_rule_on_benchmark_cases(name):
    in_shape, axes, eb, read, write, micro = RULE_CASES[name]
    desc = cg.search_nest(in_shape, axes, eb, cache_budget=BUDGET)
    assert cg.direct_sides(desc) == (read, write)
    assert desc["micro"] == micro
    assert (desc["stage"] is not None) == (micro == "staged")


def test_bound_prices_are_the_committed_measurements():
    """The rule's constants are ``results/kernel_bounds.json``'s."""
    bounds = json.loads((REPO / "results" / "kernel_bounds.json").read_text())
    sweeps = bounds["sweeps"]
    for key, table in (("read_ms", cg.READ_MS), ("write_ms", cg.WRITE_MS)):
        assert table == tuple(
            tuple(sweeps[f"{rows}x{run}"][key] for run in cg.BOUND_RUNS)
            for rows in cg.BOUND_ROWS
        )
    assert cg.TILE_PASS_MS == bounds["tile_pass_ms"]


def test_side_prices_interpolate_the_sweeps():
    """Measured points price as measured; between and past them the
    price is interpolated in the logarithms and clamped."""
    assert cg._bound_ms(cg.READ_MS, 256, 128) == pytest.approx(cg.READ_MS[1][1])
    assert cg._bound_ms(cg.WRITE_MS, 8, 1) == pytest.approx(cg.WRITE_MS[0][0])
    assert cg._bound_ms(cg.WRITE_MS, 1 << 30, 1 << 20) == pytest.approx(
        cg.WRITE_MS[2][3]
    )
    mid = cg._bound_ms(cg.READ_MS, 128, 64)
    assert mid == pytest.approx(sum(
        cg.READ_MS[i][j] for i in (0, 1) for j in (0, 1)
    ) / 4)


def test_aliasing_rows_do_not_merge_their_visits():
    """Partial-line visits of rows 4 KiB apart cannot stay in one L1
    set past its ways; the same rows 192 B apart spread over the sets
    and merge into runs."""
    loops = [(32, 1024), (32, 1)]  # 32 rows, one element per visit
    assert cg._side(loops, 4) == (4, 32)
    assert cg._side([(24, 24), (24, 1)], 8) == (24 * 24 * 8, 1)
    assert cg._resident(cg.L1_WAYS, 4096)
    assert not cg._resident(cg.L1_WAYS + 1, 4096)
    assert cg._resident(64, 192)


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


def test_stage_layout_pads_aliasing_rows():
    """A gather block's rows 4 KiB apart (fvi-match) or 16 KiB apart
    (od-reverse) get one cache line of padding; oa-partial's 2 KiB
    rows do not alias and stay dense."""
    cases = {
        # in_shape, axes, eb: stage, strides, runs (bytes)
        "fvi-match": (
            ((256, 32, 32, 32), (0, 3, 2, 1), 4),
            [4, 32, 32, 32], [33280, 1040, 32, 1], (512 << 10, 4096),
        ),
        "od-reverse": (
            ((128, 64, 32, 32), (3, 2, 1, 0), 8),
            [32, 8, 2, 128], [2056, 256, 128, 1], (2048, 2048),
        ),
        "oa-partial": (
            ((64, 32768, 2, 2), (1, 0, 3, 2), 8),
            [256, 64, 2, 2], [256, 4, 2, 1], (8192, 512 << 10),
        ),
    }
    for name, ((in_shape, axes, eb), stage, strides, runs) in cases.items():
        assert native.stage_tiles(in_shape, axes, eb) == stage, name
        layout = native.stage_layout(stage, axes, eb)
        extent = sum((t - 1) * st for t, st in zip(stage, strides)) + 1
        assert layout == (strides, extent), name
        assert native.stage_runs(in_shape, axes, stage, eb) == runs, name
        assert native.stage_scratch_bytes(stage, axes, eb) == extent * eb
    # One line of padding: past prod(stage) for the aliasing tiles only.
    assert native.stage_scratch_bytes([4, 32, 32, 32], (0, 3, 2, 1), 4) > (
        4 * 32 * 32 * 32 * 4
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
    """The descriptor carries the choice, and a warm restart searches
    again, stages again and compiles nothing: the same descriptor emits
    the same C source, whose object is already on disk."""
    from repro.kernels.executor import clear_exec_caches, compile_executor

    in_shape, axes = (64, 32, 32, 32), (3, 2, 1, 0)  # 8 MiB of f64
    native_dir = tmp_path / "plans_native"
    program = compile_executor(in_shape, axes, 8, native_dir=native_dir)
    assert program.kind == "nest"
    expected = cg.micro_kernel(program.descriptor)["micro"]
    assert program.micro == expected
    assert cg.codegen_stats()[f"micro_{expected}"] == 1
    program.wait_native(timeout=120)

    clear_exec_caches()
    cg.reset_codegen_stats()
    warm = compile_executor(in_shape, axes, 8, native_dir=native_dir)
    stats = cg.codegen_stats()
    assert warm.descriptor["micro"] == expected
    assert warm.descriptor["stage"] == program.descriptor["stage"]
    assert stats["searches"] == 1 and stats["native_compiled"] == 0
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
    desc = cg.search_nest(in_shape, axes, 8, cache_budget=BUDGET)
    assert desc["micro"] == "staged"
    program = _staged_program(in_shape, axes, np.float64)
    assert program.descriptor["stage"] == desc["stage"]
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
    """Each range in flight takes its own buffer (at most one per
    usable CPU); later ranges reuse them."""
    in_shape, axes = (13, 66, 30, 34), (3, 2, 1, 0)
    program = _staged_program(in_shape, axes, np.float64, budget=40000)
    src = _source(program.volume, np.float64)
    program.run(src)
    if not HAVE_CC:
        assert program._spare == []
        return
    spare = list(program._spare)
    assert 1 <= len(spare) <= native.CPUS
    assert len({id(b) for b in spare}) == len(spare)
    assert all(
        b.nbytes == native.stage_scratch_bytes(
            program.descriptor["stage"], axes, 8
        )
        for b in spare
    )
    program._spare = spare[:1]
    for _ in range(2):  # one range at a time: one buffer, reused
        assert program._run_native(src, np.empty_like(src), parts=1)
        assert len(program._spare) == 1 and program._spare[0] is spare[0]


# ----------------------------------------------------------------------
# Guard pages
# ----------------------------------------------------------------------

#: Geometries the guard-page sweep runs, staged and on the direct twin:
#: NumPy shape, axes, dtype and tile cap (bytes).  fvi-match and
#: od-reverse shapes whose gather rows alias, so their tiles are padded,
#: and a padded one whose extents divide neither its tile nor the 8x8
#: block.
GUARD_CASES = (
    ((8, 32, 32, 32), (0, 3, 2, 1), np.float32, 128 << 10),
    ((32, 16, 16, 32), (3, 2, 1, 0), np.float64, 128 << 10),
    ((130, 5, 30, 13), (3, 2, 1, 0), np.float64, 128 << 10),
)

#: Batch rows, each in its own guarded buffer.
GUARD_BATCH = 3

#: ``mprotect``'s no-access protection (``mmap`` exports only the others).
PROT_NONE = 0


def _guarded(nbytes, keep, at_end=True):
    """``nbytes`` of fresh memory between two ``PROT_NONE`` pages, its
    last byte (``at_end``) or its first right next to one."""
    page = mmap.PAGESIZE
    pages = -(-nbytes // page)
    region = mmap.mmap(-1, (pages + 2) * page)
    base = ctypes.addressof(ctypes.c_char.from_buffer(region))
    mprotect = ctypes.CDLL(None, use_errno=True).mprotect
    mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    for addr in (base, base + (pages + 1) * page):
        if mprotect(addr, page, PROT_NONE) != 0:
            raise OSError(ctypes.get_errno(), "mprotect failed")
    keep.append(region)
    offset = (pages + 1) * page - nbytes if at_end else page
    return np.frombuffer(region, np.uint8, nbytes, offset)


def guard_page_sweep():
    """Every :data:`GUARD_CASES` geometry, staged and direct, on
    ``run(out=)``, ``run_batch``, the range entry in every count of
    ranges up to its split loop's trips (the last range uneven where
    the count does not divide them) and ``run_batch`` with each row
    split in every such count, two split calls at once.  The operands,
    the outputs and each scratch tile lie against a guard page at
    either end; an access out of bounds kills the process with
    ``SIGSEGV``."""
    keep = []

    def same(a, b):
        return np.array_equal(a.view(np.uint8), b.view(np.uint8))

    for in_shape, axes, dtype, tile_bytes in GUARD_CASES:
        eb = np.dtype(dtype).itemsize
        staged = _staged_desc(in_shape, axes, eb, 3 * tile_bytes)
        stage = staged["stage"]
        assert native.stage_layout(stage, axes, eb)[1] > math.prod(stage)
        for desc in (staged, dict(staged, micro="direct", stage=None)):
            program = NestProgram(desc)
            assert program.wait_native(), "no C object attached"
            assert program._trips > 1, (in_shape, desc["micro"])
            volume = program.volume
            for at_end in (True, False):
                def buf(n):
                    return _guarded(n * eb, keep, at_end).view(dtype)

                # One tile per range in flight: two calling threads and
                # every helper.
                program._spare = [
                    _guarded(program._scratch_bytes, keep, at_end)
                    for _ in range(2 * native.CPUS)
                ] if program._scratch_bytes else []
                # Each row in its own guarded buffer: the rows of a batch
                # are not adjacent, so a row's call that strays past its
                # own operand meets a guard page.
                srcs = [buf(volume) for _ in range(GUARD_BATCH)]
                for i, row in enumerate(srcs):
                    row[...] = _source(volume, dtype, seed=i)
                refs = np.stack([_reference(s, in_shape, axes) for s in srcs])
                # One output of each kind per concurrent call.
                singles = [buf(volume) for _ in range(2)]
                batches = [
                    buf(GUARD_BATCH * volume).reshape(GUARD_BATCH, volume)
                    for _ in range(2)
                ]
                assert same(program.run(srcs[0], out=singles[0]), refs[0]), (
                    in_shape, desc["micro"], "run",
                )
                program.run_batch(srcs, out=batches[0])
                assert same(batches[0], refs), (
                    in_shape, desc["micro"], "run_batch",
                )
                failed = []

                def call(slot, row, parts):
                    def job():
                        try:
                            if row is None:
                                dst = batches[slot]
                                dst[...] = 0
                                program.run_batch(srcs, out=dst)
                                ok = same(dst, refs)
                            else:
                                dst = singles[slot]
                                dst[...] = 0
                                ok = program._run_native(
                                    srcs[row], dst, parts=parts
                                ) and same(dst, refs[row])
                        except Exception as exc:
                            ok = exc
                        if ok is not True:
                            failed.append((row, parts, ok))
                    return job

                # A batch splits each row at the program's count: pin it
                # at every count a row's split loop allows, one operand
                # and one batch at once.
                for n in range(1, program._trips + 1):
                    program.parts = lambda n=n: n
                    run_pairs([call(0, n % GUARD_BATCH, n), call(1, None, n)])
                del program.parts
                assert program._kit is not None, (in_shape, desc["micro"])
                assert not failed, (in_shape, desc["micro"], failed)
    print("guard pages ok")


@pytest.mark.skipif(not HAVE_CC, reason="needs a C toolchain")
def test_guard_pages_around_the_staged_tile():
    """The sweep runs in its own process, so a fault fails this test
    instead of the whole test run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tests.test_staged_kernel import guard_page_sweep;"
         " guard_page_sweep()"],
        cwd=REPO, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0 and b"guard pages ok" in proc.stdout, (
        f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}"
    )
