"""Property-based bit-exactness for every executor program kind.

For random (dims, perm, dtype) problems — bounded volume, derandomized
so CI is reproducible — every way the repository can execute a
transposition must agree bit-for-bit with the plain ``np.transpose``
reference: the lowered route and a directly generated
:class:`~repro.kernels.codegen.NestProgram` (built from the search
descriptor, so the generated nest is exercised on arbitrary small
geometries, not just the operands of 1 MiB and more it is lowered
for).  Each program is checked on
``run``, ``run(out=)``, ``run_batch``, and the ``batch_tasks`` split
the scheduler uses.

The public one-shot API (``repro.transpose`` with and without ``out=``,
``repro.transpose_many``) is held to the same oracle on both of its
routes: the execute-first direct route and planning through an
installed default service.
"""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.permutation import Permutation
from repro.core.plan import make_plan
from repro.kernels import native
from repro.kernels.codegen import (
    STAGE_MAX_RUN_BYTES,
    NestProgram,
    codegen_stats,
    direct_input_run,
    search_nest,
)
from repro.model.pretrained import oracle_predictor
from tests.helpers import compile_for

DTYPES = (np.float64, np.float32, np.int64, np.int32, np.complex128)

#: Keep every drawn problem comfortably small: the point is coverage of
#: geometry/kind combinations, not throughput.
MAX_VOLUME = 4096


@st.composite
def problems(draw):
    rank = draw(st.integers(1, 5))
    dims = []
    volume = 1
    for _ in range(rank):
        extent = draw(st.integers(1, max(1, MAX_VOLUME // volume)))
        dims.append(extent)
        volume *= extent
    perm = tuple(draw(st.permutations(range(rank))))
    dtype = draw(st.sampled_from(DTYPES))
    return tuple(dims), perm, dtype


def _source(volume, dtype, seed=11):
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.complexfloating):
        return (
            rng.standard_normal(volume) + 1j * rng.standard_normal(volume)
        ).astype(dtype)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-(1 << 30), 1 << 30, volume).astype(dtype)
    return rng.standard_normal(volume).astype(dtype)


def _np_reference(src, dims, perm):
    """The independent oracle: reshape, np.transpose, ravel."""
    axes = Permutation(perm).numpy_axes()
    return np.ascontiguousarray(
        np.transpose(src.reshape(dims[::-1]), axes)
    ).ravel()


def _check_all_surfaces(program, src, ref, dims, perm):
    assert np.array_equal(program.run(src), ref)
    out = np.empty_like(src)
    assert program.run(src, out=out) is out
    assert np.array_equal(out, ref)

    srcs = np.stack([src, np.roll(src, 1), src[::-1].copy()])
    refs = np.stack([_np_reference(s, dims, perm) for s in srcs])
    assert np.array_equal(program.run_batch(srcs), refs)

    outs = np.full_like(srcs, 0)
    tasks = program.batch_tasks(srcs, outs, 2)
    assert tasks, "batch_tasks returned no tasks"
    for task in tasks:
        task()
    assert np.array_equal(outs, refs)


@given(problems())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compiled_programs_match_numpy(problem):
    """The lowered program agrees with np.transpose on every surface."""
    dims, perm, dtype = problem
    # Kernels model elem_bytes as 4 or 8; wider dtypes (complex128)
    # still execute correctly — the cost model just prices f64 lines.
    eb = 4 if np.dtype(dtype).itemsize == 4 else 8
    plan = make_plan(dims, perm, elem_bytes=eb)
    src = _source(plan.layout.volume, dtype)
    ref = _np_reference(src, dims, perm)

    program = compile_for(plan.kernel)  # the view chain below 1 MiB
    assert program.kind == "view"
    _check_all_surfaces(program, src, ref, dims, perm)


@given(problems())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_nest_matches_numpy(problem):
    """The generated loop nest is bit-exact on arbitrary geometry, not
    just where the lowering deploys it: build the program straight from
    the search descriptor."""
    dims, perm, dtype = problem
    in_shape = dims[::-1]
    axes = Permutation(perm).numpy_axes()
    desc = search_nest(in_shape, axes, np.dtype(dtype).itemsize)
    program = NestProgram(desc)
    src = _source(program.volume, dtype, seed=13)
    ref = _np_reference(src, dims, perm)
    _check_all_surfaces(program, src, ref, dims, perm)


@given(problems())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_search_is_deterministic(problem):
    dims, perm, dtype = problem
    in_shape = dims[::-1]
    axes = Permutation(perm).numpy_axes()
    eb = np.dtype(dtype).itemsize
    a, b = search_nest(in_shape, axes, eb), search_nest(in_shape, axes, eb)
    a.pop("search_ms"), b.pop("search_ms")
    assert a == b


# ----------------------------------------------------------------------
# Public one-shot API: direct (execute-first) and service routes
# ----------------------------------------------------------------------

API_DTYPES = (np.float32, np.float64, np.complex64)


@pytest.fixture(scope="module", params=["direct", "service"])
def api_route(request):
    """No default service (the direct route), or one installed for the
    whole module so repeated keys hit its plan cache."""
    if request.param == "direct":
        yield request.param
        return
    from repro.runtime import TransposeService

    service = TransposeService(predictor=oracle_predictor(), num_streams=1)
    previous = repro.set_default_service(service)
    try:
        yield request.param
    finally:
        repro.set_default_service(previous)
        service.close()


@st.composite
def api_problems(draw):
    rank = draw(st.integers(1, 6))
    shape = []
    volume = 1
    for _ in range(rank):
        extent = draw(st.integers(1, max(1, min(8, MAX_VOLUME // volume))))
        shape.append(extent)
        volume *= extent
    axes = tuple(draw(st.permutations(range(rank))))
    dtype = draw(st.sampled_from(API_DTYPES))
    return tuple(shape), axes, dtype


def _check_one_shot_api(shape, axes, dtype, seed=17):
    a = _source(int(np.prod(shape)), dtype, seed=seed).reshape(shape)
    b = _source(a.size, dtype, seed=seed + 1).reshape(shape)
    ref = np.transpose(a, axes)
    result = repro.transpose(a, axes)
    assert np.array_equal(result, ref)
    assert not np.shares_memory(result, a)
    out = np.empty(ref.shape, dtype)
    assert repro.transpose(a, axes, out=out) is out
    assert np.array_equal(out, ref)
    many = repro.transpose_many([a, b], axes)
    assert np.array_equal(many[0], ref)
    assert np.array_equal(many[1], np.transpose(b, axes))
    assert not np.shares_memory(many[0], a)


@given(api_problems())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_one_shot_api_matches_numpy(api_route, problem):
    _check_one_shot_api(*problem)


@pytest.mark.parametrize("rank", range(1, 7))
def test_one_shot_api_every_permutation(api_route, rank):
    """Every permutation of every rank, every API dtype.  The service
    route plans each key once (about 15 ms), so above rank 4 it checks
    every 11th permutation and leaves the rest to the draws above."""
    perms = list(itertools.permutations(range(rank)))
    if api_route == "service" and rank > 4:
        perms = perms[::11]
    shape = (3, 2, 4, 1, 2, 3)[:rank]
    for axes in perms:
        for dtype in API_DTYPES:
            _check_one_shot_api(shape, axes, dtype)


# ----------------------------------------------------------------------
# Native (C) backend: parity sweep + forced-failure fallback chains
# ----------------------------------------------------------------------

_FALLBACK_DIMS, _FALLBACK_PERM = (4, 3, 8), (2, 1, 0)


def _nest_desc(dims, perm, dtype=np.float64):
    in_shape = dims[::-1]
    axes = Permutation(perm).numpy_axes()
    return search_nest(in_shape, axes, np.dtype(dtype).itemsize)


def _check_fallback_program(program, dtype=np.float64, seed=19):
    """The fallback chain must stay bit-exact on every surface."""
    src = _source(program.volume, dtype, seed=seed)
    ref = _np_reference(src, _FALLBACK_DIMS, _FALLBACK_PERM)
    _check_all_surfaces(program, src, ref, _FALLBACK_DIMS, _FALLBACK_PERM)


@given(problems())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_native_backend_matches_numpy(problem):
    """Random geometry through the C backend: every surface bit-exact.

    With a toolchain present the attach is asserted, so the sweep
    really exercises the emitted C (memcpy path, blocked micro-kernel,
    16-byte struct elements) and not a silent view-chain fallback; without
    one (the CI ``CC=/bin/false`` leg) the same sweep covers the
    fallback chain.
    """
    dims, perm, dtype = problem
    desc = _nest_desc(dims, perm, dtype)
    program = NestProgram(desc)
    if (
        native.toolchain() is not None
        and np.dtype(dtype).itemsize in native.SUPPORTED_ELEM_BYTES
    ):
        assert program.descriptor["backend"] == "c"
    src = _source(program.volume, dtype, seed=17)
    ref = _np_reference(src, dims, perm)
    _check_all_surfaces(program, src, ref, dims, perm)


@st.composite
def moved_problems(draw):
    """Problems whose fastest axis moves: rank 2-5, extents 2-24 (no
    extent-1 axes, which make the direct nest's runs long), volume
    bounded like :func:`problems`."""
    rank = draw(st.integers(2, 5))
    dims = []
    volume = 1
    for _ in range(rank):
        extent = draw(st.integers(2, max(2, min(24, MAX_VOLUME // volume))))
        dims.append(extent)
        volume *= extent
    perm = tuple(draw(st.permutations(range(rank)).filter(lambda p: p[0] != 0)))
    dtype = draw(st.sampled_from(DTYPES))
    return tuple(dims), perm, dtype


@given(moved_problems(), st.sampled_from((3, 20, 200)))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_staged_nest_matches_numpy(problem, cuts):
    """Staging forced through the search's ``cache_budget=``.

    A budget of ``1/cuts`` of the operand puts it past the size gate
    and caps the staged tile at a third of that, so random small
    geometry runs the staged C kernel over many partial tiles and
    partial 8x8 blocks, on every surface.
    """
    dims, perm, dtype = problem
    in_shape = dims[::-1]
    axes = Permutation(perm).numpy_axes()
    eb = np.dtype(dtype).itemsize
    budget = math.prod(in_shape) * eb // cuts
    desc = search_nest(in_shape, axes, eb, cache_budget=budget)
    if direct_input_run(desc) < STAGE_MAX_RUN_BYTES:
        assert desc["micro"] == "staged"
    program = NestProgram(desc)
    if native.toolchain() is not None:
        assert program.descriptor["backend"] == "c"
    src = _source(program.volume, dtype, seed=23)
    ref = _np_reference(src, dims, perm)
    _check_all_surfaces(program, src, ref, dims, perm)


def test_missing_toolchain_falls_back(monkeypatch):
    """``CC=/bin/false`` disables the tier: counted, chain bit-exact."""
    monkeypatch.setenv("REPRO_CC", "/bin/false")
    native.reset_toolchain_cache()
    try:
        assert native.toolchain() is None
        before = codegen_stats()["native_toolchain_missing"]
        program = NestProgram(_nest_desc(_FALLBACK_DIMS, _FALLBACK_PERM))
        assert program.descriptor["backend"] != "c"
        after = codegen_stats()["native_toolchain_missing"]
        assert after == before + 1
        _check_fallback_program(program)
    finally:
        monkeypatch.undo()
        native.reset_toolchain_cache()


def test_compile_error_falls_back(monkeypatch):
    """A source the toolchain rejects: counted, chain bit-exact."""
    if native.toolchain() is None:
        pytest.skip("no C toolchain on this host")
    monkeypatch.setattr(
        native, "native_source", lambda *a, **k: "this is not C\n"
    )
    before = codegen_stats()["native_compile_failures"]
    program = NestProgram(_nest_desc(_FALLBACK_DIMS, _FALLBACK_PERM))
    assert program.descriptor["backend"] != "c"
    assert codegen_stats()["native_compile_failures"] == before + 1
    _check_fallback_program(program)


def test_load_error_falls_back(monkeypatch, tmp_path):
    """An object dlopen rejects: counted, chain bit-exact."""
    if native.toolchain() is None:
        pytest.skip("no C toolchain on this host")
    bogus = tmp_path / "bogus.so"
    bogus.write_bytes(b"this is not a shared object")
    monkeypatch.setattr(native, "ensure_compiled", lambda *a, **k: bogus)
    before = codegen_stats()["native_load_failures"]
    program = NestProgram(_nest_desc(_FALLBACK_DIMS, _FALLBACK_PERM))
    assert program.descriptor["backend"] != "c"
    assert codegen_stats()["native_load_failures"] == before + 1
    _check_fallback_program(program)


def test_concurrent_compiles_converge(tmp_path):
    """Threads racing to compile one source produce exactly one object
    and zero failures (the serve workload builds the same program from
    several client threads at once)."""
    if native.toolchain() is None:
        pytest.skip("no C toolchain on this host")
    desc = _nest_desc(_FALLBACK_DIMS, _FALLBACK_PERM)
    src = native.native_source(
        desc["in_shape"],
        desc["axes"],
        desc["tiles"],
        desc["order"],
        desc["elem_bytes"],
    )
    tc = native.toolchain()
    before = codegen_stats()
    results, errors = [], []

    def build():
        try:
            results.append(native.ensure_compiled(src, tmp_path, tc))
        except Exception as exc:  # the assertion target: no error escapes
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(set(results)) == 1 and results[0].is_file()
    after = codegen_stats()
    assert after["native_compiled"] == before["native_compiled"] + 1
    assert after["native_compile_failures"] == before["native_compile_failures"]


def test_call_failure_drops_to_python_permanently():
    """A faulting foreign call demotes the program, bit-exactly."""
    if native.toolchain() is None:
        pytest.skip("no C toolchain on this host")
    program = NestProgram(_nest_desc(_FALLBACK_DIMS, _FALLBACK_PERM))
    assert program.descriptor["backend"] == "c"

    def boom(*args):
        raise OSError("injected native fault")

    before = codegen_stats()["native_call_failures"]
    program._kit = (boom, boom)
    _check_fallback_program(program)
    assert program.descriptor["backend"] != "c"
    assert program._kit is None
    assert codegen_stats()["native_call_failures"] == before + 1
