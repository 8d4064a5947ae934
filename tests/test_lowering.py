"""The one lowering rule and the background C attach.

:func:`~repro.kernels.executor.compile_executor` sends operands below
1 MiB to the view chain and larger ones to a generated loop nest whose
compiled C object attaches off the calling thread.  Covered here:

- the routing guard: the benchmark's large geometries lower to a nest
  (``od-rotate`` included, which the old profitability gate declined)
  and its small serving keys to the view chain, with bytes checked
  against ``np.transpose`` on every user-facing surface; one-shot
  ``repro.transpose`` calls keep the view chain;
- the background attach under a compiler held back by a gate file:
  the first reuse queues the compile, calls return before it ends,
  stay bit-exact across the swap (also within one split batch job),
  and report ``c`` after it; the row-range tasks of one split batch
  job are one call, so the first job queues nothing;
- a nest with no C object (before the attach, after a demotion, with
  no toolchain) runs the view chain bit-exactly on every surface;
- a failing background compile, and an interpreter that exits while a
  compile is still running (no temp files, no compiler left behind).
"""

import os
import shutil
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.bench.suites import ttc_benchmark_suite
from repro.core.api import axes_to_perm
from repro.kernels import codegen as cg
from repro.kernels import native
from repro.kernels.executor import (
    clear_exec_caches,
    compile_executor,
    exec_cache_stats,
    fused_problem,
    program_for,
)
from repro.runtime import StreamScheduler, TransposeService
from repro.runtime.store import PlanStore
from tests.helpers import lowering_key

#: The benchmark's large operands: name, dtype, NumPy shape, NumPy axes.
LARGE_CASES = (
    ("od-reverse", np.float64, (128, 64, 32, 32), (3, 2, 1, 0)),
    ("oa-partial", np.float64, (64, 32768, 2, 2), (1, 0, 3, 2)),
    ("od-rotate", np.float64, (24, 24, 24, 24, 24), (4, 1, 2, 0, 3)),
    ("fvi-match", np.float32, (256, 32, 32, 32), (0, 3, 2, 1)),
    ("serve-2MiB", np.float64, (64, 64, 64), (2, 1, 0)),
    ("serve-8MiB", np.float64, (32, 32, 32, 32), (1, 0, 3, 2)),
    ("serve-32MiB", np.float64, (128, 64, 32, 16), (3, 2, 1, 0)),
)


def _serve_small_keys(volume=4096):
    """The 57 fig-14 TTC cases scaled to ~4096 elements (32 KiB of
    f64), paper convention: the serving benchmark's small keys."""
    keys = []
    for case in ttc_benchmark_suite():
        rank = len(case.dims)
        extent = max(2, round(volume ** (1.0 / rank)))
        variant = int(case.label.split("v")[1].split(" ")[0])
        keys.append(((extent + variant,) + (extent,) * (rank - 1), case.perm))
    return keys


def _check_surfaces(service, shape, axes, dtype, seed=3):
    """``Transposer``, ``submit`` and ``submit_batch`` all move the
    bytes ``np.transpose`` does."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape).astype(dtype)
    ref = np.ascontiguousarray(np.transpose(a, axes)).reshape(-1)
    dims, perm = shape[::-1], axes_to_perm(axes)
    eb = a.itemsize
    flat = a.reshape(-1)

    out = np.empty_like(flat)
    repro.Transposer(dims, perm, eb)(flat, out=out)
    assert np.array_equal(out, ref)
    del out

    report = service.submit(dims, perm, eb, payload=flat).result()
    assert np.array_equal(report.output, ref)
    report.release()
    rows = 2 if a.nbytes <= 8 << 20 else 1
    problem = lowering_key(dims, perm, eb)
    report = service.scheduler.submit_batch(problem, [flat] * rows).result()
    for row in report.output:
        assert np.array_equal(row, ref)
    report.release()


@pytest.fixture
def service():
    with TransposeService(num_streams=2) as svc:
        yield svc
    clear_exec_caches()


@pytest.mark.parametrize(
    "name,dtype,shape,axes", LARGE_CASES, ids=[c[0] for c in LARGE_CASES]
)
def test_large_operands_lower_to_nest(service, name, dtype, shape, axes):
    eb = np.dtype(dtype).itemsize
    assert compile_executor(shape, axes, eb).kind == "nest"
    _check_surfaces(service, shape, axes, dtype)


def test_serve_small_keys_lower_to_view(service):
    keys = _serve_small_keys()
    assert len(keys) == 57
    for dims, perm in keys:
        shape = tuple(dims)[::-1]
        axes = axes_to_perm(perm)
        assert compile_executor(shape, axes, 8).kind == "view"
        _check_surfaces(service, shape, axes, np.float64)


def test_fused_rank_one_is_a_view():
    """An identity (or fully fusing) problem fuses to rank 1: a plain
    copy, and one program whichever spelling asks for it."""
    clear_exec_caches()
    unfused = ((256, 64, 64), (0, 1, 2), 8)
    assert fused_problem(unfused) == ((1 << 20,), (0,), 8)
    program, _ = program_for(unfused)
    assert program.kind == "view"
    assert program_for(fused_problem(unfused)) == (program, True)
    assert exec_cache_stats()["entries"] == 1
    clear_exec_caches()


def test_one_shot_calls_stay_on_the_view_chain():
    """A one-shot call is usually a never-seen problem, where a nest's
    search and code generation cost more than its blocking saves; so
    ``repro.transpose`` keeps the view chain at any size."""
    clear_exec_caches()
    generated = cg.codegen_stats()["programs_generated"]
    a = np.random.default_rng(4).standard_normal((64, 64, 64))
    first = repro.transpose(a, (2, 1, 0))
    outs = repro.transpose_many([a, a], (2, 1, 0))
    ref = np.transpose(a, (2, 1, 0))
    assert np.array_equal(first, ref)
    assert all(np.array_equal(o, ref) for o in outs)
    assert cg.codegen_stats()["programs_generated"] == generated
    assert exec_cache_stats()["entries"] == 0


# ----------------------------------------------------------------------
# Background attach
# ----------------------------------------------------------------------

#: (dims, perm) of a 2 MiB nest problem, paper convention.
ATTACH_DIMS, ATTACH_PERM = (64, 64, 64), (2, 1, 0)


def _fake_cc(directory, mode):
    """A compiler script: ``--version`` answers at once; a compile
    waits for ``gate`` to appear and then runs the real ``cc`` (mode
    ``"gate"``), sleeps until killed (``"hang"``), or fails
    (``"fail"``).  It records its PID in ``pid`` first."""
    real = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    body = {
        "gate": f'while [ ! -e "{directory}/gate" ]; do sleep 0.01; done\n'
                f'exec "{real}" "$@"\n',
        "hang": "while :; do sleep 1; done\n",
        "fail": "exit 1\n",
    }[mode]
    script = directory / f"cc-{mode}"
    script.write_text(
        "#!/bin/sh\n"
        f'if [ "$1" = "--version" ]; then exec "{real}" --version; fi\n'
        f'echo $$ > "{directory}/pid"\n' + body
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return script


@pytest.fixture
def slow_cc(tmp_path, monkeypatch):
    """Point the toolchain at a gated fake compiler for one test."""
    if native.toolchain() is None:
        pytest.skip("no C toolchain on this host")

    def use(mode):
        monkeypatch.setenv("REPRO_CC", str(_fake_cc(tmp_path, mode)))
        native.reset_toolchain_cache()
        assert native.toolchain() is not None
        return tmp_path

    yield use
    monkeypatch.undo()
    native.reset_toolchain_cache()
    clear_exec_caches()


def _nest(tmp_path):
    store = PlanStore(tmp_path / "plans.json")
    plan = repro.make_plan(ATTACH_DIMS, ATTACH_PERM)
    program = compile_executor(
        plan.layout.as_numpy_shape(), plan.perm.numpy_axes(), 8,
        artifacts=store,
    )
    assert program.kind == "nest"
    rng = np.random.default_rng(8)
    src = rng.standard_normal(plan.layout.volume)
    ref = np.ascontiguousarray(
        np.transpose(src.reshape(program.in_shape), program.axes)
    ).reshape(-1)
    return program, src, ref


def _check_run_and_batch(program, src, ref):
    assert np.array_equal(program.run(src), ref)
    out = np.empty_like(src)
    assert program.run(src, out=out) is out and np.array_equal(out, ref)
    batch = program.run_batch(np.stack([src, src]))
    assert np.array_equal(batch[0], ref) and np.array_equal(batch[1], ref)


def _check_view_chain(program, src, ref):
    """Every surface of a nest with no C object attached — ``run``,
    ``run(out=)``, ``run_batch`` and each ``batch_tasks`` range run
    alone — matches ``np.transpose`` and reports the NumPy backend."""
    assert program._kit is None and program.backend == "numpy"
    _check_run_and_batch(program, src, ref)
    srcs = np.stack([src * (i + 1) for i in range(3)])
    refs = np.stack([ref * (i + 1) for i in range(3)])
    outs = np.empty_like(srcs)
    assert np.array_equal(program.run_batch(srcs, out=outs), refs)
    tasks = program.batch_tasks(srcs, outs, 3)
    assert len(tasks) == 3
    for i, task in enumerate(tasks):
        outs.fill(0)
        task()
        assert np.array_equal(outs[i], refs[i])
        assert not outs[np.arange(3) != i].any()
    assert program._kit is None and program.backend == "numpy"


def test_nest_without_toolchain_runs_the_view_chain(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CC", "/bin/false")
    native.reset_toolchain_cache()
    try:
        program, src, ref = _nest(tmp_path)
        assert program.wait_native(timeout=10) is False
        _check_view_chain(program, src, ref)
    finally:
        monkeypatch.undo()
        native.reset_toolchain_cache()
        clear_exec_caches()


def test_nest_before_the_attach_runs_the_view_chain(slow_cc):
    ctl = slow_cc("gate")
    program, src, ref = _nest(ctl)
    _check_view_chain(program, src, ref)  # queues the compile at the gate
    assert program._start_compile is None
    (ctl / "gate").touch()
    assert program.wait_native(timeout=120)
    _check_run_and_batch(program, src, ref)


def test_demoted_nest_runs_the_view_chain(tmp_path):
    program, src, ref = _nest(tmp_path)
    attached = program.wait_native(timeout=120)
    assert attached == cg.native_enabled()
    failures = cg.codegen_stats()["native_call_failures"]
    program._native_failed()
    assert cg.codegen_stats()["native_call_failures"] == failures + 1
    _check_view_chain(program, src, ref)
    clear_exec_caches()


def test_calls_return_before_the_compile_and_switch_to_c(slow_cc):
    ctl = slow_cc("gate")
    program, src, ref = _nest(ctl)
    # The second call queues the compile, which is held at the gate:
    # every surface runs the view chain meanwhile.
    assert program.backend == "numpy"
    _check_run_and_batch(program, src, ref)
    assert program._start_compile is None  # queued by the first reuse
    srcs = np.stack([src] * 4)
    out = np.empty_like(srcs)
    tasks = program.batch_tasks(srcs, out, 4)
    assert len(tasks) == 4
    for task in tasks[:2]:
        task()
    assert program.backend == "numpy"

    (ctl / "gate").touch()
    assert program.wait_native(timeout=120)
    assert program.descriptor["backend"] == "c"
    # One job, some tasks in NumPy and the rest in C.
    for task in tasks[2:]:
        task()
    for row in out:
        assert np.array_equal(row, ref)
    _check_run_and_batch(program, src, ref)
    assert program.descriptor["backend"] == "c"


def test_one_split_batch_job_is_one_call(slow_cc, tmp_path):
    """The row-range tasks of one split batch job do not count as
    reuse: the first job queues no compile, the second does."""
    ctl = slow_cc("gate")
    clear_exec_caches()
    dims, perm = ATTACH_DIMS, ATTACH_PERM
    a = np.random.default_rng(2).standard_normal(dims[::-1])
    payloads = [a.reshape(-1)] * 4
    ref = np.ascontiguousarray(np.transpose(a, (2, 1, 0))).reshape(-1)
    problem = lowering_key(dims, perm)
    store = PlanStore(tmp_path / "served.json")
    with StreamScheduler(num_streams=4, store=store) as sched:
        report = sched.submit_batch(problem, payloads).result()
        assert report.parts == 4
        assert all(np.array_equal(row, ref) for row in report.output)
        program, hit = program_for(problem, artifacts=store)
        assert hit and program.kind == "nest"
        assert program._start_compile is not None  # not queued
        report = sched.submit_batch(problem, payloads).result()
        assert all(np.array_equal(row, ref) for row in report.output)
        assert program._start_compile is None  # the reuse queued it
        (ctl / "gate").touch()
        assert program.wait_native(timeout=120)


def test_failing_background_compile_keeps_python(slow_cc):
    ctl = slow_cc("fail")
    before = cg.codegen_stats()["native_compile_failures"]
    program, src, ref = _nest(ctl)
    assert not program.wait_native(timeout=120)
    assert program.descriptor["backend"] == "numpy"
    assert cg.codegen_stats()["native_compile_failures"] == before + 1
    _check_run_and_batch(program, src, ref)
    srcs = np.stack([src] * 3)
    out = np.empty_like(srcs)
    for task in program.batch_tasks(srcs, out, 3):
        task()
    for row in out:
        assert np.array_equal(row, ref)


def test_existing_object_attaches_synchronously(slow_cc):
    ctl = slow_cc("gate")
    (ctl / "gate").touch()
    program, src, ref = _nest(ctl)
    assert program.wait_native(timeout=120)
    clear_exec_caches()
    again, _, _ = _nest(ctl)  # same store, same native_dir
    assert again is not program
    assert again.descriptor["backend"] == "c"  # before any wait
    _check_run_and_batch(again, src, ref)


def _live_in_group(pgid):
    """PIDs of non-zombie processes in process group ``pgid``."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_exit_stops_compile_and_removes_object_dir(tmp_path):
    """An interpreter that exits mid-compile leaves no temp files and
    no compiler process behind."""
    if native.toolchain() is None:
        pytest.skip("no C toolchain on this host")
    ctl = tmp_path / "ctl"
    ctl.mkdir()
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    script = textwrap.dedent(
        f"""
        import os, time
        import numpy as np
        import repro
        call = repro.Transposer(({", ".join(map(str, ATTACH_DIMS))}),
                                {ATTACH_PERM}, 8)
        a = np.zeros(call.plan.layout.volume)
        call(a)
        call(a)  # the first reuse queues the compile
        deadline = time.monotonic() + 60
        while not os.path.exists({str(ctl / "pid")!r}):
            assert time.monotonic() < deadline, "compiler never started"
            time.sleep(0.01)
        """
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env.pop("REPRO_NATIVE_CACHE_DIR", None)
    env.pop("CC", None)
    env.update(
        TMPDIR=str(tmpdir),
        REPRO_CC=str(_fake_cc(ctl, "hang")),
        PYTHONPATH=os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        ),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmpdir) == []
    pid = int((ctl / "pid").read_text())
    assert _live_in_group(pid) == []


def test_native_pending_until_the_attach_settles(slow_cc):
    ctl = slow_cc("gate")
    program, src, ref = _nest(ctl)
    assert program._start_compile is not None  # deferred to the first reuse
    _check_run_and_batch(program, src, ref)  # queues it at the gate
    assert not program.wait_native(timeout=0.05)
    assert program.backend == "numpy"
    (ctl / "gate").touch()
    assert program.wait_native(timeout=120)
    assert program.backend == "c"


def test_failed_compile_settles_native_pending(slow_cc):
    program, _, _ = _nest(slow_cc("fail"))
    assert not program.wait_native(timeout=120)
    assert program._native_settled.is_set()
    assert program.backend == "numpy"
