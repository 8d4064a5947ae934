"""Codegen tier: search, generated programs, cached objects, and scheduling.

The contract under test (``docs/codegen.md``): the HPTT-style search
is deterministic and scored purely by the analytic DRAM model; the
generated :class:`~repro.kernels.codegen.NestProgram` is bit-exact
against the reference on every execution surface; operands below
1 MiB keep the view chain; a warm restart searches again, emits the
same C source and loads its cached object instead of compiling; and
the scheduler runs nests like any other program.
"""

import json

import numpy as np
import pytest

from repro.core.plan import make_plan
from repro.kernels import codegen as cg
from repro.kernels import native
from repro.kernels.common import reference_transpose
from repro.kernels.executor import (
    NEST_MIN_BYTES,
    clear_exec_caches,
    problem_of,
    program_for,
)
from repro.runtime.scheduler import StreamScheduler
from repro.runtime.service import TransposeService
from repro.runtime.store import PlanStore
from tests.helpers import compile_for, lowering_key

#: The gated memory-bound geometries, scaled to ~4 MiB for test speed
#: (still above NEST_MIN_BYTES, so they lower to a nest).
OD_DIMS, OD_PERM = (64, 32, 16, 16), (3, 2, 1, 0)
OA_DIMS, OA_PERM = (16, 32, 32, 32), (1, 0, 3, 2)


def _nest_program(dims=OD_DIMS, perm=OD_PERM, native_dir=None):
    plan = make_plan(dims, perm)
    program = compile_for(plan.kernel, native_dir=native_dir)
    return plan, program


def _lowering(program):
    """A program's descriptor without its timing and attach state."""
    desc = dict(program.descriptor)
    desc.pop("search_ms"), desc.pop("backend")
    return desc


@pytest.fixture(autouse=True)
def _fresh_counters():
    cg.reset_codegen_stats()
    yield
    cg.reset_codegen_stats()


@pytest.fixture(autouse=True)
def _pinned_cache_budget(monkeypatch):
    """Pin the search's cache budget to the historical 768 KiB.

    The budget now probes the host's sysfs cache hierarchy, so the
    ranking assertions below would flip between machines
    (a big-L2 host makes the unblocked nests in these geometries fit).
    The probe itself is covered by :class:`TestCacheProbe` with
    synthetic sysfs trees.
    """
    monkeypatch.setattr(cg, "CACHE_BUDGET_BYTES", 768 * 1024)


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------


class TestSearch:
    def test_deterministic(self):
        a = cg.search_nest((32, 32, 64, 128), (3, 2, 1, 0), 8)
        b = cg.search_nest((32, 32, 64, 128), (3, 2, 1, 0), 8)
        a.pop("search_ms"), b.pop("search_ms")
        assert a == b

    def test_descriptor_shape(self):
        desc = cg.search_nest((32, 32, 64, 128), (3, 2, 1, 0), 8)
        assert len(desc["tiles"]) == 4
        assert desc["order"][0] == 0  # every searched loop order starts with output axis 0
        json.dumps(desc)  # descriptors must be JSON-clean

    def test_blocks_critical_axes_only(self):
        """Only where the source's fastest axis lands and the output's
        own fastest axis are ever blocked below their extent."""
        in_shape, axes = (32, 32, 64, 128), (3, 2, 1, 0)
        desc = cg.search_nest(in_shape, axes, 8)
        out_shape = [in_shape[a] for a in axes]
        crit = set(cg.critical_axes(axes))
        for k, (tile, extent) in enumerate(zip(desc["tiles"], out_shape)):
            if tile < extent:
                assert k in crit

    def test_cost_model_prefers_measured_best(self):
        """The validated ranking on the od-reverse gate case: blocking
        the critical pair beats the unblocked nest."""
        in_shape, axes = (32, 32, 64, 128), (3, 2, 1, 0)
        out_shape = [in_shape[a] for a in axes]
        best = cg.search_nest(in_shape, axes, 8)
        full = cg.nest_cost(in_shape, axes, out_shape, 8)
        assert best["cost"] < full

# ----------------------------------------------------------------------
# Generated programs
# ----------------------------------------------------------------------


class TestNestProgram:
    @pytest.mark.parametrize(
        "dims,perm", [(OD_DIMS, OD_PERM), (OA_DIMS, OA_PERM)]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_run_parity(self, dims, perm, dtype):
        plan = make_plan(dims, perm, elem_bytes=np.dtype(dtype).itemsize)
        program = compile_for(plan.kernel)
        assert program.kind == "nest"
        src = (
            np.random.default_rng(0)
            .standard_normal(plan.layout.volume)
            .astype(dtype)
        )
        ref = reference_transpose(src, plan.layout, plan.perm)
        assert np.array_equal(program.run(src), ref)
        out = np.empty_like(src)
        assert program.run(src, out=out) is out
        assert np.array_equal(out, ref)

    def test_run_batch_parity(self):
        plan, program = _nest_program()
        srcs = np.random.default_rng(1).standard_normal(
            (3, plan.layout.volume)
        )
        refs = np.stack(
            [reference_transpose(s, plan.layout, plan.perm) for s in srcs]
        )
        assert np.array_equal(program.run_batch(srcs), refs)
        outs = np.empty_like(srcs)
        program.run_batch(srcs, out=outs)
        assert np.array_equal(outs, refs)

    def test_partition_covers_output_exactly(self):
        """One operand split into ranges of the nest's outermost loop, at
        every count its trips allow, covers every element once, and a
        batch through ``run_batch`` moves every row."""
        plan, program = _nest_program()
        attached = program.wait_native(timeout=120)
        srcs = np.random.default_rng(2).standard_normal(
            (7, plan.layout.volume)
        )
        refs = np.stack(
            [reference_transpose(s, plan.layout, plan.perm) for s in srcs]
        )
        out = np.full_like(srcs, np.nan)
        if not attached:  # no toolchain: the split declines, the chain runs
            assert not program._run_native(srcs[0], out[0], parts=5)
            assert np.array_equal(program.run_batch(srcs, out=out), refs)
            return
        assert program.run_batch(srcs, out=out) is out
        assert np.array_equal(out, refs) and program.backend == "c"
        assert program._trips > 1
        for parts in range(1, program._trips + 1):
            out[0] = np.nan
            assert program._run_native(srcs[0], out[0], parts=parts)
            assert np.array_equal(out[0], refs[0]), parts

    def test_partition_caps_at_trips(self, monkeypatch):
        """Past the size gate a call splits into PARTS_PER_CPU ranges per
        usable CPU, capped by the split loop's trips; below it, on one
        CPU and before the attach it does not split."""
        _, program = _nest_program()
        monkeypatch.setattr(native, "CPUS", 2)
        program._past_gate = False  # an operand below the gate
        assert program.parts() == 1
        program._past_gate = True
        if not program.wait_native(timeout=120):
            assert program.parts() == 1  # the view chain never splits
            return
        assert program.parts() == min(2 * cg.PARTS_PER_CPU, program._trips)
        monkeypatch.setattr(native, "CPUS", 1000)
        assert program.parts() == program._trips
        monkeypatch.setattr(native, "CPUS", 1)
        assert program.parts() == 1

    def test_backend_reported(self):
        _, program = _nest_program()
        program.wait_native(timeout=120)
        backend = program.descriptor["backend"]
        assert backend == ("c" if cg.native_enabled() else "numpy")
        snap = cg.codegen_stats()
        assert snap["native"]["available"] == cg.native_enabled()


# ----------------------------------------------------------------------
# Split calls: the ranges of one C call on the caller and the helpers
# ----------------------------------------------------------------------


class TestSplitCalls:
    def test_every_range_runs_once_under_contention(self):
        """More callers than CPUs, a short switch interval: every range
        of every call runs exactly once, and the first error a range
        raises reaches its caller after all the others ran."""
        import sys
        import threading

        calls, rounds, n = 6, 20, 7
        seen = [[0] * n for _ in range(calls * rounds)]
        errors = []

        def caller(c):
            try:
                for r in range(rounds):
                    row = seen[c * rounds + r]

                    def work(i, row=row):
                        row[i] += 1

                    native.run_parts(work, n)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(c,))
                       for c in range(calls)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(row == [1] * n for row in seen)

        ran = []

        def failing(i):
            ran.append(i)
            if i == 2:
                raise ValueError("range 2")

        with pytest.raises(ValueError, match="range 2"):
            native.run_parts(failing, 5)
        assert sorted(ran) == list(range(5))

    def test_busy_helpers_leave_every_range_to_the_caller(self):
        """While every helper runs another call's range, a call does not
        wait for them: its caller claims and runs all of its ranges."""
        import threading

        release, held = threading.Event(), threading.Semaphore(0)

        def hold(i):
            held.release()
            release.wait(timeout=60)

        blocker = threading.Thread(
            target=native.run_parts, args=(hold, native.CPUS)
        )
        blocker.start()
        try:
            for _ in range(native.CPUS):  # the caller and every helper
                assert held.acquire(timeout=30)
            threads = []
            native.run_parts(
                lambda i: threads.append(threading.current_thread()), 8
            )
            assert threads == [threading.current_thread()] * 8
        finally:
            release.set()
            blocker.join(timeout=60)
        assert not blocker.is_alive()

    @pytest.mark.skipif(native.CPUS < 2, reason="nothing splits on one CPU")
    def test_a_call_per_cpu_keeps_every_range_on_its_caller(self):
        """With a call in flight on each other CPU, the idle helpers
        leave a further call's ranges to its caller; a lone call still
        spreads over them."""
        import threading
        import time

        def record(threads):
            def work(i):
                threads.append(threading.current_thread())
                time.sleep(0.002)  # time enough for an idle helper to claim

            return work

        release, held = threading.Event(), threading.Semaphore(0)

        def hold(i):
            held.release()
            release.wait(timeout=60)

        blockers = [
            threading.Thread(target=native.run_parts, args=(hold, 1))
            for _ in range(native.CPUS - 1)
        ]
        for b in blockers:
            b.start()
        try:
            for _ in blockers:
                assert held.acquire(timeout=30)
            threads = []
            native.run_parts(record(threads), 8)
            assert threads == [threading.current_thread()] * 8
        finally:
            release.set()
            for b in blockers:
                b.join(timeout=60)
        assert not any(b.is_alive() for b in blockers)
        alone = []
        native.run_parts(record(alone), 8)
        assert len(set(alone)) > 1
# ----------------------------------------------------------------------


class TestCompileIntegration:
    def test_small_problem_falls_back_without_search(self):
        plan = make_plan((8, 8, 8), (2, 1, 0))
        program = compile_for(plan.kernel)
        assert program.kind == "view"
        assert cg.codegen_stats()["searches"] == 0

    def test_view_lowering_untouched_by_codegen(self):
        """A partial-tile orthogonal problem below 1 MiB keeps the plain
        view chain: the slice variants do not change the bytes."""
        plan = make_plan((27, 27, 27, 6), (2, 3, 0, 1))
        assert plan.layout.volume * 8 < NEST_MIN_BYTES
        program = compile_for(plan.kernel)
        assert program.kind == "view"

# ----------------------------------------------------------------------
# Lowering artifacts: the compiled object is the only persisted one
# ----------------------------------------------------------------------


class TestArtifacts:
    def test_artifact_round_trip(self, tmp_path):
        """A restarted process searches again, gets the same descriptor,
        and loads the cached object instead of compiling it."""
        native_dir = PlanStore(tmp_path / "plans.json").native_dir
        _, program = _nest_program(native_dir=native_dir)
        program.wait_native(timeout=120)
        clear_exec_caches()  # drops the loaded objects, as a restart does
        cg.reset_codegen_stats()
        _, again = _nest_program(native_dir=native_dir)
        stats = cg.codegen_stats()
        assert stats["searches"] == 1
        assert _lowering(again) == _lowering(program)
        assert stats["native_compiled"] == 0
        if cg.native_enabled():
            assert stats["native_so_cache_hits"] == 1
            assert again.backend == "c"

    def test_stale_version_artifact_researched(self, tmp_path):
        """Descriptors that older files persisted under ``artifacts`` —
        stale or not — are never applied: the lowering searches."""
        plan = make_plan(OD_DIMS, OD_PERM)
        desc = cg.search_nest(*problem_of(plan.kernel))
        desc["tiles"] = [1] * len(desc["tiles"])
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({
            "store_version": 1,
            "entries": {},
            "artifacts": {"nest2|stale": dict(desc, codegen_version=2)},
        }))
        store = PlanStore(path)
        cg.reset_codegen_stats()
        program = compile_for(plan.kernel, native_dir=store.native_dir)
        assert program.kind == "nest"
        assert cg.codegen_stats()["searches"] == 1
        assert program.tiles != tuple(desc["tiles"])
        assert not store.recovered_from_corruption

    def test_pre_artifact_store_file_loads(self, tmp_path):
        """Files written before the codegen tier lack the artifacts
        section entirely; they must load clean."""
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"store_version": 1, "entries": {}}))
        store = PlanStore(path)
        assert len(store) == 0 and store.corrupt_entries == 0
        assert not store.recovered_from_corruption


# ----------------------------------------------------------------------
# Scheduling: nests run on the stream workers like any other program
# ----------------------------------------------------------------------


class TestSchedulerRouting:
    def test_codegen_backend_runs_nest(self, tmp_path):
        native_dir = PlanStore(tmp_path / "plans.json").native_dir
        with StreamScheduler(num_streams=2, native_dir=native_dir) as sched:
            plan = make_plan(OD_DIMS, OD_PERM)
            problem = lowering_key(OD_DIMS, OD_PERM)
            src = np.random.default_rng(6).standard_normal(
                plan.layout.volume
            )
            ref = reference_transpose(src, plan.layout, plan.perm)
            report = sched.submit(problem, src).result()
            assert report.backend in ("c", "numpy")
            assert np.array_equal(report.output, ref)
            report.release()
            assert program_for(problem)[0].kind == "nest"

    def test_codegen_batch_parity(self, tmp_path):
        with StreamScheduler(num_streams=2) as sched:
            plan = make_plan(OD_DIMS, OD_PERM)
            srcs = [
                np.random.default_rng(7 + i).standard_normal(
                    plan.layout.volume
                )
                for i in range(3)
            ]
            refs = np.stack(
                [reference_transpose(s, plan.layout, plan.perm) for s in srcs]
            )
            problem = lowering_key(OD_DIMS, OD_PERM)
            report = sched.submit_batch(problem, srcs).result()
            assert report.backend in ("c", "numpy")
            assert report.parts == program_for(problem)[0].parts()
            assert np.array_equal(report.output, refs)
            report.release()

    def test_batch_rows_run_where_they_lie(self):
        """A nest batch job hands each payload's own address to the C
        range entry: its rows are never stacked into a copy first."""
        problem = lowering_key(OD_DIMS, OD_PERM)
        program = program_for(problem)[0]
        if not program.wait_native(timeout=120):
            pytest.skip("no C toolchain on this host")
        range_fn, seen = program._kit, []

        def recording(src, dst, lo, hi, scratch):
            seen.append(src)
            range_fn(src, dst, lo, hi, scratch)

        rng = np.random.default_rng(8)
        srcs = [rng.standard_normal(program.volume) for _ in range(3)]
        plan = make_plan(OD_DIMS, OD_PERM)
        refs = np.stack(
            [reference_transpose(s, plan.layout, plan.perm) for s in srcs]
        )
        program._kit = recording
        try:
            with StreamScheduler(num_streams=1) as sched:
                report = sched.submit_batch(problem, srcs).result()
                assert report.backend == "c"
                assert np.array_equal(report.output, refs)
                report.release()
        finally:
            program._kit = range_fn
        assert set(seen) == {s.ctypes.data for s in srcs}

    def test_small_jobs_stay_on_threads(self):
        with StreamScheduler(num_streams=2) as sched:
            problem = lowering_key((16, 16, 16), (2, 1, 0))
            src = np.random.default_rng(9).standard_normal(16 ** 3)
            report = sched.submit(problem, src).result()
            assert report.backend == "numpy"
            assert program_for(problem)[0].kind == "view"
            report.release()

    @pytest.mark.parametrize("backend", ["process", "gpu"])
    def test_unknown_backend_rejected(self, backend):
        """There is no backend choice left: the argument is gone."""
        with pytest.raises(TypeError, match="backend"):
            StreamScheduler(num_streams=1, backend=backend)
        with pytest.raises(TypeError, match="backend"):
            TransposeService(num_streams=1, backend=backend)
        with StreamScheduler(num_streams=1) as sched:
            problem = lowering_key((16, 16, 16), (2, 1, 0))
            with pytest.raises(TypeError, match="backend"):
                sched.submit_batch(problem, [np.zeros(16 ** 3)], backend=backend)

    def test_closed_scheduler_refuses_work(self):
        sched = StreamScheduler(num_streams=1)
        sched.close()
        problem = lowering_key((16, 16, 16), (2, 1, 0))
        with pytest.raises(RuntimeError, match="shut down"):
            sched.submit_batch(problem, [np.zeros(16 ** 3)])
        sched.close()  # idempotent


# ----------------------------------------------------------------------
# Host cache probing
# ----------------------------------------------------------------------


class TestCacheProbe:
    def _sysfs(self, tmp_path, caches):
        """Build a fake cpu0 cache tree: [(type, level, size), ...]."""
        root = tmp_path / "cache"
        for i, (ctype, level, size) in enumerate(caches):
            d = root / f"index{i}"
            d.mkdir(parents=True)
            (d / "type").write_text(ctype + "\n")
            (d / "level").write_text(f"{level}\n")
            (d / "size").write_text(size + "\n")
        return str(root)

    def test_parse_cache_size(self):
        assert cg.parse_cache_size("48K") == 48 * 1024
        assert cg.parse_cache_size("2M") == 2 << 20
        assert cg.parse_cache_size("1G") == 1 << 30
        assert cg.parse_cache_size(" 512K\n") == 512 * 1024
        assert cg.parse_cache_size("768") == 768
        assert cg.parse_cache_size("") is None
        assert cg.parse_cache_size("banana") is None
        assert cg.parse_cache_size("0K") is None
        assert cg.parse_cache_size(None) is None

    def test_probe_prefers_largest_per_core_cache(self, tmp_path):
        root = self._sysfs(
            tmp_path,
            [
                ("Data", 1, "48K"),
                ("Instruction", 1, "32K"),
                ("Unified", 2, "2M"),
                ("Unified", 3, "105M"),  # shared LLC: excluded
            ],
        )
        assert cg.probe_cache_bytes(root) == 2 << 20

    def test_probe_skips_instruction_and_garbage(self, tmp_path):
        root = self._sysfs(
            tmp_path,
            [
                ("Instruction", 1, "32K"),
                ("Data", 1, "junk"),
                ("Data", 1, "64K"),
            ],
        )
        assert cg.probe_cache_bytes(root) == 64 * 1024

    def test_probe_missing_tree(self, tmp_path):
        assert cg.probe_cache_bytes(str(tmp_path / "nope")) is None

    def test_detect_probed_three_quarters(self, tmp_path):
        root = self._sysfs(tmp_path, [("Unified", 2, "2M")])
        assert cg.detect_cache_budget(root=root) == (2 << 20) * 3 // 4

    def test_detect_fallback(self, tmp_path):
        assert (
            cg.detect_cache_budget(root=str(tmp_path / "nope"))
            == cg.DEFAULT_CACHE_BUDGET
        )

    def test_cost_functions_take_explicit_budget(self):
        """A bigger budget can only keep or lower the modelled cost
        (fewer refetches), and the explicit param bypasses the global."""
        in_shape, axes = (32, 32, 64, 128), (3, 2, 1, 0)
        out_shape = [in_shape[a] for a in axes]
        small = cg.nest_cost(in_shape, axes, out_shape, 8,
                             cache_budget=256 * 1024)
        large = cg.nest_cost(in_shape, axes, out_shape, 8,
                             cache_budget=64 << 20)
        assert large <= small

    def test_search_records_budget(self):
        desc = cg.search_nest(
            (32, 32, 64, 128), (3, 2, 1, 0), 8, cache_budget=512 * 1024
        )
        assert desc["cache_budget"] == 512 * 1024
