"""Runtime throughput: N concurrent clients through the TransposeService.

The production-shaped version of Fig. 12's repeated-use argument, in
its two halves:

- **planning** — clients ask the service for plans
  (:meth:`~repro.runtime.service.TransposeService.plan`).  Each plan is
  built once despite the concurrency, cached, and persisted; a
  *restarted* process warm-starts from the persistent store and builds
  (almost) none.
- **execution** — clients submit real payloads.  Executions plan
  nothing: each problem lowers once to a program (a generated loop
  nest at these 2 MiB operands), whose compiled C object is cached
  beside the same store, so the restarted process compiles nothing.

Reported: plan builds vs restores and the plan-cache hit rate, then
requests/sec, compiled programs and native (C) compiles of the cold
and the warm execution session — written to
``results/runtime_throughput.txt``.
"""

import math
import queue
import threading
import time

import numpy as np
from conftest import write_result

from repro.bench.suites import six_d_suite
from repro.core.api import perm_to_axes
from repro.kernels.codegen import codegen_stats
from repro.kernels.executor import clear_exec_caches, program_for
from repro.runtime import TransposeService

N_PROBLEMS = 16
N_CLIENTS = 8
CALLS_PER_PROBLEM = 4
EXTENT = 8


def pick_problems():
    cases = six_d_suite(EXTENT)
    step = max(1, len(cases) // N_PROBLEMS)
    return [(c.dims, c.perm) for c in cases[::step]][:N_PROBLEMS]


def drive_clients(problems, call):
    """All clients drain one shared queue of requests, each calling
    ``call(dims, perm)``; returns wall time."""
    jobs = queue.Queue()
    for i in range(len(problems) * CALLS_PER_PROBLEM):
        jobs.put(problems[i % len(problems)])
    errors = []

    def client():
        while True:
            try:
                dims, perm = jobs.get_nowait()
            except queue.Empty:
                return
            try:
                call(dims, perm)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(N_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    assert not errors, errors[0]
    return wall


def _service(store_path):
    return TransposeService(
        store_path=store_path, num_streams=4, store_autoflush=False
    )


def plan_session(store_path, problems):
    with _service(store_path) as service:
        wall = drive_clients(problems, service.plan)
        return wall, service.stats()


def execute_session(store_path, problems, payloads, refs):
    """One process lifetime of executions: program caches start empty,
    as after a restart, and every output is checked.  Returns the wall
    time, the service stats, the C objects compiled (counted once every
    program's background compile has settled), the nest searches run
    and the session's nest problems."""
    clear_exec_caches()
    before = codegen_stats()
    with _service(store_path) as service:

        def call(dims, perm):
            report = service.execute(dims, perm, payload=payloads[dims, perm])
            assert np.array_equal(report.output, refs[dims, perm])
            report.release()

        wall = drive_clients(problems, call)
        stats = service.stats()
    searches = codegen_stats()["searches"] - before["searches"]
    nests = 0
    for dims, perm in problems:
        program = program_for((dims[::-1], perm_to_axes(perm), 8))[0]
        if program.kind == "nest":  # a fully fusing problem is a view
            nests += 1
            program.wait_native()
    compiled = codegen_stats()["native_compiled"] - before["native_compiled"]
    return wall, stats, compiled, searches, nests


def test_runtime_throughput_cold_vs_warm(benchmark, tmp_path):
    problems = pick_problems()
    n_requests = len(problems) * CALLS_PER_PROBLEM
    store_path = tmp_path / "plans.json"
    rng = np.random.default_rng(0)
    payloads, refs = {}, {}
    for dims, perm in problems:
        a = rng.standard_normal(math.prod(dims))
        payloads[dims, perm] = a
        refs[dims, perm] = np.transpose(
            a.reshape(dims[::-1]), perm_to_axes(perm)
        ).reshape(-1)

    cold_wall, cold = plan_session(store_path, problems)
    warm_wall, warm = plan_session(store_path, problems)
    cold_counters = cold["metrics"]["counters"]
    warm_counters = warm["metrics"]["counters"]
    builds_cold = cold_counters["plans_built"]
    builds_warm = warm_counters.get("plans_built", 0)
    restored_warm = warm_counters.get("plans_restored", 0)

    exec_store = tmp_path / "served.json"
    sessions = [
        ("cold", *execute_session(exec_store, problems, payloads, refs)),
        ("warm", *execute_session(exec_store, problems, payloads, refs)),
    ]

    lines = [
        "Runtime throughput — concurrent clients through TransposeService",
        f"{len(problems)} distinct 6D problems (extent {EXTENT}, 2 MiB of "
        f"f64 each), {n_requests} requests per session, {N_CLIENTS} "
        "clients, 4 streams",
        "",
        "planning (service.plan)",
        f"{'session':<8s} {'req/s':>10s} {'built':>7s} {'restored':>9s} "
        f"{'hit rate':>9s}",
    ]
    for name, wall, stats, built, restored in (
        ("cold", cold_wall, cold, builds_cold, 0),
        ("warm", warm_wall, warm, builds_warm, restored_warm),
    ):
        lines.append(
            f"{name:<8s} {n_requests / wall:>10.1f} {built:>7d} "
            f"{restored:>9d} {stats['cache']['hit_rate'] * 100:>8.1f}%"
        )
    lines += [
        "",
        "execution (service.execute with payloads; no plan is built)",
        f"{'session':<8s} {'req/s':>10s} {'programs':>9s} "
        f"{'nest searches':>14s} {'native compiles':>16s} "
        f"{'plans built':>12s}",
    ]
    for name, wall, stats, compiled, searches, _ in sessions:
        lines.append(
            f"{name:<8s} {n_requests / wall:>10.1f} "
            f"{stats['executor']['misses']:>9d} {searches:>14d} "
            f"{compiled:>16d} "
            f"{stats['metrics']['counters'].get('plans_built', 0):>12d}"
        )
    lines.append("")
    lines.append(
        f"warm session eliminated "
        f"{(1 - builds_warm / builds_cold) * 100:.1f}% of plan builds "
        "across the process restart"
    )
    text = "\n".join(lines)
    print(text)
    write_result("runtime_throughput", text)

    # Every distinct problem planned exactly once despite 8 clients.
    assert builds_cold == len(problems)
    # Acceptance: the warm store eliminates >= 95 % of plan builds.
    assert builds_warm <= 0.05 * builds_cold
    assert restored_warm == len(problems)
    for name, _, stats, _, searches, nests in sessions:
        # Executions never plan, and each problem lowers once: one
        # program and one nest search per problem, however many of the
        # 8 clients miss on it at once.
        assert stats["metrics"]["counters"].get("plans_built", 0) == 0
        assert stats["executor"]["misses"] == len(problems)
        assert searches == nests, (name, searches, nests)
    # The restarted process finds every nest's C object beside the store.
    assert sessions[1][3] == 0

    clear_exec_caches()
    with _service(exec_store) as warm_service:
        dims, perm = problems[0]
        payload = payloads[dims, perm]
        benchmark(
            lambda: warm_service.execute(dims, perm, payload=payload).release()
        )
