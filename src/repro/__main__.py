"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
plan DIMS PERM [--dtype f32|f64] [--device k40c|p100]
    Plan a transposition and print the chosen schema, parameters,
    predicted/simulated time, and bandwidth.

compare DIMS PERM [--device ...]
    Plan the same problem with TTLG, cuTT (both modes), and TTC and
    print a comparison table (repeated and single use).

predict DIMS PERM [--dtype f32|f64]
    The queryable model: estimated time/bandwidth without executing.

device [k40c|p100]
    Print the simulated device configuration (Table III analogue).

serve [--requests N] [--clients C] [--streams S] [--payload]
      [--batch-window S] [--state-dir DIR]
    Run a workload through the concurrent transpose-serving runtime
    (persistent plan store + metrics).  Without ``--payload`` each
    request plans through the service (single-flight planning, cache
    hits, the store's warm start); ``--payload`` executes each request
    instead, moving real data through the lowered programs: view chains
    for small operands, generated loop nests from 1 MiB
    (docs/execution-tiers.md).  ``--streams`` defaults to the usable
    CPUs.  With ``--batch-window`` (seconds, requires ``--payload``)
    concurrent same-problem requests coalesce into fused batched runs.
    See docs/runtime.md.

serve --listen HOST:PORT [--streams S]
      [--max-inflight N] [--tenant-rate R/S] [--max-queue-depth N]
      [--max-requests N] [--state-dir DIR]
    Run the network serving front end (docs/serving.md): one
    TransposeService behind the length-prefixed wire protocol, with
    admission control and graceful drain on Ctrl-C (or after
    ``--max-requests`` requests).  The serving snapshot is written to
    ``<state-dir>/metrics.json`` on exit.

stats [--state-dir DIR] [--json] [--connect HOST:PORT]
    Print the metrics snapshot written by the last ``serve`` session,
    including batch-coalescing counters and the ``serving.*`` block
    when the snapshot came from a network front end.  ``--connect``
    queries a live server over the wire instead of reading the file.

``DIMS`` and ``PERM`` are comma-separated, dim 0 fastest, permutation in
the paper convention (``perm[i] = j``: output dim i is input dim j).

Example::

    python -m repro plan 16,16,16,16,16,16 5,4,3,2,1,0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Tuple

from repro.core.api import plan_transpose, predict_time
from repro.gpusim.spec import KEPLER_K40C, PASCAL_P100
from repro.kernels.native import CPUS

DEVICES = {"k40c": KEPLER_K40C, "p100": PASCAL_P100}

DTYPES = {"f32": 4, "f64": 8}

#: Where ``serve``/``stats`` keep the plan store and metrics snapshot.
DEFAULT_STATE_DIR = os.environ.get(
    "REPRO_RUNTIME_DIR", os.path.join("~", ".cache", "repro-runtime")
)


def _ints(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc


def _elem_bytes(dtype: str) -> int:
    try:
        return DTYPES[dtype]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unsupported dtype {dtype!r}; supported dtypes: "
            + ", ".join(sorted(DTYPES))
        ) from None


def _dtype(text: str) -> str:
    _elem_bytes(text)  # validate with the supported-dtype message
    return text


def _problem(text: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Parse ``DIMS:PERM`` (e.g. ``16,16,16:2,1,0``) for ``serve``."""
    dims_text, sep, perm_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected DIMS:PERM (e.g. 16,16,16:2,1,0), got {text!r}"
        )
    return _ints(dims_text), _ints(perm_text)


def _addr(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` for ``serve --listen`` / ``stats --connect``."""
    host, sep, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        sep = ""
        port = -1
    if not sep or not host or not (0 <= port < 65536):
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT (e.g. 127.0.0.1:8731), got {text!r}"
        )
    return host, port


def cmd_plan(args) -> int:
    plan = plan_transpose(
        args.dims, args.perm, _elem_bytes(args.dtype), DEVICES[args.device]
    )
    k = plan.kernel
    print(f"dims            : {plan.layout.dims} (dim 0 fastest)")
    print(f"perm            : {plan.perm.mapping}")
    print(f"fused           : dims {plan.fused.layout.dims} "
          f"perm {plan.fused.perm.mapping} (scaled rank "
          f"{plan.fused.scaled_rank})")
    print(f"schema          : {plan.schema.value}")
    if hasattr(k, "A"):
        print(f"slice           : A={k.A} B={k.B}")
    geom = k.launch_geometry
    print(f"launch          : {geom.num_blocks} blocks x "
          f"{geom.threads_per_block} threads, "
          f"{geom.shared_mem_per_block} B smem")
    print(f"candidates      : {plan.num_candidates}")
    print(f"predicted time  : {plan.predicted_time * 1e3:.4f} ms")
    print(f"simulated time  : {plan.simulated_time() * 1e3:.4f} ms")
    print(f"plan overhead   : {plan.plan_time * 1e3:.4f} ms")
    print(f"bandwidth       : {plan.bandwidth_gbps():.1f} GB/s (repeated) / "
          f"{plan.bandwidth_gbps(include_plan=True):.1f} GB/s (single)")
    if plan.coarsening:
        print(f"coarsening      : dim {plan.coarsening[0]} "
              f"x{plan.coarsening[1]}")
    return 0


def cmd_compare(args) -> int:
    from repro.baselines import ALL_LIBRARIES

    spec = DEVICES[args.device]
    print(
        f"{'library':<16s} {'kernel':<22s} {'repeated GB/s':>14s} "
        f"{'single GB/s':>12s} {'plan ms':>9s}"
    )
    for lib_cls in ALL_LIBRARIES:
        lib = lib_cls(spec=spec)
        plan = lib.plan(args.dims, args.perm, _elem_bytes(args.dtype))
        print(
            f"{lib.name:<16s} {plan.kernel.schema.value:<22s} "
            f"{plan.bandwidth_gbps():>14.1f} "
            f"{plan.bandwidth_gbps(include_plan=True):>12.1f} "
            f"{plan.plan_time * 1e3:>9.3f}"
        )
    return 0


def cmd_predict(args) -> int:
    est = predict_time(
        args.dims, args.perm, _elem_bytes(args.dtype), DEVICES[args.device]
    )
    print(f"schema          : {est.schema.value}")
    print(f"kernel time     : {est.kernel_time * 1e3:.4f} ms")
    print(f"plan time       : {est.plan_time * 1e3:.4f} ms")
    print(f"bandwidth       : {est.bandwidth_gbps:.1f} GB/s")
    return 0


def cmd_device(args) -> int:
    print(DEVICES[args.device].describe())
    return 0


def _serve_problems(args):
    if args.problem:
        return list(args.problem)
    from repro.bench.suites import six_d_suite

    cases = six_d_suite(args.extent)
    step = max(1, len(cases) // args.unique)
    return [(c.dims, c.perm) for c in cases[::step]][: args.unique]


def _cmd_serve_listen(args) -> int:
    """The network front end: bind, serve, drain, snapshot."""
    import asyncio

    from repro.serving import ServingServer
    from repro.serving.server import SHUTDOWN_DRAIN_S

    host, port = args.listen
    state_dir = Path(args.state_dir).expanduser()
    state_dir.mkdir(parents=True, exist_ok=True)

    async def run() -> dict:
        server = ServingServer(
            host=host,
            port=port,
            spec=DEVICES[args.device],
            store_path=state_dir / "plans.json",
            num_streams=args.streams,
            max_inflight=args.max_inflight,
            tenant_rate=args.tenant_rate,
            max_queue_depth=args.max_queue_depth,
        )
        await server.start()
        print(
            f"serving on {server.address}: {args.streams} streams, "
            f"max_inflight={args.max_inflight}"
            + (
                f", stopping after {args.max_requests} requests"
                if args.max_requests
                else " (Ctrl-C to drain)"
            ),
            flush=True,
        )
        try:
            while True:
                await asyncio.sleep(0.05)
                if (
                    args.max_requests
                    and server.serving_snapshot()["counters"].get(
                        "serving.requests", 0
                    )
                    >= args.max_requests
                ):
                    break
        except asyncio.CancelledError:
            pass
        finally:
            drained = await server.drain(SHUTDOWN_DRAIN_S)
            snapshot = server.serving_snapshot()
            await server.close()
            data_path = snapshot.get("data_path") or {}
            print(
                f"drained: {'clean' if drained else 'TIMED OUT'}, "
                f"{snapshot['counters'].get('serving.requests', 0)} requests "
                f"served, tensor bytes "
                f"{data_path.get('tensor_bytes_zero_copy', 0) / 1e6:.1f} MB "
                f"zero-copy / "
                f"{data_path.get('tensor_bytes_copied', 0) / 1e6:.1f} MB copied, "
                f"{data_path.get('egress_bytes_buffered', 0) / 1e6:.1f} MB "
                f"egress buffered"
            )
        return snapshot

    try:
        snapshot = asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted before drain finished", file=sys.stderr)
        return 130
    (state_dir / "metrics.json").write_text(
        json.dumps({"serving": snapshot}, indent=2, sort_keys=True) + "\n"
    )
    print(f"state: {state_dir} (plans.json, metrics.json)")
    return 0


def cmd_serve(args) -> int:
    import queue
    import threading

    from repro.runtime import TransposeService

    if args.listen is not None:
        return _cmd_serve_listen(args)
    if args.batch_window > 0 and not args.payload:
        print(
            "error: --batch-window coalesces executions and requires "
            "--payload",
            file=sys.stderr,
        )
        return 2
    problems = _serve_problems(args)
    elem_bytes = _elem_bytes(args.dtype)
    state_dir = Path(args.state_dir).expanduser()
    state_dir.mkdir(parents=True, exist_ok=True)

    jobs: "queue.Queue" = queue.Queue()
    for i in range(args.requests):
        jobs.put(problems[i % len(problems)])

    service = TransposeService(
        spec=DEVICES[args.device],
        store_path=state_dir / "plans.json",
        num_streams=args.streams,
        store_autoflush=False,
        batch_window_s=args.batch_window,
    )
    errors = []

    payloads = {}
    if args.payload:
        import math

        import numpy as np

        rng = np.random.default_rng(0)
        dtype = np.float32 if elem_bytes == 4 else np.float64
        for dims, _ in problems:
            if dims not in payloads:
                payloads[dims] = rng.standard_normal(math.prod(dims)).astype(
                    dtype
                )

    def client() -> None:
        while True:
            try:
                dims, perm = jobs.get_nowait()
            except queue.Empty:
                return
            try:
                if not args.payload:
                    service.plan(dims, perm, elem_bytes)
                    continue
                if args.batch_window > 0:
                    report = service.execute_batched(
                        dims, perm, elem_bytes, payloads[dims]
                    )
                else:
                    report = service.execute(
                        dims, perm, elem_bytes, payloads[dims]
                    )
                # The workload discards outputs: hand the buffer back so
                # the arena's free lists actually warm up.
                report.release()
            except Exception as exc:  # surface, don't hang the pool
                errors.append(exc)

    # The context manager guarantees the orderly teardown even when a
    # client raises: micro-batch windows drain, streams retire their
    # queues, and the plan store flushes.
    with service:
        started = time.perf_counter()
        clients = [
            threading.Thread(target=client, name=f"client-{i}", daemon=True)
            for i in range(args.clients)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        wall = time.perf_counter() - started
        stats = service.stats()

    if errors:
        print(f"error: {errors[0]}", file=sys.stderr)
        return 1
    (state_dir / "metrics.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )

    counters = stats["metrics"]["counters"]
    built = counters.get("plans_built", 0)
    restored = counters.get("plans_restored", 0)
    hits = counters.get("cache_hits", 0)
    print(
        f"served {args.requests} requests ({len(problems)} distinct problems) "
        f"from {args.clients} clients over {args.streams} streams "
        f"in {wall:.3f} s ({args.requests / wall:.1f} req/s)"
    )
    print(
        f"plans: {built} built, {restored} restored from store, "
        f"{hits} cache hits "
        f"({stats['cache']['hit_rate'] * 100:.1f}% hit rate)"
    )
    if args.payload:
        ex = stats["executor"]
        print(
            f"executor programs: {ex['entries']} compiled, "
            f"{ex['hits']} hits / {ex['misses']} misses "
            f"({ex['hit_rate'] * 100:.1f}% warm, "
            f"{ex['coalesced']} waited on a build)"
        )
    if args.batch_window > 0:
        b = stats["batching"]
        print(
            f"batching: {b['requests']} requests -> {b['flushes']} fused "
            f"runs, {b['coalesced']} coalesced "
            f"(window {b['window_s'] * 1e3:.1f} ms, "
            f"max batch {b['max_batch']})"
        )
    sched = stats["scheduler"]
    arena = sched.get("arena")
    if args.payload and arena:
        print(
            f"arena: {arena['reuses']} buffer reuses / "
            f"{arena['allocations']} allocations, "
            f"{arena['free_bytes'] / (1 << 20):.1f} MiB pooled"
        )
    cg = stats.get("codegen")
    if cg and cg.get("programs_generated"):
        print(
            f"codegen: {cg['programs_generated']} kernels generated, "
            f"{cg['searches']} searches ({cg['search_s'] * 1e3:.1f} ms)"
        )
        native = cg.get("native") or {}
        if native.get("available") or cg.get("native_attached"):
            print(
                f"native ({native.get('cc') or 'no toolchain'}): "
                f"{cg.get('native_compiled', 0)} compiled, "
                f"{cg.get('native_so_cache_hits', 0)} .so cache hits, "
                f"{cg.get('native_attached', 0)} attached, "
                f"fallbacks {cg.get('native_compile_failures', 0)} compile / "
                f"{cg.get('native_load_failures', 0)} load / "
                f"{cg.get('native_call_failures', 0)} call"
            )
    print(
        f"state: {state_dir} "
        f"(plans.json: {stats['store']['entries']} entries, "
        f"{stats['store']['native_objects']} C objects, metrics.json)"
    )
    return 0


def _print_histogram_lines(histograms: dict) -> None:
    for name in sorted(histograms):
        h = histograms[name]
        print(
            f"  {name:<28s} count {h['count']:>6d}  "
            f"mean {h['mean_s'] * 1e3:9.4f} ms  "
            f"max {h['max_s'] * 1e3:9.4f} ms"
        )


def _print_serving_block(serving: dict) -> None:
    """Pretty-print one ``serving_snapshot()`` payload."""
    print(
        f"serving: protocol v{serving.get('protocol_version', '?')}"
        + (" (draining)" if serving.get("draining") else "")
    )
    data_path = serving.get("data_path")
    if data_path:
        copied = data_path.get("tensor_bytes_copied", 0)
        zero = data_path.get("tensor_bytes_zero_copy", 0)
        staged = data_path.get("staged_bytes", 0)
        buffered = data_path.get("egress_bytes_buffered", 0)
        arena = serving.get("arena") or {}
        print(
            f"data path: {zero / 1e6:.1f} MB zero-copy, "
            f"{copied / 1e6:.1f} MB copied, "
            f"{staged / 1e6:.3f} MB staged (headers + metas), "
            f"{buffered / 1e6:.1f} MB egress buffered; arena "
            f"{arena.get('reuses', 0)} lease reuses / "
            f"{arena.get('allocations', 0)} allocations, "
            f"{arena.get('active_blocks', 0)} active, "
            f"{arena.get('leaked', 0)} leaked"
        )
    counters = serving.get("counters") or {}
    if counters:
        for name in sorted(counters):
            print(f"  {name:<36s} {counters[name]}")
    else:
        print("  counters: n/a")
    admission = serving.get("admission")
    if admission:
        quota = (
            f"{admission['tenant_rate']:g}/s "
            f"(burst {admission['tenant_burst']:g})"
            if admission.get("tenant_rate") is not None
            else "off"
        )
        print(
            f"admission: {admission.get('inflight', 0)}/"
            f"{admission.get('max_inflight', '?')} inflight, "
            f"{admission.get('admitted', 0)} admitted, "
            f"shed {admission.get('shed_overloaded', 0)} overloaded / "
            f"{admission.get('shed_quota', 0)} quota, "
            f"tenants {admission.get('tenants', 0)}, quota {quota}"
        )
    else:
        print("admission: n/a")
    executor = serving.get("executor")
    if executor:
        print(
            f"service: queue {serving.get('queue_depth', 0)}, "
            f"inflight {serving.get('inflight', 0)}, "
            f"programs {executor.get('entries', 0)}/"
            f"{executor.get('maxsize', '?')} "
            f"({executor.get('hit_rate', 0.0) * 100:.1f}% hits, "
            f"{executor.get('evictions', 0)} evicted)"
        )
    store = serving.get("store")
    if store:
        print(
            f"store: {store['entries']} entries at {store['path']} "
            f"(v{store['store_version']})"
        )


def _stats_connect(args) -> int:
    """Live ``stats`` query against a running serving front end."""
    import asyncio

    from repro.serving import ServingClient

    host, port = args.connect

    async def fetch() -> dict:
        async with ServingClient(host, port, pool_size=1) as client:
            return await client.stats()

    try:
        serving = asyncio.run(fetch())
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"serving": serving}, indent=2, sort_keys=True))
        return 0
    print(f"serving stats — live from {host}:{port}")
    _print_serving_block(serving)
    runtime = serving.get("runtime_counters") or {}
    if runtime:
        print("runtime counters:")
        for name in sorted(runtime):
            print(f"  {name:<28s} {runtime[name]}")
    return 0


def cmd_stats(args) -> int:
    if args.connect is not None:
        return _stats_connect(args)
    state_dir = Path(args.state_dir).expanduser()
    path = state_dir / "metrics.json"
    if not path.exists():
        print(
            f"no metrics snapshot at {path}; "
            "run `python -m repro serve` first",
            file=sys.stderr,
        )
        return 1
    payload = json.loads(path.read_text())
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"runtime stats — device: {payload.get('device', 'n/a')}")
    metrics = payload.get("metrics")
    if metrics:
        counters = metrics.get("counters") or {}
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:<28s} {counters[name]}")
        gauges = metrics.get("gauges") or {}
        if gauges:
            print("gauges:")
            for name in sorted(gauges):
                print(f"  {name:<28s} {gauges[name]}")
        print("latency histograms:")
        _print_histogram_lines(metrics.get("histograms") or {})
    else:
        print("metrics: n/a")
    cache = payload.get("cache")
    if cache:
        restored = (metrics or {}).get("counters", {}).get("plans_restored", 0)
        # .get: a metrics.json from an older version names the occupancy
        # fields resident_plans/capacity.
        print(
            f"cache: {cache.get('entries', 0)}/{cache.get('maxsize', 0)} plans, "
            f"{cache['hits']} hits / {cache['misses']} misses "
            f"({cache['hit_rate'] * 100:.1f}%), "
            f"{restored} store hits, "
            f"{cache.get('coalesced', 0)} waited on a build"
        )
    else:
        print("cache: n/a")
    executor = payload.get("executor")
    if executor:
        print(
            f"executor: {executor['entries']}/{executor['maxsize']} programs "
            f"({executor['bytes'] / 1024:.0f} KiB of scratch), "
            f"{executor['hits']} hits / {executor['misses']} misses "
            f"({executor['hit_rate'] * 100:.1f}%), "
            f"{executor.get('coalesced', 0)} waited on a build, "
            f"{executor['evictions']} evicted"
        )
    sched = payload.get("scheduler")
    if sched:
        print(f"streams: {sched['num_streams']}; jobs {sched['jobs_done']}")
    else:
        sched = {}
        print("scheduler: n/a")
    arena = sched.get("arena")
    if arena:
        print(
            f"arena: {arena['reuses']} reuses / {arena['allocations']} "
            f"allocations ({arena['trimmed']} trimmed, "
            f"{arena['leaked']} leaked, "
            f"{arena['auto_reclaimed']} auto-reclaimed), "
            f"{arena['free_blocks']} free blocks / "
            f"{arena['free_bytes'] / (1 << 20):.1f} MiB pooled"
        )
    batching = payload.get("batching")
    if batching:
        print(
            f"batching: {batching['requests']} requests -> "
            f"{batching['flushes']} fused runs, "
            f"{batching['coalesced']} coalesced "
            f"(window {batching['window_s'] * 1e3:.1f} ms, "
            f"max batch {batching['max_batch']})"
        )
        per_key = batching.get("per_key") or {}
        for key in sorted(per_key):
            pk = per_key[key]
            print(
                f"  {key:<40s} {pk['requests']:>5d} req  "
                f"{pk['flushes']:>4d} runs  "
                f"coalesced {pk['coalesced']:>4d}  "
                f"largest {pk['max_batch']}"
            )
    codegen = payload.get("codegen")
    if codegen:
        print(
            f"codegen: {codegen.get('programs_generated', 0)} kernels "
            f"generated, "
            f"{codegen.get('searches', 0)} searches "
            f"({codegen.get('search_s', 0.0) * 1e3:.1f} ms)"
        )
        native = codegen.get("native") or {}
        if native.get("available") or codegen.get("native_attached"):
            cc = native.get("cc") or "no toolchain"
            version = native.get("cc_version") or ""
            print(
                f"  native: cc={cc}"
                + (f" ({version})" if version else "")
                + f", {codegen.get('native_compiled', 0)} compiled / "
                f"{codegen.get('native_so_cache_hits', 0)} .so cache hits, "
                f"{codegen.get('native_attached', 0)} attached, "
                f"fallbacks {codegen.get('native_compile_failures', 0)} "
                f"compile / {codegen.get('native_load_failures', 0)} load / "
                f"{codegen.get('native_call_failures', 0)} call"
            )
    store = payload.get("store")
    if store:
        print(
            f"store: {store['entries']} entries "
            f"+ {store.get('native_objects', 0)} C objects at {store['path']} "
            f"(v{store['store_version']}, "
            f"{store['corrupt_entries_dropped']} corrupt dropped)"
        )
    serving = payload.get("serving")
    if serving:
        _print_serving_block(serving)
    return 0


def cmd_profile(args) -> int:
    from repro.gpusim.profile import profile_kernel

    plan = plan_transpose(
        args.dims, args.perm, _elem_bytes(args.dtype), DEVICES[args.device]
    )
    print(profile_kernel(plan.kernel).format_report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TTLG reproduction CLI (simulated GPU)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem(p):
        p.add_argument("dims", type=_ints, help="extents, dim 0 fastest")
        p.add_argument("perm", type=_ints, help="permutation, paper convention")
        p.add_argument(
            "--dtype",
            type=_dtype,
            default="f64",
            metavar="{" + ",".join(sorted(DTYPES)) + "}",
        )
        p.add_argument("--device", choices=tuple(DEVICES), default="k40c")

    p = sub.add_parser("plan", help="plan one transposition")
    add_problem(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("compare", help="compare all libraries")
    add_problem(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("predict", help="query the performance model")
    add_problem(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("profile", help="nvprof-style report for a plan")
    add_problem(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("device", help="print the simulated device spec")
    p.add_argument("device", nargs="?", choices=tuple(DEVICES), default="k40c")
    p.set_defaults(func=cmd_device)

    p = sub.add_parser(
        "serve", help="run a workload through the serving runtime"
    )
    p.add_argument(
        "--problem",
        type=_problem,
        action="append",
        metavar="DIMS:PERM",
        help="explicit problem (repeatable); default: a 6D suite sample",
    )
    p.add_argument("--extent", type=int, default=8,
                   help="extent of the default 6D problems (default 8)")
    p.add_argument("--unique", type=int, default=8,
                   help="number of distinct default problems (default 8)")
    p.add_argument("--requests", type=int, default=64,
                   help="total requests to serve (default 64)")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent client threads (default 4)")
    p.add_argument("--streams", type=int, default=CPUS,
                   help="execution streams (default: the usable CPUs, "
                        "%(default)s)")
    p.add_argument("--payload", action="store_true",
                   help="move real data (exercises the compiled executors)")
    p.add_argument(
        "--batch-window", type=float, default=0.0, metavar="S",
        help="micro-batching window in seconds: coalesce concurrent "
             "same-problem requests into fused batched runs "
             "(requires --payload; default 0 = off)",
    )
    p.add_argument(
        "--dtype",
        type=_dtype,
        default="f64",
        metavar="{" + ",".join(sorted(DTYPES)) + "}",
    )
    p.add_argument("--device", choices=tuple(DEVICES), default="k40c")
    p.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                   help="plan store + metrics location (default %(default)s)")
    net = p.add_argument_group(
        "network mode", "serve over TCP instead of the in-process workload"
    )
    net.add_argument(
        "--listen", type=_addr, default=None, metavar="HOST:PORT",
        help="bind the asyncio serving front end here (port 0 = ephemeral); "
             "when set the workload options above are ignored",
    )
    net.add_argument("--max-inflight", type=int, default=256,
                     help="admitted-request cap before OVERLOADED "
                          "(default %(default)s)")
    net.add_argument(
        "--tenant-rate", type=float, default=None, metavar="R",
        help="per-tenant quota in requests/s (default: no quotas)",
    )
    net.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="shed when the service's backlog exceeds N",
    )
    net.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="drain and exit after N requests (default: run until Ctrl-C)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "stats", help="print the metrics snapshot of the last serve run"
    )
    p.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                   help="state location written by serve (default %(default)s)")
    p.add_argument("--json", action="store_true", help="raw JSON output")
    p.add_argument(
        "--connect", type=_addr, default=None, metavar="HOST:PORT",
        help="query a live serving front end instead of reading the "
             "metrics.json snapshot",
    )
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
