"""Million-request load generator for the serving subsystem.

Replays zipf-weighted request streams against an in-process
:class:`~repro.serving.server.ServingServer` over real TCP sockets —
the full path: codec frames, admission control, the service's
scheduler, typed error replies, client retry-with-backoff.  Plan keys
are the 57 fig14 TTC-suite cases with extents scaled down to ~4 K
elements each, so a million requests exercise serving mechanics rather
than raw element throughput.

Four phases, each on a fresh server:

**latency** — closed-loop replay at fixed concurrency; reports
p50/p99/p999 request latency and saturation throughput.

**overload** — twice the saturation concurrency against a server whose
inflight permit pool equals the saturation concurrency: the server
must shed with typed ``OVERLOADED`` replies (never queue unboundedly)
and retrying clients must absorb every shed — zero failed requests,
degraded latency.

**drain** — graceful shutdown with admitted payload-carrying requests
in flight: every one must complete (zero dropped), post-drain requests
must be refused with ``DRAINING``, and the serving arena must report
zero outstanding leases once the inflight replies land.

**data path** — >= 1 MiB f64 operands with real payloads and returned
outputs through the zero-copy data path (readinto wire ingress
straight into arena leases, ``out=`` execution, scatter-gather
egress), every output checked against ``np.transpose``.  Capacity is
measured closed-loop and recorded; p99 latency is measured open-loop
at ``OPEN_LOOP_LOAD`` of that capacity and recorded.  Gated in smoke
and full mode alike, so CI catches any change that silently
reintroduces a copy or body-sized staging: ``tensor_bytes_copied == 0``
on both ends, a staged volume (``wire.staged_bytes``: frame headers
and metas read into staging buffers) of at most ``MAX_STAGED_SHARE``
of the tensor bytes on both ends, a moving zero-copy counter, and no
arena lease left after drain.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serving_load.py

writes ``results/serving_load.json`` (>= 1 M requests across 8
tenants).  CI runs ``--smoke``: a few hundred requests, gates only.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from conftest import bench_parser, env_stamp, gate
from repro.bench.suites import ttc_benchmark_suite
from repro.core.api import perm_to_axes
from repro.errors import DrainingError
from repro.kernels.native import CPUS
from repro.serving import ServingClient, ServingServer

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "results" / "serving_load.json"
)

#: Zipf exponent of the key popularity distribution.
ZIPF_S = 1.1

#: The >= 8 tenants the ISSUE requires.
TENANTS = [f"tenant{i}" for i in range(8)]

#: The >= 1 MiB f64 operand classes of the data-path phase.
DATA_PATH_CASES = (
    ("2MiB", (64, 64, 64), (2, 1, 0)),
    ("4MiB", (64, 128, 64), (2, 1, 0)),
)

#: Open-loop arrival rate of the data-path phase, as a fraction of the
#: closed-loop capacity measured just before it.  0.8 is the load the
#: open loop offered this path when its rate was still derived from
#: the copying baseline's capacity as well: 114.7 of 145.7 req/s on
#: the 2 MiB class and 51.5 of 64.6 req/s on the 4 MiB class, both
#: about 0.8, in the last full run that compared the two paths.
OPEN_LOOP_LOAD = 0.8

#: Ceiling on staged bytes (headers + metas) as a share of the tensor
#: bytes each end of a zero-copy run moved: a tensor read through a
#: staging buffer instead of straight into its storage blows past it.
MAX_STAGED_SHARE = 0.01



# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


def scaled_ttc_keys(target_volume: int = 4096):
    """The fig14 TTC suite with extents shrunk to ~``target_volume``.

    Every case keeps its permutation (the TTC suite's whole point) and
    its rank; the variant index nudges the first extent so all 57
    cases stay distinct content keys after scaling.
    """
    keys = []
    seen = set()
    for case in ttc_benchmark_suite():
        rank = len(case.dims)
        extent = max(2, round(target_volume ** (1.0 / rank)))
        variant = int(case.label.split("v")[1].split(" ")[0])
        dims = (extent + variant,) + (extent,) * (rank - 1)
        key = (dims, case.perm)
        assert key not in seen, f"duplicate scaled case {key}"
        seen.add(key)
        keys.append(key)
    return keys


def zipf_schedule(n_keys: int, n_requests: int, seed: int) -> np.ndarray:
    """Key index per request, zipf-weighted over a shuffled key order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_keys)
    weights = 1.0 / (np.arange(1, n_keys + 1) ** ZIPF_S)
    weights /= weights.sum()
    ranks = rng.choice(n_keys, size=n_requests, p=weights)
    return order[ranks]


# ----------------------------------------------------------------------
# replay harness
# ----------------------------------------------------------------------


async def replay(
    server,
    keys,
    schedule,
    *,
    workers: int,
    max_retries: int = 8,
    record_latency: bool = False,
):
    """Closed-loop replay: ``workers`` concurrent request loops sharing
    one pooled pipelined client.  Returns (wall_s, latencies, client)."""
    client = ServingClient(
        server.host,
        server.port,
        pool_size=min(workers, 16),
        max_retries=max_retries,
        rng=random.Random(1234),
    )
    await client.connect()
    latencies = [] if record_latency else None
    loop = asyncio.get_running_loop()

    async def worker(indices):
        for i in indices:
            dims, perm = keys[schedule[i]]
            tenant = TENANTS[i % len(TENANTS)]
            t0 = loop.time()
            await client.execute(dims, perm, 8, synth=True, tenant=tenant)
            if latencies is not None:
                latencies.append(loop.time() - t0)

    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            worker(range(w, len(schedule), workers))
            for w in range(workers)
        )
    )
    wall = time.perf_counter() - t0
    await client.close()
    return wall, latencies, client


def program_cache_hit_rate(snapshot: dict) -> float:
    """The server's program-cache hit rate over its executions."""
    rt = snapshot["runtime_counters"]
    hits = rt.get("exec_cache_hits", 0)
    return hits / max(1, hits + rt.get("exec_cache_misses", 0))


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------


def phase_latency(args, keys) -> dict:
    """Closed-loop latency percentiles and saturation throughput."""

    async def main():
        server = ServingServer(num_streams=args.streams)
        await server.start()
        # Warm every key once so compulsory planning/compilation misses
        # don't smear the tail percentiles.
        warm = np.arange(len(keys), dtype=np.int64)
        await replay(server, keys, warm, workers=args.workers)
        schedule = zipf_schedule(len(keys), args.requests_latency, seed=43)
        wall, lat, _ = await replay(
            server,
            keys,
            schedule,
            workers=args.workers,
            record_latency=True,
        )
        snap = server.serving_snapshot()
        await server.close()
        lat_ms = np.asarray(lat) * 1e3
        return {
            "requests": len(schedule),
            "workers": args.workers,
            "wall_s": round(wall, 3),
            "saturation_rps": round(len(schedule) / wall, 1),
            "latency_ms": {
                "p50": round(float(np.percentile(lat_ms, 50)), 3),
                "p99": round(float(np.percentile(lat_ms, 99)), 3),
                "p999": round(float(np.percentile(lat_ms, 99.9)), 3),
                "max": round(float(lat_ms.max()), 3),
            },
            "program_cache_hit_rate": round(program_cache_hit_rate(snap), 4),
        }

    return asyncio.run(main())


def phase_overload(args, keys, saturation_rps: float) -> dict:
    """2x saturation concurrency vs a permit pool sized below it.

    The pool is half the 1x closed-loop concurrency: the zero-copy
    transport holds each permit for so little wall time that a pool
    sized *at* 1x never fills even under 2x offered concurrency — the
    shed/backoff machinery this phase exists to exercise would sit
    idle.
    """

    async def main():
        server = ServingServer(
            num_streams=args.streams,
            max_inflight=max(2, args.workers // 2),
            max_queue_depth=4 * args.workers,
        )
        await server.start()
        schedule = zipf_schedule(len(keys), args.requests_overload, seed=44)
        wall, lat, client = await replay(
            server,
            keys,
            schedule,
            workers=2 * args.workers,
            max_retries=100,
            record_latency=True,
        )
        snap = server.serving_snapshot()
        peak = server.service.metrics.snapshot()["gauges"].get(
            "queue_depth_peak", 0
        )
        await server.close()
        admission = snap["admission"]
        offered = admission["admitted"] + admission["shed_overloaded"]
        lat_ms = np.asarray(lat) * 1e3
        return {
            "requests": len(schedule),
            "workers": 2 * args.workers,
            "max_inflight": max(2, args.workers // 2),
            "wall_s": round(wall, 3),
            "goodput_rps": round(len(schedule) / wall, 1),
            "saturation_rps": round(saturation_rps, 1),
            "shed_overloaded": admission["shed_overloaded"],
            "shed_rate": round(
                admission["shed_overloaded"] / max(1, offered), 4
            ),
            "client_retries": client.retries,
            "failed_requests": 0,  # replay raises on any non-retried error
            "max_queue_depth_seen": peak,
            "latency_ms": {
                "p50": round(float(np.percentile(lat_ms, 50)), 3),
                "p99": round(float(np.percentile(lat_ms, 99)), 3),
                "p999": round(float(np.percentile(lat_ms, 99.9)), 3),
            },
        }

    return asyncio.run(main())


def phase_drain(args, keys) -> dict:
    """Drain with admitted payload-carrying requests in flight: zero may
    be dropped, and zero arena leases may outlive their replies."""

    async def main():
        server = ServingServer(num_streams=args.streams, max_inflight=1024)
        await server.start()
        inflight = min(128, args.requests_drain)
        client = ServingClient(
            server.host, server.port, pool_size=8, max_retries=0
        )
        await client.connect()
        schedule = zipf_schedule(len(keys), inflight, seed=45)
        # Real tensors on the wire so ingress/egress leases are live
        # across the drain (the lease leak check below is the point).
        rng = np.random.default_rng(45)
        payloads = {
            key: rng.standard_normal(int(np.prod(key[0])))
            for key in {keys[k] for k in schedule}
        }
        tasks = [
            asyncio.create_task(
                client.execute(
                    *keys[schedule[i]],
                    8,
                    payload=payloads[keys[schedule[i]]],
                    tenant=TENANTS[i % len(TENANTS)],
                )
            )
            for i in range(inflight)
        ]
        # Every request must be *admitted* before the drain begins —
        # the gate is about inflight work, not racing the doorman.
        while server.admission.admitted < inflight:
            await asyncio.sleep(0.001)
        t0 = time.perf_counter()
        drained = await server.drain(timeout=60.0)
        drain_s = time.perf_counter() - t0
        results = await asyncio.gather(*tasks, return_exceptions=True)
        dropped = [r for r in results if isinstance(r, BaseException)]
        refused_with_draining = False
        try:
            await client.execute(*keys[0], 8, synth=True)
        except DrainingError:
            refused_with_draining = True
        except ConnectionError:
            refused_with_draining = True  # listener already closed
        await client.close()
        arena = server.arena.stats()
        await server.close()
        return {
            "inflight_at_drain": inflight,
            "drained_clean": bool(drained),
            "drain_s": round(drain_s, 3),
            "dropped": len(dropped),
            "post_drain_refused": refused_with_draining,
            "arena_active_after_drain": arena["active_blocks"],
            "arena_leaked": server.arena.stats()["leaked"],
        }

    return asyncio.run(main())


def phase_data_path(args, keys) -> dict:
    """The data path on >= 1 MiB payload-carrying requests.

    Two measurements per operand class, each on a fresh server with
    real f64 payloads and outputs returned, every output checked
    against ``np.transpose``:

    **closed loop** (capacity) — fixed concurrency, replies drive the
    next request; yields saturation throughput.

    **open loop** (latency) — a fixed arrival schedule at
    ``OPEN_LOOP_LOAD`` of that capacity, latency taken from each
    request's scheduled arrival, so client-side queueing counts.

    Both runs must report ``tensor_bytes_copied == 0`` and staging
    within ``MAX_STAGED_SHARE`` of their tensor bytes on both ends,
    plus a clean arena after every drain.  ``egress_bytes_buffered``
    (what the asyncio transport copied into its write buffer instead of
    sending inline) is recorded, not gated.
    """
    workers = min(args.workers, 8)

    async def run(dims, perm, payload, expected, requests, rate=None):
        """One fresh-server run; closed loop when ``rate`` is None, else
        an open loop offering ``rate`` requests/s."""
        server = ServingServer(num_streams=args.streams)
        await server.start()
        client = ServingClient(
            server.host,
            server.port,
            pool_size=min(workers, 4),
            rng=random.Random(99),
        )
        await client.connect()
        loop = asyncio.get_running_loop()
        latencies = []
        wrong = 0

        async def one():
            nonlocal wrong
            reply = await client.execute(dims, perm, 8, payload=payload)
            wrong += not np.array_equal(reply["output"], expected)

        # Warm: compiled programs and arena blocks.
        await one()
        if rate is None:
            async def worker(n):
                for _ in range(n):
                    t0 = loop.time()
                    await one()
                    latencies.append(loop.time() - t0)

            # Capacity is a max-estimator — noise (GC pauses, CPU
            # contention) only ever *lowers* a closed-loop measurement.
            # Two measured passes, best sustained throughput wins.
            per_worker = requests // workers
            wall, throughput = 0.0, 0.0
            for _ in range(2):
                t0 = time.perf_counter()
                await asyncio.gather(
                    *(worker(per_worker) for _ in range(workers))
                )
                trial = time.perf_counter() - t0
                wall += trial
                throughput = max(throughput, per_worker * workers / trial)
            done = 2 * per_worker * workers
        else:
            interval = 1.0 / rate
            start = loop.time() + 0.05

            async def arrival(k):
                scheduled = start + k * interval
                delay = scheduled - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                await one()
                # Time in system from the *scheduled* arrival: client
                # queueing delay counts, exactly as an SLO would see it.
                latencies.append(loop.time() - scheduled)

            t0 = time.perf_counter()
            await asyncio.gather(*(arrival(k) for k in range(requests)))
            wall = time.perf_counter() - t0
            done = requests
            throughput = done / wall
        snap = server.serving_snapshot()
        await client.close()
        await server.drain(timeout=60.0)
        arena = server.arena.stats()
        await server.close()
        lat_ms = np.asarray(latencies) * 1e3
        return {
            "loop": "closed" if rate is None else "open",
            "requests": done,
            "wrong_outputs": wrong,
            "wall_s": round(wall, 3),
            "throughput_rps": round(throughput, 1),
            "offered_rps": None if rate is None else round(rate, 1),
            "latency_ms": {
                "p50": round(float(np.percentile(lat_ms, 50)), 3),
                "p99": round(float(np.percentile(lat_ms, 99)), 3),
            },
            "server_tensor_bytes_copied": snap["data_path"][
                "tensor_bytes_copied"
            ],
            "server_tensor_bytes_zero_copy": snap["data_path"][
                "tensor_bytes_zero_copy"
            ],
            "server_staged_bytes": snap["data_path"]["staged_bytes"],
            "server_egress_bytes_buffered": snap["data_path"][
                "egress_bytes_buffered"
            ],
            "client_tensor_bytes_copied": client.codec_stats.
            tensor_bytes_copied,
            "client_tensor_bytes_zero_copy": client.codec_stats.
            tensor_bytes_zero_copy,
            "client_staged_bytes": client.codec_stats.staged_bytes,
            "client_egress_bytes_buffered": client.codec_stats.
            egress_bytes_buffered,
            "arena_reuses": arena["reuses"],
            "arena_active_after_drain": arena["active_blocks"],
            "arena_leaked": arena["leaked"],
        }

    async def main():
        cases = {}
        rng = np.random.default_rng(7)
        for label, dims, perm in DATA_PATH_CASES:
            payload = rng.standard_normal(int(np.prod(dims)))
            # Paper convention: dims[0] is the fastest axis.
            expected = np.transpose(
                payload.reshape(dims[::-1]), perm_to_axes(perm)
            ).reshape(-1)
            closed = await run(
                dims, perm, payload, expected, args.requests_data
            )
            rate = OPEN_LOOP_LOAD * closed["throughput_rps"]
            opened = await run(
                dims, perm, payload, expected, args.requests_data, rate=rate
            )
            cases[label] = {
                "dims": list(dims),
                "perm": list(perm),
                "operand_mib": round(payload.nbytes / 2**20, 2),
                "closed": closed,
                "open": opened,
            }
        return cases

    return asyncio.run(main())


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def main() -> int:
    ap = bench_parser("serving load generator (ISSUE 6 acceptance bench)")
    ap.add_argument("--streams", type=int, default=CPUS,
                    help="server streams (default: the usable CPUs)")
    ap.add_argument("--workers", type=int, default=None,
                    help="closed-loop concurrency (default: mode-based)")
    ap.add_argument("--requests-latency", type=int, default=None)
    ap.add_argument("--requests-overload", type=int, default=None)
    ap.add_argument("--requests-drain", type=int, default=None)
    ap.add_argument("--requests-data", type=int, default=None,
                    help="requests per operand class and loop in the "
                         "data-path phase")
    args = ap.parse_args()

    smoke = args.smoke
    args.workers = args.workers or (8 if smoke else 32)
    args.requests_latency = args.requests_latency or (
        400 if smoke else 600_000
    )
    args.requests_overload = args.requests_overload or (
        300 if smoke else 400_000
    )
    args.requests_drain = args.requests_drain or (100 if smoke else 2_000)
    args.requests_data = args.requests_data or (24 if smoke else 400)

    keys = scaled_ttc_keys()
    print(
        f"{len(keys)} scaled TTC-suite keys, {len(TENANTS)} tenants, "
        f"{args.streams} streams"
    )

    t_start = time.perf_counter()
    latency = phase_latency(args, keys)
    print(
        f"latency: {latency['requests']} requests at "
        f"{latency['saturation_rps']:.0f} req/s — "
        f"p50 {latency['latency_ms']['p50']:.2f} ms, "
        f"p99 {latency['latency_ms']['p99']:.2f} ms, "
        f"p999 {latency['latency_ms']['p999']:.2f} ms"
    )

    overload = phase_overload(args, keys, latency["saturation_rps"])
    print(
        f"overload: {overload['requests']} requests at 2x concurrency — "
        f"shed {overload['shed_overloaded']} "
        f"({100 * overload['shed_rate']:.1f}%), "
        f"{overload['client_retries']} client retries, "
        f"0 failed, p99 {overload['latency_ms']['p99']:.2f} ms"
    )

    drain = phase_drain(args, keys)
    print(
        f"drain: {drain['inflight_at_drain']} inflight, "
        f"dropped {drain['dropped']}, "
        f"{'clean' if drain['drained_clean'] else 'TIMED OUT'} in "
        f"{drain['drain_s']:.2f} s, "
        f"post-drain refused: {drain['post_drain_refused']}, "
        f"leases outstanding: {drain['arena_active_after_drain']}"
    )

    data_path = phase_data_path(args, keys)
    for label, case in data_path.items():
        closed, opened = case["closed"], case["open"]
        print(
            f"data_path[{label}]: {closed['throughput_rps']:.0f} req/s "
            f"closed-loop; at {opened['offered_rps']:.0f} req/s offered, "
            f"p99 {opened['latency_ms']['p99']:.1f} ms; copied bytes: "
            f"{closed['server_tensor_bytes_copied']}, staged "
            f"{closed['server_staged_bytes']} / "
            f"{closed['client_staged_bytes']} B (server / client), "
            f"egress buffered "
            f"{closed['server_egress_bytes_buffered'] / 1e6:.1f} / "
            f"{closed['client_egress_bytes_buffered'] / 1e6:.1f} MB"
        )

    total_requests = (
        args.requests_latency
        + len(keys)  # latency warmup
        + args.requests_overload
        + drain["inflight_at_drain"]
        + 1
        + sum(
            run["requests"] + 1  # + warm request
            for c in data_path.values()
            for run in (c["closed"], c["open"])
        )
    )
    total_wall = time.perf_counter() - t_start
    print(f"total: {total_requests} requests in {total_wall:.1f} s")

    failures = []
    if overload["shed_overloaded"] == 0:
        failures.append("overload phase shed nothing at 2x saturation")
    if overload["client_retries"] == 0:
        failures.append("overload phase never engaged client backoff")
    if overload["max_queue_depth_seen"] > 4 * args.workers:
        failures.append(
            f"queue depth {overload['max_queue_depth_seen']} exceeded the "
            f"{4 * args.workers} bound"
        )
    if drain["dropped"] != 0:
        failures.append(f"drain dropped {drain['dropped']} inflight requests")
    if not drain["drained_clean"]:
        failures.append("drain timed out")
    if not drain["post_drain_refused"]:
        failures.append("post-drain request was not refused")
    if drain["arena_active_after_drain"] != 0 or drain["arena_leaked"] != 0:
        failures.append(
            f"drain left {drain['arena_active_after_drain']} active / "
            f"{drain['arena_leaked']} leaked arena leases"
        )
    for label, case in data_path.items():
        # The invariant gates run in smoke too, over both the closed-
        # and open-loop runs: any change that reintroduces a tensor
        # copy on the happy path fails CI.
        for loop_name in ("closed", "open"):
            res = case[loop_name]
            where = f"data_path[{label}].{loop_name}"
            if res["wrong_outputs"]:
                failures.append(
                    f"{where}: {res['wrong_outputs']} outputs differ from "
                    "np.transpose"
                )
            if res["server_tensor_bytes_copied"] != 0:
                failures.append(
                    f"{where}: server copied "
                    f"{res['server_tensor_bytes_copied']} tensor bytes"
                )
            if res["client_tensor_bytes_copied"] != 0:
                failures.append(
                    f"{where}: client copied "
                    f"{res['client_tensor_bytes_copied']} tensor bytes"
                )
            if res["server_tensor_bytes_zero_copy"] == 0:
                failures.append(
                    f"{where}: zero-copy byte counter never moved"
                )
            for end in ("server", "client"):
                staged = res[f"{end}_staged_bytes"]
                moved = res[f"{end}_tensor_bytes_zero_copy"]
                if staged > MAX_STAGED_SHARE * moved:
                    failures.append(
                        f"{where}: {end} staged {staged} bytes, above "
                        f"{MAX_STAGED_SHARE:.0%} of its {moved} "
                        "zero-copy tensor bytes"
                    )
            if res["arena_active_after_drain"] != 0 or res["arena_leaked"] != 0:
                failures.append(
                    f"{where}: {res['arena_active_after_drain']} active / "
                    f"{res['arena_leaked']} leaked leases after drain"
                )
    if not smoke and total_requests < 1_000_000:
        failures.append(
            f"full mode must replay >= 1M requests, got {total_requests}"
        )

    if not smoke:
        payload = {
            "bench": "serving_load",
            "total_requests": total_requests,
            "total_wall_s": round(total_wall, 1),
            "tenants": len(TENANTS),
            "distinct_keys": len(keys),
            "zipf_s": ZIPF_S,
            "config": {"streams": args.streams, "workers": args.workers},
            "latency": latency,
            "overload": overload,
            "drain": drain,
            "data_path": data_path,
            "env": env_stamp(gated=True),
        }
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULTS_PATH}")

    return gate("serving load gates", failures, smoke=smoke)


if __name__ == "__main__":
    sys.exit(main())
