"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import asyncio
import math
import statistics

import numpy as np
import pytest

from compare import verdict
from harness import (
    TAIL_LADDER,
    CopyProbe,
    cold_keys,
    interleaved_mix,
    open_loop_latencies,
    percentile,
    poisson_arrivals,
    rng_for,
    scaled_ttc_keys,
    single_use_problems,
    tail_percentile,
    windowed_percentile,
    zipf_indices,
)
from tracing import Tracer, analyze, self_times


# ----------------------------------------------------------------------
# the tail rule and its sample count
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [20, 21, 39, 40, 99, 100, 101, 199, 200, 999, 1000, 9000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = list(range(n))
    p = tail_percentile(n)
    beyond = sum(v > percentile(values, p) for v in values)
    assert beyond >= 10
    higher = [q for q in TAIL_LADDER if q > p]
    if higher:
        assert sum(v > percentile(values, higher[0]) for v in values) < 10


def test_tail_unsupported_below_twenty_samples():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0


@pytest.mark.parametrize("n,p,k", [(80, 80.0, 1), (99, 80.0, 1), (100, 80.0, 2),
                                   (650, 90.0, 5), (3000, 90.0, 5), (250, 90.0, 2)])
def test_windowed_tail_keeps_ten_beyond_in_each_window(n, p, k):
    value, windows = windowed_percentile(list(range(n)), p)
    assert windows == k
    size = n // k
    assert size * (100 - p) / 100 >= 10
    assert value == statistics.median(
        percentile(list(range(i * n // k, (i + 1) * n // k)), p) for i in range(k)
    )


def test_windowed_tail_ignores_a_slowdown_in_one_window():
    steady = [1.0 + (i % 10) / 100 for i in range(1000)]
    slowed = steady[:800] + [v * 3 for v in steady[800:]]
    assert windowed_percentile(slowed, 90.0)[0] == windowed_percentile(steady, 90.0)[0]
    assert percentile(slowed, 90.0) > 2 * percentile(steady, 90.0)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 80) == 4.0
    assert percentile(values, 81) == 5.0
    assert percentile(values, 100) == 5.0


# ----------------------------------------------------------------------
# open-loop timing
# ----------------------------------------------------------------------


def test_open_loop_latency_runs_from_scheduled_send():
    due = [0.0, 0.1, 0.2]
    # The second request was sent late (a stall) and the third failed.
    done = [0.002, 0.150, None]
    lat = open_loop_latencies(due, done)
    assert lat[0] == pytest.approx(0.002)
    assert lat[1] == pytest.approx(0.050)
    assert lat[2] == math.inf


def test_failures_count_as_misses_in_the_tail():
    due = [float(i) for i in range(100)]
    done = [t + 0.001 for t in due]
    done[-5:] = [None] * 5
    lat = open_loop_latencies(due, done)
    assert percentile(lat, 50) == pytest.approx(0.001)
    assert percentile(lat, 95) == pytest.approx(0.001)
    assert percentile(lat, 96) == math.inf


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def span(sid, parent, name, layer, t0, t1, tid=1, attrs=None):
    return [sid, parent, name, layer, t0, t1, tid, None, attrs]


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, None, "bench.call", "bench", 0, 100),
        span(2, 1, "core.make_plan", "core", 10, 50),
        span(3, 2, "model.predict", "model", 20, 30),
        span(4, 2, "model.predict", "model", 25, 40),  # overlaps its sibling
        span(5, 1, "kernels.run", "kernels", 60, 120),  # runs past its parent
    ]
    own = self_times(spans)
    assert own == {1: 100 - 40 - 40, 2: 40 - 20, 3: 10, 4: 15, 5: 60}


def test_analyze_attributes_layers_and_coverage():
    spans = [
        span(1, None, "bench.call", "bench", 0, 100),
        span(2, 1, "core.make_plan", "core", 0, 60, attrs={"schema": "x", "candidates": 3}),
        span(3, 2, "gpusim.kernel_time", "gpusim", 10, 20),
        span(4, 1, "kernels.run", "kernels", 60, 90),
        span(5, None, "kernels.executor", "kernels", 200, 300),  # not a benchmark call
    ]
    report = analyze(spans, roots=("bench.call",))
    assert report["wall_ns"] == 100
    assert report["layer_self_ns"]["core"] == 50
    assert report["layer_self_ns"]["gpusim"] == 10
    assert report["layer_self_ns"]["kernels"] == 30
    assert report["coverage"] == pytest.approx(0.9)
    assert report["plans"] == [{"schema": "x", "candidates": 3, "ns": 60}]
    # Outside the measured window nothing counts, but the plan list
    # still covers the whole process.
    later = analyze(spans, roots=("bench.call",), window=(150, 400))
    assert later["wall_ns"] == 0 and later["layer_self_ns"]["core"] == 0
    assert len(later["plans"]) == 1


def test_analyze_adopts_worker_spans_and_pairs_decode():
    spans = [
        span(1, None, "serving.decode", "serving", 0, 5, tid=9, attrs={"msg": 77}),
        span(2, None, "serving.dispatch", "serving", 8, 100, tid=9, attrs={"msg": 77}),
        span(3, 2, "runtime.queue", "runtime", 20, 30, tid=4),
        span(4, 2, "runtime.execute", "runtime", 30, 80, tid=4),
        span(5, None, "kernels.run", "kernels", 35, 75, tid=4),  # worker thread
        span(6, None, "kernels.run", "kernels", 300, 310, tid=4),  # no job
    ]
    report = analyze(spans, roots=("serving.dispatch",))
    assert report["wall_ns"] == 100  # decode start to dispatch end
    assert report["unlinked"] == 1
    assert report["layer_self_ns"]["kernels"] == 40
    assert report["layer_self_ns"]["runtime"] == 10 + 10
    # serving: decode 5 + dispatch (92 - queue/execute 60) = 37; the
    # 3 ns between decode and dispatch are uncovered.
    assert report["layer_self_ns"]["serving"] == 5 + 32
    assert report["coverage"] == pytest.approx(97 / 100)


def test_tracer_keeps_concurrent_tasks_apart():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "kernels.run", "kernels")

    async def request(name):
        with tracer.span(name):
            await asyncio.sleep(0)
            leaf()
            await asyncio.sleep(0)
            leaf()

    async def main():
        await asyncio.gather(request("a"), request("b"))

    asyncio.run(main())
    roots = {s[2]: s[0] for s in tracer.spans if s[1] is None}
    assert set(roots) == {"a", "b"}
    for name, sid in roots.items():
        kids = [s for s in tracer.spans if s[1] == sid]
        assert len(kids) == 2 and all(s[7] == sid for s in kids)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def _first(gen, n):
    return [next(gen) for _ in range(n)]


def test_same_seed_same_problems_and_arrivals():
    a = _first(single_use_problems(rng_for(3, "single-use")), 200)
    b = _first(single_use_problems(rng_for(3, "single-use")), 200)
    c = _first(single_use_problems(rng_for(4, "single-use")), 200)
    assert a == b and a != c
    assert len(set(a)) == 200
    for shape, axes, dtype in a:
        assert 3 <= len(shape) <= 6
        assert 2**12 <= math.prod(shape) <= 2**16
        assert sorted(axes) == list(range(len(shape)))
        assert axes != tuple(range(len(shape)))
    assert {d for *_, d in a} == {"float32", "float64"}

    r1, r2 = rng_for(3, "serve-small"), rng_for(3, "serve-small")
    np.testing.assert_array_equal(
        poisson_arrivals(r1, 400, 5.0), poisson_arrivals(r2, 400, 5.0)
    )
    np.testing.assert_array_equal(zipf_indices(r1, 57, 500), zipf_indices(r2, 57, 500))
    counts = {"2MiB": 16, "8MiB": 4, "32MiB": 1}
    assert interleaved_mix(r1, counts, 3) == interleaved_mix(r2, counts, 3)


def test_poisson_arrivals_rate():
    offsets = poisson_arrivals(rng_for(1, "x"), 800, 10.0)
    assert 7600 < len(offsets) < 8400
    assert np.all(np.diff(offsets) > 0) and offsets[-1] < 10.0


def test_numpy_reference_transposes_the_probe_buffers():
    probe = CopyProbe(1 << 16)
    probe.src[:] = np.arange(probe.src.size)
    reference = probe.numpy_transpose((4, 8, 16), (2, 0, 1), "float32")
    reference()
    n = 4 * 8 * 16 * 4
    src = probe.src.view(np.uint8)[:n].view(np.float32).reshape(4, 8, 16)
    dst = probe.dst.view(np.uint8)[:n].view(np.float32).reshape(16, 4, 8)
    np.testing.assert_array_equal(dst, src.transpose(2, 0, 1))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_cold_keys_never_match_warm_keys(seed):
    warm = scaled_ttc_keys()
    assert len(warm) == 57
    cold = cold_keys(rng_for(seed, "serve-small"), warm, 400)
    assert len(set(cold)) == 400
    assert not set(cold) & set(warm)


# ----------------------------------------------------------------------
# comparison verdicts
# ----------------------------------------------------------------------


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert verdict(parent, parent, 0.1, "higher")[0] == "no change"
    faster = [v * 1.2 for v in parent]
    assert verdict(parent, faster, 0.1, "higher")[0] == "gain"
    assert verdict(parent, faster, 0.1, "lower")[0] == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(parent, noisy, 0.1, "higher")[0] == "unresolved"
    far = [v + 100 for v in noisy]
    assert verdict(parent, far, 0.1, "higher")[0] == "gain"
