"""Pure helpers of the end-to-end benchmark: statistics, seeded inputs,
host facts and process plumbing.

Nothing here imports ``repro`` at module load, so the harness tests run
without planning anything.  Every generator takes a seeded
``numpy.random.Generator`` (or a seed) and nothing else, so the same
seed always yields the same problems, keys and arrival times.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: ``tail_ms`` is a median over at most this many windows of a run.
TAIL_WINDOWS = 5

#: Zipf exponent of the serve-small key popularity.
ZIPF_S = 1.1

#: Share of serve-small requests that use a key the server has never seen.
COLD_SHARE = 0.01

#: Element count the 57 fig-14 TTC keys are scaled to (f64: ~32 KiB).
SERVE_SMALL_VOLUME = 4096


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail_percentile(n: int, beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest ladder percentile with ``beyond`` samples past it.

    ``None`` when even the median is unsupported (fewer than
    ``2 * beyond`` samples).
    """
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= beyond:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it.

    Unlike interpolation this stays exact when failed requests are
    recorded as ``inf``: the tail reads ``inf`` only once failures
    reach it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def windowed_percentile(
    values: Sequence[float], p: float, windows: int = TAIL_WINDOWS
) -> Tuple[float, int]:
    """``(value, k)``: the median, over ``k`` consecutive windows of the
    time-ordered ``values``, of each window's ``p``th percentile.

    ``k`` is the most windows, up to ``windows``, that each keep
    :data:`MIN_BEYOND` samples past ``p``.  A host slowdown that covers
    fewer than half the windows then leaves the value alone, where it
    would move the percentile of the whole run.
    """
    min_len = math.ceil(MIN_BEYOND * 100.0 / (100.0 - p))
    n = len(values)
    k = max(1, min(windows, n // min_len))
    parts = [values[i * n // k : (i + 1) * n // k] for i in range(k)]
    return statistics.median(percentile(w, p) for w in parts), k


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def open_loop_latencies(
    due: Sequence[float], done: Sequence[Optional[float]]
) -> List[float]:
    """Latency of each open-loop request from its *scheduled* send time.

    A request that failed (``done`` is ``None``) counts as ``inf``, so
    it misses every latency limit; a stall that delays later sends is
    charged to every request it delayed.
    """
    return [
        math.inf if end is None else end - start for start, end in zip(due, done)
    ]


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


def single_use_problems(rng: np.random.Generator) -> Iterator[tuple]:
    """Endless distinct single-use problems ``(shape, axes, dtype)``.

    NumPy convention; 2^12 to 2^16 elements and a non-identity
    permutation.  Ranks 3-6 take turns, each once as float64 and once
    as float32, and every 8 problems the volume moves to the next of 8
    equal bands of log2(elements), so every run sees the same mix of
    rank, dtype and size however many problems it gets through; the
    seed picks the shape, permutation and values.  No problem repeats.
    """
    seen = set()
    i = 0
    while True:
        rank = 3 + (i // 2) % 4
        band = (i // 8) % 8
        log2_volume = 12.0 + (band + rng.uniform()) / 2.0
        weights = rng.dirichlet(np.ones(rank))
        shape = tuple(max(2, round(2.0 ** (log2_volume * w))) for w in weights)
        if not 2**12 <= math.prod(shape) <= 2**16:
            continue
        axes = tuple(int(a) for a in rng.permutation(rank))
        if axes == tuple(range(rank)):
            continue
        dtype = "float32" if i % 2 else "float64"
        key = (shape, axes, dtype)
        if key in seen:
            continue
        seen.add(key)
        i += 1
        yield key


def scaled_ttc_keys(volume: int = SERVE_SMALL_VOLUME) -> List[tuple]:
    """The 57 fig-14 TTC cases ``(dims, perm)`` scaled to ~``volume``
    elements, in the paper convention.

    Each case keeps its rank and permutation; the size variant nudges
    the first extent so all 57 stay distinct keys after scaling.
    """
    from repro.bench.suites import ttc_benchmark_suite

    keys = []
    for case in ttc_benchmark_suite():
        rank = len(case.dims)
        extent = max(2, round(volume ** (1.0 / rank)))
        variant = int(case.label.split("v")[1].split(" ")[0])
        keys.append(((extent + variant,) + (extent,) * (rank - 1), case.perm))
    if len(set(keys)) != len(keys):
        raise RuntimeError("scaled TTC keys collide")
    return keys


def cold_keys(
    rng: np.random.Generator, warm: Sequence[tuple], count: int
) -> List[tuple]:
    """``count`` distinct ``(dims, perm)`` keys, none of them in ``warm``.

    Each is a warm key with every extent nudged by -2..+2, so a cold
    request has the rank, permutation and size of a warm one and
    differs only in needing a new plan.
    """
    taken = set(warm)
    out = []
    while len(out) < count:
        dims, perm = warm[int(rng.integers(len(warm)))]
        dims = tuple(max(2, d + int(rng.integers(-2, 3))) for d in dims)
        if (dims, perm) in taken:
            continue
        taken.add((dims, perm))
        out.append((dims, perm))
    return out


def zipf_indices(rng: np.random.Generator, n_keys: int, size: int) -> np.ndarray:
    """Key index per request, zipf(:data:`ZIPF_S`) over a shuffled order."""
    order = rng.permutation(n_keys)
    weights = 1.0 / np.arange(1, n_keys + 1) ** ZIPF_S
    return order[rng.choice(n_keys, size=size, p=weights / weights.sum())]


def poisson_arrivals(
    rng: np.random.Generator, rate: float, duration: float
) -> np.ndarray:
    """Send offsets (seconds from phase start) of a Poisson process."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration]


def interleaved_mix(
    rng: np.random.Generator, counts: Dict[str, int], blocks: int
) -> List[str]:
    """``blocks`` shuffled blocks, each holding ``counts[c]`` of class c."""
    block = [c for c, n in counts.items() for _ in range(n)]
    out: List[str] = []
    for _ in range(blocks):
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out


def axes_of(perm: Sequence[int]) -> Tuple[int, ...]:
    """NumPy transpose axes of a paper-convention permutation."""
    r = len(perm)
    return tuple(r - 1 - perm[r - 1 - i] for i in range(r))


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------

_SYSFS_CACHE = "/sys/devices/system/cpu/cpu0/cache"


def _cache_bytes(level: int) -> Optional[int]:
    """Size of cpu0's unified/data cache at ``level`` from sysfs."""
    from repro.kernels.codegen import parse_cache_size

    try:
        entries = sorted(os.listdir(_SYSFS_CACHE))
    except OSError:
        return None
    for name in entries:
        path = os.path.join(_SYSFS_CACHE, name)
        try:
            with open(os.path.join(path, "level")) as f:
                if int(f.read()) != level:
                    continue
            with open(os.path.join(path, "type")) as f:
                if f.read().strip() == "Instruction":
                    continue
            with open(os.path.join(path, "size")) as f:
                return parse_cache_size(f.read())
        except (OSError, ValueError):
            continue
    return None


def host_facts() -> Dict[str, object]:
    """The host block every result record carries: ``env_stamp()`` of
    ``benchmarks/conftest.py`` plus the L2 and last-level cache sizes."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        from conftest import env_stamp
    finally:
        del sys.path[0]
    return {
        **env_stamp(gated=True),
        "l2_bytes": _cache_bytes(2),
        "llc_bytes": _cache_bytes(3) or _cache_bytes(2),
    }


class CopyProbe:
    """The host's copy bandwidth: ``np.copyto`` between two buffers of
    ``nbytes``, its own and touched by nothing else, timed whenever the
    workload calls it so the probes see the same host drift as the
    operations between them.  ``gbps`` counts read plus write, like a
    transpose.

    On a 2-vCPU host with a 300 MiB shared L3, back-to-back 32 MiB probes
    read anywhere from 11 to 20 GB/s, while 128 and 256 MiB probes read
    17-22 GB/s.
    """

    def __init__(self, nbytes: int = 128 << 20) -> None:
        self.src = np.ones(nbytes // 8)
        self.dst = np.empty_like(self.src)
        np.copyto(self.dst, self.src)  # fault the pages in, untimed
        self.seconds: List[float] = []

    def __call__(self, reps: int = 1) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            np.copyto(self.dst, self.src)
            self.seconds.append(time.perf_counter() - t0)

    def gbps(self) -> float:
        return 2 * self.src.nbytes / statistics.median(self.seconds) / 1e9

    def numpy_transpose(self, shape, axes, dtype) -> Callable[[], None]:
        """NumPy's own transpose of ``shape``/``axes`` from the start of
        the probe's source buffer into its destination buffer: the same
        work as one transpose call, on memory no call touches."""
        n = math.prod(shape) * np.dtype(dtype).itemsize
        src = self.src.view(np.uint8)[:n].view(dtype).reshape(shape)
        dst = self.dst.view(np.uint8)[:n].view(dtype).reshape([shape[a] for a in axes])
        return lambda: np.copyto(dst, src.transpose(axes))


def _reference_loop(n: int) -> int:
    total = 0
    for k in range(n):
        total += k * k
    return total


#: The CPU reference op's time (ms) that set-up times are scaled to.
REFERENCE_OP_MS = 0.2


class CpuProbe:
    """The host's interpreter speed: a fixed pure-Python loop (3000
    multiply-adds, about 0.2 ms), timed whenever the workload calls it
    so the probes see the same host drift as the operations between
    them.  No ``repro`` code runs in it, so a change to the program
    cannot move it.

    On a shared 2-vCPU host it read 0.14-0.16 ms or 0.20-0.25 ms,
    switching between the two every few seconds on both vCPUs at once.
    """

    def __init__(self, n: int = 3000) -> None:
        self.n = n
        self.seconds: List[float] = []

    def __call__(self, reps: int = 1) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            _reference_loop(self.n)
            self.seconds.append(time.perf_counter() - t0)

    def ms(self) -> float:
        return statistics.median(self.seconds) * 1e3


def host_speed_ms(reps: int = 50) -> float:
    """The CPU reference op's median over ``reps`` runs (about 10 ms),
    taken just before a set-up starts."""
    probe = CpuProbe()
    probe(reps)
    return probe.ms()


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` from ``/proc``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
