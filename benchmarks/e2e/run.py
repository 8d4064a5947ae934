"""End-to-end benchmark: four workloads through repro's public surfaces.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR] [--smoke]

Each workload runs in fresh processes (``workloads.py``) with a private
HOME, XDG_CACHE_HOME, REPRO_RUNTIME_DIR, TMPDIR and server state
directory under a ``.e2e-*`` temporary directory in the checkout,
deleted afterwards.  Set-up runs :data:`SETUP_RUNS` times and
``setup_s`` is the median, scaled to a reference host speed
(:func:`run_workload`).

Every metric prints as ``workload.name value unit``; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics of ``BENCHMARK.json`` (with
``--trace 1``: its per-layer metrics instead).  ``--out DIR`` also
writes the full record of each workload to ``DIR/<workload>.json``
(``compare.py`` reads those).  The exit status is nonzero when an
output was wrong, a run was invalid, or a process failed.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import REFERENCE_OP_MS

E2E = Path(__file__).resolve().parent
ROOT = E2E.parent.parent
SRC = ROOT / "src"

#: Set-ups per run (the measured run's own plus set-up-only runs).
SETUP_RUNS = 5

#: ``--smoke`` scales the measured time by this and sets up once.
SMOKE_SCALE = 1 / 20

#: Each workload's processes must finish within this many seconds (a
#: normal one takes 25-35 s), so a hung run still exits well inside
#: three minutes.
RUN_BUDGET_S = 150.0

WORKLOADS = ("repeated-large", "single-use", "serve-small", "serve-large")


class ChildFailed(RuntimeError):
    pass


def _term_with_parent() -> None:
    """Child-side: SIGTERM when this process dies, so a killed run
    still unwinds its workload process (which reaps its server)."""
    ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


def run_child(workload: str, args, phase: str, tmp: Path, deadline: float) -> dict:
    """One fresh workload process; returns its record."""
    for sub in ("home", "cache", "state", "tmp"):
        (tmp / sub).mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        HOME=str(tmp / "home"),
        XDG_CACHE_HOME=str(tmp / "cache"),
        REPRO_RUNTIME_DIR=str(tmp / "state"),
        TMPDIR=str(tmp / "tmp"),
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
    )
    out = tmp / "result.json"
    cmd = [
        sys.executable,
        str(E2E / "workloads.py"),
        workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--phase", phase,
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    proc = subprocess.Popen(
        cmd, env=env, cwd=tmp / "tmp", preexec_fn=_term_with_parent
    )
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if rc != 0:
        server_log = tmp / "tmp" / "server.log"
        if server_log.is_file():
            sys.stderr.write(server_log.read_text(errors="replace")[-4000:])
        what = "exceeded the time budget" if rc is None else f"exited with status {rc}"
        raise ChildFailed(f"{workload} {phase} run {what}")
    with open(out) as f:
        return json.load(f)


def run_workload(workload: str, args, run_dir: Path, deadline: float) -> dict:
    """The measured run between set-up-only runs, half of them before
    it and half after, so the set-ups span the run's drift.

    ``setup_s`` is the median set-up time scaled to the host speed of
    :data:`REFERENCE_OP_MS`: each set-up's wall time times
    ``REFERENCE_OP_MS`` over the CPU reference op timed in its process
    just before it started.  The raw median is ``setup_wall_s``."""
    children = []

    def setup_only(k: int) -> None:
        tmp = run_dir / f"{workload}-setup{k}"
        children.append(run_child(workload, args, "setup", tmp, deadline))
        shutil.rmtree(tmp, ignore_errors=True)

    extra = 0 if args.smoke else SETUP_RUNS - 1
    for k in range(extra // 2):
        setup_only(k)
    tmp = run_dir / workload
    record = run_child(workload, args, "full", tmp, deadline)
    shutil.rmtree(tmp, ignore_errors=True)
    children.append(record)
    for k in range(extra // 2, extra):
        setup_only(k)
    wall = [c["setup_s"] for c in children]
    host_ms = [c["setup_ref_ms"] for c in children]
    record["setup_runs_s"], record["setup_ref_ms"] = wall, host_ms
    record["metrics"]["setup_s"] = statistics.median(
        s * REFERENCE_OP_MS / ms for s, ms in zip(wall, host_ms)
    )
    record["layers"]["setup_wall_s"] = statistics.median(wall)
    return record


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, spec: dict) -> None:
    """Print every metric of one workload as ``name value unit``."""
    wl = record["workload"]
    samples = record["samples"]
    print(f"# {wl}: {samples['ops']} x {samples['op']}, "
          f"tail = p{samples['tail_pct']:g} "
          f"(median of {samples['tail_windows']} windows)"
          + ("" if samples["tail_supported"] else ", fewer than 10 beyond"))
    for m in spec["end_to_end"]:
        name = m["name"]
        n = len(record["setup_runs_s"]) if name == "setup_s" else samples["ops"]
        print(f"{wl}.{name} {_fmt(record['metrics'][name])} {m['unit']} n={n}")
    # Per-layer metrics: an untraced run has those measured without spans.
    for m in spec["per_layer"]:
        if m["name"] in record["layers"]:
            print(f"{wl}.{m['name']} {_fmt(record['layers'][m['name']])} {m['unit']}")
    for key, value in sorted(record.get("validity", {}).items()):
        print(f"{wl}.validity.{key} {_fmt(value)}")
    for key, value in sorted(samples.get("per_rate", {}).items()):
        print(f"{wl}.{key} " + " ".join(f"{k}={_fmt(v)}" for k, v in value.items()))
    if record["trace"]:
        for layer, ms in record["trace_report"]["layer_self_ms"].items():
            print(f"{wl}.trace.{layer}.self_ms {_fmt(ms)} ms")
    print(f"{wl}.attempted {record['attempted']}  failed {record['failed']}")
    for failure in record["failures"]:
        print(f"{wl}.failure {failure}")


def result_line(records, spec: dict, trace: bool) -> dict:
    """The contract's last line; keys are prefixed by workload only when
    more than one workload ran."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = True
    for record in records:
        values = record["layers"] if trace else record["metrics"]
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        correct &= record["failed"] == 0 and record["validity"]["ok"]
        for m in section:
            value = values[m["name"]]
            if not math.isfinite(value):
                correct, value = False, None
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per workload (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="write each workload's full record to DIR/<workload>.json")
    ap.add_argument("--smoke", action="store_true",
                    help=f"1/{round(1 / SMOKE_SCALE)} of the measured time, one "
                         "set-up, checks only: no result line, no --out")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.smoke and args.out is not None:
        print("error: --smoke results are not measurements; drop --out",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke:
        args.seconds *= SMOKE_SCALE
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    # A SIGTERM unwinds like Ctrl-C: stop the workload, delete its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(E2E), quiet=1, maxlevels=0)
    # Inside the checkout: the benchmark writes nowhere else.
    run_dir = Path(tempfile.mkdtemp(prefix=".e2e-", dir=ROOT))
    records = []
    try:
        for wl in workloads:
            record = run_workload(wl, args, run_dir, deadline)
            missing = [
                m["name"] for m in spec["end_to_end"] if m["name"] not in record["metrics"]
            ]
            if args.trace:
                missing += [
                    m["name"] for m in spec["per_layer"] if m["name"] not in record["layers"]
                ]
            if missing:
                raise ChildFailed(f"{wl} reported no {', '.join(missing)}")
            report(record, spec)
            records.append(record)
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                with open(args.out / f"{wl}.json", "w") as f:
                    json.dump(record, f, indent=1, sort_keys=True)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = result_line(records, spec, bool(args.trace))
    if args.smoke:
        print("smoke: outputs and record shape OK" if result["correct"]
              else "smoke: FAILED")
    else:
        print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
