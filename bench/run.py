"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh worker interpreters (``bench/worker.py``) with the
checkout's ``src`` on ``sys.path``: ``SETUP_SAMPLES`` that only set up,
each after a bare interpreter start, then one that sets up and runs the
workload's job list as a closed loop.  ``setup_s`` is the median time to a
ready worker.  Times are scaled by reference work timed alongside them
(``calibrate``), so the shared host's changes of speed cancel out; the raw
wall-clock medians are on the line before the result.  With
``--trace 1`` the worker adds one traced pass and the per-layer metrics are
reported instead of the end-to-end ones; its spans go to
``bench/out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, holding the metrics
listed in ``BENCHMARK.json``.  The line before it records the environment,
the job count, the tail percentile and the failure fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracing import layer_metric

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SETUP_SAMPLES = 15
DEADLINE_S = 170


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "sgdsc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def start_worker(args, deadline, extra):
    """Start a worker and wait for "ready"; returns (process, raw set-up
    seconds, the part of them the worker spent running its own Python)."""
    env = {k: v for k, v in os.environ.items() if k not in ("SG_WINDOW", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    if args.quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    took = time.perf_counter() - t0
    if line[:1] != ["ready"]:
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, took, float(line[1])


def finish(proc, deadline):
    """Wait for a worker, killing it at the deadline; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def measure(args, spans_file):
    deadline = time.monotonic() + DEADLINE_S
    setups, starts = [], []
    for _ in range(SETUP_SAMPLES):
        starts.append(calibrate.interpreter_start())
        proc, took, own = start_worker(args, deadline, ["--setup-only"])
        lap = float(finish(proc, deadline))
        setups.append((took, own, lap))
    extra = ["--trace", str(spans_file)] if spans_file else []
    proc, _, _ = start_worker(args, deadline, extra)
    report = json.loads(finish(proc, deadline).splitlines()[-1])
    report["setups"], report["starts"] = setups, starts
    return report


def setup_seconds(setups, starts):
    """Median set-up time at nominal speed: process start scaled by bare
    interpreter starts, the worker's own Python by its laps."""
    start_speed = calibrate.NOMINAL_START_S / statistics.median(starts)
    return statistics.median(
        (took - own) * start_speed + calibrate.scale(own, lap)
        for took, own, lap in setups)


def job_latencies(report):
    """Each job's median latency over the timed passes, at nominal speed.

    The job list is a ladder of few, distinct costs, so a percentile over
    all samples lands at the edge of one job's samples and reads their
    extreme; over the jobs' medians it reads a typical time of one job.
    """
    passes = [calibrate.scale_pass(p["times"], p["laps"]) for p in report["passes"]]
    return [statistics.median(times) for times in zip(*passes)]


def end_to_end(report, percentile):
    lat = job_latencies(report)
    return {
        "setup_s": setup_seconds(report["setups"], report["starts"]),
        "wall_s": sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_tail_ms": statistics.quantiles(lat, n=100, method="inclusive")[percentile - 1] * 1e3,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def per_layer(report, names):
    traced = report["traced"]
    overhead = (sum(calibrate.scale_pass(traced["times"], traced["laps"]))
                - sum(job_latencies(report)))
    return {name: overhead if name == "bench.trace_overhead_s"
            else layer_metric(report["layers"], name) for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny job lists, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "sgdsc" / "cli.py").is_file():
        print(f"run.py: no sgdsc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    spans_file = None
    if args.trace:
        (BENCH / "out").mkdir(exist_ok=True)
        spans_file = BENCH / "out" / f"spans-{args.workload}.jsonl"
    try:
        report = measure(args, spans_file)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    percentile = workloads.tail_percentile(report["jobs"])
    values = (per_layer(report, [m["name"] for m in wanted]) if args.trace
              else end_to_end(report, percentile))
    print(json.dumps({
        "env": environment(args.seed), "workload": args.workload,
        "jobs_per_pass": report["jobs"], "passes": len(report["passes"]),
        "job_tail_percentile": percentile,
        "failed_frac": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "raw_medians": {"setup_s": statistics.median(took for took, _, _ in report["setups"]),
                        "interpreter_start_s": statistics.median(report["starts"]),
                        "wall_s": statistics.median(sum(p["times"]) for p in report["passes"])},
        "spans": str(spans_file.relative_to(ROOT)) if spans_file else None}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
