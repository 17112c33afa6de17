"""Benchmark worker: one fresh interpreter for one run.

Started by ``run.py`` with the checkout's ``src`` on ``sys.path``.  It
imports ``sgdsc.cli``, generates the workload's inputs and prints
``ready`` with the seconds since its first line ran; that is the set-up
``run.py`` times.  With ``--setup-only`` it then prints the median
``calibrate`` lap and exits; otherwise it runs passes over the fixed job
list as a closed loop (one client, one job at a time) until another pass
would take it past ``--seconds``, and at least ``workloads.MIN_PASSES``
passes.  With
``--trace`` it adds one traced pass.  A ``calibrate`` lap runs before the
first job of a pass and after each job, and every job's latency is scaled
by the laps around it.  Outputs are verified after the timed passes, and
one JSON line with the measurements is printed last.
"""

import sys
import time

STARTED = time.perf_counter()

if not __debug__:
    # byleen's certificate re-checks are assert statements; -O drops them.
    sys.exit("worker: refusing to run under python -O")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from sgdsc import cli  # noqa: E402
from sgdsc import byleen, finite, infinite  # noqa: E402

import calibrate  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    return rc, out.getvalue()


def _span(base, g, h, w1, w2):
    """What ``sg byleen span`` computes, without rendering the result."""
    m = byleen.TwoTransitiveMatrix(
        finite.cyclic_group(2) if base == "c2" else finite.trivial_monoid())
    expr = byleen.span_witness(m, byleen.reduce(m, verify.letters(g)),
                               byleen.reduce(m, verify.letters(h)),
                               *verify.letters((w1, w2)))
    factors = tuple(f if f[0] == byleen.GEN else ("diag", tuple(f[1].letters()))
                    for f in expr.factors)
    return 0, (expr.case, factors)


def _baer_levi(*specs):
    """rho-membership of two pairs of composites and of their product."""
    w = infinite.baer_levi_witness()

    def composite(spec):
        cur = w[spec[0]]
        for name in spec[1:]:
            cur = infinite.co_compose(cur, w[name])
        return cur

    f1, g1, f2, g2 = map(composite, specs)
    rho = w["rho_member"]
    return 0, (rho(f1, g1), rho(f2, g2),
               rho(infinite.co_compose(f1, f2), infinite.co_compose(g1, g2)))


# Laps a set-up-only worker runs after "ready" to time its Python speed.
SETUP_LAPS_S = 0.02

RUNNERS = {"cli": _cli, "span": _span, "baer-levi": _baer_levi}


def run_pass(jobs, tracer=None):
    """Run every job once; returns (job seconds, laps, (rc, output) per job),
    where ``laps`` holds the median ``calibrate`` lap timed before the first
    job and after each job."""
    times, laps, results = [], [calibrate.lap()], []
    for index, job in enumerate(jobs):
        if tracer:
            tracer.job = index
        start = time.perf_counter()
        try:
            result = RUNNERS[job.kind](*job.args)
        except Exception:  # a crash is a failed job; the loop goes on
            result = (None, traceback.format_exc())
        took = time.perf_counter() - start
        laps.append(calibrate.lap(took * calibrate.LAP_SHARE))
        times.append(took)
        results.append(result)
    return times, laps, results


def _record(passes, results):
    """Add a pass's results to ``passes``, a list of [results, times seen]."""
    for entry in passes:
        if entry[0] == results:
            entry[1] += 1
            return
    passes.append([results, 1])


def failures(jobs, passes):
    """Verify each distinct (job, rc, output) once; returns (failed, reasons)."""
    verifier = verify.Verifier()
    verdicts = {}
    failed, reasons = 0, []
    for results, times in passes:
        for index, (job, (rc, out)) in enumerate(zip(jobs, results)):
            key = (index, rc, out)
            if key not in verdicts:
                try:
                    verdicts[key] = (f"crashed: {out.splitlines()[-1]}" if rc is None
                                     else verifier.check(job, rc, out))
                except Exception as exc:  # malformed output is a failure, not a crash
                    verdicts[key] = f"unreadable output: {exc!r}"
            if verdicts[key] is not None:
                failed += times
                if len(reasons) < 10:
                    reasons.append(f"job {index} {job.kind} {' '.join(map(str, job.args))[:80]}: "
                                   f"{verdicts[key]}")
    return failed, reasons


def run(jobs, seconds, trace):
    timed, elapsed, passes = [], [], []
    while (len(timed) < workloads.MIN_PASSES
           or sum(elapsed) + statistics.median(elapsed) <= seconds):
        start = time.perf_counter()
        times, laps, results = run_pass(jobs)
        elapsed.append(time.perf_counter() - start)
        timed.append({"times": times, "laps": laps})
        _record(passes, results)
    report = {"passes": timed, "attempted": len(timed) * len(jobs),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            times, laps, results = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        report["traced"] = {"times": times, "laps": laps}
        report["attempted"] += len(jobs)
        _record(passes, results)
    report["failed"], report["failures"] = failures(jobs, passes)
    return report, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS_FILE",
                        help="add a traced pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true", help="tiny job lists")
    args = parser.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    work_root = os.path.join(bench_dir, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, workdir, args.quick)
        print("ready", time.perf_counter() - STARTED, flush=True)
        if args.setup_only:
            print(calibrate.lap(SETUP_LAPS_S))
            return 0
        report, tracer = run(jobs, args.seconds, args.trace is not None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["jobs"] = len(jobs)
    if tracer:
        report["layers"] = tracer.layers()
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "columns": ["id", "name", "start", "end", "parent", "job"]})
                     + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
