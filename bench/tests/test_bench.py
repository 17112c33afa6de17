"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests

Quick runs of every workload must be correct; tampered outputs must count
as failed; two traced runs of one seed must give identical counts.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sgdsc import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_is_correct(workload):
    res = result(run_bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result(run_bench(workload, 1)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def counts(res):
        return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def _drop_last_witness_pair(report):
    for check in report.get("checks", []):
        if check["name"] == "dsc" and check.get("witness"):
            check["witness"]["pairs"].pop()
    if "witness" in report:
        report["witness"]["pairs"].pop()


def _miscount_tables(report):
    if "tables" in report:
        report["tables"] += 1


@pytest.mark.parametrize("workload, tamper", [("check-large", _drop_last_witness_pair),
                                              ("enumerate-small", _miscount_tables)])
def test_tampered_output_counts_as_failed(tmp_path, monkeypatch, workload, tamper):
    jobs = workloads.make_jobs(workload, 3, str(tmp_path), quick=True)
    main = cli.main

    def tampered(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        report = json.loads(buf.getvalue())
        tamper(report)
        print(json.dumps(report))
        return rc

    _, _, honest = worker.run_pass(jobs)
    assert worker.failures(jobs, [[honest, 1]])[0] == 0
    monkeypatch.setattr(cli, "main", tampered)
    _, _, results = worker.run_pass(jobs)
    failed, reasons = worker.failures(jobs, [[results, 2]])
    assert failed > 0 and failed % 2 == 0 and reasons


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_json_states_tail_percentile(tmp_path, workload):
    jobs = workloads.make_jobs(workload, 0, str(tmp_path))
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}[workload]
    assert f"p{workloads.tail_percentile(len(jobs))} of {len(jobs)} jobs" in why


def test_times_at_nominal_speed_are_unscaled():
    nominal, start = calibrate.NOMINAL_S, calibrate.NOMINAL_START_S
    assert calibrate.scale_pass([0.5, 0.2], [nominal] * 3) == pytest.approx([0.5, 0.2])
    assert calibrate.scale_pass([0.5, 0.2], [2 * nominal] * 3) == pytest.approx([0.25, 0.1])
    setups = [(0.2, 0.1, nominal), (0.3, 0.1, 2 * nominal), (0.25, 0.05, nominal)]
    assert run.setup_seconds(setups, [start, start, 2 * start]) == pytest.approx(0.25)
    assert run.setup_seconds(setups, [2 * start]) == pytest.approx(0.15)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    done = run_bench("infinite-models", 0, cwd=tmp_path)
    assert done.returncode != 0 and not done.stdout.strip()


def test_worker_refuses_optimized_interpreter():
    done = subprocess.run([sys.executable, "-O", str(BENCH / "worker.py"), "--workload",
                           "infinite-models", "--seed", "0", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "ready" not in done.stdout
