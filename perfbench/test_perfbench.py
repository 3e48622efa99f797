"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They use the smoke workload, one tiny job per churing module.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=170)
    return r, (json.loads(r.stdout.splitlines()[-1]) if r.returncode == 0 else None)


@pytest.fixture
def smoke(tmp_path):
    return jobs.smoke(1, jobs.load_counts(), tmp_path)


def test_smoke_run_is_correct_and_quick():
    t = time.perf_counter()
    r, res = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert r.returncode == 0, r.stderr
    assert time.perf_counter() - t < 60
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    r, res = _bench("--workload", "smoke", "--seconds", "1", "--trace", "1")
    assert r.returncode == 0, r.stderr
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_pass_covers_every_module(smoke):
    tracer = spans.Tracer()
    tracer.install({(jobs, "run_proc"): "cli.proc"})
    try:
        res = run.run_pass(smoke.jobs, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not res.failures
    self_s = spans.self_times(tracer.spans)
    assert all(self_s[m] > 0 for m in spans.MODULES), self_s
    # the wrappers are gone again
    assert jobs.tm.run.__module__ == "churing.tm"
    assert jobs.cli.evaluate is jobs.prf.evaluate


def test_planted_wrong_value_is_a_failure(smoke):
    job = next(j for j in smoke.jobs if j.family.startswith("tm.run_numeric"))
    job.expected += 1
    res = run.run_pass(smoke.jobs, verify_all=True)
    assert len(res.failures) == 1 and "tm.run_numeric" in res.failures[0]


def test_planted_wrong_count_is_a_failure(tmp_path):
    counts = jobs.load_counts()
    counts["tm_steps"] = dict(counts["tm_steps"], **{"add:4,4": 1})
    wl = jobs.smoke(1, counts, tmp_path)
    res = run.run_pass(wl.jobs, verify_all=True)
    assert len(res.failures) == 1 and "recorded 1" in res.failures[0]


def test_crash_is_a_failure_not_an_abort(smoke):
    smoke.jobs[0].call = lambda: 1 // 0
    res = run.run_pass(smoke.jobs)
    assert len(res.failures) == 1 and "ZeroDivisionError" in res.failures[0]


def test_same_seed_same_jobs(tmp_path):
    a = jobs.tm_long(7, jobs.load_counts())
    b = jobs.tm_long(7, jobs.load_counts())
    c = jobs.tm_long(8, jobs.load_counts())
    key = lambda wl: [(j.family, j.arg) for j in wl.jobs]  # noqa: E731
    assert key(a) == key(b) != key(c)
    assert a.gen_size == c.gen_size


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r, _ = _bench("--workload", "tm-long", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert r.returncode != 0
    assert not r.stdout.strip()
