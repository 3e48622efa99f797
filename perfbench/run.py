#!/usr/bin/env python3
"""The churing benchmark.

    python3 perfbench/run.py --workload tm-long --seed 1 --seconds 25 --trace 0

Builds the seeded job list of one workload, checks every job's result
against a plain-Python oracle, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-module
metrics of a traced run.  One client runs the jobs one after another.

A run has three phases:

1. set-up: import churing from ``src/`` of this checkout, parse the corpus,
   build the jobs and compile the fixed machines and terms.  It is timed in
   this process and, from a fresh interpreter, in four more processes.
2. a verification pass: every job once, with every check, including the
   work-count checks that cost a second run.  It also warms the caches.
3. timed passes over the same job list until ``--seconds`` have passed, at
   least three.  Each job's result is checked after its timer stops.  A
   job's time is its median over the passes, scaled by ``reference_loop``
   timed between the jobs to what it would be at a fixed machine speed.

``--record`` rewrites ``counts.json`` with the TM step and p.r.f. evaluation
count of every pool input; run it only on a commit whose counts are right.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tm-long", "lam-long", "compile-short", "smoke")
MIN_PASSES = 3
SETUP_SAMPLES = 5
REF_SECONDS = 0.01  # times are reported at the speed where reference_loop takes this
REF_EVERY = 0.25  # seconds between two timings of reference_loop in a pass


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str, seed: int, workdir: Path, counts=None):
    """Import churing, build the workload; returns (workload, set-up seconds
    at the reference speed, measured in this process)."""
    t0 = time.perf_counter()
    if not (SRC / "churing" / "tm.py").is_file():
        _die(f"no churing sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jobs

    if counts is None:
        counts = jobs.load_counts()
    if workload == "tm-long":
        wl = jobs.tm_long(seed, counts)
    elif workload == "lam-long":
        wl = jobs.lam_long(seed, counts)
    elif workload == "compile-short":
        wl = jobs.compile_short(seed, counts, workdir)
    else:
        wl = jobs.smoke(seed, counts, workdir)
    elapsed = time.perf_counter() - t0
    return wl, elapsed * speed_scale([reference_loop() for _ in range(7)])


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    r = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-probe"],
                       capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        _die(f"set-up probe failed: {r.stderr.strip()[-500:]}")
    return float(r.stdout.split()[-1])


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop does what churing's inner loops do: it builds tuples and small
    objects, looks them up in a dict, tests types and slices strings, and it
    builds and walks a tree of 2^12 leaves, as normalizing a mid-sized
    lambda term does.  It uses nothing from churing, so no change to churing
    can change it."""
    t = time.perf_counter()
    cells, acc = {}, 0
    for i in range(2000):
        key = (i % 97, "q%d" % (i % 13))
        cells[key] = _Cell(key, (i, i + 1))
        if isinstance(cells[key].value, tuple):
            acc += len(cells.get(key).value) + len("abcdef"[i % 5:] + "x")
    level = [_Cell(i, None) for i in range(1 << 12)]
    while len(level) > 1:
        level = [_Cell(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    stack = [level[0]]
    while stack:
        node = stack.pop()
        if isinstance(node.key, _Cell):
            stack += (node.key, node.value)
    return time.perf_counter() - t


def speed_scale(samples) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REF_SECONDS / statistics.median(samples)


class PassResult:
    def __init__(self):
        self.times = []
        self.ref = []  # timings of reference_loop between jobs
        self.failures = []
        self.gen_size = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(jobs, verify_all: bool = False, tracer=None) -> PassResult:
    """Run every job once; a job's time covers its call only, not its check."""
    res = PassResult()
    last_ref = -REF_EVERY
    for job in jobs:
        if time.perf_counter() - last_ref > REF_EVERY:
            res.ref.append(reference_loop())
            last_ref = time.perf_counter()
        t = time.perf_counter()
        try:
            result, reason = job.call(), None
        except Exception as ex:  # a crash is a failed job, not a failed run
            result, reason = None, f"{type(ex).__name__}: {ex}"
        res.times.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.paused = True
        if reason is None:
            try:
                reason = job.verify(result, job.expected)
                if reason is None and verify_all and job.probe is not None:
                    reason = job.probe(result)
                if reason is None and verify_all and job.gen_size is not None:
                    res.gen_size += job.gen_size(result)
            except Exception as ex:  # a result the check cannot read is wrong
                reason = f"check raised {type(ex).__name__}: {ex}"
        if tracer is not None:
            tracer.paused = False
        if reason is not None:
            res.failures.append(f"{job.family} [{job.arg}]: {reason}")
    return res


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_passes(jobs, seconds: float, traced: bool):
    """Timed passes until the deadline; with tracing, traced and untraced
    passes alternate.  Returns (untraced passes, traced passes, tracer)."""
    plain, spanned, tracer = [], [], None
    if traced:
        import jobs as jobs_mod
        import spans

        tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    need = 2 if traced else MIN_PASSES
    while time.perf_counter() < deadline or len(plain) < need or len(spanned) < need * traced:
        if traced and len(spanned) < len(plain):
            tracer.install({(jobs_mod, "run_proc"): "cli.proc"})
            try:
                spanned.append((run_pass(jobs, tracer=tracer), len(tracer.spans)))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(jobs))
    return plain, spanned, tracer


def traced_metrics(spanned, plain, tracer):
    import spans

    failures = []
    first_end = spanned[0][1]
    total = 0
    for s in tracer.spans[:first_end]:
        if s.name != "lam.normalize":
            continue
        n = s.info["fuel"] if not s.info["normal"] else spans.contractions(
            s.info["term"], s.info["fuel"])
        if n is None:
            failures.append("lam.normalize: contraction count differs from beta_step")
        else:
            total += n
    passes = len(spanned)
    proc_ms = [1000 * s.dur for s in tracer.spans if s.name == "cli.proc"]
    metrics = spans.per_module(tracer.spans, passes, total, proc_ms)
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p, _ in spanned)
                                   - statistics.median(p.wall for p in plain))
    shares = spans.self_times(tracer.spans)
    whole = sum(shares.values()) or 1.0
    print("self-time shares: " + ", ".join(f"{k} {v / whole:.3f}" for k, v in shares.items()))
    return metrics, failures


UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
         "ok_ratio": "ratio", "peak_rss_mb": "MB", "gen_size": "count"}


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
        ROOT / "BENCHMARK.json").is_file() else {}
    return {m["name"]: m["unit"] for m in spec.get("per_layer", [])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true",
                    help="rewrite counts.json from the current program")
    a = ap.parse_args(argv)
    if a.workload is None and not a.record:
        ap.error("--workload is required")

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if a.record:
            return record(workdir)
        wl, setup_s = setup(a.workload, a.seed, workdir)
        if a.setup_probe:
            print(f"{setup_s!r}")
            return 0
        return measure(a, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # not empty: other runs, or other build output
            pass


def measure(a, wl, setup_s: float) -> int:
    setups = [setup_s] + [setup_probe(a.workload, a.seed) for _ in range(SETUP_SAMPLES - 1)]
    first = run_pass(wl.jobs, verify_all=True)
    plain, spanned, tracer = timed_passes(wl.jobs, a.seconds, a.trace == 1)
    runs = [first] + plain + [p for p, _ in spanned]
    failures = [f for p in runs for f in p.failures]
    attempted = sum(len(p.times) for p in runs)
    # each job's median time over the timed passes, at the reference speed
    # measured over the same passes
    scale = speed_scale([r for p in plain for r in p.ref])
    best = [scale * statistics.median(times) for times in zip(*(p.times for p in plain))]
    print(f"workload {wl.name} seed {a.seed}: {len(wl.jobs)} jobs a pass, "
          f"{len(plain)} timed passes of " + " ".join(f"{p.wall:.2f}" for p in plain)
          + f" s measured; reference loop {1000 * REF_SECONDS / scale:.2f} ms")
    by_family = {}
    for job, t in zip(wl.jobs, best):
        n, total = by_family.get(job.family.split(":")[0], (0, 0.0))
        by_family[job.family.split(":")[0]] = (n + 1, total + t)
    for family, (n, total) in sorted(by_family.items(), key=lambda kv: -kv[1][1]):
        print(f"  {family:28} {n:4} jobs {1000 * total:10.1f} ms")
    if a.trace:
        metrics, more = traced_metrics(spanned, plain, tracer)
        failures += more
        attempted += len(more)
        units = per_layer_units()
        out = {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(best),
            "job_p50_ms": 1000 * statistics.median(best),
            "job_p90_ms": 1000 * percentile(best, 90),
            "ok_ratio": 1 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "gen_size": wl.gen_size + first.gen_size,
        }
        out = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


def record(workdir: Path) -> int:
    """Run every pool input once and write the counts it produced."""
    sys.path.insert(0, str(SRC))
    import jobs

    counts = jobs.Recorder()
    for wl in (jobs.tm_long(0, counts, record=True),
               jobs.lam_long(0, counts, record=True),
               jobs.compile_short(0, counts, workdir, record=True)):
        res = run_pass(wl.jobs, verify_all=True)
        if res.failures:
            for f in res.failures:
                print(f"FAILED {f}", file=sys.stderr)
            return 1
    jobs.COUNTS_FILE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in counts.values())} counts to {jobs.COUNTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
