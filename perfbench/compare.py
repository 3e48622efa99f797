#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check the spread of one set.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RUNS_DIR

A set of runs is a directory of files named ``<workload>-<n>.json``, each
holding the standard output of one ``run.py`` run; the last line is the
result.  Runs are paired in file-name order, so name them in the order they
ran, alternating which side ran first.

For each workload and end-to-end metric the report gives each side's median
and quartiles and a verdict, at the bounds in ``BENCHMARK.json``:

- ``regression``: the new median is worse than the base median by more
  than the bound;
- ``unresolved``: a side's spread (quartile distance over median) is wider
  than the bound, unless every new run beats every base run;
- ``gain``: the new side wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the base
  side's quartile distance;
- ``same`` otherwise.

With one directory it prints each spread next to a third of its bound, the
steadiness a set of runs should reach.  ``setup_s`` spread is listed but is
not held to the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(d: Path):
    """{workload: [metrics of each run, in file-name order]}."""
    runs = defaultdict(list)
    for f in sorted(d.glob("*.json"), key=lambda p: (p.stem.rsplit("-", 1)[0], _num(p))):
        lines = f.read_text().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"skipping {f.name}: no result line", file=sys.stderr)
            continue
        runs[f.stem.rsplit("-", 1)[0]].append(
            {k: v["value"] for k, v in res["metrics"].items()})
    return runs


def _num(p: Path) -> int:
    tail = p.stem.rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, new, bound: float, lower_is_better: bool):
    sign = 1 if lower_is_better else -1
    better = lambda a, b: sign * (a - b) < 0  # noqa: E731  a better than b
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    if bmed and sign * (nmed - bmed) / abs(bmed) > bound:
        v = "regression"
    elif max(spread(base), spread(new)) > bound and not all(
            better(n, b) for n in new for b in base):
        v = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1 and better(nmed, bmed):
        v = "gain"
    else:
        v = "same"
    return v, wins, len(pairs)


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    if len(argv) == 1:
        runs = load_runs(Path(argv[0]))
        bad = 0
        print(f"{'workload':15} {'metric':12} {'n':>3} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for w, rs in sorted(runs.items()):
            for m in metrics:
                vals = [r[m["name"]] for r in rs]
                s, lim = spread(vals), m["bound"] / 3
                flag = "" if s < lim or m["name"] == "setup_s" else "  TOO WIDE"
                bad += bool(flag)
                print(f"{w:15} {m['name']:12} {len(vals):3} {statistics.median(vals):12.5g}"
                      f" {s:8.4f} {lim:8.4f}{flag}")
        return 1 if bad else 0
    base, new = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    print(f"{'workload':15} {'metric':12} {'base q1/med/q3':>32} {'new q1/med/q3':>32}"
          f" {'change':>8} {'wins':>6}  verdict")
    worst = 0
    for w in sorted(set(base) & set(new)):
        for m in metrics:
            b = [r[m["name"]] for r in base[w]]
            n = [r[m["name"]] for r in new[w]]
            v, wins, pairs = verdict(b, n, m["bound"], m["better"] == "lower")
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            worst = max(worst, v == "regression")
            print(f"{w:15} {m['name']:12} {'/'.join(f'{x:.4g}' for x in bq):>32}"
                  f" {'/'.join(f'{x:.4g}' for x in nq):>32} {change:+8.1%} {wins:>3}/{pairs:<2}"
                  f"  {v}")
    return 1 if worst else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
