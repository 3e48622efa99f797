"""Differential harness: one function evaluated in every model over a grid
of points, with a verdict per point."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ChuringError, FuelExhausted, NonEncodable
from .lam import Term, app, church_decode, church_encode
from .prf import PrfExpr, Succ, arity_check, evaluate, expand
from .prf_to_tm import compile_prf_to_tm
from .tm import MachineSpec, run_numeric
from .tm_to_prf import compile_tm_to_prf

DEFAULT_FUEL = 10 ** 6

AGREE, DISAGREE, INCONCLUSIVE = "Agree", "Disagree", "Inconclusive"


@dataclass
class EquivReport:
    """Per-point results of evaluating one function in every model."""

    name: str
    grid: List[Tuple[int, ...]]
    results: Dict[Tuple[int, ...], Dict[str, Optional[int]]]
    verdicts: Dict[Tuple[int, ...], str]
    counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.counts:
            for v in self.verdicts.values():
                self.counts[v] = self.counts.get(v, 0) + 1

    def lines(self) -> List[str]:
        """Machine-readable serialization: one ``point;model;value`` line per
        result, then one ``point;verdict;V`` line per point."""
        out = []
        for pt in self.grid:
            key = ",".join(map(str, pt))
            for model in sorted(self.results[pt]):
                val = self.results[pt][model]
                out.append(f"{key};{model};{'?' if val is None else val}")
            out.append(f"{key};verdict;{self.verdicts[pt]}")
        return out

    def table(self) -> str:
        models = sorted({m for r in self.results.values() for m in r})
        header = ["point"] + models + ["verdict"]
        rows = [header]
        for pt in self.grid:
            row = [",".join(map(str, pt))]
            for m in models:
                v = self.results[pt].get(m)
                row.append("?" if v is None else str(v))
            row.append(self.verdicts[pt])
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                         for r in rows)

    def counterexample(self) -> Optional[Tuple[int, ...]]:
        """Smallest disagreeing point (by sum, then lexicographically)."""
        bad = [p for p, v in self.verdicts.items() if v == DISAGREE]
        return min(bad, key=lambda p: (sum(p), p)) if bad else None


def equiv_grid(prf: PrfExpr, tm: MachineSpec, lam: Term,
               grid: Sequence[Sequence[int]], fuel: int = DEFAULT_FUEL) -> EquivReport:
    """Evaluate the same function in all three models over a grid of points.

    A point is Agree when every model that completed returned the same
    number, Disagree when two completed results differ, and Inconclusive when
    nothing completed.  For bare S, the one function whose compiled machine
    has a single tape, the report gains a ``roundtrip`` column: that machine
    translated back to a recursive function.  A squeezed multitape machine
    carries separators and dotted glyphs, which `tm_to_prf` does not code.

    The machine's result is read from tape k+1 when it has more than k
    tapes (the compiled-machine layout), else from tape 1.
    """
    k = arity_check(prf)
    tm_output_tape = k + 1 if tm.tapes > k else 1
    rt: Optional[PrfExpr] = None
    if k == 1 and isinstance(expand(prf), Succ):  # the one compiled machine of one tape
        rt = compile_tm_to_prf(compile_prf_to_tm(prf)[0])

    results: Dict[Tuple[int, ...], Dict[str, Optional[int]]] = {}
    verdicts: Dict[Tuple[int, ...], str] = {}
    pts = [tuple(p) for p in grid]
    for pt in pts:
        row: Dict[str, Optional[int]] = {}
        try:
            row["prf"] = evaluate(prf, pt, fuel)
        except (FuelExhausted, ChuringError):
            row["prf"] = None
        try:
            got = run_numeric(tm, pt, fuel=fuel, output_tape=tm_output_tape)
        except NonEncodable:  # the halted tape holds no numeral
            got = None
        row["tm"] = got if isinstance(got, int) else None
        try:
            row["lam"] = church_decode(app(lam, *map(church_encode, pt)), fuel)
        except ChuringError:
            row["lam"] = None
        if rt is not None:
            try:
                row["roundtrip"] = evaluate(rt, pt, fuel)
            except (FuelExhausted, ChuringError):
                row["roundtrip"] = None
        done = [v for v in row.values() if v is not None]
        if not done:
            verdicts[pt] = INCONCLUSIVE
        elif len(set(done)) == 1:
            verdicts[pt] = AGREE
        else:
            verdicts[pt] = DISAGREE
        results[pt] = row
    return EquivReport("equiv", pts, results, verdicts)
