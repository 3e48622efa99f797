"""Differential harness: one function evaluated in every model over a grid
of points, with a verdict per point; `parse_grid` reads a grid's text."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import FuelExhausted, NonEncodable, NotANumeral, ParseError, ValidationError
from .formats import print_nat

if TYPE_CHECKING:  # the models load when a grid runs, not with the command line
    from .lam import Term
    from .prf import PrfExpr
    from .tm import MachineSpec

DEFAULT_FUEL = 10 ** 6

AGREE, DISAGREE, INCONCLUSIVE = "Agree", "Disagree", "Inconclusive"

# the most points `parse_grid` lists: each point runs every model once
MAX_GRID_POINTS = 10_000


@dataclass
class EquivReport:
    """Per-point results of evaluating one function in every model."""

    grid: List[Tuple[int, ...]]
    results: Dict[Tuple[int, ...], Dict[str, Optional[int]]]
    verdicts: Dict[Tuple[int, ...], str]

    def lines(self) -> List[str]:
        """Machine-readable serialization: one ``point;model;value`` line per
        result, then one ``point;verdict;V`` line per point."""
        out = []
        for pt in self.grid:
            key = ",".join(map(str, pt))
            for model in sorted(self.results[pt]):
                val = self.results[pt][model]
                out.append(f"{key};{model};{'?' if val is None else print_nat(val)}")
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
                row.append("?" if v is None else print_nat(v))
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

    A cell is ``?`` when its run ends without a number: out of fuel, a
    normal form or a halted tape that holds no numeral, or a machine that
    does not Accept.  A point is Disagree when two numbers differ, Agree
    when every column gave the same number, and otherwise Inconclusive.  A
    ValidationError from any column propagates.  For bare S, the one
    function whose compiled machine has a single tape, the report gains a
    ``roundtrip`` column: that machine translated back to a recursive
    function.  A squeezed multitape machine carries separators and dotted
    glyphs, which `tm_to_prf` does not code.

    The machine runs under the unary numeric convention of `tm` ("Unary
    numeric convention"), which says where its answer is read.
    """
    from .lam import app, church_decode, church_encode
    from .prf import Named, Succ, arity_check, evaluate
    from .tm import run_numeric
    k = arity_check(prf)
    columns = {"prf": lambda pt: evaluate(prf, pt, fuel),
               "tm": lambda pt: run_numeric(tm, pt, fuel=fuel),
               "lam": lambda pt: church_decode(app(lam, *map(church_encode, pt)), fuel)}
    body = prf
    while isinstance(body, Named):
        body = body.definition
    if k == 1 and isinstance(body, Succ):  # the one compiled machine of one tape
        from .prf_to_tm import compile_prf_to_tm
        from .tm_to_prf import compile_tm_to_prf
        rt = compile_tm_to_prf(compile_prf_to_tm(prf)[0])
        columns["roundtrip"] = lambda pt: evaluate(rt, pt, fuel)

    results: Dict[Tuple[int, ...], Dict[str, Optional[int]]] = {}
    verdicts: Dict[Tuple[int, ...], str] = {}
    pts = [tuple(p) for p in grid]
    for pt in pts:
        row: Dict[str, Optional[int]] = {}
        for model, column in columns.items():
            try:
                got = column(pt)
            except (FuelExhausted, NotANumeral, NonEncodable):
                got = None
            row[model] = got if isinstance(got, int) else None  # an Outcome: no Accept
        numbers = {v for v in row.values() if v is not None}
        verdicts[pt] = (DISAGREE if len(numbers) > 1
                        else AGREE if None not in row.values() else INCONCLUSIVE)
        results[pt] = row
    return EquivReport(pts, results, verdicts)


def parse_grid(spec: str, k: int) -> List[Tuple[int, ...]]:
    """Every k-tuple over ``A..B`` (inclusive), in lexicographic order; a
    ValidationError, before any point is built, for an empty grid or one of
    more than `MAX_GRID_POINTS` points."""
    lo_s, _, hi_s = spec.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ParseError(f"grid must look like 0..4, got {spec!r}", line=1, column=1)
    if hi < lo:
        raise ValidationError(f"grid {spec!r} is empty")
    if (hi - lo + 1) ** k > MAX_GRID_POINTS:
        raise ValidationError(f"grid {spec!r} at arity {k} has more than "
                              f"MAX_GRID_POINTS = {MAX_GRID_POINTS} points")
    return list(product(range(lo, hi + 1), repeat=k))
