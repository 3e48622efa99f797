"""Seeded job lists for the churing benchmark, with plain-Python oracles.

A job is one call into a public churing function.  Its expected value comes
from an oracle that does not use the code under test: arithmetic for
numbers, word predicates for deciders, ``normalize`` for terms reduced on a
Turing machine, and the known out-of-fuel verdict for divergent terms.  TM
step counts, p.r.f. evaluation counts and lambda contraction counts are
checked against ``counts.json``, recorded from the program with
``run.py --record``.

Every input is drawn from a finite pool that ``counts.json`` covers.  The
pools are fixed; the workload seed picks from them.  Where a family's cost
varies with the input, the pool is sorted by recorded work and cut into as
many strata as the family has jobs, and the seed draws one input from each
stratum, so that every seed asks for about the same amount of work.  The
order of the jobs is fixed, because the peak memory depends on it.

churing functions are always called through their module attribute
(``tm.run``, not a bound name), so the traced run's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from churing import (cli, formats, lam, lam_to_tm, prf, prf_to_lam, prf_to_tm, tm,
                     tm_to_prf, transform)
from churing.errors import Fuel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "corpus"
COUNTS_FILE = HERE / "counts.json"

TM_FUEL = 10**7
PRF_FUEL = 10**8
LAM_FUEL = 100_000
MU_FUELS = (1000, 4000)
ND_DEPTH = 10


@dataclass
class Job:
    """One timed call and the untimed check of its result.

    ``verify(result, expected)`` returns None when the result is right and a
    reason otherwise.  ``probe(result)`` is an optional further check that
    costs another run, so it runs on the verification pass only.
    ``gen_size`` counts what a compiler emitted, from the result.
    """

    family: str
    arg: str
    call: Callable[[], Any]
    expected: Any
    verify: Callable[[Any, Any], Optional[str]]
    probe: Optional[Callable[[Any], Optional[str]]] = None
    gen_size: Optional[Callable[[Any], int]] = None


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    gen_size: int = 0  # emitted at set-up; job results add to it


# ---------------------------------------------------------------------------
# Oracles and sizes


ARITH: Dict[str, Callable[..., int]] = {
    "id": lambda a: a,
    "succ": lambda a: a + 1,
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "exp": lambda a, b: a**b,
    "pred": lambda a: max(a - 1, 0),
    "sg": lambda a: int(a > 0),
    "monus": lambda a, b: max(a - b, 0),
    "absdiff": lambda a, b: abs(a - b),
    "eq": lambda a, b: int(a == b),
    "lt": lambda a, b: int(a < b),
    "divides": lambda d, m: int(m == 0) if d == 0 else int(m % d == 0),
    "div": lambda m, d: m // d if d else 0,
    "mod": lambda m, d: m % d if d else m,
    "pow2": lambda n: 2**n,
    "pow3": lambda n: 3**n,
}


def onon_member(w: str) -> bool:
    n = len(w) // 2
    return w == "0" * n + "1" * n


def church_value(t) -> Optional[int]:
    """The n of a term \\f.\\z. f^n z, read without churing's decoder."""
    if not (isinstance(t, lam.Abs) and isinstance(t.body, lam.Abs)):
        return None
    f, z, body = t.param, t.body.param, t.body.body
    if f == z:
        return None
    n = 0
    while isinstance(body, lam.App) and isinstance(body.fn, lam.Var) and body.fn.name == f:
        body, n = body.arg, n + 1
    return n if isinstance(body, lam.Var) and body.name == z else None


def term_nodes(t) -> int:
    n, stack = 0, [t]
    while stack:
        u = stack.pop()
        n += 1
        if isinstance(u, lam.App):
            stack += (u.fn, u.arg)
        elif isinstance(u, lam.Abs):
            stack.append(u.body)
    return n


def prf_nodes(e) -> int:
    """Distinct nodes of a p.r.f. expression, each shared node once."""
    seen, stack = set(), [e]
    while stack:
        u = stack.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if isinstance(u, prf.Named):
            stack.append(u.definition)
        elif isinstance(u, prf.Compose):
            stack += (u.g, *u.hs)
        elif isinstance(u, prf.PrimRec):
            stack += (u.g, u.h)
        elif isinstance(u, prf.Mu):
            stack.append(u.g)
    return len(seen)


def tm_rules(m) -> int:
    return sum(len(targets) for targets in m.delta.values())


# ---------------------------------------------------------------------------
# Recorded counts


def load_counts() -> Dict[str, Dict[str, int]]:
    if COUNTS_FILE.exists():
        return json.loads(COUNTS_FILE.read_text())
    return {}


class Recorder(dict):
    """Counts table that records what it is asked to check (``--record``)."""


def _count_check(kind: str, key: str, counts, got: int) -> Optional[str]:
    if isinstance(counts, Recorder):
        counts.setdefault(kind, {})[key] = got
        return None
    want = counts.get(kind, {}).get(key)
    if want is None:
        return f"no recorded {kind} for {key}"
    if got != want:
        return f"{kind} {got} != recorded {want}"
    return None


def stratified(rng: Optional[random.Random], pool: list, cost: Callable[[Any], float],
               k: int) -> list:
    """k draws from pool, one from each of k strata of near-equal cost; the
    middle of each stratum when rng is None."""
    ranked = sorted(pool, key=cost)
    bounds = [round(i * len(ranked) / k) for i in range(k + 1)]
    strata = [ranked[bounds[i]:max(bounds[i + 1], bounds[i] + 1)] for i in range(k)]
    return [st[len(st) // 2] if rng is None else rng.choice(st) for st in strata]


def _words(family: str, n: int, lengths: range, alphabet: str) -> List[str]:
    r = random.Random(f"pool:{family}")
    return ["".join(r.choice(alphabet) for _ in range(r.choice(lengths))) for _ in range(n)]


def _read(name: str) -> str:
    return (CORPUS / name).read_text()


# ---------------------------------------------------------------------------
# tm-long: a few machines, each run on many inputs, with long runs


TM_NUMERIC = {  # function -> (argument pool, jobs per pass)
    "add": (list(itertools.product(range(4, 11), repeat=2)), 5),
    "mul": (list(itertools.product(range(2, 6), repeat=2)), 5),
    "monus": (list(itertools.product(range(4, 11), repeat=2)), 5),
    "exp": ([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1)], 5),
    "lt": (list(itertools.product(range(3, 8), repeat=2)), 5),
    "eq": (list(itertools.product(range(3, 8), repeat=2)), 5),
    "absdiff": (list(itertools.product(range(3, 8), repeat=2)), 5),
}


def _onon_pool() -> List[str]:
    return (["0" * n + "1" * n for n in range(18, 38)]
            + ["0" * n + "1" * (n - 1) for n in range(19, 39)])


def _nd_pool() -> List[str]:
    # a 7-letter prefix with no "11" that ends in 0, then "11": the only
    # accepting guess is at the end, so every word explores a similar tree
    return ["".join(p) + "11" for p in itertools.product("01", repeat=7)
            if "11" not in "".join(p) and p[-1] == "0"]


def _reduce_pool() -> List[tuple]:
    pool = [("succ", n) for n in range(3, 9)]
    pool += [(op, m, n) for op in ("add", "mul") for m in range(2, 6) for n in range(2, 6)]
    return pool


def _reduce_cost(spec: tuple) -> int:
    op, *nums = spec
    return nums[0] + 1 if op == "succ" else ARITH[op](*nums)


def tm_pools() -> Dict[str, list]:
    return {
        "onon": _onon_pool(),
        "ends1": _words("ends1", 40, range(200, 301), "01"),
        "copier": _words("copier", 40, range(200, 301), "ab"),
        "even_as": _words("even_as", 40, range(300, 501), "ab"),
        "copier_single": _words("copier_single", 40, range(12, 28), "ab"),
        "nd": _nd_pool(),
        "reduce": _reduce_pool(),
    }


def _numeric_job(fn: str, machine, layout, args, counts) -> Job:
    key = f"{fn}:{','.join(map(str, args))}"

    def verify(got, want):
        return None if got == want else f"{fn}{args} = {got!r}, want {want}"

    def probe(_):
        out = tm.run(machine, "", TM_FUEL, start=tm.numeric_start(machine, args))
        return _count_check("tm_steps", key, counts, out.final.steps_taken)

    return Job(f"tm.run_numeric:{fn}", key,
               lambda: tm.run_numeric(machine, args, TM_FUEL, output_tape=layout.output_tape),
               ARITH[fn](*args), verify, probe=probe)


def _decider_job(family: str, machine, word: str, accepts: bool, counts,
                 tape2: Optional[str] = None, host=None) -> Job:
    key = f"{family}:{word}"

    def verify(out, want):
        if out.accepted != want:
            return f"{family} verdict {out.tag} on {word!r}"
        if host is not None and transform.single_tape_segments(host, out.final) != [word, word]:
            return f"{family} tapes wrong on {word!r}"
        if tape2 is not None and out.final.tapes[1].content() != tape2:
            return f"{family} copy wrong on {word!r}"
        return _count_check("tm_steps", key, counts, out.final.steps_taken)

    return Job(f"tm.run:{family}", key, lambda: tm.run(machine, word, TM_FUEL), accepts, verify)


def _reduce_job(comb, spec: tuple) -> Job:
    op, *nums = spec
    term = lam.app(comb[op], *[lam.church_encode(n) for n in nums])
    want_n = {"succ": lambda n: n + 1, "add": ARITH["add"], "mul": ARITH["mul"]}[op](*nums)

    def verify(got, want):
        if church_value(got) != want:
            return f"reduce_on_tm {spec} gave {lam.render(got)}"
        ref = lam.normalize(term, LAM_FUEL)
        if not (ref.normal and lam.alpha_eq(ref.term, got)):
            return f"reduce_on_tm {spec} differs from normalize"
        return None

    return Job("lam_to_tm.reduce_on_tm", ":".join(map(str, spec)),
               lambda: lam_to_tm.reduce_on_tm(term), want_n, verify)


def _nd_job(machine, word: str) -> Job:
    want = transform.ACCEPT if "11" in word else transform.NOT_FOUND

    def verify(got, want):
        return None if got == want else f"nd_run {word!r} = {got}"

    return Job("transform.nd_run", word, lambda: transform.nd_run(machine, word, ND_DEPTH),
               want, verify)


def _dfa_job(dfa, word: str) -> Job:
    def verify(got, want):
        return None if got == want else f"dfa_accepts {word!r} = {got}"

    return Job("transform.dfa_accepts", word, lambda: transform.dfa_accepts(dfa, word),
               word.count("a") % 2 == 0, verify)


def tm_long(seed: int, counts, record: bool = False) -> Workload:
    """Record mode lists every pool entry once instead of a seeded draw."""
    rng = random.Random(f"tm-long:{seed}")
    steps = counts.get("tm_steps", {})
    comb = formats.parse("lam", _read("combinators.lam"))
    machines = {n: formats.parse("tm", _read(f"{n}.tm"))
                for n in ("onon", "ends1", "copier", "even_as", "contains11_guesser")}
    compiled = {fn: prf_to_tm.compile_prf_to_tm(prf.stdlib(fn)) for fn in TM_NUMERIC}
    single = transform.to_single_tape(machines["copier"])
    gen = sum(tm_rules(m) for m, _ in compiled.values()) + tm_rules(single)
    pools = tm_pools()

    def draw(pool, k, cost=lambda x: 0):
        return list(pool) if record else stratified(rng, pool, cost, k)

    jobs: List[Job] = []
    for fn, (pool, k) in TM_NUMERIC.items():
        m, layout = compiled[fn]
        for args in draw(pool, k, lambda a, fn=fn: steps.get(f"{fn}:{a[0]},{a[1]}", 0)):
            jobs.append(_numeric_job(fn, m, layout, args, counts))

    def wcost(family):
        return lambda w: steps.get(f"{family}:{w}", 0)

    for w in draw(pools["onon"], 10, wcost("onon")):
        jobs.append(_decider_job("onon", machines["onon"], w, onon_member(w), counts))
    for w in draw(pools["ends1"], 12, wcost("ends1")):
        jobs.append(_decider_job("ends1", machines["ends1"], w, w.endswith("1"), counts))
    for w in draw(pools["copier"], 12, wcost("copier")):
        jobs.append(_decider_job("copier", machines["copier"], w, True, counts, tape2=w))
    for w in draw(pools["copier_single"], 10, wcost("copier_single")):
        jobs.append(_decider_job("copier_single", single, w, True, counts,
                                 host=machines["copier"]))
    for w in draw(pools["even_as"], 12, len):
        jobs.append(_dfa_job(machines["even_as"], w))
    if not record:
        for spec in draw(pools["reduce"], 8, _reduce_cost):
            jobs.append(_reduce_job(comb, spec))
        for w in draw(pools["nd"], 2, lambda w: w.count("1")):
            jobs.append(_nd_job(machines["contains11_guesser"], w))
    return Workload("tm-long", jobs, gen)


# ---------------------------------------------------------------------------
# lam-long: normal-order reduction of large terms


LAM_ARITH = {  # function -> (argument pool, seeded jobs per pass)
    "add": (list(itertools.product(range(1, 7), repeat=2)), 6),
    "pred": ([(n,) for n in range(1, 13)], 6),
    "sg": ([(n,) for n in range(0, 13)], 6),
}
# The reductions whose cost is irregular in their arguments are the same on
# every seed.  They and the two divergent runs are the heaviest jobs and more
# than a tenth of them, so the seed does not move the 90th percentile.
LAM_FIXED = [("mul", (2, 3)), ("mul", (3, 2)),
             ("eq", (5, 5)), ("eq", (4, 4)), ("eq", (2, 3)), ("eq", (1, 2)),
             ("absdiff", (5, 5)), ("absdiff", (4, 5)), ("absdiff", (5, 4)), ("absdiff", (3, 3)),
             ("monus", (6, 6)), ("monus", (6, 5)), ("monus", (4, 4)),
             ("lt", (5, 5)), ("lt", (5, 4)), ("lt", (4, 5))]

DIVERGENT = "Mu C S (Z 2)"

# beta_eq laws over combinators.lam: (name, arity, lhs builder, value of the
# normal form); each law's arguments come from LAW_ARGS[arity]
LAWS = [
    ("skk", 1, lambda c, x: lam.app(c["s"], c["k"], c["k"], x), lambda x: x),
    ("add", 2, lambda c, x, y: lam.app(c["add"], x, y), lambda x, y: x + y),
    ("mul", 2, lambda c, x, y: lam.app(c["mul"], x, y), lambda x, y: x * y),
    ("mul3", 3, lambda c, x, y, z: lam.app(c["mul"], x, lam.app(c["mul"], y, z)),
     lambda x, y, z: x * y * z),
    ("succ", 1, lambda c, x: lam.app(c["succ"], x), lambda x: x + 1),
    ("fst", 2, lambda c, x, y: lam.app(c["fst"], lam.app(c["pair"], x, y)), lambda x, y: x),
    ("ck", 2, lambda c, x, y: lam.app(c["c"], c["k"], x, y), lambda x, y: y),
    ("w", 1, lambda c, x: lam.app(c["w"], c["mul"], x), lambda x: x * x),
    ("b", 1, lambda c, x: lam.app(c["b"], c["succ"], c["succ"], x), lambda x: x + 2),
]
LAW_ARGS = {1: [(n,) for n in range(4, 21)],
            2: list(itertools.product(range(4, 16), repeat=2)),
            3: list(itertools.product(range(3, 7), repeat=3))}
LAW_JOBS = 10  # per law and pass; every fourth probe expects DISTINCT


def beta_contractions(term, cap: int) -> Optional[int]:
    """Contractions to normal form by iterating beta_step, the small
    reference reducer; None past cap."""
    n = 0
    while (nxt := lam.beta_step(term)) is not None:
        term, n = nxt, n + 1
        if n > cap:
            return None
    return n


def normalize_spends(term, n: int) -> bool:
    """normalize reaches the normal form with exactly n contractions of fuel."""
    return lam.normalize(term, n).normal and not (n > 0 and lam.normalize(term, n - 1).normal)


def _lam_arith_job(fn: str, term, args, counts) -> Job:
    key = f"{fn}:{','.join(map(str, args))}"
    applied = lam.app(term, *[lam.church_encode(a) for a in args])

    def verify(got, want):
        return None if got == want else f"lambda {fn}{args} = {got}, want {want}"

    def probe(_):
        if isinstance(counts, Recorder):
            return _count_check("lam_contractions", key, counts,
                                beta_contractions(applied, LAM_FUEL))
        want = counts.get("lam_contractions", {}).get(key)
        if want is None or not normalize_spends(applied, want):
            return f"normalize does not spend the recorded {want} contractions"
        return None

    return Job(f"lam.church_decode:{fn}", key, lambda: lam.church_decode(applied, LAM_FUEL),
               ARITH[fn](*args), verify, probe=probe)


def _mu_job(term, arg: int, fuel: int) -> Job:
    applied = lam.app(term, lam.church_encode(arg))

    def verify(got, want):
        return None if got.normal == want else f"divergent mu normalized at fuel {fuel}"

    return Job("lam.normalize:mu", f"mu:{arg}:{fuel}", lambda: lam.normalize(applied, fuel),
               False, verify)


def _law_job(comb, law, args, negate: bool) -> Job:
    name, _, lhs, value = law
    want_n = value(*args) + (1 if negate else 0)
    left = lhs(comb, *[lam.church_encode(a) for a in args])
    right = lam.church_encode(want_n)
    want = lam.DISTINCT if negate else lam.EQUAL

    def verify(got, want):
        return None if got == want else f"beta_eq {name}{args} = {got}, want {want}"

    return Job(f"lam.beta_eq:{name}", f"{name}:{args}:{int(negate)}",
               lambda: lam.beta_eq(left, right, LAM_FUEL), want, verify)


def lam_long(seed: int, counts, record: bool = False) -> Workload:
    """Record mode lists every compiled-stdlib input once, and nothing else."""
    rng = random.Random(f"lam-long:{seed}")
    comb = formats.parse("lam", _read("combinators.lam"))
    terms = {fn: prf_to_lam.compile_prf_to_lambda(prf.stdlib(fn))
             for fn in {*LAM_ARITH, *(fn for fn, _ in LAM_FIXED)}}
    mu = prf_to_lam.compile_prf_to_lambda(formats.parse("prf", DIVERGENT))
    gen = sum(term_nodes(t) for t in terms.values()) + term_nodes(mu)
    jobs: List[Job] = []
    work = counts.get("lam_contractions", {})
    for fn, (pool, k) in LAM_ARITH.items():
        picks = list(pool) if record else stratified(
            rng, pool, lambda a, fn=fn: work.get(f"{fn}:{','.join(map(str, a))}", 0), k)
        jobs += [_lam_arith_job(fn, terms[fn], args, counts) for args in picks]
    jobs += [_lam_arith_job(fn, terms[fn], args, counts) for fn, args in LAM_FIXED]
    if record:
        return Workload("lam-long", jobs, gen)
    # the argument changes the cost per contraction, so it is fixed
    jobs += [_mu_job(mu, 2, fuel) for fuel in MU_FUELS]
    for law in LAWS:  # the same on every seed: they hold the median job
        picks = stratified(None, LAW_ARGS[law[1]], lambda a, law=law: law[3](*a), LAW_JOBS)
        jobs += [_law_job(comb, law, args, negate=i % 4 == 3) for i, args in enumerate(picks)]
    return Workload("lam-long", jobs, gen)


# ---------------------------------------------------------------------------
# compile-short: many distinct inputs, each used once, with short runs


TM_FITS = ("id", "add", "mul", "exp", "pred", "sg", "monus", "absdiff", "eq", "lt",
           "pow2", "pow3")  # stdlib functions within prf_to_tm's 16 tapes
EVAL_POOLS = {  # evaluate(expand(stdlib(f))) argument pools, jobs per pass
    "div": (list(itertools.product(range(10, 21), range(3, 8))), 1),
    "mod": (list(itertools.product(range(8, 17), range(3, 6))), 1),
    "divides": (list(itertools.product(range(3, 7), range(20, 41))), 1),
}
# Only inputs of 1.5e5 to 3e5 recorded evaluations are drawn.  Every
# evaluation job then lies well above the 90th percentile of the workload's
# latencies, and with few of them that percentile falls among jobs that are
# the same on every seed.
EVAL_BAND = (150_000, 300_000)
LAM_CHECKED = ("id", "succ", "add", "mul", "pred", "sg", "monus", "absdiff", "eq", "lt")
RT_INPUTS = range(0, 2)
SINGLE_TMS = ("copier.tm", "zero2_compiled.tm")  # corpus machines of 2 tapes
EQUIV_FNS = ("add", "pred", "sg", "monus", "id")
CLI_FILES = ("arith.prf", "succ.prf", "first_at_least.prf", "onon.tm", "copier.tm",
             "even_as.tm", "combinators.lam", "example_term.lam")


def _programs() -> Dict[str, str]:
    """Source text of every p.r.f. the workload compiles, by name."""
    progs = {f"stdlib:{n}": formats.print_source("prf", prf.stdlib(n)) for n in prf.stdlib_names()}
    progs["corpus:succ"] = _read("succ.prf")
    progs["corpus:first_at_least"] = _read("first_at_least.prf")
    arith = formats.parse("prf", _read("arith.prf"))
    for name in arith:
        progs[f"corpus:arith.{name}"] = formats.print_source("prf", {name: arith[name]})
    return progs


def _main_of(obj):
    return obj[next(reversed(obj))] if isinstance(obj, dict) else obj


def _text_check(kind: str):
    """verify: the result, printed if it is an object, equals the expected text."""
    def verify(got, want):
        if not isinstance(got, str):
            got = formats.print_source(kind, _main_of(got))
        return None if got == want else f"{kind} text changed on round trip"
    return verify


def _numeric_check(name: str, oracle, points, run):
    def verify(got, want):
        for p in points:
            if run(got, p) != oracle(*p):
                return f"compiled {name} wrong at {p}"
        return None
    return verify


def _tm_value(compiled, p):
    m, layout = compiled
    return tm.run_numeric(m, p, TM_FUEL, output_tape=layout.output_tape)


def _lam_value(term, p):
    r = lam.normalize(lam.app(term, *map(lam.church_encode, p)), LAM_FUEL)
    return church_value(lam.canonical_binders(r.term)) if r.normal else None


def _program_jobs(name: str, text: str) -> List[Job]:
    """Parse a p.r.f.; compile it to a TM and to a lambda term; print and
    re-parse each; squeeze the TM onto one tape where it fits."""
    e = _main_of(formats.parse("prf", text))
    canon = formats.print_source("prf", e)
    short = name.split(":")[1].split(".")[-1]
    oracle = ARITH.get(short)
    points = list(itertools.product(range(3), repeat=prf.arity_check(e)))[:4]
    jobs = [Job("formats.parse:prf", name, lambda: formats.parse("prf", text), canon,
                _text_check("prf")),
            Job("formats.print:prf", name, lambda: formats.print_source("prf", e), canon,
                _text_check("prf"))]
    if not name.startswith("stdlib:") or short in TM_FITS:
        m, _ = prf_to_tm.compile_prf_to_tm(e)
        tm_text = formats.print_source("tm", m)
        verify = _numeric_check(name, oracle, points, _tm_value) if oracle else _no_check
        jobs += [Job("prf_to_tm.compile", name, lambda: prf_to_tm.compile_prf_to_tm(e), None,
                     verify, gen_size=lambda r: tm_rules(r[0])),
                 Job("formats.print:tm", name, lambda: formats.print_source("tm", m), tm_text,
                     _text_check("tm")),
                 Job("formats.parse:tm", name, lambda: formats.parse("tm", tm_text), tm_text,
                     _text_check("tm"))]
        if m.tapes <= 2:  # a 3-tape compiled machine takes seconds to squeeze
            jobs.append(_single_job(name, m))
    t = prf_to_lam.compile_prf_to_lambda(e)
    lam_text = formats.print_source("lam", t)
    if oracle and short in LAM_CHECKED:
        verify = _numeric_check(name, oracle, points[-1:], _lam_value)
    else:  # reducing these takes seconds to minutes; check the term is closed
        verify = lambda got, want: f"{name}: open term" if lam.free_vars(got) else None  # noqa
    jobs += [Job("prf_to_lam.compile", name, lambda: prf_to_lam.compile_prf_to_lambda(e), None,
                 verify, gen_size=term_nodes),
             Job("formats.print:lam", name, lambda: formats.print_source("lam", t), lam_text,
                 _text_check("lam")),
             Job("formats.parse:lam", name, lambda: formats.parse("lam", lam_text), lam_text,
                 _text_check("lam"))]
    return jobs


def _no_check(got, want):
    return None


def _single_job(name: str, m) -> Job:
    """to_single_tape, checked against the multitape machine as reference."""
    words = [w for w in ("", "0", "1", "11", "ab", "ba", "abba") if set(w) <= m.input_alphabet]

    def verify(got, want):
        if got.tapes != 1:
            return f"{name}: {got.tapes} tapes after to_single_tape"
        for w in words:
            host, single = tm.run(m, w, TM_FUEL), tm.run(got, w, TM_FUEL)
            tapes = [t.content().strip(tm.BLANK) for t in host.final.tapes]
            if host.tag != single.tag or transform.single_tape_segments(m, single.final) != tapes:
                return f"single-tape {name} differs on {w!r}"
        return None

    return Job("transform.to_single_tape", name, lambda: transform.to_single_tape(m), None,
               verify, gen_size=tm_rules)


def _eval_job(fn: str, expr, args, counts, key: Optional[str] = None, want=None) -> Job:
    """evaluate with a passed-in Fuel, so the evaluation count is visible."""
    key = key or f"{fn}:{','.join(map(str, args))}"

    def call():
        fuel = Fuel(PRF_FUEL)
        return prf.evaluate(expr, args, fuel), PRF_FUEL - fuel.remaining

    def verify(got, want):
        value, evals = got
        if value != want:
            return f"evaluate {key} = {value}, want {want}"
        return _count_check("prf_evals", key, counts, evals)

    return Job(f"prf.evaluate:{fn}", key, call, ARITH[fn](*args) if want is None else want,
               verify)


def _tm_to_prf_job(name: str, m, value, counts) -> Job:
    """compile_tm_to_prf; the arithmetized function is evaluated at 0 on the
    verification pass only, because that takes a quarter second."""
    def probe(expr):
        fuel = Fuel(PRF_FUEL)
        got = prf.evaluate(expr, (0,), fuel)
        if got != value(0):
            return f"arithmetized {name}(0) = {got}, want {value(0)}"
        return _count_check("prf_evals", f"rt:{name}:0", counts, PRF_FUEL - fuel.remaining)

    return Job("tm_to_prf.compile", name, lambda: tm_to_prf.compile_tm_to_prf(m), None,
               _no_check, probe=probe, gen_size=prf_nodes)


def _equiv_job(fn: str, grid) -> Job:
    e = prf.stdlib(fn)
    m, _ = prf_to_tm.compile_prf_to_tm(e)
    t = prf_to_lam.compile_prf_to_lambda(e)

    def verify(got, want):
        for p, v in want.items():
            row = got.results[p]
            if any(x != v for x in row.values()) or got.verdicts[p] != cli.AGREE:
                return f"equiv_grid {fn} at {p}: {row}"
        return None

    return Job("cli.equiv_grid", f"{fn}:{len(grid)}", lambda: cli.equiv_grid(e, m, t, grid),
               {p: ARITH[fn](*p) for p in grid}, verify)


def _suite_job(name: str) -> Job:
    def verify(got, want):
        return None if got.name == want and got.deterministic else f"suite machine {name}"
    return Job("lam_to_tm.build_machine", name, lambda: lam_to_tm.build_machine(name), name,
               verify, gen_size=tm_rules)


def run_cli(argv: List[str]):
    """The in-process command line, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli(argv)
    return code, out.getvalue().strip()


CHURING_MAIN = "import sys; from churing.cli import main; sys.argv[0] = 'churing'; main()"


def run_proc(argv: List[str]):
    """The ``churing`` command as its own process, built from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", CHURING_MAIN, *argv], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    return r.returncode, r.stdout.strip()


def _exit_check(label: str):
    def verify(got, want):
        return None if got == want else f"{label}: got {got[0]} {got[1][:60]!r}"
    return verify


def cli_jobs(rng: random.Random, workdir: Path) -> List[Job]:
    c = lambda f: str(CORPUS / f)  # noqa: E731
    n = rng.randrange(0, 40)
    k = rng.randrange(4, 12)
    onon, nd_word = "0" * k + "1" * k, "0" * rng.randrange(2, 5) + "11"
    succ_lam = workdir / "succ_term.lam"
    succ_lam.write_text("\\f x y. x (f x y)\n")
    cases = []
    for f in CLI_FILES:
        kind = f.rsplit(".", 1)[1]
        obj = formats.parse(kind, _read(f))
        cases.append((f"check {f}", ["check", c(f)],
                      (0, f"ok: {kind} source with {len(obj) if isinstance(obj, dict) else 1}"
                          " object(s)")))
    cases += [
        ("run prf succ", ["run", "prf", c("succ.prf"), "--args", str(n)], (0, str(n + 1))),
        ("run tm onon", ["run", "tm", c("onon.tm"), "--input", onon], (0, "Accept")),
        ("run tm onon+0", ["run", "tm", c("onon.tm"), "--input", onon + "0"], (1, "Reject")),
        ("run lam succ", ["run", "lam", str(succ_lam), "--apply", f"#{n}"], (0, f"#{n + 1}")),
        ("nd-run", ["transform", "--nd-run", c("contains11_guesser.tm"), "--input", nd_word,
                    "--depth", "8"], (0, "Accept")),
        ("compile prf lam", ["compile", "--from", "prf", "--to", "lam", c("succ.prf"),
                             "-o", str(workdir / "succ.lam")], (0, str(workdir / "succ.lam"))),
        ("compile prf tm", ["compile", "--from", "prf", "--to", "tm", c("succ.prf"),
                            "-o", str(workdir / "succ.tm")], (0, str(workdir / "succ.tm"))),
    ]
    jobs = [Job("cli.cli", label, lambda argv=argv: run_cli(argv), want, _exit_check(label))
            for label, argv, want in cases]
    m = rng.randrange(0, 40)
    procs = [("proc run prf succ", ["run", "prf", c("succ.prf"), "--args", str(m)],
              (0, str(m + 1)))]
    jobs += [Job("cli.proc", label, lambda argv=argv: run_proc(argv), want, _exit_check(label))
             for label, argv, want in procs]
    return jobs


def compile_short(seed: int, counts, workdir: Path, record: bool = False) -> Workload:
    """Record mode lists every evaluation input once instead of a seeded draw."""
    rng = random.Random(f"compile-short:{seed}")
    evals = counts.get("prf_evals", {})
    jobs: List[Job] = []
    if not record:
        for name, text in _programs().items():
            jobs += _program_jobs(name, text)
        for f in SINGLE_TMS:
            jobs.append(_single_job(f, formats.parse("tm", _read(f))))
    expanded = {fn: prf.expand(prf.stdlib(fn)) for fn in EVAL_POOLS}
    for fn, (pool, k) in EVAL_POOLS.items():
        cost = lambda a, fn=fn: evals.get(f"{fn}:{','.join(map(str, a))}", 0)  # noqa: E731
        picks = list(pool) if record else stratified(
            rng, [a for a in pool if EVAL_BAND[0] <= cost(a) <= EVAL_BAND[1]], cost, k)
        jobs += [_eval_job(fn, expanded[fn], args, counts) for args in picks]
    for name, (m, value) in _round_trip_machines().items():
        if not record and name != "succ-compiled":
            continue
        expr = tm_to_prf.compile_tm_to_prf(m)
        if not record:
            jobs.append(_tm_to_prf_job(name, m, value, counts))
        for n in (RT_INPUTS if record else [rng.choice(RT_INPUTS)]):
            jobs.append(_eval_job("id", expr, (n,), counts, key=f"rt:{name}:{n}",
                                  want=value(n)))
    if not record:
        for fn in EQUIV_FNS:
            k = prf.arity_check(prf.stdlib(fn))
            grid = itertools.product(range(4 if k == 1 else 2), repeat=k)
            jobs.append(_equiv_job(fn, list(grid)))
        jobs += [_suite_job(n) for n in ("V", "CF", "CBV", "AE", "NF", "BR1")]
        jobs += cli_jobs(rng, workdir)
    return Workload("compile-short", jobs)



def _round_trip_machines():
    """Single-tape machines over {0,1,_} that tm_to_prf arithmetizes, with
    the function each computes.  The workload uses the compiled S, the one
    p.r.f. whose compiled machine fits every translator of the round trip;
    the smoke workload uses the corpus machine."""
    return {
        "succ.tm": (formats.parse("tm", _read("succ.tm")), lambda n: n + 1),
        "succ-compiled": (prf_to_tm.compile_prf_to_tm(prf.Succ())[0], lambda n: n + 1),
    }


# ---------------------------------------------------------------------------
# smoke: one tiny job per module, for the benchmark's own tests


def smoke(seed: int, counts, workdir: Path) -> Workload:
    comb = formats.parse("lam", _read("combinators.lam"))
    onon = formats.parse("tm", _read("onon.tm"))
    add_tm = prf_to_tm.compile_prf_to_tm(prf.stdlib("add"))
    add_lam = prf_to_lam.compile_prf_to_lambda(prf.stdlib("add"))
    guesser = formats.parse("tm", _read("contains11_guesser.tm"))
    succ_rt = _round_trip_machines()["succ.tm"][0]
    program = {j.family: j for j in _program_jobs(
        "stdlib:id", formats.print_source("prf", prf.stdlib("id")))}
    jobs = [
        _numeric_job("add", *add_tm, (4, 4), counts),
        _decider_job("onon", onon, "0" * 18 + "1" * 18, True, counts),
        _nd_job(guesser, "010011"),
        _eval_job("div", prf.expand(prf.stdlib("div")), (12, 3), counts),
        _lam_arith_job("add", add_lam, (2, 3), counts),
        _reduce_job(comb, ("succ", 1)),
        *(program[f] for f in ("formats.parse:prf", "formats.print:tm", "prf_to_tm.compile",
                               "transform.to_single_tape", "prf_to_lam.compile")),
        Job("tm_to_prf.compile", "succ.tm", lambda: tm_to_prf.compile_tm_to_prf(succ_rt), None,
            _no_check, gen_size=prf_nodes),
        _suite_job("NF"),
        _equiv_job("sg", [(0,), (1,)]),
    ]
    jobs += [j for j in cli_jobs(random.Random(f"smoke:{seed}"), workdir)
             if j.arg in ("run prf succ", "proc run prf succ")]
    return Workload("smoke", jobs)
