"""normalize against the reference reducer, iterated beta_step: the same
contraction count and an alpha-equal normal form on generated terms, the
lambda corpus and the compiled stdlib; fuel semantics; holes refused before
any fuel; shadowed and free names through normalize, beta_eq and
church_decode; a flat cost per contraction."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from churing.errors import NotANumeral, ValidationError
from churing.formats import parse_lam
from churing.lam import (
    DISTINCT, EQUAL, HOLE, UNKNOWN, Abs, App, NormalizeResult, Term, Var, alpha_eq, app,
    beta_eq, beta_step, church_decode, church_encode, combinator, lam, normalize,
)
from churing.prf import Compose, Mu, Succ, Zero, arity_check, stdlib, stdlib_names
from churing.prf_to_lam import compile_prf_to_lambda

from lam_reference import nodes, terms


def check_against_reference(t: Term, cap: int = 2000, max_nodes: int = 20_000) -> int:
    """Iterate beta_step from t.  If it reaches the normal form after n
    contractions, normalize(t, n) must reach an alpha-equal one counting n
    contractions, and normalize(t, n - 1) must not.  If it stops first (cap
    contractions, or a term past max_nodes), normalize with that much fuel
    must not reach a normal form.  Returns the contractions done."""
    u, n = t, 0
    while n < cap and nodes(u) <= max_nodes:
        nxt = beta_step(u)
        if nxt is None:
            r = normalize(t, n)
            assert r.normal and r.contractions == n
            assert alpha_eq(r.term, u)
            if n:
                assert not normalize(t, n - 1).normal
            return n
        u, n = nxt, n + 1
    r = normalize(t, n)
    assert not r.normal and r.contractions == n and r.term is t
    return n


# --- three sets of terms -----------------------------------------------

_names = st.sampled_from(["x", "y", "z", "x1"])  # x1 is also a binder name of the machine
_terms = terms(_names.map(Var), _names, max_leaves=14)


@settings(max_examples=400, deadline=None)
@given(_terms)
def test_generated_terms_match_reference(t):
    check_against_reference(t)


def test_corpus_terms_match_reference(corpus_dir):
    defs = []
    for p in sorted(corpus_dir.glob("*.lam")):
        d = parse_lam(p.read_text())
        defs += d.values() if isinstance(d, dict) else [d]
    assert len(defs) >= 15
    checked = sum(check_against_reference(t) for t in defs)
    for a, b, c in itertools.product(defs, repeat=3):
        checked += check_against_reference(app(a, b, c), cap=500)
    assert checked > 10_000


# Small arguments: iterated beta_step copies the whole term per step, so
# larger ones take seconds each.
_SMALL_ARGS = {1: [(0,), (1,), (2,)], 2: [(0, 0), (0, 1), (1, 0), (1, 1)]}
_HEAVY = {"div", "divides", "exp", "extract", "mod", "prime"}


@pytest.mark.parametrize("name", stdlib_names())
def test_compiled_stdlib_matches_reference(name):
    e = stdlib(name)
    term = compile_prf_to_lambda(e)
    args = _SMALL_ARGS[arity_check(e)]
    if name in _HEAVY:
        args = args[:1]
    for a in args:
        check_against_reference(app(term, *map(church_encode, a)), cap=5000)


# --- fuel semantics ------------------------------------------------------

def test_exhaustion_returns_the_input_term():
    t = combinator("OMEGA")
    r = normalize(t, 7)
    assert r.term is t and not r.normal and r.contractions == 7


def test_zero_fuel_and_negative_fuel():
    i = combinator("I")
    assert normalize(i, 0).normal
    assert not normalize(App(i, i), 0).normal
    with pytest.raises(ValidationError):
        normalize(i, -1)


def test_holes_are_refused():
    with pytest.raises(ValidationError):
        normalize(App(combinator("I"), HOLE))


_HOLED = {
    "argument": App(combinator("I"), HOLE),
    "discarded": app(lam("x y", Var("y")), HOLE, Var("z")),  # reduction drops the hole
    "deep-discarded": app(church_encode(0), Abs("x", App(Var("x"), HOLE)), Var("z")),
    "head": App(HOLE, Var("x")),
    "body": Abs("x", HOLE),
    "bare": HOLE,
}


@pytest.mark.parametrize("fuel", [0, 10_000])
@pytest.mark.parametrize("name", _HOLED)
def test_a_hole_anywhere_is_refused_before_any_fuel(name, fuel):
    t, z = _HOLED[name], Var("z")
    for run in (lambda: normalize(t, fuel), lambda: church_decode(t, fuel),
                lambda: beta_eq(t, z, fuel), lambda: beta_eq(z, t, fuel)):
        with pytest.raises(ValidationError, match="hole-free"):
            run()


# --- the machine's named environment ---------------------------------------
# The machine finds a variable's value in the first environment frame of its
# name.  Each term is (text, the value of its normal form as a numeral, or
# None); pairs of them share normal forms, so beta_eq gives both verdicts.
_NAMED = {
    # a binder that shadows an outer binder of the same name
    "shadow": (r"(\x. \x. x) a b", None),
    "shadow-numeral": (r"(\x. \x. \y. x (x y)) a", 2),
    "shadow-under-binder": (r"\f. \x. (\x. f x) ((\f. f) x)", 1),
    # a free name equal to a binder name, of the input and of the read-back
    "free-x1": (r"(\y. \x1. y x1) x1", None),
    "free-x1-under-binder": (r"\x. (\y. \x1. y x1) x1", None),
    "free-x1-numeral": (r"(\y. \x1. \x. x1 (x1 x)) x1", 2),
    # a shadowed name passed as an argument
    "shadowed-argument": (r"(\x. (\x. x) x) b", None),
    "shadowed-argument-numeral": (r"(\x. (\x. x) x) #1", 1),
    "shadowed-argument-neutral": (r"\x. (\x. x) x", None),
    "shadowing-argument": (r"(\x. \x. (\y. y) x) a b", None),
}


def _reference(t: Term):
    """The normal form by iterated beta_step, and its contractions."""
    n = 0
    while (nxt := beta_step(t)) is not None:
        t, n = nxt, n + 1
    return t, n


@pytest.mark.parametrize("name", _NAMED)
def test_named_lookup_matches_reference(name):
    text, value = _NAMED[name]
    t = parse_lam(text)
    nf, n = _reference(t)
    assert check_against_reference(t) == n
    assert beta_eq(t, nf, n) == EQUAL
    if n:
        assert beta_eq(t, nf, n - 1) == UNKNOWN
    if value is None:
        with pytest.raises(NotANumeral) as info:
            church_decode(t, n)
        assert alpha_eq(info.value.term, nf)
    else:
        assert alpha_eq(nf, church_encode(value)) and church_decode(t, n) == value
    for other in _NAMED.values():
        u = parse_lam(other[0])
        same = alpha_eq(nf, _reference(u)[0])
        assert beta_eq(t, u) == (EQUAL if same else DISTINCT)


def test_two_argument_result_still_builds():
    assert NormalizeResult(Var("x"), True).contractions == 0


# --- flat cost per contraction --------------------------------------------
# Bounds are loose: a normalizer whose cost per contraction grows with the
# count (a chain of variable closures, or copying by substitution) misses
# them by far.

def test_omega_cost_is_flat():
    start = time.perf_counter()
    for fuel in (10 ** 3, 10 ** 4, 10 ** 5):  # a quadratic normalizer stops early
        r = normalize(combinator("OMEGA"), fuel)
        assert not r.normal and r.contractions == fuel
        assert time.perf_counter() - start < 2.0


def test_divergent_mu_cost_is_flat():
    term = compile_prf_to_lambda(Mu(Compose(Succ(), (Zero(2),))))
    applied = App(term, church_encode(2))
    start = time.perf_counter()
    for fuel in (10 ** 3, 10 ** 4):
        r = normalize(applied, fuel)
        assert not r.normal and r.contractions == fuel
        assert time.perf_counter() - start < 0.5
