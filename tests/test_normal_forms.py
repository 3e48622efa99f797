"""Normal forms as the machine emits them: normalize results pinned over the
corpus and the compiled stdlib applications of the lam-long benchmark, and
beta_eq and church_decode against the reference versions that read every
normal form back into named terms."""

import hashlib
import itertools

from hypothesis import given, settings, strategies as st

from churing.errors import ChuringError
from churing.formats import parse
from churing.lam import (
    DISTINCT, EQUAL, HOLE, Abs, App, Var, app, beta_eq, beta_step, church_decode, church_encode,
    combinator, free_vars, lam, normalize,
)
from churing.prf import stdlib
from churing.prf_to_lam import compile_prf_to_lambda

import lam_reference
from conftest import CORPUS

LAM_FUEL = 100_000  # the fuel of the benchmark's church_decode jobs

# Inputs of the benchmark's lam-long workload: every argument of its seeded
# pools, its fixed reductions, and the divergent mu at both fuels.
_APPLIED = (
    [("add", a) for a in itertools.product(range(1, 7), repeat=2)]
    + [("pred", (n,)) for n in range(1, 13)]
    + [("sg", (n,)) for n in range(0, 13)]
    + [("mul", (2, 3)), ("mul", (3, 2)),
       ("eq", (5, 5)), ("eq", (4, 4)), ("eq", (2, 3)), ("eq", (1, 2)),
       ("absdiff", (5, 5)), ("absdiff", (4, 5)), ("absdiff", (5, 4)), ("absdiff", (3, 3)),
       ("monus", (6, 6)), ("monus", (6, 5)), ("monus", (4, 4)),
       ("lt", (5, 5)), ("lt", (5, 4)), ("lt", (4, 5))]
)
_MU = ("Mu C S (Z 2)", 2, (1000, 4000))


def _pinned_inputs():
    """(key, term, fuel): every corpus λ definition at the default fuel, the
    compiled stdlib applications at the benchmark's fuel, and mu."""
    out = []
    for f in sorted(CORPUS.glob("*.lam")):
        d = parse("lam", f.read_text())
        for name, t in (d.items() if isinstance(d, dict) else [("main", d)]):
            out.append((f"{f.name}:{name}", t, 10_000))
    compiled = {}
    for fn, args in _APPLIED:
        if fn not in compiled:
            compiled[fn] = compile_prf_to_lambda(stdlib(fn))
        applied = app(compiled[fn], *map(church_encode, args))
        out.append((f"{fn}:{','.join(map(str, args))}", applied, LAM_FUEL))
    src, arg, fuels = _MU
    mu = app(compile_prf_to_lambda(parse("prf", src)), church_encode(arg))
    out += [(f"mu:{arg}:{fuel}", mu, fuel) for fuel in fuels]
    return out


def _spelled(t) -> str:
    """The term in pre-order, binder names included: equal terms, and only
    they, are spelled alike."""
    return " ".join(x.name if isinstance(x, Var) else "\\" + x.param if isinstance(x, Abs)
                    else "@" if isinstance(x, App) else "[]" for x in lam_reference.subterms(t))


def _pin(res) -> str:
    """SHA-256 (first 16 hex digits) of the spelled term, its contractions,
    and whether it is normal."""
    digest = hashlib.sha256(_spelled(res.term).encode()).hexdigest()[:16]
    return f"{digest} {res.contractions} {int(res.normal)}"


# Recorded before the machine came to emit flat de Bruijn code: normalize
# must give the same terms and contraction counts.
PINNED = {
    "combinators.lam:id": "fb32d995514379f9 0 1",
    "combinators.lam:k": "d11e3f30dffa9c7a 0 1",
    "combinators.lam:ki": "fda72e5b6b4731fd 0 1",
    "combinators.lam:s": "6ec2adfb553ade4b 0 1",
    "combinators.lam:b": "de6c400402041781 0 1",
    "combinators.lam:c": "751d0fd70aeef38f 0 1",
    "combinators.lam:w": "68cf9a4ac21e6894 0 1",
    "combinators.lam:zero": "fda72e5b6b4731fd 0 1",
    "combinators.lam:one": "35a96103858dd272 0 1",
    "combinators.lam:two": "c161bb5d85eb7724 0 1",
    "combinators.lam:three": "cfead4db935a16c4 0 1",
    "combinators.lam:succ": "cbb0b1cae20907e3 0 1",
    "combinators.lam:add": "93b552dac2702984 0 1",
    "combinators.lam:mul": "de6c400402041781 0 1",
    "combinators.lam:pair": "2a0077171ef24f07 0 1",
    "combinators.lam:fst": "af3b03fa8dde9a57 0 1",
    "combinators.lam:snd": "fbcb3d655831b65a 0 1",
    "example_term.lam:main": "9874f2e2818ae4bc 1 1",
    "add:1,1": "c161bb5d85eb7724 35 1",
    "add:1,2": "cfead4db935a16c4 55 1",
    "add:1,3": "ea158a2983295e3c 75 1",
    "add:1,4": "27a5481ee19f6cba 95 1",
    "add:1,5": "f3972a675859f093 115 1",
    "add:1,6": "7531d83587c458a9 135 1",
    "add:2,1": "cfead4db935a16c4 35 1",
    "add:2,2": "ea158a2983295e3c 55 1",
    "add:2,3": "27a5481ee19f6cba 75 1",
    "add:2,4": "f3972a675859f093 95 1",
    "add:2,5": "7531d83587c458a9 115 1",
    "add:2,6": "f443539eb3e9cb5d 135 1",
    "add:3,1": "ea158a2983295e3c 35 1",
    "add:3,2": "27a5481ee19f6cba 55 1",
    "add:3,3": "f3972a675859f093 75 1",
    "add:3,4": "7531d83587c458a9 95 1",
    "add:3,5": "f443539eb3e9cb5d 115 1",
    "add:3,6": "05991eecc673951c 135 1",
    "add:4,1": "27a5481ee19f6cba 35 1",
    "add:4,2": "f3972a675859f093 55 1",
    "add:4,3": "7531d83587c458a9 75 1",
    "add:4,4": "f443539eb3e9cb5d 95 1",
    "add:4,5": "05991eecc673951c 115 1",
    "add:4,6": "af5b026fe3878888 135 1",
    "add:5,1": "f3972a675859f093 35 1",
    "add:5,2": "7531d83587c458a9 55 1",
    "add:5,3": "f443539eb3e9cb5d 75 1",
    "add:5,4": "05991eecc673951c 95 1",
    "add:5,5": "af5b026fe3878888 115 1",
    "add:5,6": "8d3d1a30e5434a74 135 1",
    "add:6,1": "7531d83587c458a9 35 1",
    "add:6,2": "f443539eb3e9cb5d 55 1",
    "add:6,3": "05991eecc673951c 75 1",
    "add:6,4": "af5b026fe3878888 95 1",
    "add:6,5": "8d3d1a30e5434a74 115 1",
    "add:6,6": "dbcb52d44d25bbd7 135 1",
    "pred:1": "fda72e5b6b4731fd 24 1",
    "pred:2": "35a96103858dd272 34 1",
    "pred:3": "c161bb5d85eb7724 44 1",
    "pred:4": "cfead4db935a16c4 54 1",
    "pred:5": "ea158a2983295e3c 64 1",
    "pred:6": "27a5481ee19f6cba 74 1",
    "pred:7": "f3972a675859f093 84 1",
    "pred:8": "7531d83587c458a9 94 1",
    "pred:9": "f443539eb3e9cb5d 104 1",
    "pred:10": "05991eecc673951c 114 1",
    "pred:11": "af5b026fe3878888 124 1",
    "pred:12": "8d3d1a30e5434a74 134 1",
    "sg:0": "fda72e5b6b4731fd 13 1",
    "sg:1": "35a96103858dd272 24 1",
    "sg:2": "35a96103858dd272 24 1",
    "sg:3": "35a96103858dd272 24 1",
    "sg:4": "35a96103858dd272 24 1",
    "sg:5": "35a96103858dd272 24 1",
    "sg:6": "35a96103858dd272 24 1",
    "sg:7": "35a96103858dd272 24 1",
    "sg:8": "35a96103858dd272 24 1",
    "sg:9": "35a96103858dd272 24 1",
    "sg:10": "35a96103858dd272 24 1",
    "sg:11": "35a96103858dd272 24 1",
    "sg:12": "35a96103858dd272 24 1",
    "mul:2,3": "f3972a675859f093 240 1",
    "mul:3,2": "f3972a675859f093 145 1",
    "eq:5,5": "35a96103858dd272 702 1",
    "eq:4,4": "35a96103858dd272 540 1",
    "eq:2,3": "fda72e5b6b4731fd 234 1",
    "eq:1,2": "fda72e5b6b4731fd 180 1",
    "absdiff:5,5": "fda72e5b6b4731fd 663 1",
    "absdiff:4,5": "35a96103858dd272 591 1",
    "absdiff:5,4": "35a96103858dd272 571 1",
    "absdiff:3,3": "fda72e5b6b4731fd 359 1",
    "monus:6,6": "fda72e5b6b4731fd 411 1",
    "monus:6,5": "35a96103858dd272 370 1",
    "monus:4,4": "fda72e5b6b4731fd 239 1",
    "lt:5,5": "fda72e5b6b4731fd 341 1",
    "lt:5,4": "fda72e5b6b4731fd 290 1",
    "lt:4,5": "35a96103858dd272 283 1",
    "mu:2:1000": "736797cede662c3a 1000 0",
    "mu:2:4000": "736797cede662c3a 4000 0",
}


def test_normal_forms_are_pinned():
    got = {key: _pin(normalize(t, fuel)) for key, t, fuel in _pinned_inputs()}
    assert got == PINNED


def _outcome(f, *args):
    """The value of f(*args), or the type of the ChuringError it raised."""
    try:
        return f(*args)
    except ChuringError as e:
        return type(e)


def test_pinned_inputs_decode_and_compare_as_the_reference():
    for key, t, fuel in _pinned_inputs():
        got = _outcome(church_decode, t, fuel)
        assert got == _outcome(lam_reference.church_decode, t, fuel), key
        for other in (t, church_encode(3)):
            assert beta_eq(t, other, fuel) == lam_reference.beta_eq(t, other, fuel), key


# x1 and x2 are also the names normalize gives its binders
_names = st.sampled_from(["x", "y", "x1", "x2"])
_omega = combinator("OMEGA")
_atoms = st.one_of(_names.map(Var), st.just(_omega))
_terms = lam_reference.terms(_atoms, _names, max_leaves=12)
_terms_with_holes = lam_reference.terms(_atoms | st.just(HOLE), _names, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_normal_forms_name_each_binder_by_its_depth(t):
    """normalize gives the reference reducer's normal form, with the binder
    names the read-back gives: those of its depth, skipping t's free names."""
    r = normalize(t, 200)
    if r.normal:
        u = t
        for _ in range(r.contractions):
            u = beta_step(u)
        assert beta_step(u) is None
        assert r.term == lam_reference.depth_named(u, free_vars(t))


@settings(max_examples=400, deadline=None)
@given(_terms_with_holes, _terms_with_holes, st.integers(0, 40))
def test_beta_eq_matches_reference(a, b, fuel):
    assert _outcome(beta_eq, a, b, fuel) == _outcome(lam_reference.beta_eq, a, b, fuel)


@settings(max_examples=300, deadline=None)
@given(_terms, _terms)
def test_beta_eq_matches_reference_at_the_fuel_boundary(a, b):
    """At the fuel both sides need, and at one less; and against a term one
    contraction further along, to which a is equal."""
    need = [normalize(t, 200) for t in (a, b)]
    fuels = {max(r.contractions for r in need), 200}
    fuels |= {f - 1 for f in fuels if f}
    others = [b] + [nxt for nxt in [beta_step(a)] if nxt is not None]
    for other, fuel in itertools.product(others, fuels):
        assert beta_eq(a, other, fuel) == lam_reference.beta_eq(a, other, fuel)


def test_beta_eq_examples():
    t = app(lam("m n f x", app(Var("m"), Var("f"), app(Var("n"), Var("f"), Var("x")))),
            church_encode(2), church_encode(3))
    assert beta_eq(t, church_encode(5)) == EQUAL
    assert beta_eq(Abs("y", Var("x1")), Abs("x1", Var("x1"))) == DISTINCT


# bodies over the binders f, x and a free y: many are numerals, many almost
_bodies = lam_reference.terms(st.sampled_from(["f", "x", "y"]).map(Var), st.sampled_from("fx"),
                              max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(_bodies, st.integers(0, 30))
def test_church_decode_matches_reference(body, fuel):
    for t in (lam("f x", body), Abs("f", body), App(combinator("S"), lam("f x", body))):
        assert _outcome(church_decode, t, fuel) == _outcome(lam_reference.church_decode, t, fuel)


def test_church_decode_of_numerals_and_non_numerals():
    succ = combinator("S")
    cases = [church_encode(n) for n in range(4)]
    cases += [app(succ, app(succ, church_encode(3))), Var("x"), _omega,
              lam("f x", App(Var("x"), Var("f"))), lam("f", Var("f")), combinator("K")]
    for t, fuel in itertools.product(cases, (0, 1, 2, 100)):
        assert _outcome(church_decode, t, fuel) == _outcome(lam_reference.church_decode, t, fuel)
