"""Lambda core: substitution, normal order, Church numerals, combinators."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from churing.errors import NotANumeral
from churing.lam import (
    HOLE, Abs, App, Term, Var, alpha_eq, app, beta_eq, beta_step, canonical_binders,
    church_decode, church_encode, combinator, fixed_point, free_vars, fresh_name, lam,
    normalize, render, substitute,
)

from lam_reference import (
    bound_vars, bounded_nf, closed_terms, is_normal_form, one_step_results, terms,
)


def test_substitute_avoids_capture():
    # (\y. x) [x := y]  must not capture the binder y
    t = Abs("y", Var("x"))
    r = substitute(t, "x", Var("y"))
    assert isinstance(r, Abs) and r.param != "y"
    assert alpha_eq(r, Abs("z", Var("y")))


def test_fresh_name_is_the_first_unused_index():
    assert fresh_name("x") == fresh_name("x") == "x~1"
    assert fresh_name("y~7", {"y~1", "y~2"}) == "y~3"


def test_beta_step_is_leftmost_outermost():
    i = combinator("I")
    t = App(App(i, Var("a")), App(i, Var("b")))
    # leftmost redex first: (I a) (I b) -> a (I b)
    assert alpha_eq(beta_step(t), App(Var("a"), App(i, Var("b"))))


def test_normalize_swap_example():
    t = App(lam(["x", "y"], App(Var("y"), Var("x"))), Var("z"))
    nf = normalize(t).term
    assert alpha_eq(nf, Abs("y", App(Var("y"), Var("z"))))


def test_church_codec():
    for n in range(6):
        assert church_decode(church_encode(n)) == n
    with pytest.raises(NotANumeral):
        church_decode(Var("x"))


def test_church_arithmetic():
    add = lam(["m", "n", "f", "x"],
              App(App(Var("m"), Var("f")),
                  App(App(Var("n"), Var("f")), Var("x"))))
    got = normalize(app(add, church_encode(2), church_encode(3))).term
    assert church_decode(got) == 5


def test_omega_never_normalizes():
    res = normalize(combinator("OMEGA"), fuel=10_000)
    assert not res.normal


def test_beta_eq_three_way():
    i = combinator("I")
    assert beta_eq(App(i, Var("x")), Var("x")) == "equal"
    assert beta_eq(Var("x"), Var("y")) == "distinct"
    assert beta_eq(combinator("OMEGA"), Var("x"), fuel=500) == "unknown"


def test_fixed_point_one_step_law():
    rng = random.Random(11)
    for _ in range(20):
        f = _random_closed(rng, depth=3)
        x = fixed_point(f)
        assert alpha_eq(beta_step(x), App(f, x))


def _random_closed(rng, depth, bound=()):
    if depth == 0 or (bound and rng.random() < 0.4):
        if bound:
            return Var(rng.choice(bound))
        return Abs("v", Var("v"))
    if rng.random() < 0.5:
        v = f"v{len(bound)}"
        return Abs(v, _random_closed(rng, depth - 1, bound + (v,)))
    return App(_random_closed(rng, depth - 1, bound),
               _random_closed(rng, depth - 1, bound))


# --- confluence sampling -----------------------------------------------

def test_confluence_sampling_small_closed_terms():
    checked = 0
    for size in range(1, 8):  # size counts App/Abs nodes
        for t in closed_terms(size):
            steps = one_step_results(t)
            if len(steps) < 2:
                continue
            nfs = [x for x in (bounded_nf(s) for s in steps) if x is not None]
            for a, b in itertools.combinations(nfs, 2):
                assert alpha_eq(a, b), render(t)
                checked += 1
    assert checked > 4000


_names = st.sampled_from(["x", "y", "z"])
_terms = terms(st.one_of(_names.map(Var), st.just(HOLE)), _names, max_leaves=8)


def _rename_every_name(t: Term, new: dict) -> Term:
    """t with every name, bound or free, mapped through ``new``: a
    bijection on a closed term keeps its alpha class, a merge may not."""
    if isinstance(t, Var):
        return Var(new.get(t.name, t.name))
    if isinstance(t, Abs):
        return Abs(new.get(t.param, t.param), _rename_every_name(t.body, new))
    if isinstance(t, App):
        return App(_rename_every_name(t.fn, new), _rename_every_name(t.arg, new))
    return t


@settings(max_examples=300, deadline=None)
@given(_terms, _terms, st.dictionaries(_names, _names))
def test_alpha_eq_agrees_with_canonical_binders(a, b, new):
    renamed = _rename_every_name(a, new)
    for x, y in ((a, b), (a, renamed), (renamed, a), (a, a)):
        assert alpha_eq(x, y) == (canonical_binders(x) == canonical_binders(y))


def test_alpha_eq_of_a_node_bound_in_one_place_and_free_in_another():
    n = App(Var("y"), Var("y"))  # one object: bound under \y, free outside it
    t = App(Abs("y", n), n)
    assert alpha_eq(t, App(lam("z", App(Var("z"), Var("z"))), App(Var("y"), Var("y"))))
    assert not alpha_eq(t, App(Abs("z", n), n))
    assert canonical_binders(t) == App(Abs("x1", App(Var("x1"), Var("x1"))), n)


def test_alpha_eq_of_holes():
    assert alpha_eq(HOLE, HOLE)
    assert alpha_eq(Abs("x", App(Var("x"), HOLE)), Abs("y", App(Var("y"), HOLE)))
    assert not alpha_eq(HOLE, Var("x")) and not alpha_eq(Var("x"), HOLE)
    assert not alpha_eq(Abs("x", HOLE), Abs("x", Var("x")))


def test_alpha_eq_on_a_deep_term_does_not_recurse():
    n = 100_000
    body: Term = Var("z")
    for _ in range(n):
        body = App(Var("f"), body)
    assert alpha_eq(church_encode(n), lam("f z", body))
    assert not alpha_eq(church_encode(n), lam("z f", body))
    assert not alpha_eq(church_encode(n - 1), lam("f z", body))


def test_beta_eq_on_deep_normal_forms():
    # the normal forms are 5000 applications deep: alpha_eq may not recurse
    assert beta_eq(church_encode(5000), church_encode(5000)) == "equal"
    assert beta_eq(church_encode(5000), church_encode(4999)) == "distinct"


def test_church_decode_of_shadowed_binders():
    f, x = Var("f"), Var("x")
    assert church_decode(lam("f x", App(f, x))) == 1
    assert church_decode(lam("f x", App(Abs("f", f), App(f, x)))) == 1
    with pytest.raises(NotANumeral):
        church_decode(lam("f f", App(f, f)))  # the inner f is the tail
    with pytest.raises(NotANumeral):
        church_decode(lam("f f", App(f, App(f, f))))


def test_free_and_bound_vars():
    t = Abs("x", App(Var("x"), Var("y")))
    assert free_vars(t) == frozenset({"y"})
    assert bound_vars(t) == frozenset({"x"})


def test_is_normal_form():
    assert is_normal_form(Abs("x", Var("x")))
    assert not is_normal_form(App(Abs("x", Var("x")), Var("y")))


@settings(max_examples=40)
@given(st.integers(0, 30))
def test_numeral_normal_forms(n):
    t = church_encode(n)
    assert is_normal_form(t)
    assert church_decode(t) == n


def test_deep_terms_compare_and_hash():
    # recursing once per node would overflow the C stack here, a crash
    # rather than an exception, so the check runs in a child process
    code = ("from churing.lam import church_encode as c\n"
            "a, b = c(10**5), c(10**5)\n"
            "assert a == b and hash(a) == hash(b) and a != c(10**5 - 1)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_term_equality_is_structural():
    assert Var("x") == Var("x") and Var("x") != Var("y")
    assert Abs("x", Var("x")) != Abs("y", Var("y"))  # equal up to alpha only
    assert App(Var("f"), Var("a")) == App(Var("f"), Var("a"))
    assert App(Var("f"), Var("a")) != App(Var("a"), Var("f"))
    assert Var("x") != Abs("x", Var("x")) and Var("x") != "x"
    assert len({church_encode(3), church_encode(3), church_encode(4)}) == 2


def test_terms_are_immutable():
    f, a = Var("f"), Var("a")
    t = App(f, a)
    for target, field in ((f, "name"), (Abs("x", f), "body"), (t, "fn"), (t, "arg"),
                          (HOLE, "name")):
        with pytest.raises(AttributeError):
            setattr(target, field, a)
        with pytest.raises(AttributeError):
            delattr(target, field)
    assert t == App(Var("f"), Var("a")) and t.fn is f
    assert repr(t) == "App(fn=Var(name='f'), arg=Var(name='a'))"
    assert repr(Abs("x", HOLE)) == "Abs(param='x', body=Hole())"
