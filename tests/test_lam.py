"""Lambda core: substitution, normal order, Church numerals, combinators."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from churing.errors import NotANumeral, ValidationError
from churing.lam import (
    HOLE, Abs, App, Term, Var, alpha_eq, app, beta_eq, beta_step, bound_vars,
    canonical_binders, church_decode, church_encode, combinator, fixed_point,
    free_vars, fresh_name, is_normal_form, lam, normalize, render, substitute,
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

def closed_terms(size, binders=()):
    """All closed terms with exactly `size` App/Abs nodes (variables are
    free), binders named by nesting depth."""
    if size == 0:
        for b in binders:
            yield Var(b)
        return
    v = f"x{len(binders)}"
    for body in closed_terms(size - 1, binders + (v,)):
        yield Abs(v, body)
    for ls in range(size):
        for fn in closed_terms(ls, binders):
            for arg in closed_terms(size - 1 - ls, binders):
                yield App(fn, arg)


def one_step_results(t: Term):
    """Every term reachable from t by contracting a single redex."""
    out = []
    if isinstance(t, App):
        if isinstance(t.fn, Abs):
            out.append(substitute(t.fn.body, t.fn.param, t.arg))
        out.extend(App(f, t.arg) for f in one_step_results(t.fn))
        out.extend(App(t.fn, a) for a in one_step_results(t.arg))
    elif isinstance(t, Abs):
        out.extend(Abs(t.param, b) for b in one_step_results(t.body))
    return out


def _nodes(t: Term) -> int:
    stack, n = [t], 0
    while stack:
        x = stack.pop()
        n += 1
        if isinstance(x, App):
            stack += [x.fn, x.arg]
        elif isinstance(x, Abs):
            stack.append(x.body)
    return n


def bounded_nf(t: Term, fuel=1000, max_nodes=20_000):
    """Normal form within the fuel, or None.  The node cap cuts off terms
    whose size explodes (they cannot reach a small nf inside the budget)."""
    for _ in range(fuel):
        n = beta_step(t)
        if n is None:
            return t
        t = n
        if _nodes(t) > max_nodes:
            return None
    return None


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
_terms = st.recursive(
    st.one_of(_names.map(Var), st.just(HOLE)),
    lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(Abs, _names, sub)),
    max_leaves=8,
)


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
