"""Lambda-definability of recursive functions: compile and run as terms."""

import pytest

from churing.errors import ValidationError
from churing.lam import (
    Abs, App, church_decode, church_encode, combinator, free_vars, normalize,
)
from churing.prf import (
    Compose, Mu, Named, PrimRec, Proj, Succ, Zero, evaluate, expand, stdlib, stdlib_names,
)
from churing.prf_to_lam import compile_prf_to_lambda

from lam_reference import node_objects, recursion_gadget_check

FUEL = 10 ** 6


def _run(term, args, fuel=FUEL):
    t = term
    for a in args:
        from churing.lam import App
        t = App(t, church_encode(a))
    r = normalize(t, fuel)
    assert r.normal, "term did not normalize"
    return church_decode(r.term)


@pytest.mark.parametrize("name", stdlib_names())
def test_equal_inputs_compile_to_equal_terms(name):
    # binder names come from a counter local to the call, not the process
    assert compile_prf_to_lambda(stdlib(name)) == compile_prf_to_lambda(stdlib(name))


@pytest.mark.parametrize("name", stdlib_names())
def test_named_nodes_compile_as_their_definitions(name):
    # a Named node is compiled in place, binders numbered as in its expansion
    e = stdlib(name)
    assert compile_prf_to_lambda(e) == compile_prf_to_lambda(expand(e))


def test_shared_nodes_compile_once():
    # extract's expression is a DAG; its term has 23,471 nodes as a tree,
    # 2,528 with only the Named nodes shared, 1,911 with every node of the
    # expression shared, and 1,095 with each combinator and the numeral 0
    # built once as well
    assert len(node_objects(compile_prf_to_lambda(stdlib("extract")))) == 1095


def _parts(t):
    """Each combinator R, S, P, I and the numeral 0 in t, by name, as the
    list of its distinct objects; the walk does not enter them, so the
    numerals inside R and P are theirs, not the compiler's."""
    parts = {name: combinator(name) for name in "RSPI"}
    parts["0"] = church_encode(0)
    found = {name: [] for name in parts}
    seen, todo = set(), [t]
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if isinstance(u, Abs) and "~" not in u.param:  # the compiler's binders have a ~
            name = next(name for name, p in parts.items() if u == p)
            found[name].append(u)
        elif isinstance(u, Abs):
            todo.append(u.body)
        elif isinstance(u, App):
            todo += (u.fn, u.arg)
    return found


@pytest.mark.parametrize("name", stdlib_names())
def test_each_combinator_is_one_object_in_a_compiled_term(name):
    found = _parts(compile_prf_to_lambda(stdlib(name)))
    assert all(len(objs) <= 1 for objs in found.values()), found


def test_a_mu_over_stdlib_functions_builds_each_part_once():
    # eq brings R, S and 0; the mu brings P, I and 0 again
    e = Compose(stdlib("eq"), (Mu(stdlib("monus")), Proj(1, 1)))
    t = compile_prf_to_lambda(e)
    assert {name: len(objs) for name, objs in _parts(t).items()} == dict.fromkeys("RSPI0", 1)
    assert _run(t, [3]) == 1


def test_a_named_used_twice_is_one_subterm():
    add = stdlib("add")
    assert isinstance(add, Named)
    t = compile_prf_to_lambda(Compose(add, (add, add)))
    # \x~1 x~2. g (h1 x~1 x~2) (h2 x~1 x~2), where g, h1 and h2 are add
    g_h1, h2_x = t.body.body.fn, t.body.body.arg
    g, h1_x = g_h1.fn, g_h1.arg
    assert g is h1_x.fn.fn is h2_x.fn.fn


def test_calls_share_no_term_node():
    # the memo lives for one call: a second compile builds its own nodes
    e = stdlib("extract")
    first, second = (node_objects(compile_prf_to_lambda(e)) for _ in range(2))  # both alive
    ids = {id(n) for n in first if isinstance(n, (App, Abs))}
    assert not any(id(n) in ids for n in second if isinstance(n, (App, Abs)))


def test_compiled_terms_are_closed():
    for e in [Zero(2), Succ(), Proj(3, 2), stdlib("add"), stdlib("mul"),
              stdlib("pred"), stdlib("monus"), stdlib("eq")]:
        assert free_vars(compile_prf_to_lambda(e)) == set()


def test_base_functions():
    z = compile_prf_to_lambda(Zero(2))
    for x in range(3):
        for y in range(3):
            assert _run(z, [x, y]) == 0
    s = compile_prf_to_lambda(Succ())
    for x in range(5):
        assert _run(s, [x]) == x + 1
    p = compile_prf_to_lambda(Proj(3, 2))
    assert _run(p, [4, 7, 1]) == 7


def test_composition():
    # succ(succ(x)) and a two-place rearrangement through projections
    e = Compose(Succ(), (Compose(Succ(), (Proj(1, 1),)),))
    t = compile_prf_to_lambda(e)
    for x in range(4):
        assert _run(t, [x]) == x + 2


@pytest.mark.parametrize("name,fn,arity", [
    ("add", lambda x, y: x + y, 2),
    ("mul", lambda x, y: x * y, 2),
    ("pred", lambda x: max(x - 1, 0), 1),
    ("monus", lambda x, y: max(x - y, 0), 2),
    ("eq", lambda x, y: int(x == y), 2),
])
def test_arithmetic_grids(name, fn, arity):
    t = compile_prf_to_lambda(stdlib(name))
    pts = range(4)
    if arity == 1:
        for x in pts:
            assert _run(t, [x]) == fn(x), (name, x)
    else:
        for x in pts:
            for y in pts:
                assert _run(t, [x, y]) == fn(x, y), (name, x, y)


def test_primrec_matches_evaluator():
    # f(x, y) = y + 2x via primitive recursion on the first argument
    e = PrimRec(Proj(1, 1),
                Compose(Succ(), (Compose(Succ(), (Proj(3, 3),)),)))
    t = compile_prf_to_lambda(e)
    for x in range(4):
        for y in range(4):
            assert _run(t, [x, y]) == evaluate(e, [x, y], FUEL)


def test_mu_least_witness():
    # mu y. eq(x, y*y): integer square root of perfect squares
    sq = Compose(stdlib("mul"), (Proj(2, 2), Proj(2, 2)))
    pred = Compose(stdlib("eq"), (Proj(2, 1), sq))
    e = Mu(pred)
    t = compile_prf_to_lambda(e)
    for x in [0, 1, 4, 9]:
        assert _run(t, [x]) == evaluate(e, [x], FUEL)


def test_mu_divergence_exhausts_fuel():
    e = Mu(Compose(Succ(), (Zero(2),)))  # witness predicate is never 0
    t = compile_prf_to_lambda(e)
    from churing.lam import App
    r = normalize(App(t, church_encode(0)), 10 ** 4)
    assert not r.normal


def test_recursion_gadgets():
    for g in "DQRP":
        report = recursion_gadget_check(g)
        assert report["all_equal"], report


def test_rejects_unknown_node():
    class Bogus:
        pass

    with pytest.raises((ValidationError, TypeError)):
        compile_prf_to_lambda(Bogus())
