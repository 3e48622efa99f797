"""Differential tests: the closure-compiling evaluator against the original.

`prf_reference` keeps the original tree-walking evaluator and arity check.
``evaluate`` must return the same value, spend exactly the same fuel, and
run out of fuel at one unit less than the reference needed.  Arity is a
field checked when a node is built, so malformed nodes cannot be built and
a shared expression reports its arity without a walk over its tree.
"""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import prf_reference as ref
from churing.errors import Fuel, FuelExhausted, ValidationError
from churing.formats import parse
from churing.prf import (
    Compose, Mu, PrimRec, Proj, Succ, Zero, arity_check, evaluate, expand, stdlib,
    stdlib_names,
)

from conftest import CORPUS

BUDGET = 50_000


def _run(ev, e, args, budget):
    """(value or None when out of fuel, fuel spent)."""
    fuel = Fuel(budget)
    try:
        value = ev(e, args, fuel)
    except FuelExhausted:
        value = None
    return value, budget - fuel.remaining


def _assert_agree(e, args, budget=BUDGET):
    assert arity_check(e) == ref.arity_check(e)
    want = _run(ref.evaluate, e, args, budget)
    assert _run(evaluate, e, args, budget) == want, (e, args)
    value, spent = want
    if value is not None:
        assert evaluate(e, args, spent) == value
        if spent > 1:
            with pytest.raises(FuelExhausted):
                evaluate(e, args, spent - 1)


def _grid(e, top=3):
    return itertools.product(range(top), repeat=arity_check(e))


@pytest.mark.parametrize("name", stdlib_names())
def test_stdlib_agrees(name):
    e = stdlib(name)
    for form in (e, e.definition, expand(e)):
        for args in _grid(form):
            _assert_agree(form, args)


def _corpus_prfs():
    for path in sorted(CORPUS.glob("*.prf")):
        obj = parse("prf", path.read_text())
        items = obj.items() if isinstance(obj, dict) else [("main", obj)]
        for name, e in items:
            yield pytest.param(e, id=f"{path.name}:{name}")


@pytest.mark.parametrize("e", list(_corpus_prfs()))
def test_corpus_agrees(e):
    for args in _grid(e, top=4):
        _assert_agree(e, args)


_NATIVES = [stdlib(n) for n in ("add", "mul", "monus", "eq", "lt")]


@st.composite
def _exprs(draw, k, depth=3):
    """A well-formed expression of arity k; Mu may diverge."""
    kinds = ["zero"] + ["proj"] * (k >= 1) + ["succ"] * (k == 1) + ["native"] * (k == 2)
    if depth > 0:
        kinds += ["compose", "compose", "mu"] + ["primrec"] * (k >= 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return Zero(k)
    if kind == "proj":
        return Proj(k, draw(st.integers(1, k)))
    if kind == "succ":
        return Succ()
    if kind == "native":
        return draw(st.sampled_from(_NATIVES))
    if kind == "compose":
        j = draw(st.integers(1, 3))
        g = draw(_exprs(j, depth - 1))
        return Compose(g, tuple(draw(_exprs(k, depth - 1)) for _ in range(j)))
    if kind == "mu":
        return Mu(draw(_exprs(k + 1, depth - 1)))
    return PrimRec(draw(_exprs(k - 1, depth - 1)), draw(_exprs(k + 1, depth - 1)))


@st.composite
def _expr_and_args(draw):
    k = draw(st.integers(0, 3))
    e = draw(_exprs(k))
    return e, tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None)
@given(_expr_and_args())
def test_generated_exprs_agree(case):
    e, args = case
    _assert_agree(e, args, budget=2_000)


def test_shared_subexpressions_evaluate_like_the_tree():
    f = stdlib("add").definition
    for _ in range(4):
        f = Compose(stdlib("add").definition, (f, f))
    for args in _grid(f):
        _assert_agree(f, args)


@pytest.mark.parametrize("build", [
    lambda: Zero(-1),
    lambda: Proj(2, 3),
    lambda: Proj(2, 0),
    lambda: Compose(Succ(), (Proj(2, 1), Proj(2, 2))),
    lambda: Compose(Zero(0), ()),
    lambda: Compose(stdlib("add"), (Proj(1, 1), Proj(2, 1))),
    lambda: PrimRec(Zero(1), Proj(2, 1)),
    lambda: Mu(Zero(0)),
    lambda: Compose("add", (Proj(1, 1),)),
], ids=["zero-negative", "proj-high", "proj-zero", "compose-outer-arity", "compose-empty",
        "compose-inner-arities", "primrec-mismatch", "mu-arity-0", "compose-not-a-node"])
def test_malformed_node_is_refused_when_built(build):
    with pytest.raises(ValidationError):
        build()


def test_arity_check_refuses_a_non_expression():
    with pytest.raises(ValidationError):
        arity_check("S")


def test_deep_dag_is_checked_in_linear_time():
    # 60 levels of Compose(add, (f, f)): 2^60 tree nodes, 61 distinct nodes
    t0 = time.perf_counter()
    add = stdlib("add")
    f = add
    for _ in range(60):
        f = Compose(add, (f, f))
    assert arity_check(f) == 2
    assert time.perf_counter() - t0 < 0.1
    # evaluation compiles the distinct nodes only, so fuel runs out quickly
    with pytest.raises(FuelExhausted):
        evaluate(f, (1, 1), 1_000)
