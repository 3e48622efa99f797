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


_SWEEP_CAP = 120  # a sweep stops here, so a diverging expression ends


def _leaf_steps(k):
    """Every step a recursion of arity k can take that is a leaf."""
    return [Zero(k + 1)] + [Proj(k + 1, j) for j in range(1, k + 2)]


def _diverging(k):
    """Mu over a function that never returns 0: arity k - 1, never defined."""
    return Mu(Compose(Succ(), (Zero(k),)))


@st.composite
def _leafy_exprs(draw, k, depth=2):
    """An expression of arity k built to reach the in-place leaves of a
    Compose and the one-charge recursions whose step is a Proj or a Zero."""
    kinds = ["zero"] + ["proj"] * (k >= 1) + ["succ"] * (k == 1) + ["native"] * (k == 2)
    if depth > 0:
        kinds += ["compose"] * 3 + ["leaf_step"] * 2 * (k >= 1) + ["diverging_base"] * (k >= 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return Zero(k)
    if kind == "proj":
        return Proj(k, draw(st.integers(1, k)))
    if kind == "succ":
        return Succ()
    if kind == "native":
        return draw(st.sampled_from(_NATIVES))
    if kind == "leaf_step":
        return PrimRec(draw(_leafy_exprs(k - 1, depth - 1)), draw(st.sampled_from(_leaf_steps(k))))
    if kind == "diverging_base":
        return PrimRec(_diverging(k), draw(st.sampled_from(_leaf_steps(k))))
    outer = draw(st.sampled_from(["succ", "native", "any"]))
    if outer == "succ":
        g = Succ()
    elif outer == "native":
        g = draw(st.sampled_from(_NATIVES))
    else:
        g = draw(_leafy_exprs(draw(st.integers(1, 3)), depth - 1))
    only_projs = k >= 1 and draw(st.booleans())
    return Compose(g, tuple(
        Proj(k, draw(st.integers(1, k))) if only_projs or (k >= 1 and draw(st.booleans()))
        else draw(_leafy_exprs(k, depth - 1))
        for _ in range(arity_check(g))))


@st.composite
def _leafy_expr_and_args(draw):
    k = draw(st.integers(0, 3))
    e = draw(_leafy_exprs(k))
    return e, tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))


@settings(max_examples=150, deadline=None)
@given(_leafy_expr_and_args())
def test_fuel_sweep_agrees(case):
    # at every budget up to one past what the evaluation needs, the same
    # value or the same exhaustion, and the same fuel spent
    e, args = case
    spent = _run(ref.evaluate, e, args, _SWEEP_CAP)[1]
    for budget in range(min(spent, _SWEEP_CAP) + 2):
        want = _run(ref.evaluate, e, args, budget)
        assert _run(evaluate, e, args, budget) == want, (e, args, budget)


@pytest.mark.parametrize("k", [1, 2])
def test_leaf_step_over_a_diverging_base_runs_out(k):
    for step in _leaf_steps(k):
        e = PrimRec(_diverging(k), step)
        for n in range(4):
            for budget in range(40):
                assert _run(evaluate, e, (1,) * (k - 1) + (n,), budget) == (None, budget + 1)


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
