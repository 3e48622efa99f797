"""Recursive-function core: constructors, evaluator, stdlib, Ackermann."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from churing.errors import FuelExhausted, GuardExceeded, ValidationError
from churing.prf import (
    PRIME_NATIVE_BOUND, Compose, Mu, Named, PrimRec, Proj, Succ, Zero, ackermann,
    arity_check, bounded_mu, const, evaluate, expand, exists_le, forall_le, pand, pnot,
    stdlib, stdlib_names,
)
from prf_reference import permute_args

FUEL = 10 ** 7

_ORACLES = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "exp": lambda a, b: a ** b,
    "pred": lambda a: max(a - 1, 0),
    "monus": lambda a, b: max(a - b, 0),
    "absdiff": lambda a, b: abs(a - b),
    "sg": lambda a: int(a > 0),
    "eq": lambda a, b: int(a == b),
    "lt": lambda a, b: int(a < b),
    "divides": lambda d, m: int(m == 0 or (d != 0 and m % d == 0)),
    "prime": lambda n: int(n > 1 and all(n % d for d in range(2, n))),
}


def test_prime_native_is_miller_rabin_below_its_bound():
    native = stdlib("prime").native
    assert [n for n in range(5000) if native(n)] == \
        [n for n in range(5000) if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]
    # strong pseudoprimes: to bases 2, 3, 5 and 7, and to the first 12 prime
    # bases (Sorenson and Webster), whose 13th base, 41, is the witness
    assert native(3215031751) == native(318665857834031151167461) == 0
    assert native(2 ** 61 - 1) == native(10 ** 9 + 7) == 1
    assert native((10 ** 9 + 7) * (10 ** 9 + 9)) == native((10 ** 18 + 3) * (10 ** 6 + 3)) == 0
    with pytest.raises(GuardExceeded, match="^prime: an argument of 82 bits is past"):
        native(PRIME_NATIVE_BOUND)


@pytest.mark.parametrize("name", sorted(_ORACLES))
def test_stdlib_against_oracles(name):
    f = stdlib(name)
    oracle = _ORACLES[name]
    k = arity_check(f)
    pts = range(9)
    grid = [(a,) for a in pts] if k == 1 else [(a, b) for a in pts for b in pts]
    for pt in grid:
        assert evaluate(f, pt, FUEL) == oracle(*pt), (name, pt)


@pytest.mark.parametrize("name", ["pred", "sg", "eq", "monus"])
def test_expanded_definitions_agree_on_small_args(name):
    # Named nodes carry a pure-constructor definition; expansion must not
    # change the function (checked on small points, expansion is slow).
    f = stdlib(name)
    pure = expand(f)
    k = arity_check(f)
    pts = [(0,), (1,), (2,)] if k == 1 else [(0, 0), (1, 2), (2, 1)]
    for pt in pts:
        assert evaluate(pure, pt, FUEL) == evaluate(f, pt, FUEL), (name, pt)


def test_primitive_constructors():
    assert evaluate(Zero(3), [4, 5, 6], FUEL) == 0
    assert evaluate(Succ(), [7], FUEL) == 8
    assert evaluate(Proj(3, 2), [4, 5, 6], FUEL) == 5
    two_plus = Compose(Succ(), (Succ(),))
    assert evaluate(two_plus, [5], FUEL) == 7
    assert evaluate(const(9, 2), [1, 2], FUEL) == 9


def test_arity_errors():
    with pytest.raises(ValidationError):
        evaluate(stdlib("add"), [1], FUEL)
    with pytest.raises(ValidationError):
        arity_check(Compose(Succ(), (Succ(), Succ())))


def test_mu_finds_least_witness():
    # least y with monus(x, y) = 0 is x itself
    first = Mu(Compose(stdlib("monus"), (Proj(2, 1), Proj(2, 2))))
    for x in range(6):
        assert evaluate(first, [x], FUEL) == x


def test_mu_divergence_is_fuel_exhausted():
    never = Mu(const(1, 2))
    with pytest.raises(FuelExhausted):
        evaluate(never, [0], 10_000)


def test_bounded_mu_matches_linear_scan():
    # relation R(x, y) : y*y >= x
    ge = stdlib("lt")
    sq = Compose(stdlib("mul"), (Proj(2, 2), Proj(2, 2)))
    r = pnot(Compose(ge, (sq, Proj(2, 1))))  # not (y*y < x)
    f = bounded_mu(r)
    for x in range(10):
        for n in range(6):
            want = next((y for y in range(n + 1) if y * y >= x), 0)
            assert evaluate(f, [x, n], FUEL) == want, (x, n)


def test_bounded_quantifiers():
    divides = stdlib("divides")
    has_divisor = exists_le(Compose(divides, (Proj(2, 2), Proj(2, 1))))
    for n in range(1, 9):
        want = int(any(n % d == 0 for d in range(1, n + 1)))
        assert evaluate(has_divisor, [n, n], FUEL) == want
    all_le = forall_le(Compose(stdlib("lt"), (Proj(2, 2), Proj(2, 1))))
    # forall y in 1..n : y < x
    assert evaluate(all_le, [5, 4], FUEL) == 1
    assert evaluate(all_le, [3, 4], FUEL) == 0


def test_logic_helpers():
    sg = stdlib("sg")
    both = pand(Proj(2, 1), Proj(2, 2))  # takes 0/1 flags
    assert evaluate(both, [1, 1], FUEL) == 1
    assert evaluate(both, [1, 0], FUEL) == 0
    assert evaluate(pnot(sg), [0], FUEL) == 1
    assert evaluate(pnot(sg), [5], FUEL) == 0


def test_permute_args():
    monus = stdlib("monus")
    flipped = permute_args(monus, [2, 1])
    assert evaluate(flipped, [2, 5], FUEL) == 3


def test_ackermann_values_and_guard():
    assert ackermann(2, 2) == 7
    assert [ackermann(m, 0) for m in range(4)] == [1, 2, 3, 4]
    assert ackermann(3, 3) == 61
    with pytest.raises(GuardExceeded):
        ackermann(10, 5)


def test_ackermann_monotonicity_triple():
    for n in range(4):
        for x in range(6):
            a = ackermann(x, n)
            assert a > x
            assert ackermann(x + 1, n) > a
            if n <= 2 or x <= 0:
                assert ackermann(x, n + 1) >= ackermann(x + 1, n)


def test_stdlib_names_cover_the_documented_set():
    names = set(stdlib_names())
    assert {"add", "mul", "exp", "pred", "sg", "monus", "absdiff", "eq",
            "lt", "divides", "prime"} <= names


@settings(max_examples=60)
@given(st.integers(0, 40), st.integers(0, 40))
def test_add_mul_properties(a, b):
    add, mul = stdlib("add"), stdlib("mul")
    assert evaluate(add, [a, b], FUEL) == evaluate(add, [b, a], FUEL)
    assert evaluate(mul, [a, b], FUEL) == evaluate(mul, [b, a], FUEL)


def test_fuel_counts_are_stable():
    # The same evaluation spends the same fuel; a too-small budget raises.
    add = stdlib("add")
    with pytest.raises(FuelExhausted):
        evaluate(expand(add), [30, 30], 5)


# value and fuel spent of the evaluations the benchmark counts, on the
# expanded stdlib form and on S arithmetized from its compiled machine
_PINNED_EVALUATIONS = [("div", (15, 4), 3, 131_978), ("mod", (12, 4), 0, 67_365),
                       ("divides", (4, 30), 0, 82_286), ("S", (0,), 1, 7_431),
                       ("S", (1,), 2, 61_478)]


def test_benchmark_evaluation_counts_are_pinned():
    from churing.errors import Fuel
    from churing.prf_to_tm import compile_prf_to_tm
    from churing.tm_to_prf import compile_tm_to_prf
    arithmetized_s = compile_tm_to_prf(compile_prf_to_tm(Succ())[0])
    for name, args, value, spent in _PINNED_EVALUATIONS:
        e = arithmetized_s if name == "S" else expand(stdlib(name))
        fuel = Fuel(FUEL)
        assert (evaluate(e, args, fuel), FUEL - fuel.remaining) == (value, spent), name


def _expand_tree(e):
    # expansion as a tree walk, with no sharing
    if isinstance(e, Named):
        return _expand_tree(e.definition)
    if isinstance(e, Compose):
        return Compose(_expand_tree(e.g), tuple(_expand_tree(h) for h in e.hs))
    if isinstance(e, PrimRec):
        return PrimRec(_expand_tree(e.g), _expand_tree(e.h))
    if isinstance(e, Mu):
        return Mu(_expand_tree(e.g))
    return e


def _distinct_nodes(e):
    seen, todo = {}, [e]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            if isinstance(n, Named):
                todo.append(n.definition)
            elif isinstance(n, Compose):
                todo += [n.g, *n.hs]
            elif isinstance(n, PrimRec):
                todo += [n.g, n.h]
            elif isinstance(n, Mu):
                todo.append(n.g)
    return list(seen.values())


def test_expand_keeps_sharing():
    # 12 levels of Compose(add, (f, f)) over the named add: a tree of 2^12
    # copies of add, 12 + 6 distinct nodes of which 12 + 5 are not Named
    add = stdlib("add")
    f = add
    for _ in range(12):
        f = Compose(add, (f, f))
    out = expand(f)
    assert out == _expand_tree(f)
    nodes = _distinct_nodes(out)
    assert not any(isinstance(n, Named) for n in nodes)
    assert len(_distinct_nodes(f)) == 12 + 6
    assert len(nodes) == 12 + 5


def test_fuel_is_a_natural_number():
    from churing.errors import Fuel
    with pytest.raises(ValidationError, match="fuel must be a natural number"):
        evaluate(Succ(), [1], -1)
    with pytest.raises(FuelExhausted):  # zero fuel runs out at the first evaluation
        evaluate(Succ(), [1], Fuel(0))
    assert evaluate(Succ(), [1], 1) == 2
