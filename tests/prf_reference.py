"""Reference p.r.f. semantics for the differential tests.

This is the original evaluator of ``churing.prf``, kept as it was: arity is
checked by walking the expression as a tree, and ``_eval`` interprets every
node through an ``isinstance`` chain, spending fuel through ``spend``.
``churing.prf.evaluate`` must agree with ``evaluate`` here on the value, on
the fuel spent and on the budget at which ``FuelExhausted`` is raised;
``PrfExpr.arity`` must agree with ``arity_check``.  ``permute_args`` builds
the composition that reorders an expression's arguments.
"""

from typing import Sequence

from churing.errors import Fuel, FuelExhausted, ValidationError
from churing.prf import Compose, Mu, Named, PrfExpr, PrimRec, Proj, Succ, Zero


def arity_check(e: PrfExpr) -> int:
    """Arity of e, or ValidationError naming the offending subexpression."""
    if isinstance(e, Zero):
        if e.k < 0:
            raise ValidationError(f"Zero arity must be >= 0, got {e.k}")
        return e.k
    if isinstance(e, Succ):
        return 1
    if isinstance(e, Proj):
        if not 1 <= e.i <= e.k:
            raise ValidationError(f"Proj({e.k},{e.i}): need 1 <= i <= k")
        return e.k
    if isinstance(e, Compose):
        ag = arity_check(e.g)
        if ag != len(e.hs):
            raise ValidationError(
                f"Compose: outer function has arity {ag} but got {len(e.hs)} inner functions"
            )
        if not e.hs:
            raise ValidationError("Compose needs at least one inner function")
        arities = [arity_check(h) for h in e.hs]
        if len(set(arities)) != 1:
            raise ValidationError(f"Compose: inner arities differ: {arities}")
        return arities[0]
    if isinstance(e, PrimRec):
        ag = arity_check(e.g)
        ah = arity_check(e.h)
        if ah != ag + 2:
            raise ValidationError(
                f"PrimRec: arity(h) = {ah} but must equal arity(g) + 2 = {ag + 2}"
            )
        return ag + 1
    if isinstance(e, Mu):
        ag = arity_check(e.g)
        if ag < 1:
            raise ValidationError("Mu: inner function needs arity >= 1")
        return ag - 1
    if isinstance(e, Named):
        return arity_check(e.definition)
    raise ValidationError(f"unknown node {e!r}")


def evaluate(e: PrfExpr, args: Sequence[int], fuel) -> int:
    if isinstance(fuel, int):
        fuel = Fuel(fuel)
    k = arity_check(e)
    if len(args) != k:
        raise ValidationError(f"arity mismatch: expected {k} args, got {len(args)}")
    if any(a < 0 for a in args):
        raise ValidationError("arguments must be naturals")
    return _eval(e, tuple(args), fuel)


def spend(fuel: Fuel) -> None:
    fuel.remaining -= 1
    if fuel.remaining < 0:
        raise FuelExhausted("budget exhausted")


def _eval(e: PrfExpr, args: tuple, fuel: Fuel) -> int:
    spend(fuel)
    if isinstance(e, Zero):
        return 0
    if isinstance(e, Succ):
        return args[0] + 1
    if isinstance(e, Proj):
        return args[e.i - 1]
    if isinstance(e, Named):
        if e.native is not None:
            return e.native(*args)
        return _eval(e.definition, args, fuel)
    if isinstance(e, Compose):
        inner = tuple(_eval(h, args, fuel) for h in e.hs)
        return _eval(e.g, inner, fuel)
    if isinstance(e, PrimRec):
        xs, m = args[:-1], args[-1]
        acc = _eval(e.g, xs, fuel)
        for i in range(m):
            acc = _eval(e.h, xs + (i, acc), fuel)
        return acc
    if isinstance(e, Mu):
        xs = args
        y = 0
        while True:
            spend(fuel)  # one unit per probe on top of the inner evaluation
            if _eval(e.g, xs + (y,), fuel) == 0:
                return y
            y += 1
    raise ValidationError(f"unknown node {e!r}")


def permute_args(e: PrfExpr, pi: Sequence[int]) -> PrfExpr:
    """Compose(e, [Proj(k, pi[0]), ...]): result(x) = e(x_pi(1), ..., x_pi(k))."""
    k = arity_check(e)
    if sorted(pi) != list(range(1, k + 1)):
        raise ValidationError(f"{pi!r} is not a permutation of 1..{k}")
    return Compose(e, tuple(Proj(k, p) for p in pi))
