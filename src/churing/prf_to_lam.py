"""Compile partial recursive expressions into lambda terms.

Base functions map to the usual terms (constant-zero abstraction, the
successor combinator, projections); composition is plain application;
primitive recursion goes through Bernays' recursor R (which recurses on
the first argument, so the compiled term permutes arguments around it);
the mu operator uses the iterator pair T/P with the I-eating numeral
trick: F = \\x... P (G x...) 0 I (J x...).

The binders the compiler adds are named ``x~1``, ``u~2``, ... from a counter
local to one call, so equal expressions compile to equal terms.  Binders are
not all distinct: the combinators and numerals keep their own names, and a
subterm used twice (G in a mu) is emitted twice.  The term-on-tape machinery
renames binders apart itself (`lam.canonical_binders`).
"""

from __future__ import annotations

import itertools
from typing import Callable, List

from .errors import ValidationError
from .lam import Term, Var, app, church_encode, combinator, lam
from .prf import Compose, Mu, Named, PrfExpr, PrimRec, Proj, Succ, Zero, arity_check


def compile_prf_to_lambda(e: PrfExpr) -> Term:
    counter = itertools.count(1)

    def binders(base: str, n: int = 1) -> List[str]:
        return [f"{base}~{next(counter)}" for _ in range(n)]

    return _compile(e, binders)


def _compile(e: PrfExpr, binders: Callable[..., List[str]]) -> Term:
    if isinstance(e, Named):  # compiled in place: the tree is never copied
        return _compile(e.definition, binders)
    if isinstance(e, Zero):
        if e.k == 0:
            return church_encode(0)
        xs = binders("x", e.k)
        return lam(xs, church_encode(0))
    if isinstance(e, Succ):
        return combinator("S")
    if isinstance(e, Proj):
        xs = binders("x", e.k)
        return lam(xs, Var(xs[e.i - 1]))
    if isinstance(e, Compose):
        k = arity_check(e)
        g = _compile(e.g, binders)
        hs = [_compile(h, binders) for h in e.hs]
        xs = binders("x", k)
        xv = [Var(x) for x in xs]
        return lam(xs, app(g, *[app(h, *xv) for h in hs]))
    if isinstance(e, PrimRec):
        # f(x..., u) with recursion on u; Bernays' R recurses on its first
        # argument, so wrap: \x... u. R (G x...) (\m v. H x... m v) u
        j = arity_check(e.g)
        G = _compile(e.g, binders)
        H = _compile(e.h, binders)
        xs = binders("x", j)
        [u] = binders("u")
        [m] = binders("m")
        [v] = binders("v")
        xv = [Var(x) for x in xs]
        step = lam([m, v], app(H, *xv, Var(m), Var(v)))
        body = app(combinator("R"), app(G, *xv) if xs else G, step, Var(u))
        return lam(xs + [u], body)
    if isinstance(e, Mu):
        # H = \x... y. P (G x...) y ; J = \x... . H x... 0
        # F = \x... . P (G x...) 0 I (J x...)
        k = arity_check(e)
        G = _compile(e.g, binders)
        xs = binders("x", k)
        [y] = binders("y")
        xv = [Var(x) for x in xs]
        P = combinator("P")
        hx = binders("x", k)
        hv = [Var(x) for x in hx]
        H = lam(hx + [y], app(P, app(G, *hv), Var(y)))
        jx = binders("x", k)
        jv = [Var(x) for x in jx]
        J = lam(jx, app(H, *jv, church_encode(0)))
        body = app(app(P, app(G, *xv), church_encode(0)), combinator("I"),
                   app(J, *xv))
        return lam(xs, body)
    raise ValidationError(f"cannot compile node {e!r}")


def recursion_gadget_check(which: str) -> dict:
    """Replay the derivation chain for one of the recursion/minimization
    gadgets on fresh variables and small numerals; every line reports the
    beta_eq verdict (all should be Equal)."""
    from .lam import beta_eq

    X, Y = Var("X"), Var("Y")
    n = church_encode
    D, Q, R, P = (combinator(c) for c in "DQRP")
    checks = []
    if which == "D":
        checks.append(("D X Y 0 = X", beta_eq(app(D, X, Y, n(0)), X)))
        for m in range(3):
            checks.append((f"D X Y {m+1} = Y", beta_eq(app(D, X, Y, n(m + 1)), Y)))
    elif which == "Q":
        # (QY)^m (D 0 X) = D m X_m; D A B 0 = A recovers the numeral
        for m in range(4):
            t = app(D, n(0), X)
            for _ in range(m):
                t = app(Q, Y, t)
            checks.append((f"(QY)^{m}(D 0 X) selects {m}",
                           beta_eq(app(t, n(0)), n(m))))
    elif which == "R":
        checks.append(("R X Y 0 = X", beta_eq(app(R, X, Y, n(0)), X)))
        for m in range(4):
            lhs = app(R, X, Y, n(m + 1))
            rhs = app(Y, n(m), app(R, X, Y, n(m)))
            checks.append((f"R X Y {m+1} = Y {m} (R X Y {m})", beta_eq(lhs, rhs)))
    elif which == "P":
        zero_fn = lam(["z"], n(0))
        checks.append(("P X Y = Y when X Y = 0", beta_eq(app(P, zero_fn, Y), Y)))
        # P X Y = P X (S Y) when X Y = m+1: compare one unfolding on a
        # concrete terminating search: X y = 1 - sg-like step never zero is
        # divergent, so instead use X = \z. D 1 0 z (zero exactly at 1)
        step_fn = lam(["z"], app(D, n(1), n(0), Var("z")))  # X 0 = 1, X m+1 = 0
        checks.append(("P X 0 = 1 for X zero first at 1",
                       beta_eq(app(P, step_fn, n(0)), n(1))))
    else:
        raise ValidationError(f"unknown gadget {which!r}")
    return {"gadget": which, "checks": checks,
            "all_equal": all(v == "equal" for _, v in checks)}
