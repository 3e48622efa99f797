"""Compile partial recursive expressions into lambda terms.

Base functions map to the usual terms (constant-zero abstraction, the
successor combinator, projections); composition is plain application;
primitive recursion goes through Bernays' recursor R (which recurses on
the first argument, so the compiled term permutes arguments around it);
the mu operator uses the iterator pair T/P with the I-eating numeral
trick: F = \\x... P (G x...) 0 I (J x...).

The binders the compiler adds are named ``x~1``, ``u~2``, ... from a counter
local to one call, so equal expressions compile to equal terms.  Each node
of the expression is compiled once per call, keyed on its identity, so a
node the expression shares (a `Named` used twice) is one shared subterm of
the term, and the term is as small as the expression's DAG.  Each of the
combinators R, S, P, I and the numeral 0 is built once per call, on first
use, and every use in that call is that one object; nothing outlives the
call.  Binders are therefore not all distinct: a shared subterm, G used
twice in a mu, and the combinators and numerals keep their own names.  The
printer and the term-on-tape machinery rename binders apart themselves:
`lam.render` as it prints, and `lam_to_tm._canonical_wire` on the wire.
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

    return _compile(e, binders, {})


def _part(name: str, done: dict) -> Term:
    """The combinator ``name``, or the numeral 0 for ``"0"``: built on first
    use in a call and kept in its ``done``, so each is one object."""
    t = done.get(name)
    if t is None:
        t = done[name] = church_encode(0) if name == "0" else combinator(name)
    return t


def _compile(e: PrfExpr, binders: Callable[..., List[str]], done: dict) -> Term:
    """The term of e; ``done`` maps id(node) to the term of every node
    compiled so far in this call, so a shared node is compiled once, and
    the name of each combinator (and "0") to its one object (`_part`)."""
    t = done.get(id(e))
    if t is not None:
        return t
    if isinstance(e, Named):  # compiled in place: the tree is never copied
        t = _compile(e.definition, binders, done)
    elif isinstance(e, Zero):
        if e.k == 0:
            t = _part("0", done)
        else:
            xs = binders("x", e.k)
            t = lam(xs, _part("0", done))
    elif isinstance(e, Succ):
        t = _part("S", done)
    elif isinstance(e, Proj):
        xs = binders("x", e.k)
        t = lam(xs, Var(xs[e.i - 1]))
    elif isinstance(e, Compose):
        k = arity_check(e)
        g = _compile(e.g, binders, done)
        hs = [_compile(h, binders, done) for h in e.hs]
        xs = binders("x", k)
        xv = [Var(x) for x in xs]
        t = lam(xs, app(g, *[app(h, *xv) for h in hs]))
    elif isinstance(e, PrimRec):
        # f(x..., u) with recursion on u; Bernays' R recurses on its first
        # argument, so wrap: \x... u. R (G x...) (\m v. H x... m v) u
        j = arity_check(e.g)
        G = _compile(e.g, binders, done)
        H = _compile(e.h, binders, done)
        xs = binders("x", j)
        [u] = binders("u")
        [m] = binders("m")
        [v] = binders("v")
        xv = [Var(x) for x in xs]
        step = lam([m, v], app(H, *xv, Var(m), Var(v)))
        body = app(_part("R", done), app(G, *xv) if xs else G, step, Var(u))
        t = lam(xs + [u], body)
    elif isinstance(e, Mu):
        # H = \x... y. P (G x...) y ; J = \x... . H x... 0
        # F = \x... . P (G x...) 0 I (J x...)
        k = arity_check(e)
        G = _compile(e.g, binders, done)
        xs = binders("x", k)
        [y] = binders("y")
        xv = [Var(x) for x in xs]
        P = _part("P", done)
        hx = binders("x", k)
        hv = [Var(x) for x in hx]
        H = lam(hx + [y], app(P, app(G, *hv), Var(y)))
        jx = binders("x", k)
        jv = [Var(x) for x in jx]
        zero = _part("0", done)
        J = lam(jx, app(H, *jv, zero))
        body = app(app(P, app(G, *xv), zero), _part("I", done), app(J, *xv))
        t = lam(xs, body)
    else:
        raise ValidationError(f"cannot compile node {e!r}")
    done[id(e)] = t
    return t

