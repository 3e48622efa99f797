"""Reference λ printer, β-equality and numeral decoder for the
differential tests.

``render`` is the two-pass printer ``churing.lam.render`` replaced: it first
builds a renamed copy of the whole term with ``canonical_binders`` and then
prints that copy.  ``churing.lam.render`` must give the same text.

``depth_named`` gives the binder names ``churing.lam.normalize`` reads
back: each binder is named by its depth.

``beta_eq`` and ``church_decode`` are the versions that worked on named
normal forms: they read each normal form back into terms, then compare it
with ``alpha_eq`` or walk its numeral shape.  ``churing.lam`` compares and
decodes the machine's de Bruijn normal form instead, and must give the same
verdicts, values and error types.
"""

import itertools

from churing.errors import FuelExhausted, NotANumeral, ValidationError
from churing.lam import (
    DISTINCT, EQUAL, UNKNOWN, Abs, App, Hole, Term, Var, alpha_eq, canonical_binders,
    normalize,
)
from churing.lam import render as _lam_render


def render(t: Term) -> str:
    return _render(canonical_binders(t))


def _render(t: Term) -> str:
    """Application spines are left associated; an abstraction at the head of
    a spine and any non-atomic argument are parenthesized.  Iterative: each
    term is printed in place, and what follows it waits on a stack of terms
    and literal text."""
    out: list = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        while True:
            cls = type(t)
            if cls is str:
                out.append(t)
            elif cls is Var:
                out.append(t.name)
            elif cls is Abs:
                params = []
                while type(t) is Abs:
                    params.append(t.param)
                    t = t.body
                out.append("\\" + " ".join(params) + ". ")
                continue
            elif cls is App:
                while type(t) is App:  # arguments pushed last one first
                    a = t.arg
                    if type(a) is Var:
                        todo.append(" " + a.name)
                    elif type(a) is Hole:
                        todo.append(" []")
                    else:
                        todo += (")", a, " (")
                    t = t.fn
                if type(t) is Abs:
                    out.append("(")
                    todo.append(")")
                continue
            elif cls is Hole:
                out.append("[]")
            else:
                raise ValidationError(f"cannot print {t!r}")
            break
    return "".join(out)


def depth_named(t: Term, free) -> Term:
    """t with each binder of depth d named by the (d+1)-th of x1, x2, ...
    not in ``free``."""
    supply = (n for n in (f"x{i}" for i in itertools.count(1)) if n not in free)
    names: list = []

    def go(t: Term, env: dict, d: int) -> Term:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, App):
            return App(go(t.fn, env, d), go(t.arg, env, d))
        while len(names) <= d:
            names.append(next(supply))
        return Abs(names[d], go(t.body, {**env, t.param: names[d]}, d + 1))

    return go(t, {}, 0)


def beta_eq(a: Term, b: Term, fuel: int = 10_000) -> str:
    ra = normalize(a, fuel)
    rb = normalize(b, fuel)
    if ra.normal and rb.normal:
        return EQUAL if alpha_eq(ra.term, rb.term) else DISTINCT
    return UNKNOWN


def church_decode(t: Term, fuel: int = 100_000) -> int:
    res = normalize(t, fuel)
    if not res.normal:
        raise FuelExhausted("term did not normalize within fuel")
    t = res.term  # read back with each binder named by its depth: none shadows
    if not (isinstance(t, Abs) and isinstance(t.body, Abs)):
        raise NotANumeral(f"not a numeral shape: {_lam_render(t)}")
    f, z = t.param, t.body.param
    body = t.body.body
    n = 0
    while isinstance(body, App):
        if not (isinstance(body.fn, Var) and body.fn.name == f):
            raise NotANumeral(f"not an iterated application: {_lam_render(t)}")
        n += 1
        body = body.arg
    if not (isinstance(body, Var) and body.name == z):
        raise NotANumeral(f"bad numeral tail: {_lam_render(t)}")
    return n
