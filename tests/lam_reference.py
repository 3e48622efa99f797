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

``recursion_gadget_check`` replays the derivation chains of the combinators
D, Q, R and P that ``churing.prf_to_lam`` compiles recursion and
minimization with.

The rest are the generators and small oracles the tests share: every
closed term of a size (``closed_terms``), every single contraction of a
term (``one_step_results``), iterated ``beta_step`` with a size cap
(``bounded_nf``), a node count, the distinct node objects
(``node_objects``), the subterm walk and what it gives (``bound_vars``,
``is_normal_form``, ``has_hole``: what each node's ``holed`` field must
say), and the hypothesis strategy of generated terms (``terms``).

``read_wire`` reads a wire of ``churing.lam_to_tm`` by recursive descent
over its grammar, character by character: ``_canonical_wire`` must refuse
the wires it refuses, and ``parse_wire`` must build the terms it builds.
"""

import itertools
from typing import Dict, Iterator, Optional

from hypothesis import strategies as st

from churing.errors import FuelExhausted, NotANumeral, ValidationError
from churing.lam import (
    DISTINCT, EQUAL, UNKNOWN, Abs, App, Hole, Term, Var, alpha_eq, app, beta_step,
    canonical_binders, church_encode, combinator, is_redex, lam, normalize, substitute,
)
from churing.lam import beta_eq as _lam_beta_eq
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


def recursion_gadget_check(which: str) -> dict:
    """Replay the derivation chain for one of the recursion/minimization
    gadgets on fresh variables and small numerals; every line reports the
    beta_eq verdict (all should be Equal) of ``churing.lam.beta_eq``."""
    X, Y = Var("X"), Var("Y")
    n = church_encode
    D, Q, R, P = (combinator(c) for c in "DQRP")
    checks = []
    if which == "D":
        checks.append(("D X Y 0 = X", _lam_beta_eq(app(D, X, Y, n(0)), X)))
        for m in range(3):
            checks.append((f"D X Y {m+1} = Y", _lam_beta_eq(app(D, X, Y, n(m + 1)), Y)))
    elif which == "Q":
        # (QY)^m (D 0 X) = D m X_m; D A B 0 = A recovers the numeral
        for m in range(4):
            t = app(D, n(0), X)
            for _ in range(m):
                t = app(Q, Y, t)
            checks.append((f"(QY)^{m}(D 0 X) selects {m}",
                           _lam_beta_eq(app(t, n(0)), n(m))))
    elif which == "R":
        checks.append(("R X Y 0 = X", _lam_beta_eq(app(R, X, Y, n(0)), X)))
        for m in range(4):
            lhs = app(R, X, Y, n(m + 1))
            rhs = app(Y, n(m), app(R, X, Y, n(m)))
            checks.append((f"R X Y {m+1} = Y {m} (R X Y {m})", _lam_beta_eq(lhs, rhs)))
    elif which == "P":
        zero_fn = lam(["z"], n(0))
        checks.append(("P X Y = Y when X Y = 0", _lam_beta_eq(app(P, zero_fn, Y), Y)))
        # P X Y = P X (S Y) when X Y = m+1: compare one unfolding on a
        # concrete terminating search: X y = 1 - sg-like step never zero is
        # divergent, so instead use X = \z. D 1 0 z (zero exactly at 1)
        step_fn = lam(["z"], app(D, n(1), n(0), Var("z")))  # X 0 = 1, X m+1 = 0
        checks.append(("P X 0 = 1 for X zero first at 1",
                       _lam_beta_eq(app(P, step_fn, n(0)), n(1))))
    else:
        raise ValidationError(f"unknown gadget {which!r}")
    return {"gadget": which, "checks": checks,
            "all_equal": all(v == "equal" for _, v in checks)}


def closed_terms(size: int, binders=()) -> Iterator[Term]:
    """All closed terms with exactly ``size`` App/Abs nodes, binders named
    by nesting depth (x0, x1, ...)."""
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


def one_step_results(t: Term) -> list:
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


def subterms(t: Term) -> Iterator[Term]:
    """t and every term inside it, in pre-order."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Abs):
            stack.append(s.body)
        elif isinstance(s, App):
            stack.append(s.arg)
            stack.append(s.fn)


def nodes(t: Term) -> int:
    stack, n = [t], 0
    while stack:
        x = stack.pop()
        n += 1
        if isinstance(x, App):
            stack += [x.fn, x.arg]
        elif isinstance(x, Abs):
            stack.append(x.body)
    return n


def node_objects(t: Term) -> list:
    """The distinct node objects of t, each walked once."""
    seen, todo = {}, [t]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if isinstance(t, Abs):
                todo.append(t.body)
            elif isinstance(t, App):
                todo += (t.fn, t.arg)
    return list(seen.values())


def bound_vars(t: Term) -> frozenset:
    return frozenset(s.param for s in subterms(t) if isinstance(s, Abs))


def is_normal_form(t: Term) -> bool:
    return all(not is_redex(s) for s in subterms(t))


def has_hole(t: Term) -> bool:
    return any(isinstance(s, Hole) for s in subterms(t))


def bounded_nf(t: Term, fuel: int = 1000, max_nodes: int = 20_000) -> Optional[Term]:
    """Normal form within the fuel, or None.  The node cap cuts off terms
    whose size explodes (they cannot reach a small nf inside the budget)."""
    for _ in range(fuel):
        n = beta_step(t)
        if n is None:
            return t
        t = n
        if nodes(t) > max_nodes:
            return None
    return None


def terms(atoms, binders, max_leaves: int):
    """Generated terms: ``atoms`` at the leaves, applications, and
    abstractions over a name drawn from ``binders``."""
    return st.recursive(
        atoms,
        lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(Abs, binders, sub)),
        max_leaves=max_leaves,
    )


def read_wire(wire: str, names: Dict[int, str]) -> Optional[Term]:
    """The term of a wire under the grammar ``T ::= v|...| | @ | (Lv|...|.T)
    | (TT)``, index i named ``names.get(i, f"x{i}")``; None when the
    grammar refuses the wire."""
    pos = 0

    def index() -> int:  # the bars of a variable, from pos
        nonlocal pos
        start = pos
        while wire.startswith("|", pos):
            pos += 1
        return pos - start

    def term() -> Optional[Term]:
        nonlocal pos
        c = wire[pos:pos + 1]
        pos += 1
        if c == "@":
            return Hole()
        if c == "v":
            n = index()
            return Var(names.get(n, f"x{n}")) if n else None
        if c != "(":
            return None
        if wire.startswith("Lv", pos):
            pos += 2
            n = index()
            if not n or not wire.startswith(".", pos):
                return None
            pos += 1
            body = term()
            t = None if body is None else Abs(names.get(n, f"x{n}"), body)
        else:
            fn = term()
            arg = None if fn is None else term()
            t = None if arg is None else App(fn, arg)
        if t is None or not wire.startswith(")", pos):
            return None
        pos += 1
        return t

    t = term()
    return t if pos == len(wire) else None
