"""Lambda terms: alpha congruence, capture-avoiding substitution, normal
order reduction, Church numerals and the combinator library.

Reduction strategy is leftmost-outermost throughout; ``normalize`` finds
the normal form whenever one exists, so ``beta_eq`` verdicts are as
strong as a fuel-bounded procedure can be.

``substitute`` and ``beta_step`` are the small reference reducer: one
leftmost-outermost contraction, done by copying the term.  ``normalize``
performs the same contractions, in the same order, on a strong
call-by-name environment machine (P. Cregut, "Strongly reducing variants
of the Krivine abstract machine", HOSC 2007):

- the term is converted once to de Bruijn indices; free variables keep
  their names;
- the machine runs closures (term, environment) against an explicit
  argument stack, the environment a linked list.  An abstraction that meets
  an argument is one contraction and binds it; an abstraction with no
  argument is entered under a fresh neutral level;
- an argument that is a variable is pushed as that variable's binding, not
  as a closure over the variable, so no chain of variable closures builds
  up (Omega would otherwise walk a chain as long as its run);
- a neutral head (a level or a free name) has its arguments normalized
  left to right from an explicit task stack;
- the normal form comes out as one flat list in post-order, de Bruijn
  levels for bound variables, names for free ones, and a marker for each
  application and each closed binder.  ``normalize`` reads it back to named
  terms, each binder named by its depth.  ``beta_eq`` compares two such
  lists with ``==``, which is alpha-equality of the terms (N. G. de Bruijn,
  "Lambda calculus notation with nameless dummies", 1972), and
  ``church_decode`` matches one against the shape of a numeral; neither
  builds a term.

There is no sharing: a closure is never updated in place, so an argument
used twice is reduced twice, just as substitution copies it.  Sharing
(call-by-need) would change the contraction count, and fuel counts
leftmost-outermost contractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import FuelExhausted, NotANumeral, ValidationError, check_fuel


# ---------------------------------------------------------------------------
# Terms


class Term:
    """A term is immutable, and compares and hashes by structure, walking it
    with an explicit stack, so a term too deep for recursion (a large Church
    numeral) works."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: terms are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: terms are immutable")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def _preorder(self) -> list:
        """The nodes in pre-order: a variable's name, 1 and the parameter for
        an abstraction, 2 for an application, 3 for a hole."""
        out: list = []
        todo: list = [self]
        while todo:
            t = todo.pop()
            cls = type(t)
            if cls is Var:
                out.append(t.name)
            elif cls is App:
                out.append(2)
                todo += (t.arg, t.fn)
            elif cls is Abs:
                out += (1, t.param)
                todo.append(t.body)
            else:
                out.append(3)
        return out

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self):
        return hash(tuple(self._preorder()))


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)


class Abs(Term):
    __slots__ = ("param", "body")

    def __init__(self, param: str, body: Term):
        _set_param(self, param)
        _set_body(self, body)


class App(Term):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        _set_fn(self, fn)
        _set_arg(self, arg)


class Hole(Term):
    """Context hole.  Only legal inside contexts, never in reducible terms."""

    __slots__ = ()


# The constructors set fields through the slot descriptors, which
# Term.__setattr__ does not reach.
_set_name = Var.name.__set__
_set_param, _set_body = Abs.param.__set__, Abs.body.__set__
_set_fn, _set_arg = App.fn.__set__, App.arg.__set__

HOLE = Hole()


def _binder_names(avoid: frozenset | set, prefix: str = "x") -> Iterator[str]:
    """prefix1, prefix2, ... skipping ``avoid``: with prefix x, the binder
    names of `render`, `canonical_binders` and `normalize`."""
    return (n for n in (f"{prefix}{i}" for i in itertools.count(1)) if n not in avoid)


def fresh_name(base: str = "x", avoid: frozenset | set = frozenset()) -> str:
    """The first ``base~i`` (i = 1, 2, ...) that is not in ``avoid``."""
    return next(_binder_names(avoid, (base.split("~")[0] or "x") + "~"))


def lam(params, body: Term) -> Term:
    """Nested abstraction sugar: lam("x y", t) == Abs('x', Abs('y', t))."""
    if isinstance(params, str):
        params = params.split()
    for p in reversed(params):
        body = Abs(p, body)
    return body


def app(*terms: Term) -> Term:
    """Left-associated application of two or more terms."""
    out = terms[0]
    for t in terms[1:]:
        out = App(out, t)
    return out


def subterms(t: Term) -> Iterator[Term]:
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Abs):
            stack.append(s.body)
        elif isinstance(s, App):
            stack.append(s.arg)
            stack.append(s.fn)


def free_vars(t: Term) -> frozenset:
    out = set()
    bound: dict = {}  # name -> number of enclosing binders of that name
    todo: list = [t]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is Var:
            if not bound.get(t.name):
                out.add(t.name)
        elif cls is App:
            todo += (t.arg, t.fn)
        elif cls is Abs:
            bound[t.param] = bound.get(t.param, 0) + 1
            todo += (t.param, t.body)  # the name marks leaving the binder
        elif cls is str:
            bound[t] -= 1
    return frozenset(out)


def bound_vars(t: Term) -> frozenset:
    return frozenset(s.param for s in subterms(t) if isinstance(s, Abs))


# ---------------------------------------------------------------------------
# Alpha congruence and substitution


def alpha_eq(a: Term, b: Term) -> bool:
    """Equal up to the names of binders.  Iterative: both terms are walked
    in step on one stack, a bound variable compared by its binder's depth."""
    scope_a: dict = {}  # name -> depth of its innermost binder
    scope_b: dict = {}
    depth = 0
    todo: list = [(a, b)]
    while todo:
        a, b = todo.pop()
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            if scope_a.get(a.name, a.name) != scope_b.get(b.name, b.name):
                return False
        elif cls is App:
            todo += ((a.arg, b.arg), (a.fn, b.fn))
        elif cls is Abs:
            todo += (((a.param, scope_a.get(a.param)), (b.param, scope_b.get(b.param))),
                     (a.body, b.body))
            scope_a[a.param] = scope_b[b.param] = depth
            depth += 1
        elif cls is tuple:  # leaving a binder pair
            depth -= 1
            for scope, (name, outer) in ((scope_a, a), (scope_b, b)):
                if outer is None:
                    del scope[name]
                else:
                    scope[name] = outer
        elif cls is not Hole:
            return False
    return True


def substitute(m: Term, x: str, n: Term) -> Term:
    """Capture-avoiding M[x := N]; binders that would capture FV(N) are
    renamed fresh before descending."""
    fv_n = free_vars(n)

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return n if t.name == x else t
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, Abs):
            if t.param == x:
                return t
            if t.param in fv_n and x in free_vars(t.body):
                avoid = fv_n | free_vars(t.body) | {x}
                y = fresh_name(t.param, avoid)
                renamed = substitute(t.body, t.param, Var(y))
                return Abs(y, go(renamed))
            return Abs(t.param, go(t.body))
        raise ValidationError("substitution over a context hole")

    return go(m)


# ---------------------------------------------------------------------------
# Beta reduction


def is_redex(t: Term) -> bool:
    return isinstance(t, App) and isinstance(t.fn, Abs)


def beta_step(t: Term) -> Optional[Term]:
    """Contract the leftmost-outermost redex; None when t is in beta-nf."""
    if is_redex(t):
        return substitute(t.fn.body, t.fn.param, t.arg)
    if isinstance(t, App):
        f = beta_step(t.fn)
        if f is not None:
            return App(f, t.arg)
        a = beta_step(t.arg)
        if a is not None:
            return App(t.fn, a)
        return None
    if isinstance(t, Abs):
        b = beta_step(t.body)
        return None if b is None else Abs(t.param, b)
    return None


def is_normal_form(t: Term) -> bool:
    return all(not is_redex(s) for s in subterms(t))


@dataclass(frozen=True)
class NormalizeResult:
    term: Term
    normal: bool
    contractions: int = 0  # contractions performed; the fuel when not normal


# Marks an application: a task to rebuild one in the iterative traversals
# below, and in normal-form code the application of the two items before it.
_APPLY = object()
# The machine's code: an int is a bound variable (0 = innermost binder), a
# str a free variable, (_ABS, body) an abstraction, (_APP, fn, arg) an
# application.
_ABS, _APP = 0, 1


def _to_code(t: Term):
    """De Bruijn code of a hole-free term, and its free variable names."""
    scope: dict = {}  # name -> depth of its innermost binder
    free = set()
    out: list = []
    todo: list = [t]
    depth = 0
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is Var:
            d = scope.get(t.name)
            if d is None:
                free.add(t.name)
                out.append(t.name)
            else:
                out.append(depth - 1 - d)
        elif tt is App:
            todo += (_APPLY, t.arg, t.fn)
        elif tt is Abs:
            todo += ((t.param, scope.get(t.param)), t.body)
            scope[t.param] = depth
            depth += 1
        elif t is _APPLY:
            a = out.pop()
            out[-1] = (_APP, out[-1], a)
        elif tt is tuple:  # leaving a binder
            name, outer = t
            if outer is None:
                del scope[name]
            else:
                scope[name] = outer
            depth -= 1
            out[-1] = (_ABS, out[-1])
        else:
            raise ValidationError("normalize expects a hole-free term")
    return out[0], free


def _run_machine(code, fuel: int):
    """Normal form of the code and the fuel left; raises FuelExhausted when
    a contraction is due and no fuel is left.

    The normal form is flat code in post-order: an int d >= 0 is the
    variable bound at binder level d (0 = outermost), a str a free variable,
    _APPLY applies the two items before it, and ~d closes the binder of
    level d.  It names no binder and builds no term: equal code is
    alpha-equal terms, compared with list ==.

    Values on the argument stack, in environments and on the task stack are
    closures (code, env), neutral levels (int) and free names (str); an
    environment is None or (value, next).  Any other task is an item of the
    normal form, emitted as it is popped."""
    tasks: list = [(code, None)]
    out: list = []
    depth = 0
    while tasks:
        v = tasks.pop()
        if type(v) is not tuple:
            out.append(v)
            if type(v) is int and v < 0:  # leaving the binder of level ~v
                depth = ~v
            continue
        t, env = v
        stack: list = []
        while True:
            if type(t) is tuple:
                if t[0]:  # application: push the argument
                    a = t[2]
                    if type(a) is int:  # the variable's binding itself
                        e = env
                        while a:
                            e = e[1]
                            a -= 1
                        stack.append(e[0])
                    elif type(a) is str:
                        stack.append(a)
                    else:
                        stack.append((a, env))
                    t = t[1]
                elif stack:  # a redex: contract it by binding the argument
                    if not fuel:
                        raise FuelExhausted("budget exhausted")
                    fuel -= 1
                    env = (stack.pop(), env)
                    t = t[1]
                else:  # no argument: go under the binder
                    tasks.append(~depth)
                    env = (depth, env)
                    depth += 1
                    t = t[1]
            elif type(t) is int:
                e = env
                while t:
                    e = e[1]
                    t -= 1
                t = e[0]
                if type(t) is tuple:
                    t, env = t
                else:  # a neutral level or a free name
                    break
            else:
                break
        # a neutral head: normalize its arguments, first argument first
        out.append(t)
        for a in stack:
            tasks += (_APPLY, a)
    return out, fuel


def _normal_code(t: Term, fuel: int):
    """The normal-form code of t, its free names and the fuel left; the code
    is None when t needs more than ``fuel`` contractions."""
    check_fuel(fuel)
    code, free = _to_code(t)
    try:
        nf, left = _run_machine(code, fuel)
    except FuelExhausted:
        return None, free, 0
    return nf, free, left


def _read_back(nf: list, free) -> Term:
    """The term of normal-form code, binder level d named with the (d+1)-th
    name of `_binder_names` (free): none shadows another or a free name."""
    supply = _binder_names(free)
    levels: list = []  # the Var of each binder level
    free_var: dict = {}
    out: list = []
    for x in nf:
        if x is _APPLY:
            a = out.pop()
            out[-1] = App(out[-1], a)
        elif type(x) is str:
            v = free_var.get(x)
            if v is None:
                v = free_var[x] = Var(x)
            out.append(v)
        else:
            d = x if x >= 0 else ~x
            while len(levels) <= d:
                levels.append(Var(next(supply)))
            if x >= 0:
                out.append(levels[d])
            else:
                out[-1] = Abs(levels[d].name, out[-1])
    return out[0]


def normalize(t: Term, fuel: int = 10_000) -> NormalizeResult:
    """Leftmost-outermost normal form of t when it needs at most ``fuel``
    contractions; otherwise t itself, marked not normal."""
    nf, free, left = _normal_code(t, fuel)
    if nf is None:
        return NormalizeResult(t, False, fuel)
    return NormalizeResult(_read_back(nf, free), True, fuel - left)


EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"


def beta_eq(a: Term, b: Term, fuel: int = 10_000) -> str:
    """Whether a and b have the same normal form, each reached within
    ``fuel`` contractions.  The normal forms are compared as de Bruijn code,
    which is equal exactly when the named terms are alpha-equal."""
    nf_a = _normal_code(a, fuel)[0]
    nf_b = _normal_code(b, fuel)[0]
    if nf_a is None or nf_b is None:
        return UNKNOWN
    return EQUAL if nf_a == nf_b else DISTINCT


# ---------------------------------------------------------------------------
# Church numerals


def church_encode(n: int) -> Term:
    if n < 0:
        raise ValidationError("Church numerals encode naturals only")
    body: Term = Var("y")
    for _ in range(n):
        body = App(Var("x"), body)
    return Abs("x", Abs("y", body))


def church_decode(t: Term, fuel: int = 100_000) -> int:
    """n when t normalizes within ``fuel`` contractions to the numeral
    \\f x. f (... (f x)), n applications of f; its code is n zeros, a one,
    n applications and the closing of both binders."""
    nf, free, _ = _normal_code(t, fuel)
    if nf is None:
        raise FuelExhausted("term did not normalize within fuel")
    n = len(nf) // 2 - 1
    if nf == [0] * n + [1] + [_APPLY] * n + [~1, ~0]:
        return n
    raise NotANumeral(f"not a numeral: {render(_read_back(nf, free))}")


def fixed_point(f: Term) -> Term:
    """X with beta_step(X) syntactically App(f, X): X = WW, W = \\x.f(xx)."""
    x = fresh_name("x", free_vars(f))
    w = Abs(x, App(f, App(Var(x), Var(x))))
    return App(w, w)


# ---------------------------------------------------------------------------
# Combinators


def combinator(name: str) -> Term:
    builders = {
        "K": _comb_k,
        "I": _comb_i,
        "S": _comb_succ,
        "D": _comb_d,
        "Q": _comb_q,
        "R": _comb_r,
        "T": _comb_t,
        "P": _comb_p,
        "OMEGA": _comb_omega,
    }
    try:
        return builders[name]()
    except KeyError:
        raise ValidationError(f"unknown combinator {name!r}") from None


def _comb_k() -> Term:
    return lam("x y", Var("x"))


def _comb_i() -> Term:
    return Abs("x", Var("x"))


def _comb_succ() -> Term:
    # successor on Church numerals
    return lam("u x y", App(Var("x"), app(Var("u"), Var("x"), Var("y"))))


def _comb_d() -> Term:
    # pairing: D X Y 0 -> X, D X Y (m+1) -> Y
    return lam("x y z", app(Var("z"), App(_comb_k(), Var("y")), Var("x")))


def _comb_q() -> Term:
    d, s = _comb_d(), _comb_succ()
    v0, v1 = church_encode(0), church_encode(1)
    return lam(
        "y v",
        app(
            d,
            App(s, App(Var("v"), v0)),
            app(Var("y"), App(Var("v"), v0), App(Var("v"), v1)),
        ),
    )


def _comb_r() -> Term:
    # Bernays' recursion combinator
    d, q = _comb_d(), _comb_q()
    return lam(
        "x y u",
        app(Var("u"), App(q, Var("y")), app(d, church_encode(0), Var("x")), church_encode(1)),
    )


def _comb_t() -> Term:
    d, s = _comb_d(), _comb_succ()
    inner = lam(
        "u v",
        app(Var("u"), App(Var("x"), App(s, Var("v"))), Var("u"), App(s, Var("v"))),
    )
    return Abs("x", app(d, church_encode(0), inner))


def _comb_p() -> Term:
    t = _comb_t()
    return lam(
        "x y",
        app(App(t, Var("x")), App(Var("x"), Var("y")), App(t, Var("x")), Var("y")),
    )


def _comb_omega() -> Term:
    w = Abs("x", App(Var("x"), Var("x")))
    return App(w, w)


# ---------------------------------------------------------------------------
# Printing


def render(t: Term) -> str:
    """Deterministic text of t.  Binders are renamed as they are printed,
    and text runs in pre-order, so they get the names `canonical_binders`
    gives: alpha-equal terms print identically.

    Application spines are left associated; an abstraction at the head of
    a spine and any non-atomic argument are parenthesized.  Iterative: each
    term is printed in place, and what follows it waits on a stack of terms,
    literal text and binder scopes to close."""
    supply = _binder_names(free_vars(t))
    env: dict = {}  # name -> new name of its innermost binder
    out: list = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        while True:
            cls = type(t)
            if cls is str:
                out.append(t)
            elif cls is Var:
                out.append(env.get(t.name, t.name))
            elif cls is Abs:
                params = []
                scope = []  # (name, its outer renaming) to restore on leaving
                while type(t) is Abs:
                    scope.append((t.param, env.get(t.param)))
                    env[t.param] = next(supply)
                    params.append(env[t.param])
                    t = t.body
                todo.append(scope)
                out.append("\\" + " ".join(params) + ". ")
                continue
            elif cls is App:
                while type(t) is App:  # arguments pushed last one first
                    a = t.arg
                    if type(a) is Var:
                        todo.append(" " + env.get(a.name, a.name))
                    elif type(a) is Hole:
                        todo.append(" []")
                    else:
                        todo += (")", a, " (")
                    t = t.fn
                if type(t) is Abs:
                    out.append("(")
                    todo.append(")")
                continue
            elif cls is list:  # leaving the scope of a run of binders
                for name, outer in reversed(t):
                    if outer is None:
                        del env[name]
                    else:
                        env[name] = outer
            elif cls is Hole:
                out.append("[]")
            else:
                raise ValidationError(f"cannot print {t!r}")
            break
    return "".join(out)


def canonical_binders(t: Term) -> Term:
    """A copy of t with every binder renamed x1, x2, ... in pre-order,
    skipping the free variables; alpha-equal terms give equal copies.
    `render` prints these names without building the copy.

    Afterwards every binder has its own name and none is a free variable,
    so substituting a subterm textually captures nothing: the machine BR1
    (`lam_to_tm.br1_on_tm`, `lam_to_tm.reduce_on_tm`) relies on this."""
    supply = _binder_names(free_vars(t))
    env: dict = {}  # name -> new name of its innermost binder
    out: list = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            out.append(Var(env.get(t.name, t.name)))
        elif isinstance(t, App):
            todo += (_APPLY, t.arg, t.fn)
        elif isinstance(t, Abs):
            fresh = next(supply)  # numbered on entry: pre-order
            todo += ((t.param, env.get(t.param), fresh), t.body)
            env[t.param] = fresh
        elif t is _APPLY:
            a = out.pop()
            out[-1] = App(out[-1], a)
        elif type(t) is tuple:  # leaving a binder
            name, outer, fresh = t
            if outer is None:
                del env[name]
            else:
                env[name] = outer
            out[-1] = Abs(fresh, out[-1])
        else:
            out.append(t)
    return out[0]
