"""Lambda terms: alpha congruence, capture-avoiding substitution, normal
order reduction, Church numerals and the combinator library.

One walk, `_codes`, hash-conses subterms by de Bruijn code for ``alpha_eq``
and the def lines of `churing.formats`; one renaming copy, `_renamed`, gives
``canonical_binders``.  `render` renames as it prints, with no copy, and its
walk also prints those def lines, writing a def's name where its node is.

Reduction strategy is leftmost-outermost throughout; ``normalize`` finds
the normal form whenever one exists, so ``beta_eq`` verdicts are as
strong as a fuel-bounded procedure can be.

``substitute`` and ``beta_step`` are the small reference reducer: one
leftmost-outermost contraction, done by copying the term.  ``normalize``
performs the same contractions, in the same order, on a strong
call-by-name environment machine (P. Cregut, "Strongly reducing variants
of the Krivine abstract machine", HOSC 2007):

- the machine runs on the named term itself, with no conversion pass: a
  closure is (term, environment), the environment a linked list of frames
  (name, value), one per binder around the term, innermost first.  A
  variable's value is in the first frame of its name, the frame its de
  Bruijn index would count to; a name no frame holds is free.  A term with
  a hole anywhere is refused before any fuel is spent, by reading its
  ``holed`` field, which each node sets from its children when it is
  built;
- closures run against an explicit argument stack.  An abstraction that
  meets an argument is one contraction and binds it; an abstraction with no
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

from .errors import FuelExhausted, NotANumeral, ValidationError, check_encoded, check_fuel


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
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f != "holed")
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
    holed = False

    def __init__(self, name: str):
        _set_name(self, name)


class Abs(Term):
    __slots__ = ("param", "body", "holed")

    def __init__(self, param: str, body: Term):
        _set_param(self, param)
        _set_body(self, body)
        _set_abs_holed(self, body.holed)


class App(Term):
    __slots__ = ("fn", "arg", "holed")

    def __init__(self, fn: Term, arg: Term):
        _set_fn(self, fn)
        _set_arg(self, arg)
        _set_app_holed(self, fn.holed or arg.holed)


class Hole(Term):
    """Context hole.  Only legal inside contexts, never in reducible terms.
    Every node's ``holed`` says whether a hole is in it, set from the
    children when the node is built, so no walk looks for one."""

    __slots__ = ()
    holed = True


# The constructors set fields through the slot descriptors, which
# Term.__setattr__ does not reach.
_set_name = Var.name.__set__
_set_param, _set_body = Abs.param.__set__, Abs.body.__set__
_set_fn, _set_arg = App.fn.__set__, App.arg.__set__
_set_abs_holed, _set_app_holed = Abs.holed.__set__, App.holed.__set__

HOLE = Hole()


def _binder_names(avoid: frozenset | set, prefix: str = "x") -> Iterator[str]:
    """prefix1, prefix2, ... skipping ``avoid``: with prefix x, the binder
    names of `render`, `canonical_binders`, `_read_back` and
    `lam_to_tm._canonical_wire`."""
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


# ---------------------------------------------------------------------------
# Alpha congruence and substitution


# Marks an application: a task to rebuild one in the iterative traversals
# below, and in normal-form code the application of the two items before it.
_APPLY = object()

_OPEN = float("inf")  # how many binders around a free name or a hole close it


def _codes(t: Term):
    """Hash-cons the subterms of t by de Bruijn code: (0, i) for a bound
    variable of index i, (1, name) for a free name, (2,) for a hole, (3, fn
    key, arg key) or (4, body key).  A key is the place of its code in
    ``codes``, which lists the codes as they first complete in post-order:
    children first, t's last, and equal lists for alpha-equal terms.  Also
    ``loose`` (how many binders around a key close it), ``reps`` (a node of
    each key) and ``closed`` (the key of each closed node, by id).
    Iterative; a closed node is walked once, however often it occurs."""
    keys: dict = {}  # code -> key
    codes: list = []
    loose: list = []
    reps: list = []
    closed: dict = {}
    scope: dict = {}  # name -> depth of its innermost binder, or None
    depth = 0
    out: list = []  # the key of each subterm walked
    todo: list = [t]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is App or cls is Abs:
            k = closed.get(id(t))
            if k is not None:
                out.append(k)
            elif cls is App:
                todo += (t, _APPLY, t.arg, t.fn)
            else:
                todo += (t, (t.param, scope.get(t.param)), t.body)
                scope[t.param] = depth
                depth += 1
            continue
        if cls is Var:
            d = scope.get(t.name)
            if d is None:
                code, lo = (1, t.name), _OPEN
            else:
                code, lo = (0, depth - 1 - d), depth - d
        elif t is _APPLY:
            a = out.pop()
            f = out.pop()
            t = todo.pop()
            code, lo = (3, f, a), max(loose[f], loose[a])
        elif cls is tuple:  # leaving a binder
            name, outer = t
            scope[name] = outer
            depth -= 1
            b = out.pop()
            t = todo.pop()
            code, lo = (4, b), max(loose[b] - 1, 0)
        else:  # a hole
            code, lo = (2,), _OPEN
        k = keys.get(code)
        if k is None:
            k = keys[code] = len(codes)
            codes.append(code)
            loose.append(lo)
            reps.append(t)
        if not lo:
            closed[id(t)] = k
        out.append(k)
    return codes, loose, reps, closed


def alpha_eq(a: Term, b: Term) -> bool:
    """Equal up to the names of binders: the same de Bruijn codes."""
    return _codes(a)[0] == _codes(b)[0]


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


@dataclass(frozen=True)
class NormalizeResult:
    term: Term
    normal: bool
    contractions: int = 0  # contractions performed; the fuel when not normal


def _run_machine(t: Term, fuel: int):
    """Normal form of the hole-free term t and the fuel left; raises
    FuelExhausted when a contraction is due and no fuel is left.

    The normal form is flat code in post-order: an int d >= 0 is the
    variable bound at binder level d (0 = outermost), a str a free variable,
    _APPLY applies the two items before it, and ~d closes the binder of
    level d.  It names no binder and builds no term: equal code is
    alpha-equal terms, compared with list ==.

    The machine runs on t's own nodes.  Values on the argument stack, in
    environments and on the task stack are closures (term, env), neutral
    levels (int) and free names (str).  An environment is None or a frame
    (name, value, next), one frame for each binder around the closure's
    term, innermost first, so a variable's value is in the first frame of
    its name: the frame its de Bruijn index would count to.  A name that no
    frame holds is free and is its own value.  Any other task is an item of
    the normal form, emitted as it is popped."""
    tasks: list = [(t, None)]
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
            cls = type(t)
            if cls is App:  # push the argument
                a = t.arg
                if type(a) is Var:  # the variable's binding itself
                    name = a.name
                    e = env
                    while e is not None and e[0] != name:
                        e = e[2]
                    stack.append(name if e is None else e[1])
                else:
                    stack.append((a, env))
                t = t.fn
            elif cls is Abs:
                if stack:  # a redex: contract it by binding the argument
                    if not fuel:
                        raise FuelExhausted("budget exhausted")
                    fuel -= 1
                    env = (t.param, stack.pop(), env)
                else:  # no argument: go under the binder
                    tasks.append(~depth)
                    env = (t.param, depth, env)
                    depth += 1
                t = t.body
            else:  # a variable
                name = t.name
                e = env
                while e is not None and e[0] != name:
                    e = e[2]
                if e is None:  # a free name
                    t = name
                    break
                t = e[1]
                if type(t) is tuple:
                    t, env = t
                else:  # a neutral level or a free name
                    break
        # a neutral head: normalize its arguments, first argument first
        out.append(t)
        for a in stack:
            tasks += (_APPLY, a)
    return out, fuel


def _normal_code(t: Term, fuel: int):
    """The normal-form code of t and the fuel left; the code is None when t
    needs more than ``fuel`` contractions.  A term that holds a hole, even
    in an argument its reduction would discard, is refused before any fuel
    is spent: its ``holed`` field says so, with no walk."""
    check_fuel(fuel)
    if t.holed:
        raise ValidationError("normalize expects a hole-free term")
    try:
        return _run_machine(t, fuel)
    except FuelExhausted:
        return None, 0


def _read_back(nf: list, t: Term) -> Term:
    """The term of normal-form code of t, binder level d named with the
    (d+1)-th name of `_binder_names` (t's free names): none shadows another
    or a free name."""
    supply = _binder_names(free_vars(t))
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
    nf, left = _normal_code(t, fuel)
    if nf is None:
        return NormalizeResult(t, False, fuel)
    return NormalizeResult(_read_back(nf, t), True, fuel - left)


EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"


def beta_eq(a: Term, b: Term, fuel: int = 10_000) -> str:
    """Whether a and b have the same normal form, each reached within
    ``fuel`` contractions.  The machine emits each normal form as flat code,
    bound variables as de Bruijn levels, and two codes are equal exactly
    when the named terms are alpha-equal; no term is read back."""
    nf_a = _normal_code(a, fuel)[0]
    nf_b = _normal_code(b, fuel)[0]
    if nf_a is None or nf_b is None:
        return UNKNOWN
    return EQUAL if nf_a == nf_b else DISTINCT


# ---------------------------------------------------------------------------
# Church numerals


def church_encode(n: int) -> Term:
    check_encoded(n, "Church numeral")
    body: Term = Var("y")
    for _ in range(n):
        body = App(Var("x"), body)
    return Abs("x", Abs("y", body))


def church_decode(t: Term, fuel: int = 100_000) -> int:
    """n when t normalizes within ``fuel`` contractions to the numeral
    \\f x. f (... (f x)), n applications of f; its code is n zeros, a one,
    n applications and the closing of both binders.  Any other normal form
    raises NotANumeral, which carries that normal form as ``term``."""
    nf = _normal_code(t, fuel)[0]
    if nf is None:
        raise FuelExhausted("term did not normalize within fuel")
    n = len(nf) // 2 - 1
    if nf == [0] * n + [1] + [_APPLY] * n + [~1, ~0]:
        return n
    raise NotANumeral(term=_read_back(nf, t))


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
    a spine and any non-atomic argument are parenthesized."""
    return _render(t, {}, free_vars(t))


def _render(top: Term, refs: dict, avoid: frozenset | set) -> str:
    """The text of `render`, binders named from `_binder_names` over
    ``avoid``, and each node but top whose id ``refs`` maps to a name
    written as that name, as a variable would be: the def lines of
    `churing.formats`.  A hole is ``[]``.  Iterative: each term is printed
    in place, and what follows it waits on a stack of terms, literal text
    and binder scopes to close."""
    supply = _binder_names(avoid)
    env: dict = {}  # name -> new name of its innermost binder
    out: list = []
    todo: list = [top]
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
                while True:
                    scope.append((t.param, env.get(t.param, t.param)))
                    env[t.param] = fresh = next(supply)
                    params.append(fresh)
                    t = t.body
                    if type(t) is not Abs or id(t) in refs:
                        break
                todo.append(scope)
                out.append("\\" + " ".join(params) + ". ")
                t = refs.get(id(t), t)
                continue
            elif cls is App:
                while True:  # arguments pushed last one first
                    a = t.arg
                    if type(a) is Var:
                        todo.append(" " + env.get(a.name, a.name))
                    elif id(a) in refs:
                        todo.append(" " + refs[id(a)])
                    elif type(a) is Hole:
                        todo += (a, " ")
                    else:
                        todo += (")", a, " (")
                    t = t.fn
                    if type(t) is not App or id(t) in refs:
                        break
                t = refs.get(id(t), t)
                if type(t) is Abs:
                    out.append("(")
                    todo.append(")")
                continue
            elif cls is list:  # leaving the scope of a run of binders
                for name, outer in reversed(t):
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
    so substituting a subterm textually captures nothing.  The machine BR1
    relies on this: `lam_to_tm._canonical_wire` writes the wire of this
    copy without building it, and must give the same wire and names."""
    return _renamed(t, _binder_names(free_vars(t)))


def _renamed(top: Term, supply: Iterator[str]) -> Term:
    """A copy of ``top`` with each binder renamed from ``supply`` in
    pre-order."""
    env: dict = {}  # name -> new name of its innermost binder, or None
    out: list = []
    todo: list = [top]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is Var:
            fresh = env.get(t.name)
            out.append(t if fresh is None else Var(fresh))
        elif cls is App:
            todo += (_APPLY, t.arg, t.fn)
        elif cls is Abs:
            fresh = next(supply)  # numbered on entry: pre-order
            todo += ((t.param, env.get(t.param), fresh), t.body)
            env[t.param] = fresh
        elif t is _APPLY:
            a = out.pop()
            out[-1] = App(out[-1], a)
        elif cls is tuple:  # leaving a binder
            name, outer, fresh = t
            env[name] = outer
            out[-1] = Abs(fresh, out[-1])
        else:  # a hole
            out.append(t)
    return out[0]
