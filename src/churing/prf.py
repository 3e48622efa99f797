"""Partial recursive functions: AST, fuel-bounded evaluator and the
derived library (arithmetic, predicates, bounded operators).

Recursion is always on the last argument.  Values are Python ints, which
are arbitrary precision; the machine-to-function compiler produces codes
like 2^w * 3^q * 5^p, so this matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from .errors import Fuel, GuardExceeded, ValidationError


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class PrfExpr:
    __slots__ = ()

    @property
    def arity(self) -> int:
        return arity_check(self)


@dataclass(frozen=True)
class Zero(PrfExpr):
    k: int
    __slots__ = ("k",)


@dataclass(frozen=True)
class Succ(PrfExpr):
    __slots__ = ()


@dataclass(frozen=True)
class Proj(PrfExpr):
    k: int
    i: int
    __slots__ = ("k", "i")


@dataclass(frozen=True)
class Compose(PrfExpr):
    g: PrfExpr
    hs: Tuple[PrfExpr, ...]
    __slots__ = ("g", "hs")

    def __post_init__(self):
        object.__setattr__(self, "hs", tuple(self.hs))


@dataclass(frozen=True)
class PrimRec(PrfExpr):
    """f(x, 0) = g(x); f(x, m+1) = h(x, m, f(x, m))."""

    g: PrfExpr
    h: PrfExpr
    __slots__ = ("g", "h")


@dataclass(frozen=True)
class Mu(PrfExpr):
    """Least y with g(x, y) = 0 and g(x, d) defined-nonzero for d < y."""

    g: PrfExpr
    __slots__ = ("g",)


@dataclass(frozen=True)
class Named(PrfExpr):
    """A derived function carrying its pure-constructor definition.

    ``native`` is an optional big-integer shortcut the evaluator may use;
    extensional agreement with ``definition`` is a tested invariant.
    """

    name: str
    definition: PrfExpr
    native: Optional[Callable] = field(default=None, compare=False)


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


def expand(e: PrfExpr) -> PrfExpr:
    """Strip every Named wrapper, leaving only the five raw constructors."""
    if isinstance(e, Named):
        return expand(e.definition)
    if isinstance(e, Compose):
        return Compose(expand(e.g), tuple(expand(h) for h in e.hs))
    if isinstance(e, PrimRec):
        return PrimRec(expand(e.g), expand(e.h))
    if isinstance(e, Mu):
        return Mu(expand(e.g))
    return e


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(e: PrfExpr, args: Sequence[int], fuel) -> int:
    """Evaluate e on naturals.  Fuel counts node evaluations and mu probes;
    exhaustion raises FuelExhausted (never conflated with divergence)."""
    if isinstance(fuel, int):
        fuel = Fuel(fuel)
    k = arity_check(e)
    if len(args) != k:
        raise ValidationError(f"arity mismatch: expected {k} args, got {len(args)}")
    if any(a < 0 for a in args):
        raise ValidationError("arguments must be naturals")
    return _eval(e, tuple(args), fuel)


def _eval(e: PrfExpr, args: tuple, fuel: Fuel) -> int:
    fuel.spend()
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
            fuel.spend()  # one unit per probe on top of the inner evaluation
            if _eval(e.g, xs + (y,), fuel) == 0:
                return y
            y += 1
    raise ValidationError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Derived library


def _const_expr(n: int, k: int) -> PrfExpr:
    # built one by one: S(S(...Z_k...))
    e: PrfExpr = Zero(k)
    for _ in range(n):
        e = Compose(Succ(), (e,))
    return e


def const(n: int, k: int = 1) -> PrfExpr:
    return Named(f"const{n}/{k}", _const_expr(n, k), native=lambda *xs, _n=n: _n)


def _named(name, defn, native=None):
    arity_check(defn)
    return Named(name, defn, native=native)


def _mk_add() -> Named:
    defn = PrimRec(Proj(1, 1), Compose(Succ(), (Proj(3, 3),)))
    return _named("add", defn, native=lambda m, n: m + n)


def _mk_mul() -> Named:
    add = _mk_add()
    defn = PrimRec(Zero(1), Compose(add, (Proj(3, 1), Proj(3, 3))))
    return _named("mul", defn, native=lambda m, n: m * n)


def _mk_exp() -> Named:
    mul = _mk_mul()
    defn = PrimRec(const(1, 1), Compose(mul, (Proj(3, 1), Proj(3, 3))))
    return _named("exp", defn, native=lambda m, n: m**n)


def _mk_pred() -> Named:
    defn = PrimRec(Zero(0), Proj(2, 1))
    return _named("pred", defn, native=lambda n: max(n - 1, 0))


def _mk_sg() -> Named:
    defn = PrimRec(Zero(0), Compose(Succ(), (Zero(2),)))
    return _named("sg", defn, native=lambda n: 1 if n else 0)


def _mk_monus() -> Named:
    pred = _mk_pred()
    defn = PrimRec(Proj(1, 1), Compose(pred, (Proj(3, 3),)))
    return _named("monus", defn, native=lambda m, n: max(m - n, 0))


def _mk_absdiff() -> Named:
    add, monus = _mk_add(), _mk_monus()
    swapped = Compose(monus, (Proj(2, 2), Proj(2, 1)))
    defn = Compose(add, (monus, swapped))
    return _named("absdiff", defn, native=lambda m, n: abs(m - n))


def _mk_eq() -> Named:
    sg, monus, absdiff = _mk_sg(), _mk_monus(), _mk_absdiff()
    defn = Compose(monus, (const(1, 2), Compose(sg, (absdiff,))))
    return _named("eq", defn, native=lambda m, n: 1 if m == n else 0)


def _mk_lt() -> Named:
    sg, monus = _mk_sg(), _mk_monus()
    defn = Compose(sg, (Compose(monus, (Proj(2, 2), Proj(2, 1))),))
    return _named("lt", defn, native=lambda m, n: 1 if m < n else 0)


def pnot(p: PrfExpr) -> PrfExpr:
    """1 - chi_P."""
    k = arity_check(p)
    return Compose(_mk_monus(), (const(1, k), p))


def pand(p: PrfExpr, q: PrfExpr) -> PrfExpr:
    return Compose(_mk_mul(), (p, q))


def por(p: PrfExpr, q: PrfExpr) -> PrfExpr:
    return Compose(_mk_sg(), (Compose(_mk_add(), (p, q)),))


def bounded_sum(g: PrfExpr) -> PrfExpr:
    """f(x, n) = sum_{i=1..n} g(x, i); g has arity k+1, f has arity k+1."""
    kp1 = arity_check(g)
    k = kp1 - 1
    projs = tuple(Proj(k + 2, j) for j in range(1, k + 1))
    g_at_succ = Compose(g, projs + (Compose(Succ(), (Proj(k + 2, k + 1),)),))
    h = Compose(_mk_add(), (Proj(k + 2, k + 2), g_at_succ))
    return PrimRec(Zero(k), h)


def bounded_prod(g: PrfExpr) -> PrfExpr:
    kp1 = arity_check(g)
    k = kp1 - 1
    projs = tuple(Proj(k + 2, j) for j in range(1, k + 1))
    g_at_succ = Compose(g, projs + (Compose(Succ(), (Proj(k + 2, k + 1),)),))
    h = Compose(_mk_mul(), (Proj(k + 2, k + 2), g_at_succ))
    return PrimRec(const(1, k) if k else const(1, 0), h)


def forall_le(r: PrfExpr) -> PrfExpr:
    """S(x, n) iff R(x, i) for all 1 <= i <= n."""
    return bounded_prod(r)


def exists_le(r: PrfExpr) -> PrfExpr:
    """T(x, n) iff R(x, i) for some 1 <= i <= n: 1 - prod(1 - R)."""
    kp1 = arity_check(r)
    return Compose(
        _mk_monus(), (const(1, kp1), bounded_prod(pnot(r)))
    )


def exists_le0(r: PrfExpr) -> PrfExpr:
    """Like exists_le but the witness range includes 0."""
    kp1 = arity_check(r)
    k = kp1 - 1
    projs = tuple(Proj(kp1, j) for j in range(1, k + 1))
    at_zero = Compose(r, projs + (Zero(kp1),))
    return por(at_zero, exists_le(r))


def cases(fs: Sequence[PrfExpr], rs: Sequence[PrfExpr]) -> PrfExpr:
    """h(x) = f_i(x) for the i with R_i(x); the R_i must partition N^k."""
    if len(fs) != len(rs) or not fs:
        raise ValidationError("cases needs matching, nonempty function/relation lists")
    arities = {arity_check(e) for e in list(fs) + list(rs)}
    if len(arities) != 1:
        raise ValidationError(f"cases: arities differ: {sorted(arities)}")
    add = _mk_add()
    terms = [pand(f, r) for f, r in zip(fs, rs)]
    out = terms[0]
    for t in terms[1:]:
        out = Compose(add, (out, t))
    return out


def bounded_mu(r: PrfExpr) -> PrfExpr:
    """f(x, n) = least y <= n with R(x, y) (y may be 0), else 0."""
    kp1 = arity_check(r)
    k = kp1 - 1
    # h(x, y, acc): if exists z <= y R(x, z) -> acc
    #               elif R(x, y+1)          -> y + 1
    #               else                    -> 0
    ha = k + 2  # arity of h
    projs = tuple(Proj(ha, j) for j in range(1, k + 1))
    y_ = Proj(ha, k + 1)
    acc = Proj(ha, k + 2)
    found_below = Compose(exists_le0(r), projs + (y_,))
    r_at_succ_y = Compose(r, projs + (Compose(Succ(), (y_,)),))
    succ_y = Compose(Succ(), (y_,))
    h = Compose(
        _mk_add(),
        (
            pand(found_below, acc),
            pand(pand(pnot(found_below), r_at_succ_y), succ_y),
        ),
    )
    return PrimRec(Zero(k), h)


def _mk_divides() -> Named:
    eq, mul = _mk_eq(), _mk_mul()
    # divides(d, m) = [m = 0] or exists 1 <= q <= m with q*d = m
    witness = Compose(eq, (Compose(mul, (Proj(3, 3), Proj(3, 1))), Proj(3, 2)))
    m_is_zero = Compose(eq, (Zero(2), Proj(2, 2)))
    ex = Compose(exists_le(witness), (Proj(2, 1), Proj(2, 2), Proj(2, 2)))
    defn = por(m_is_zero, ex)

    def native(d, m):
        if d == 0:
            return 1 if m == 0 else 0
        return 1 if m % d == 0 else 0

    return _named("divides", defn, native=native)


def _mk_prime() -> Named:
    lt, eq, divides = _mk_lt(), _mk_eq(), _mk_divides()
    # prime(n): n > 1 and every 1 <= d <= n dividing n is 1 or n
    d_ok = por(
        pnot(Compose(divides, (Proj(2, 2), Proj(2, 1)))),
        por(Compose(eq, (Proj(2, 2), const(1, 2))), Compose(eq, (Proj(2, 2), Proj(2, 1)))),
    )
    all_ok = Compose(forall_le(d_ok), (Proj(1, 1), Proj(1, 1)))
    defn = pand(Compose(lt, (const(1, 1), Proj(1, 1))), all_ok)

    def native(n):
        if n < 2:
            return 0
        return 1 if all(n % d for d in range(2, int(n**0.5) + 1)) else 0

    return _named("prime", defn, native=native)


def _mk_div() -> Named:
    # floor division, with n // 0 = 0; the pure form is a bounded search
    lt, mul = _mk_lt(), _mk_mul()
    # div(m, d) = mu q <= m [ m < (q+1)*d ]  (0 when d = 0 since m < 0*d fails)
    over = Compose(
        lt,
        (Proj(3, 1), Compose(mul, (Compose(Succ(), (Proj(3, 3),)), Proj(3, 2)))),
    )
    defn = Compose(bounded_mu(over), (Proj(2, 1), Proj(2, 2), Proj(2, 1)))
    return _named("div", defn, native=lambda m, d: m // d if d else 0)


def _mk_mod() -> Named:
    monus, mul, div = _mk_monus(), _mk_mul(), _mk_div()
    defn = Compose(monus, (Proj(2, 1), Compose(mul, (div, Proj(2, 2)))))
    return _named("mod", defn, native=lambda m, d: m % d if d else m)


def _mk_extract() -> Named:
    """extract(p, m) = largest e with p^e | m (0 for degenerate inputs)."""
    divides, ex = _mk_divides(), _mk_exp()
    # bounded mu over e <= m of NOT( p^(e+1) | m ), i.e. first e whose
    # successor power fails to divide
    p_pow = Compose(ex, (Proj(3, 1), Compose(Succ(), (Proj(3, 3),))))
    fails = pnot(Compose(divides, (p_pow, Proj(3, 2))))
    defn = Compose(bounded_mu(fails), (Proj(2, 1), Proj(2, 2), Proj(2, 2)))

    def native(p, m):
        if p < 2 or m == 0:
            return 0
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        return e

    return _named("extract", defn, native=native)


def _mk_pow2() -> Named:
    return _named("pow2", Compose(_mk_exp(), (const(2, 1), Proj(1, 1))), native=lambda n: 2**n)


def _mk_pow3() -> Named:
    return _named("pow3", Compose(_mk_exp(), (const(3, 1), Proj(1, 1))), native=lambda n: 3**n)


_BUILDERS = {
    "id": lambda: _named("id", Proj(1, 1), native=lambda x: x),
    "add": _mk_add,
    "mul": _mk_mul,
    "exp": _mk_exp,
    "pred": _mk_pred,
    "sg": _mk_sg,
    "monus": _mk_monus,
    "absdiff": _mk_absdiff,
    "eq": _mk_eq,
    "lt": _mk_lt,
    "divides": _mk_divides,
    "prime": _mk_prime,
    "div": _mk_div,
    "mod": _mk_mod,
    "extract": _mk_extract,
    "pow2": _mk_pow2,
    "pow3": _mk_pow3,
}


def stdlib(name: str) -> PrfExpr:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValidationError(f"no stdlib function named {name!r}") from None


def stdlib_names():
    return sorted(_BUILDERS)


# ---------------------------------------------------------------------------
# Ackermann (host oracle, not a PrfExpr) and argument permutation


def ackermann(m: int, n: int) -> int:
    """A(m,0)=m+1, A(0,n+1)=A(1,n), A(m+1,n+1)=A(A(m,n+1),n).

    Second argument is the nesting level; equals the textbook Ackermann
    with swapped arguments.  Guarded to desk scale.
    """
    if m < 0 or n < 0:
        raise ValidationError("ackermann takes naturals")
    if not (n <= 3 or (n == 4 and m <= 1)):
        raise GuardExceeded(f"A({m},{n}) outside the termination guard")
    cache: dict = {}

    def a(m, n):
        key = (m, n)
        if key in cache:
            return cache[key]
        if n == 0:
            v = m + 1
        elif m == 0:
            v = a(1, n - 1)
        else:
            v = a(a(m - 1, n), n - 1)
        cache[key] = v
        return v

    return a(m, n)


def permute_args(e: PrfExpr, pi: Sequence[int]) -> PrfExpr:
    """Compose(e, [Proj(k, pi[0]), ...]): result(x) = e(x_pi(1), ..., x_pi(k))."""
    k = arity_check(e)
    if sorted(pi) != list(range(1, k + 1)):
        raise ValidationError(f"{pi!r} is not a permutation of 1..{k}")
    return Compose(e, tuple(Proj(k, p) for p in pi))
