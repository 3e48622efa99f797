"""Partial recursive functions: AST, fuel-bounded evaluator and the
derived library (arithmetic, predicates, bounded operators).

Recursion is always on the last argument.  Values are Python ints, which
are arbitrary precision; the machine-to-function compiler produces codes
like 2^w * 3^q * 5^p, so this matters.

The evaluator compiles an expression to one closure per node and spends a
unit of fuel per node evaluation and per mu probe.  A parent computes its
leaf children (Zero, Succ, Proj, a Named with a native) in place and pays
their units with its own; a recursion whose step is a Proj or a Zero pays all
its steps in one charge.  A leaf does nothing but spend its unit, so neither
the value, the total spent nor the budget at which fuel runs out moves; an
overdrawn charge leaves the budget at -1, as paying unit by unit would, and a
native runs only after its unit is paid.  A native of a product or a power
refuses a result that may pass `MAX_NATIVE_BITS` before building it, and the
native of `prime` an argument from `PRIME_NATIVE_BOUND` on.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from .errors import Fuel, FuelExhausted, GuardExceeded, ValidationError


# ---------------------------------------------------------------------------
# AST
#
# Every node checks its own arity when it is built, from the arities its
# children already hold, so a malformed expression cannot be constructed and
# the check costs O(1) per node however much of the expression is shared.


@dataclass(frozen=True, slots=True)
class PrfExpr:
    arity: int = field(init=False, compare=False, repr=False)


def _set_arity(e: PrfExpr, k: int) -> None:
    object.__setattr__(e, "arity", k)


@dataclass(frozen=True, slots=True)
class Zero(PrfExpr):
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError(f"Zero arity must be >= 0, got {self.k}")
        _set_arity(self, self.k)


@dataclass(frozen=True, slots=True)
class Succ(PrfExpr):
    def __post_init__(self):
        _set_arity(self, 1)


@dataclass(frozen=True, slots=True)
class Proj(PrfExpr):
    k: int
    i: int

    def __post_init__(self):
        if not 1 <= self.i <= self.k:
            raise ValidationError(f"Proj({self.k},{self.i}): need 1 <= i <= k")
        _set_arity(self, self.k)


@dataclass(frozen=True, slots=True)
class Compose(PrfExpr):
    g: PrfExpr
    hs: Tuple[PrfExpr, ...]

    def __post_init__(self):
        hs = tuple(self.hs)
        object.__setattr__(self, "hs", hs)
        ag = arity_check(self.g)
        if ag != len(hs):
            raise ValidationError(
                f"Compose: outer function has arity {ag} but got {len(hs)} inner functions"
            )
        if not hs:
            raise ValidationError("Compose needs at least one inner function")
        arities = [arity_check(h) for h in hs]
        if len(set(arities)) != 1:
            raise ValidationError(f"Compose: inner arities differ: {arities}")
        _set_arity(self, arities[0])


@dataclass(frozen=True, slots=True)
class PrimRec(PrfExpr):
    """f(x, 0) = g(x); f(x, m+1) = h(x, m, f(x, m))."""

    g: PrfExpr
    h: PrfExpr

    def __post_init__(self):
        ag = arity_check(self.g)
        ah = arity_check(self.h)
        if ah != ag + 2:
            raise ValidationError(
                f"PrimRec: arity(h) = {ah} but must equal arity(g) + 2 = {ag + 2}"
            )
        _set_arity(self, ag + 1)


@dataclass(frozen=True, slots=True)
class Mu(PrfExpr):
    """Least y with g(x, y) = 0 and g(x, d) defined-nonzero for d < y."""

    g: PrfExpr

    def __post_init__(self):
        ag = arity_check(self.g)
        if ag < 1:
            raise ValidationError("Mu: inner function needs arity >= 1")
        _set_arity(self, ag - 1)


@dataclass(frozen=True, slots=True)
class Named(PrfExpr):
    """A derived function carrying its pure-constructor definition.

    ``native`` is an optional big-integer shortcut the evaluator may use;
    extensional agreement with ``definition`` is a tested invariant.
    """

    name: str
    definition: PrfExpr
    native: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        _set_arity(self, arity_check(self.definition))


def arity_check(e: PrfExpr) -> int:
    """Arity of e, or ValidationError if e is not an expression node.  The
    nodes check themselves when built, so this is a field read."""
    if isinstance(e, PrfExpr):
        return e.arity
    raise ValidationError(f"unknown node {e!r}")


def expand(e: PrfExpr) -> PrfExpr:
    """Strip every Named wrapper, leaving only the five raw constructors.  A
    node shared in e is expanded once and stays shared in the result."""
    done: dict = {}  # id(node) -> its expansion

    def strip(e: PrfExpr) -> PrfExpr:
        out = done.get(id(e))
        if out is None:
            if isinstance(e, Named):
                out = strip(e.definition)
            elif isinstance(e, Compose):
                out = Compose(strip(e.g), tuple(strip(h) for h in e.hs))
            elif isinstance(e, PrimRec):
                out = PrimRec(strip(e.g), strip(e.h))
            elif isinstance(e, Mu):
                out = Mu(strip(e.g))
            else:
                out = e
            done[id(e)] = out
        return out

    return strip(e)


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
    return _charged(*_compile(e, fuel, {}), fuel)(tuple(args))


def _leaf(e: PrfExpr) -> Optional[Callable[[tuple], int]]:
    """For a leaf (Zero, Succ, Proj or a Named with a native), its value as a
    function of its arguments that spends no fuel; None for any other node."""
    if isinstance(e, Proj):
        return operator.itemgetter(e.i - 1)
    if isinstance(e, Zero):
        return lambda args: 0
    if isinstance(e, Succ):
        return lambda args: args[0] + 1
    if isinstance(e, Named) and e.native is not None:
        native = e.native
        return lambda args: native(*args)
    return None


def _exhausted(fuel: Fuel):
    """Raise for a charge that overdrew ``fuel``, leaving it at -1 as a
    charge of one unit at a time would."""
    fuel.remaining = -1
    raise FuelExhausted("budget exhausted")


def _charged(fn: Callable[[tuple], int], is_leaf: bool, fuel: Fuel) -> Callable[[tuple], int]:
    """A node's function from `_compile` as a closure that spends the node's
    units of fuel: a leaf's pure function gains its one unit."""
    if not is_leaf:
        return fn

    def run(args):
        fuel.remaining -= 1
        if fuel.remaining < 0:
            raise FuelExhausted("budget exhausted")
        return fn(args)
    return run


def _compile(e: PrfExpr, fuel: Fuel, done: dict) -> Tuple[Callable[[tuple], int], bool]:
    """e's function and whether e is a leaf, decided once per node: a leaf's
    function is its `_leaf`, which spends no fuel, any other node's a closure
    that spends e's units when called.  ``done`` maps id(node) to this pair,
    so a shared subexpression is compiled once; the closures live only as
    long as this evaluation.

    A Compose pays for itself and for each leaf among its outer and inner
    functions, which it applies in place; a PrimRec does so for a leaf base.
    A PrimRec whose step is a Proj or a Zero runs the base, pays for all n
    steps at once and takes the step's pick from (x, n - 1, base): such a
    step ignores the accumulator or returns it, so the last step decides."""
    got = done.get(id(e))
    if got is not None:
        return got
    pure = _leaf(e)
    if pure is not None:
        got = done[id(e)] = (pure, True)
        return got
    if isinstance(e, Named):
        run = _charged(_charged(*_compile(e.definition, fuel, done), fuel), True, fuel)
    elif isinstance(e, Compose):
        parts = [_compile(f, fuel, done) for f in (e.g, *e.hs)]
        cost = 1 + sum(is_leaf for _, is_leaf in parts)
        g, *hs = [fn for fn, _ in parts]
        # One and two inner functions, most compositions, get their own closure:
        # before Python 3.12 a list comprehension makes a function on every run.
        if len(hs) == 1:
            h = hs[0]

            def run(args):
                fuel.remaining -= cost
                if fuel.remaining < 0:
                    _exhausted(fuel)
                return g((h(args),))
        elif len(hs) == 2:
            h1, h2 = hs

            def run(args):
                fuel.remaining -= cost
                if fuel.remaining < 0:
                    _exhausted(fuel)
                return g((h1(args), h2(args)))
        else:
            def run(args):
                fuel.remaining -= cost
                if fuel.remaining < 0:
                    _exhausted(fuel)
                return g(tuple([h(args) for h in hs]))
    elif isinstance(e, PrimRec):
        g, base_is_leaf = _compile(e.g, fuel, done)
        cost = 1 + base_is_leaf
        if isinstance(e.h, (Proj, Zero)):
            step, h = _compile(e.h, fuel, done)[0], None
        else:
            step, h = None, _charged(*_compile(e.h, fuel, done), fuel)

        def run(args):
            fuel.remaining -= cost
            if fuel.remaining < 0:
                _exhausted(fuel)
            xs, n = args[:-1], args[-1]
            acc = g(xs)
            if step is None:
                for i in range(n):
                    acc = h(xs + (i, acc))
            elif n:
                fuel.remaining -= n
                if fuel.remaining < 0:
                    _exhausted(fuel)
                acc = step(xs + (n - 1, acc))
            return acc
    elif isinstance(e, Mu):
        g = _charged(*_compile(e.g, fuel, done), fuel)

        def run(args):
            fuel.remaining -= 1
            if fuel.remaining < 0:
                raise FuelExhausted("budget exhausted")
            y = 0
            while True:
                fuel.remaining -= 1  # one unit per probe on top of the inner evaluation
                if fuel.remaining < 0:
                    raise FuelExhausted("budget exhausted")
                if g(args + (y,)) == 0:
                    return y
                y += 1
    else:
        raise ValidationError(f"unknown node {e!r}")
    got = done[id(e)] = (run, False)
    return got


# ---------------------------------------------------------------------------
# Derived library


def _const_expr(n: int, k: int) -> PrfExpr:
    # built one by one: S(S(...Z_k...))
    e: PrfExpr = Zero(k)
    for _ in range(n):
        e = Compose(Succ(), (e,))
    return e


def const(n: int, k: int = 1) -> PrfExpr:
    return _named_const(n, _const_expr(n, k))


def _named_const(n: int, body: PrfExpr) -> Named:
    """``const<n>/<k>``, k the arity of ``body``, which spells n."""
    return Named(f"const{n}/{body.arity}", body, native=lambda *xs, _n=n: _n)


def named_const(name: str, body: PrfExpr) -> Optional[Named]:
    """``body`` with `const`'s native when ``name`` is ``const<n>/<k>`` and
    ``body`` is n ``C S (...)`` around ``Z k``, as `const` builds it; else
    None.  Only the wrapper is built, so a huge n costs nothing extra."""
    n, e = 0, body
    while isinstance(e, Compose) and isinstance(e.g, Succ):
        n, e = n + 1, e.hs[0]
    if isinstance(e, Zero):
        ref = _named_const(n, body)
        if ref.name == name:
            return ref
    return None


# The bits a native's result may take.  A native of `mul`, `exp`, `pow2` or
# `pow3` bounds its result from its operands' bit lengths before building it
# (a product by the sum of theirs, b**n by n * b.bit_length()) and raises
# GuardExceeded when the bound passes this, rather than build an int of any
# size for its one unit of fuel: so `pow2` runs to n = 2**19.
MAX_NATIVE_BITS = 1 << 20


def _guard(name: str, bits: int) -> None:
    if bits > MAX_NATIVE_BITS:
        raise GuardExceeded(f"{name}: a result of up to {bits} bits is past "
                            f"MAX_NATIVE_BITS = {MAX_NATIVE_BITS}")


def _mul(m: int, n: int) -> int:
    _guard("mul", m.bit_length() + n.bit_length())
    return m * n


def _power(name: str, b: int, n: int) -> int:
    if b > 1:
        _guard(name, n * b.bit_length())
    return b**n


# The native of `prime` is Miller-Rabin with the first 13 prime bases, 2 to
# 41: some two thousand modular squarings at most, where trial division to
# the square root takes a second at n = 10^14.  These bases decide every n
# below this bound, the least strong pseudoprime to all of them (J.
# Sorenson, J. Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017; the first 12 bases pass 318665857834031151167461 =
# 399165290221 * 798330580441).  At the bound and past it the native raises
# GuardExceeded.
PRIME_NATIVE_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> int:
    if n >= PRIME_NATIVE_BOUND:
        raise GuardExceeded(f"prime: an argument of {n.bit_length()} bits is past "
                            f"PRIME_NATIVE_BOUND = {PRIME_NATIVE_BOUND}")
    if n < 2:
        return 0
    for p in _PRIME_BASES:
        if n % p == 0:
            return int(n == p)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return 0
    return 1


def _mk_add() -> Named:
    defn = PrimRec(Proj(1, 1), Compose(Succ(), (Proj(3, 3),)))
    return Named("add", defn, native=lambda m, n: m + n)


def _mk_mul() -> Named:
    add = stdlib("add")
    defn = PrimRec(Zero(1), Compose(add, (Proj(3, 1), Proj(3, 3))))
    return Named("mul", defn, native=_mul)


def _mk_exp() -> Named:
    mul = stdlib("mul")
    defn = PrimRec(const(1, 1), Compose(mul, (Proj(3, 1), Proj(3, 3))))
    return Named("exp", defn, native=lambda m, n: _power("exp", m, n))


def _mk_pred() -> Named:
    defn = PrimRec(Zero(0), Proj(2, 1))
    return Named("pred", defn, native=lambda n: max(n - 1, 0))


def _mk_sg() -> Named:
    defn = PrimRec(Zero(0), Compose(Succ(), (Zero(2),)))
    return Named("sg", defn, native=lambda n: 1 if n else 0)


def _mk_monus() -> Named:
    pred = stdlib("pred")
    defn = PrimRec(Proj(1, 1), Compose(pred, (Proj(3, 3),)))
    return Named("monus", defn, native=lambda m, n: max(m - n, 0))


def _mk_absdiff() -> Named:
    add, monus = stdlib("add"), stdlib("monus")
    swapped = Compose(monus, (Proj(2, 2), Proj(2, 1)))
    defn = Compose(add, (monus, swapped))
    return Named("absdiff", defn, native=lambda m, n: abs(m - n))


def _mk_eq() -> Named:
    sg, monus, absdiff = stdlib("sg"), stdlib("monus"), stdlib("absdiff")
    defn = Compose(monus, (const(1, 2), Compose(sg, (absdiff,))))
    return Named("eq", defn, native=lambda m, n: 1 if m == n else 0)


def _mk_lt() -> Named:
    sg, monus = stdlib("sg"), stdlib("monus")
    defn = Compose(sg, (Compose(monus, (Proj(2, 2), Proj(2, 1))),))
    return Named("lt", defn, native=lambda m, n: 1 if m < n else 0)


def pnot(p: PrfExpr) -> PrfExpr:
    """1 - chi_P."""
    k = arity_check(p)
    return Compose(stdlib("monus"), (const(1, k), p))


def pand(p: PrfExpr, q: PrfExpr) -> PrfExpr:
    return Compose(stdlib("mul"), (p, q))


def por(p: PrfExpr, q: PrfExpr) -> PrfExpr:
    return Compose(stdlib("sg"), (Compose(stdlib("add"), (p, q)),))


def bounded_prod(g: PrfExpr) -> PrfExpr:
    kp1 = arity_check(g)
    k = kp1 - 1
    projs = tuple(Proj(k + 2, j) for j in range(1, k + 1))
    g_at_succ = Compose(g, projs + (Compose(Succ(), (Proj(k + 2, k + 1),)),))
    h = Compose(stdlib("mul"), (Proj(k + 2, k + 2), g_at_succ))
    return PrimRec(const(1, k) if k else const(1, 0), h)


def forall_le(r: PrfExpr) -> PrfExpr:
    """S(x, n) iff R(x, i) for all 1 <= i <= n."""
    return bounded_prod(r)


def exists_le(r: PrfExpr) -> PrfExpr:
    """T(x, n) iff R(x, i) for some 1 <= i <= n: 1 - prod(1 - R)."""
    kp1 = arity_check(r)
    return Compose(
        stdlib("monus"), (const(1, kp1), bounded_prod(pnot(r)))
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
    add = stdlib("add")
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
        stdlib("add"),
        (
            pand(found_below, acc),
            pand(pand(pnot(found_below), r_at_succ_y), succ_y),
        ),
    )
    return PrimRec(Zero(k), h)


def _mk_divides() -> Named:
    eq, mul = stdlib("eq"), stdlib("mul")
    # divides(d, m) = [m = 0] or exists 1 <= q <= m with q*d = m
    witness = Compose(eq, (Compose(mul, (Proj(3, 3), Proj(3, 1))), Proj(3, 2)))
    m_is_zero = Compose(eq, (Zero(2), Proj(2, 2)))
    ex = Compose(exists_le(witness), (Proj(2, 1), Proj(2, 2), Proj(2, 2)))
    defn = por(m_is_zero, ex)

    def native(d, m):
        if d == 0:
            return 1 if m == 0 else 0
        return 1 if m % d == 0 else 0

    return Named("divides", defn, native=native)


def _mk_prime() -> Named:
    lt, eq, divides = stdlib("lt"), stdlib("eq"), stdlib("divides")
    # prime(n): n > 1 and every 1 <= d <= n dividing n is 1 or n
    d_ok = por(
        pnot(Compose(divides, (Proj(2, 2), Proj(2, 1)))),
        por(Compose(eq, (Proj(2, 2), const(1, 2))), Compose(eq, (Proj(2, 2), Proj(2, 1)))),
    )
    all_ok = Compose(forall_le(d_ok), (Proj(1, 1), Proj(1, 1)))
    defn = pand(Compose(lt, (const(1, 1), Proj(1, 1))), all_ok)
    return Named("prime", defn, native=_is_prime)


def _mk_div() -> Named:
    # floor division, with n // 0 = 0; the pure form is a bounded search
    lt, mul = stdlib("lt"), stdlib("mul")
    # div(m, d) = mu q <= m [ m < (q+1)*d ]  (0 when d = 0 since m < 0*d fails)
    over = Compose(
        lt,
        (Proj(3, 1), Compose(mul, (Compose(Succ(), (Proj(3, 3),)), Proj(3, 2)))),
    )
    defn = Compose(bounded_mu(over), (Proj(2, 1), Proj(2, 2), Proj(2, 1)))
    return Named("div", defn, native=lambda m, d: m // d if d else 0)


def _mk_mod() -> Named:
    monus, mul, div = stdlib("monus"), stdlib("mul"), stdlib("div")
    defn = Compose(monus, (Proj(2, 1), Compose(mul, (div, Proj(2, 2)))))
    return Named("mod", defn, native=lambda m, d: m % d if d else m)


def _mk_extract() -> Named:
    """extract(p, m) = largest e with p^e | m (0 for degenerate inputs)."""
    divides, ex = stdlib("divides"), stdlib("exp")
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

    return Named("extract", defn, native=native)


def _mk_pow2() -> Named:
    defn = Compose(stdlib("exp"), (const(2, 1), Proj(1, 1)))
    return Named("pow2", defn, native=lambda n: _power("pow2", 2, n))


def _mk_pow3() -> Named:
    defn = Compose(stdlib("exp"), (const(3, 1), Proj(1, 1)))
    return Named("pow3", defn, native=lambda n: _power("pow3", 3, n))


_BUILDERS = {
    "id": lambda: Named("id", Proj(1, 1), native=lambda x: x),
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


@functools.cache
def stdlib(name: str) -> PrfExpr:
    """The library function of that name.  Nodes are immutable, so every
    call, and every library definition that uses it, shares one tree."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValidationError(f"no stdlib function named {name!r}") from None


def stdlib_names():
    return sorted(_BUILDERS)


# ---------------------------------------------------------------------------
# Ackermann (host oracle, not a PrfExpr)


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
