"""Compile a single-tape numeric Turing machine over {0,1,_} into a
partial recursive expression via Goedel numbering.

Tape cells map to base-3 digits (blank 0, "0" 1, "1" 2); cell p
contributes digit * 3^(p-1), the protected leftmost blank is ignored.  A
configuration packs as 2^w * 3^q * 5^p with q a state index and r = |Q|
the halt sink.  `execute` iterates the step function by primitive
recursion, `num_steps` is the mu-search for the halting condition (head
back on cell 1, tape holds a numeral code, state table answers the sink).

The emitted expressions lean on Named arithmetic shortcuts (pow, div,
mod, extract) whose native evaluation keeps 2^w-sized codes tractable;
each Named still carries its pure-constructor definition.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import ValidationError
from .prf import (
    Compose,
    Mu,
    Named,
    PrfExpr,
    PrimRec,
    Proj,
    Succ,
    Zero,
    bounded_mu,
    cases,
    const,
    exists_le,
    pand,
    pnot,
    por,
    stdlib,
)
from .tm import BLANK, MachineSpec, resolve_one

_DIGIT = {BLANK: 0, "0": 1, "1": 2}
_GLYPH = {0: BLANK, 1: "0", 2: "1"}


# ---------------------------------------------------------------------------
# Tape and configuration codes (host side)


def encode_tape(s: str) -> int:
    total = 0
    for p, ch in enumerate(s):
        if ch not in _DIGIT:
            raise ValidationError(f"symbol {ch!r} has no base-3 digit")
        total += _DIGIT[ch] * 3**p
    return total


def decode_tape(n: int) -> str:
    if n < 0:
        raise ValidationError("tape codes are naturals")
    out = []
    while n:
        out.append(_GLYPH[n % 3])
        n //= 3
    return "".join(out)


def pack_config(w: int, q: int, p: int) -> int:
    return 2**w * 3**q * 5**p


def unpack_config(c: int) -> Tuple[int, int, int]:
    out = []
    for prime in (2, 3, 5):
        e = 0
        while c % prime == 0:
            c //= prime
            e += 1
        out.append(e)
    return tuple(out)


def state_indices(m: MachineSpec) -> Tuple[Dict[str, int], int]:
    """Deterministic numbering of states (initial first, rest sorted);
    returns (index map, sink value r = |Q|)."""
    rest = sorted(m.states - {m.initial})
    idx = {m.initial: 0}
    for i, s in enumerate(rest, start=1):
        idx[s] = i
    return idx, len(m.states)


# ---------------------------------------------------------------------------
# Expression scaffolding: all helpers build within a fixed arity


def _ap(f: PrfExpr, *gs: PrfExpr) -> PrfExpr:
    return Compose(f, tuple(gs))


def _eqc(x: PrfExpr, n: int, k: int) -> PrfExpr:
    return _ap(stdlib("eq"), x, const(n, k))


def enc_predicate() -> PrfExpr:
    """Enc(n) = 1 iff n = 1 or n = 3^j - 1 for some 1 <= j <= n."""
    eq, monus, pow3 = stdlib("eq"), stdlib("monus"), stdlib("pow3")
    # witness(n, j): n = 3^j - 1
    wit = _ap(eq, Proj(2, 1), _ap(monus, _ap(pow3, Proj(2, 2)), const(1, 2)))
    ex = _ap(exists_le(wit), Proj(1, 1), Proj(1, 1))
    return Named("enc", por(_eqc(Proj(1, 1), 1, 1), ex))


# ---------------------------------------------------------------------------
# Machine tables


def _check_source(m: MachineSpec):
    if m.tapes != 1:
        raise ValidationError("Goedel compilation needs a single-tape machine "
                              "(use to_single_tape first)")
    if not m.deterministic:
        raise ValidationError("Goedel compilation needs a deterministic machine")
    if not m.tape_alphabet <= {"0", "1", BLANK}:
        raise ValidationError(
            f"tape alphabet {sorted(m.tape_alphabet)} exceeds {{0,1,_}}; "
            "the digit base is fixed at 3"
        )


def machine_tables(m: MachineSpec) -> Dict[str, PrfExpr]:
    """action / next_symbol / next_state as arity-2 expressions over the
    state index and the scanned symbol's digit.  Halted pairs (accepting
    state, or no instruction) satisfy: action = 2, next_symbol = s,
    next_state = r."""
    _check_source(m)
    idx, r = state_indices(m)
    entries = []  # (qi, si, action_val, write_digit, next_idx)
    for state in m.states:
        if state in m.accept:
            continue  # halted: defaults apply
        for sym, si in _DIGIT.items():
            s = resolve_one(m, state, (sym,))
            if s is None:
                continue
            nxt, writes, shifts = s
            wd = _DIGIT[writes[0][1] if writes else sym]
            av = 2 if not shifts else 0 if shifts[0][1] < 0 else 1  # L, R, S
            entries.append((idx[state], si, av, wd, idx[nxt]))

    q_, s_ = Proj(2, 1), Proj(2, 2)

    def table(value_of, default: PrfExpr) -> PrfExpr:
        fs, rs = [], []
        hit = None
        for qi, si, av, wd, ni in entries:
            sel = pand(_eqc(q_, qi, 2), _eqc(s_, si, 2))
            fs.append(value_of(av, wd, ni))
            rs.append(sel)
            hit = por(hit, sel) if hit is not None else sel
        if hit is None:
            return default
        fs.append(default)
        rs.append(pnot(hit))
        return cases(fs, rs)

    return {
        "action": Named("action", table(lambda a, w, n: const(a, 2), const(2, 2))),
        "next_symbol": Named("next_symbol", table(lambda a, w, n: const(w, 2), s_)),
        "next_state": Named("next_state", table(lambda a, w, n: const(n, 2), const(r, 2))),
    }


# ---------------------------------------------------------------------------
# The step function, iteration, and the full pipeline


def _current_symbol() -> PrfExpr:
    """(w, p) -> digit at cell p: (w div 3^(p-1)) mod 3 for p >= 1; the
    protected cell p = 0 always reads blank (digit 0)."""
    div, mod, pow3, monus = stdlib("div"), stdlib("mod"), stdlib("pow3"), stdlib("monus")
    mul, sg = stdlib("mul"), stdlib("sg")
    shift = _ap(pow3, _ap(monus, Proj(2, 2), const(1, 2)))
    raw = _ap(mod, _ap(div, Proj(2, 1), shift), const(3, 2))
    return Named("current_symbol", _ap(mul, _ap(sg, Proj(2, 2)), raw))


def next_configuration_expr(m: MachineSpec) -> PrfExpr:
    """Arity 1, packed config -> packed successor config (fixed point once
    halted: 2^w * 3^r * 5^p)."""
    t = machine_tables(m)
    ext = stdlib("extract")
    add, mul, monus = stdlib("add"), stdlib("mul"), stdlib("monus")
    pow2, pow3, ex = stdlib("pow2"), stdlib("pow3"), stdlib("exp")
    cur = _current_symbol()

    c = Proj(1, 1)
    w = _ap(ext, const(2, 1), c)
    q = _ap(ext, const(3, 1), c)
    p = _ap(ext, const(5, 1), c)
    s = _ap(cur, w, p)
    act = _ap(t["action"], q, s)
    # next head position: p - [action=0] + [action=1]
    np = _ap(add, _ap(monus, p, _eqc(act, 0, 1)), _eqc(act, 1, 1))
    # next tape: w - s*3^(p-1) + next_symbol(q,s)*3^(p-1); at p = 0 the
    # protected blank is read-only and w stays put
    sg = stdlib("sg")
    shift = _ap(pow3, _ap(monus, p, const(1, 1)))
    written = _ap(add, _ap(monus, w, _ap(mul, s, shift)),
                  _ap(mul, _ap(t["next_symbol"], q, s), shift))
    nw = cases([w, written], [_eqc(p, 0, 1), _ap(sg, p)])
    nq = _ap(t["next_state"], q, s)
    packed = _ap(mul, _ap(mul, _ap(pow2, nw), _ap(ex, const(3, 1), nq)),
                 _ap(ex, const(5, 1), np))
    return Named("next_configuration", packed)


def execute_expr(m: MachineSpec) -> PrfExpr:
    """(w, t) -> packed configuration after t steps from 2^w * 3^0 * 5^1."""
    idx, _ = state_indices(m)
    pow2, mul, ex = stdlib("pow2"), stdlib("mul"), stdlib("exp")
    init = _ap(mul, _ap(mul, _ap(pow2, Proj(1, 1)),
                        _ap(ex, const(3, 1), const(idx[m.initial], 1))),
               const(5, 1))
    step = next_configuration_expr(m)
    # h(w, t, c) = step(c)
    h = _ap(step, Proj(3, 3))
    return Named("execute", PrimRec(init, h))


def _halted_expr(m: MachineSpec) -> PrfExpr:
    """(w, t) -> 1 iff execute(w, t) is a halting configuration: head on
    cell 1, tape code is a numeral code, and the state table yields r."""
    t = machine_tables(m)
    _, r = state_indices(m)
    ext = stdlib("extract")
    cur = _current_symbol()
    exe = execute_expr(m)
    c = _ap(exe, Proj(2, 1), Proj(2, 2))
    w = _ap(ext, const(2, 2), c)
    q = _ap(ext, const(3, 2), c)
    p = _ap(ext, const(5, 2), c)
    s = _ap(cur, w, p)
    cond = pand(_eqc(p, 1, 2),
                pand(_ap(enc_predicate(), w),
                     _ap(stdlib("eq"), _ap(t["next_state"], q, s), const(r, 2))))
    return Named("halted", cond)


def num_steps_expr(m: MachineSpec) -> PrfExpr:
    """w -> least t with the halting condition (mu-search, partial)."""
    return Named("num_steps", Mu(pnot(_halted_expr(m))))


def _decode_expr() -> PrfExpr:
    """Numeral code -> natural: 1 -> 0, 3^j - 1 -> j (least such j)."""
    eq, monus, pow3 = stdlib("eq"), stdlib("monus"), stdlib("pow3")
    wit = _ap(eq, Proj(2, 1), _ap(monus, _ap(pow3, Proj(2, 2)), const(1, 2)))
    j = _ap(bounded_mu(wit), Proj(1, 1), Proj(1, 1))
    return Named("decode_numeral", cases(
        [Zero(1), j],
        [_eqc(Proj(1, 1), 1, 1), pnot(_eqc(Proj(1, 1), 1, 1))],
    ))


def _initial_code_expr() -> PrfExpr:
    """n -> tape code of the initial numeric tape: 1 for n = 0 (glyph "0"),
    3^n - 1 otherwise (n ones)."""
    monus, pow3, sg = stdlib("monus"), stdlib("pow3"), stdlib("sg")
    ones = _ap(monus, _ap(pow3, Proj(1, 1)), const(1, 1))
    return Named("initial_code", cases(
        [const(1, 1), ones],
        [_eqc(Proj(1, 1), 0, 1), _ap(sg, Proj(1, 1))],
    ))


def compile_tm_to_prf(m: MachineSpec) -> PrfExpr:
    """Arity-1 expression f with eval(f, n) = run_numeric(m, [n]) whenever
    both complete."""
    _check_source(m)
    ext = stdlib("extract")
    exe = execute_expr(m)
    w0 = _ap(_initial_code_expr(), Proj(1, 1))
    steps = _ap(num_steps_expr(m), w0)
    final_c = _ap(exe, w0, steps)
    final_w = _ap(ext, const(2, 1), final_c)
    return Named(f"tm_{m.name}", _ap(_decode_expr(), final_w))
