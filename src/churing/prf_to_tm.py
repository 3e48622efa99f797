"""Compile partial recursive expressions into multitape Turing machines.

A compiled machine follows the unary numeric convention stated once in
`tm` ("Unary numeric convention"): `compile_prf_to_tm` returns the layout
`tm.numeric_layout` gives it, and an accepting run ends with every head
on cell 1, where `_Builder`'s head invariant keeps them between gadgets.

Machines mark cell 0 of every tape with `^` at startup so heads can rewind
by scanning left for the marker; the markers are erased again just before
accepting.  The one exception is the standalone successor machine, which
is a single tape over {0,1,_} (the shape the machine-to-function
translator requires).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import ValidationError
from .prf import Compose, Mu, PrfExpr, PrimRec, Proj, Succ, Zero, arity_check, expand
from .tm import BLANK, MachineSpec, NumericLayout, Rules, numeric_layout

MARK = "^"
_UNARY = frozenset({"0", "1"})
MAX_TAPES = 16


# ---------------------------------------------------------------------------
# Unary gadgets over the sparse rule builder


class _Builder(Rules):
    """The unary gadgets.  Each wires its entry state to its exit states and
    keeps the head invariant: every head is on cell 1 at every gadget's
    entry and at each of its exits.  A gadget rewinds a tape to the `^` on
    cell 0 before it reads it, which the invariant makes idle, and again
    before an exit if it has moved that head."""

    def erase(self, t: int, entry: str, exit_: str):
        sweep, back = self.fresh(), self.fresh()
        self.rewind(t, MARK, entry, sweep)
        for s in ("0", "1"):
            self.rule(sweep, {t: s}, sweep, {t: BLANK}, {t: "R"})
        self.rule(sweep, {t: BLANK}, back, {}, {})
        self.rewind(t, MARK, back, exit_)

    def write_zero(self, t: int, entry: str, exit_: str):
        put = self.fresh()
        self.erase(t, entry, put)
        self.rule(put, {t: BLANK}, exit_, {t: "0"}, {})

    def append_one(self, t: int, entry: str, exit_: str):
        look, scan, back = self.fresh(), self.fresh(), self.fresh()
        self.rewind(t, MARK, entry, look)
        self.rule(look, {t: "0"}, exit_, {t: "1"}, {})
        self.rule(look, {t: BLANK}, exit_, {t: "1"}, {})
        self.rule(look, {t: "1"}, scan, {}, {t: "R"})
        self.rule(scan, {t: "1"}, scan, {}, {t: "R"})
        self.rule(scan, {t: BLANK}, back, {t: "1"}, {})
        self.rewind(t, MARK, back, exit_)

    def copy(self, src: int, dst: int, entry: str, exit_: str):
        pre, loop, back1, back2 = (self.fresh() for _ in range(4))
        self.erase(dst, entry, pre)
        self.rewind(src, MARK, pre, loop)
        for s in ("0", "1"):
            self.rule(loop, {src: s}, loop, {dst: s}, {src: "R", dst: "R"})
        self.rule(loop, {src: BLANK}, back1, {}, {})
        self.rewind(src, MARK, back1, back2)
        self.rewind(dst, MARK, back2, exit_)

    def equal(self, a: int, b: int, entry: str, eq_exit: str, ne_exit: str):
        cmp_, ready = self.fresh(), self.fresh()
        self.rewind(a, MARK, entry, ready)
        self.rewind(b, MARK, ready, cmp_)
        eq1, eq2 = self.fresh(), self.fresh()
        ne1, ne2 = self.fresh(), self.fresh()
        self.rule(cmp_, {a: "1", b: "1"}, cmp_, {}, {a: "R", b: "R"})
        for ra, rb in [("0", "0"), (BLANK, BLANK)]:
            self.rule(cmp_, {a: ra, b: rb}, eq1, {}, {})
        for ra, rb in [("0", "1"), ("1", "0"), ("0", BLANK), (BLANK, "0"),
                       ("1", BLANK), (BLANK, "1")]:
            self.rule(cmp_, {a: ra, b: rb}, ne1, {}, {})
        self.rewind(a, MARK, eq1, eq2)
        self.rewind(b, MARK, eq2, eq_exit)
        self.rewind(a, MARK, ne1, ne2)
        self.rewind(b, MARK, ne2, ne_exit)

    def is_zero(self, t: int, entry: str, zero_exit: str, nonzero_exit: str):
        look = self.fresh()
        self.rewind(t, MARK, entry, look)
        self.rule(look, {t: "0"}, zero_exit, {}, {})
        self.rule(look, {t: "1"}, nonzero_exit, {}, {})


def _tapes(free: int, n: int) -> List[int]:
    """Scratch tapes ``free`` .. ``free + n - 1``, refused past `MAX_TAPES`."""
    if free + n - 1 > MAX_TAPES:
        raise ValidationError(f"expression needs more than {MAX_TAPES} tapes; too deep to compile")
    return list(range(free, free + n))


# ---------------------------------------------------------------------------


def _emit(b: _Builder, e: PrfExpr, args: Sequence[int], out: int, free: int,
          entry: str, exit_: str):
    """States from ``entry`` to ``exit_`` computing e(args) onto tape ``out``;
    argument tapes are read-only, and scratch tapes are taken from ``free``
    up, each node's own below its children's."""
    if isinstance(e, Zero):
        b.write_zero(out, entry, exit_)
        return
    if isinstance(e, Succ):
        mid = b.fresh()
        b.copy(args[0], out, entry, mid)
        b.append_one(out, mid, exit_)
        return
    if isinstance(e, Proj):
        b.copy(args[e.i - 1], out, entry, exit_)
        return
    if isinstance(e, Compose):
        stage = _tapes(free, len(e.hs))
        free += len(e.hs)
        cur = entry
        for h, t in zip(e.hs, stage):
            nxt = b.fresh()
            _emit(b, h, args, t, free, cur, nxt)
            cur = nxt
        _emit(b, e.g, stage, out, free, cur, exit_)
        return
    if isinstance(e, PrimRec):
        xs, m = list(args[:-1]), args[-1]
        c, a = _tapes(free, 2)
        s1 = b.fresh()
        _emit(b, e.g, xs, a, free + 2, entry, s1)  # acc := g(x)
        top = b.fresh()
        b.write_zero(c, s1, top)  # counter := 0
        # loop: counter == m ? finish : acc := h(x, counter, acc); counter++
        body, done = b.fresh(), b.fresh()
        b.equal(c, m, top, done, body)
        s2, s3 = b.fresh(), b.fresh()
        _emit(b, e.h, xs + [c, a], out, free + 2, body, s2)  # out used as staging
        b.copy(out, a, s2, s3)
        b.append_one(c, s3, top)
        b.copy(a, out, done, exit_)
        return
    if isinstance(e, Mu):
        (y,) = _tapes(free, 1)
        top = b.fresh()
        b.write_zero(y, entry, top)
        check, bump, found = b.fresh(), b.fresh(), b.fresh()
        _emit(b, e.g, list(args) + [y], out, free + 1, top, check)
        b.is_zero(out, check, found, bump)
        b.append_one(y, bump, top)
        b.copy(y, out, found, exit_)
        return
    raise ValidationError(f"cannot compile node {e!r}")


def compile_prf_to_tm(e: PrfExpr) -> Tuple[MachineSpec, NumericLayout]:
    e = expand(e)
    k = arity_check(e)
    if isinstance(e, Succ):
        m = succ_machine()
    elif isinstance(e, Zero):
        m = _zero_machine(k)
    else:
        m = _compile(e, k)
    return m, numeric_layout(m, k)


def _compile(e: PrfExpr, k: int) -> MachineSpec:
    b = _Builder()
    _emit(b, e, list(range(1, k + 1)), k + 1, k + 2, "g_body", "g_done")
    every = range(1, b.tapes + 1)
    # init: step every head to cell 0, plant markers, step back
    b.rule("i0", {}, "i1", None, dict.fromkeys(every, "L"))
    b.rule("i1", {}, "g_body", dict.fromkeys(every, MARK), dict.fromkeys(every, "R"))
    # finish: rewind everything, erase the markers, accept
    cur = "g_done"
    for t in every:
        b.rewind(t, MARK, cur, f"f_rw{t}")
        cur = f"f_rw{t}"
    b.rule(cur, {}, "f_mark", None, dict.fromkeys(every, "L"))
    b.rule("f_mark", {}, "acc", dict.fromkeys(every, BLANK), dict.fromkeys(every, "R"))
    return b.machine(f"prf_{_describe(e)}", "i0", {"acc"}, _UNARY, _UNARY | {MARK, BLANK})


def _zero_machine(k: int) -> MachineSpec:
    """Minimal machine for a bare constant-zero function: heads never move,
    a single write of "0" on the (virgin) output tape suffices."""
    b = Rules()
    b.rule("s0", {k + 1: BLANK}, "acc", {k + 1: "0"})
    return b.machine(f"prf_zero{k}", "s0", {"acc"}, _UNARY, _UNARY | {BLANK})


def succ_machine() -> MachineSpec:
    """Successor on a single tape over {0,1,_}: flip a lone 0 to 1, else
    append a 1 to the block of ones; halt with the head back on cell 1."""
    b = Rules()
    for state, read, nxt, write, move in [
        ("s0", "0", "acc", "1", "S"),
        ("s0", BLANK, "acc", "1", "S"),
        ("s0", "1", "s1", "1", "R"),
        ("s1", "1", "s1", "1", "R"),
        ("s1", BLANK, "s2", "1", "L"),
        ("s2", "1", "s2", "1", "L"),
        ("s2", BLANK, "acc", BLANK, "R"),
    ]:
        b.rule(state, {1: read}, nxt, {1: write}, {1: move})
    return b.machine("succ", "s0", {"acc"}, _UNARY, _UNARY | {BLANK})


def _describe(e: PrfExpr) -> str:
    """The name of the root of an expression `_emit` has compiled: a bare
    Zero or Succ never gets here."""
    if isinstance(e, Proj):
        return f"proj{e.k}_{e.i}"
    if isinstance(e, Compose):
        return "compose"
    if isinstance(e, PrimRec):
        return "primrec"
    return "mu"


def layout_report(machine: MachineSpec, layout: NumericLayout) -> str:
    lines = [
        f"machine {machine.name}: {len(machine.states)} states, "
        f"{machine.tapes} tapes, {len(machine.delta)} transition entries",
        f"  arity:          {layout.arity}",
        f"  argument tapes: {', '.join(map(str, layout.argument_tapes)) or 'none'}",
        f"  output tape:    {layout.output_tape}",
        f"  scratch tapes:  {', '.join(map(str, layout.scratch_tapes)) or 'none'}",
    ]
    return "\n".join(lines)
