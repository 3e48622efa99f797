"""Lambda terms on Turing machines.

A lambda term travels between the host and a machine as a *wire*: a flat
string over the alphabet  {v, |, L, ., (, ), #, @, _}.  Variables are spelled
``v`` followed by one bar per index unit (``v||`` is variable 2), an
abstraction is ``(L<var>.<body>)``, an application is ``(<fn><arg>)``, ``#``
separates list entries, and ``@`` marks a context hole.

`build_machine` produces real multitape machines for six jobs:

    V    collect the variables of a term, deduplicated, in first-occurrence
         order (term on tape 1, ``#``-separated list on tape 2)
    CF   fill every hole of a context with a filler term
         (context tape 1, filler tape 2, result tape 3)
    CBV  change of bound variable: build context[(Ly.M[x:=y])]
         (x tape 1, y tape 2, context tape 3, body M tape 4, result tape 5)
    AE   compare two wires for literal equality, verdict 0/1 on tape 3
    NF   decide beta-normal-form by scanning for the redex signature ``((L``,
         verdict 0/1 on tape 2
    BR1  contract the leftmost redex once (input tape 1, result tape 5)

The wire grammar has one reader, `_canonical_wire`, which renames bound
variables apart in one pass over the wire's tokens and builds no term; a
malformed wire is refused there, at the column of its fault.  `parse_wire`
checks a wire with it and then builds the term without checking again.

`reduce_on_tm` drives NF and BR1 in a loop on the wire itself.  Between
machine runs the host canonicalises the wire with `_canonical_wire`, so
BR1's textual substitution is capture-free; only the normal form is built
back into a term.  `build_machine` builds a new machine on every call;
the drivers `reduce_on_tm`, `nf_on_tm` and `br1_on_tm` share one NF and one
BR1 per process, built on first use, so the resolver memo a run fills
serves every later run.
"""

import re
from functools import cache
from typing import Dict, List, Optional, Tuple

from .errors import FuelExhausted, ValidationError, WireParseError, check_fuel
from .lam import Abs, App, Hole, Term, Var, _binder_names
from .tm import ACCEPT, BLANK, FUEL_EXHAUSTED, MachineSpec, Outcome, Rules, run

# Wire glyphs.  MARK is the rewind anchor planted at cell 0 of work tapes,
# DOT_V / DOT_P are "remembered position" variants of v and (.
VAR, BAR, LAM, DOT, LP, RP, SEP, HOLE_GLYPH = "v", "|", "L", ".", "(", ")", "#", "@"
WIRE_SYMBOLS = (VAR, BAR, LAM, DOT, LP, RP, SEP, HOLE_GLYPH)
MARK, DOT_V, DOT_P = "^", "w", "{"
_CLOSE = object()  # a closing parenthesis on the renderer's stack

TermWire = str


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------

def render_term(t: Term) -> TermWire:
    """Flatten a term to its wire string.

    Names, free and bound alike, are numbered 1, 2, ... in order of first
    occurrence, so the alpha-equal ``\\x. \\y. y`` and ``\\x. \\x. x`` give
    different wires, and ``\\x. y`` and ``\\x. z`` one wire.  Two closed
    terms are alpha-equal exactly when their `canonical_binders` copies
    give the same wire.
    """
    wire, _ = render_with_names(t)
    return wire


def render_with_names(t: Term) -> Tuple[TermWire, Dict[int, str]]:
    """Render and also return the index -> variable-name assignment.
    Iterative: each term is printed in place, and what follows it waits on
    a stack of terms and closing parentheses."""
    index: Dict[str, int] = {}
    out: List[str] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t is _CLOSE:
            out.append(RP)
        elif isinstance(t, Var):
            i = index.setdefault(t.name, len(index) + 1)
            out.append(VAR + BAR * i)
        elif isinstance(t, Abs):
            i = index.setdefault(t.param, len(index) + 1)
            out.append(LP + LAM + VAR + BAR * i + DOT)
            todo += (_CLOSE, t.body)
        elif isinstance(t, App):
            out.append(LP)
            todo += (_CLOSE, t.arg, t.fn)
        elif isinstance(t, Hole):
            out.append(HOLE_GLYPH)
        else:  # pragma: no cover
            raise ValidationError(f"cannot render {t!r}")
    return "".join(out), {i: name for name, i in index.items()}


def parse_wire(s: TermWire, names: Optional[Dict[int, str]] = None) -> Term:
    """Parse a wire string back into a term.

    Variable index i becomes ``names[i]`` when given, else ``x{i}``.  The
    wire grammar has one reader, `_canonical_wire`: it checks the wire,
    refusing a malformed one at the column of its fault, and `_build_wire`
    then builds the term."""
    names = names or {}
    _canonical_wire(s, names)
    return _build_wire(s, names)


# A binder head, a variable, or any one character: a malformed wire still
# splits into tokens, and the one that breaks the grammar is refused.
_WIRE_TOKEN = re.compile(r"\(Lv\|+\.|v\|+|[\s\S]")


def _build_wire(wire: TermWire, names: Dict[int, str]) -> Term:
    """The term of a wire that `_canonical_wire` has read, which it does not
    check again.  Iterative: an open ``(`` waits on a stack as itself, or as
    its binder's name, below the terms read inside it."""
    leaf: Dict[str, object] = {}  # token -> its variable, or its binder's name
    stack: list = []
    for tok in _WIRE_TOKEN.findall(wire):
        if tok == RP:
            t = stack.pop()
            top = stack.pop()
            if type(top) is str:
                stack.append(Abs(top, t))
            else:
                stack[-1] = App(top, t)  # in place of its "("
        elif tok == LP:
            stack.append(tok)
        elif tok == HOLE_GLYPH:
            stack.append(Hole())
        else:
            t = leaf.get(tok)
            if t is None:
                n = tok.count(BAR)
                name = names.get(n)
                name = f"x{n}" if name is None else name
                leaf[tok] = t = name if tok[0] == LP else Var(name)
            stack.append(t)
    return stack[0]


def _canonical_wire(wire: TermWire, names: Dict[int, str]) -> Tuple[TermWire, Dict[int, str]]:
    """``render_with_names(canonical_binders(parse_wire(wire, names)))``,
    read in one pass over the wire's tokens, building no term.  This is the
    one reader of the wire grammar: a malformed wire raises WireParseError
    at the column of the token that breaks it, or past the wire's end.

    Wire index i names ``names.get(i, f"x{i}")``, and every lookup is by
    that name, as in the composition.  The output numbers binders and free
    names 1, 2, ... by first occurrence; a bound variable takes the number
    of its innermost binder of that name, kept in ``env``.  The binders'
    names, from `lam._binder_names` past the free names, are known only
    once every free name has been read, so they are given at the end."""
    named: Dict[str, str] = {}          # token -> the name its index reads as
    env: Dict[str, Optional[str]] = {}  # name -> its output variable here
    free: List[Optional[str]] = []      # per output index: its free name, or None
    scopes: list = []                   # per open binder: (name, its output outside)
    # What each open term still reads: an application 2, 1, then 0 terms, an
    # abstraction "body" then "", and the whole wire "top", then None; ")"
    # closes a falsy one.
    todo: list = ["top"]
    out: List[str] = []
    tokens = iter(_WIRE_TOKEN.findall(wire))
    for tok in tokens:
        if tok == LP:
            todo.append(2)
            out.append(tok)
            continue
        if tok == RP:
            if todo[-1]:
                break
            if todo.pop() == "":
                name, outer = scopes.pop()
                env[name] = outer
            out.append(tok)
        elif tok == HOLE_GLYPH:
            out.append(tok)
        else:
            name = named.get(tok)
            if name is None:
                n = tok.count(BAR)
                if n == 0 or tok[0] not in (VAR, LP):
                    break
                name = names.get(n)
                named[tok] = name = f"x{n}" if name is None else name
            if tok[0] == LP:  # "(Lv|...|."
                scopes.append((name, env.get(name)))
                free.append(None)
                env[name] = v = VAR + BAR * len(free)
                todo.append("body")
                out.append(LP + LAM + v + DOT)
                continue
            v = env.get(name)
            if v is None:
                free.append(name)
                env[name] = v = VAR + BAR * len(free)
            out.append(v)
        # a whole term: the innermost open one has one less to read
        left = todo[-1]
        if left == 2 or left == 1:
            todo[-1] = left - 1
        elif left == "body":
            todo[-1] = ""
        elif left == "top":
            tok = next(tokens, None)
            if tok is None:
                supply = _binder_names({n for n in free if n is not None})
                return "".join(out), {i: next(supply) if n is None else n
                                      for i, n in enumerate(free, 1)}
            todo[-1] = None
            break
        else:
            break
    else:
        tok = ""  # the wire ended inside a term
    # The grammar broke at tok, where the innermost open term reads ``left``:
    # ")" for "" or 0, nothing more for None, else a term.
    left = todo[-1]
    at = len(wire) - len("".join(tokens)) - len(tok)
    if tok == RP and left in ("", 0):  # a term in brackets where ")" belonged
        depth = 1
        while depth:
            at -= 1
            depth += (wire[at] == RP) - (wire[at] == LP)
    msg = ({"": "unclosed abstraction", 0: "unclosed application",
            None: "trailing characters after term"}.get(left)
           or (f"expected term, saw {tok!r}" if tok else "unexpected end of wire"))
    raise WireParseError(msg, line=1, column=at + 1)


def _wire_machine(b: Rules, name: str, initial: str, *extra: str) -> MachineSpec:
    """A suite machine: input over the wire glyphs, tapes over those, the
    blank and ``extra``, accepting in ``acc``."""
    return b.machine(name, initial, {"acc"}, WIRE_SYMBOLS, {*WIRE_SYMBOLS, BLANK, *extra})


# ---------------------------------------------------------------------------
# V: variable collection
# ---------------------------------------------------------------------------

def _v_machine() -> MachineSpec:
    b = Rules()
    R = "R"
    # init: anchor tape 2.
    b.rule("init", {}, "scan", writes={2: MARK}, moves={2: R})
    # scan tape 1 left to right; on a variable, mark it and compare with the
    # list; on blank, finish.
    b.rule("scan", {1: VAR}, "rw2", writes={1: DOT_V}, moves={1: R})
    b.rule("scan", {1: BLANK}, "fin")
    b.rule("scan", {}, "scan", moves={1: R})
    # rewind the list tape to its anchor.
    b.rewind(2, MARK, "rw2", "entry")
    # entry: at the start of a list entry (or the blank past the last one).
    b.rule("entry", {2: VAR}, "cmp", moves={2: R})
    b.rule("entry", {2: BLANK}, "ap_rewind")
    # cmp: bars of the current variable vs bars of the entry.
    b.rule("cmp", {1: BAR, 2: BAR}, "cmp", moves={1: R, 2: R})
    b.rule("cmp", {1: BAR, 2: SEP}, "sk_rewind")   # entry shorter
    b.rule("cmp", {2: SEP}, "found")               # both ended: match
    b.rule("cmp", {2: BAR}, "sk_rewind")           # entry longer
    # mismatch: rewind tape 1 to the marked v, skip tape 2 to the next entry.
    b.rewind(1, DOT_V, "sk_rewind", "sk_next")
    b.rule("sk_next", {2: SEP}, "entry", moves={2: R})
    b.rule("sk_next", {}, "sk_next", moves={2: R})
    # append: rewind tape 1, copy v + bars to the list, close with '#'.
    b.rewind(1, DOT_V, "ap_rewind", "ap_bars", writes={2: VAR}, moves={1: R, 2: R})
    b.rule("ap_bars", {1: BAR}, "ap_bars", writes={2: BAR}, moves={1: R, 2: R})
    b.rule("ap_bars", {}, "ap_close", writes={2: SEP}, moves={2: R})
    b.rewind(1, DOT_V, "ap_close", "scan", writes={1: VAR})
    # found: unmark and resume the scan.
    b.rewind(1, DOT_V, "found", "scan", writes={1: VAR})
    # finish: blank out the anchor so tape 2 holds exactly the list.
    b.rewind(2, MARK, "fin", "acc", writes={2: BLANK}, moves={})
    return _wire_machine(b, "V", "init", MARK, DOT_V)


# ---------------------------------------------------------------------------
# CF: context filling
# ---------------------------------------------------------------------------

def _cf_machine() -> MachineSpec:
    b = Rules()
    R = "R"
    # init: dot the filler's first cell so it can be rewound (a term starts
    # with '(' or 'v').
    b.rule("init", {2: LP}, "scan", writes={2: DOT_P})
    b.rule("init", {2: VAR}, "scan", writes={2: DOT_V})
    # scan the context; plain symbols copy through, holes trigger a fill.
    b.rule("scan", {1: HOLE_GLYPH}, "fill")
    b.rule("scan", {1: BLANK}, "fin")
    for s in WIRE_SYMBOLS:
        if s != HOLE_GLYPH:
            b.rule("scan", {1: s}, "scan", writes={3: s}, moves={1: R, 3: R})
    # fill: copy the whole filler (undotting on the fly), then rewind it.
    b.rule("fill", {2: DOT_P}, "fill", writes={3: LP}, moves={2: R, 3: R})
    b.rule("fill", {2: DOT_V}, "fill", writes={3: VAR}, moves={2: R, 3: R})
    b.rule("fill", {2: BLANK}, "fill_rw")
    for s in WIRE_SYMBOLS:
        b.rule("fill", {2: s}, "fill", writes={3: s}, moves={2: R, 3: R})
    b.rewind(2, DOT_P, "fill_rw", "fill_done", moves={})
    b.rule("fill_rw", {2: DOT_V}, "fill_done")
    b.rule("fill_done", {}, "scan", moves={1: R})
    # finish: restore the filler's dotted first cell.
    b.rewind(2, DOT_P, "fin", "acc", writes={2: LP}, moves={})
    b.rule("fin", {2: DOT_V}, "acc", writes={2: VAR})
    return _wire_machine(b, "CF", "init", DOT_P, DOT_V)


# ---------------------------------------------------------------------------
# CBV: change of bound variable
# ---------------------------------------------------------------------------

def _cbv_machine() -> MachineSpec:
    b = Rules()
    R = "R"
    # init: dot the first cell of x and y (both are single variables).
    b.rule("i1", {1: VAR}, "i2", writes={1: DOT_V})
    b.rule("i2", {2: VAR}, "ctx", writes={2: DOT_V})
    # copy the context to the result; at the hole, emit "(Ly.M[x:=y])".
    b.rule("ctx", {3: HOLE_GLYPH}, "e_lam", writes={5: LP}, moves={5: R})
    b.rule("ctx", {3: BLANK}, "fin1")
    for s in WIRE_SYMBOLS:
        if s != HOLE_GLYPH:
            b.rule("ctx", {3: s}, "ctx", writes={5: s}, moves={3: R, 5: R})
    b.rule("e_lam", {}, "y_rw", writes={5: LAM}, moves={5: R})
    # emit y as the new binder.
    b.rewind(2, DOT_V, "y_rw", "y_bars", writes={5: VAR}, moves={2: R, 5: R})
    b.rule("y_bars", {2: BAR}, "y_bars", writes={5: BAR}, moves={2: R, 5: R})
    b.rule("y_bars", {2: BLANK}, "body", writes={5: DOT}, moves={5: R})
    # copy the body, replacing occurrences of x by y.
    b.rule("body", {4: VAR}, "x_rw", writes={4: DOT_V}, moves={4: R})
    b.rule("body", {4: BLANK}, "close", writes={5: RP}, moves={5: R})
    for s in WIRE_SYMBOLS:
        if s != VAR:
            b.rule("body", {4: s}, "body", writes={5: s}, moves={4: R, 5: R})
    # compare the marked body variable with x (tape 1).
    b.rewind(1, DOT_V, "x_rw", "x_cmp")
    b.rule("x_cmp", {1: BAR, 4: BAR}, "x_cmp", moves={1: R, 4: R})
    b.rule("x_cmp", {1: BAR}, "mm_rw")      # x longer: mismatch
    b.rule("x_cmp", {4: BAR}, "mm_rw")      # x shorter: mismatch
    b.rule("x_cmp", {}, "sub_rw")           # both ended: substitute
    # substitute: emit y, then restore the body marker and skip its bars.
    b.rewind(2, DOT_V, "sub_rw", "sub_bars", writes={5: VAR}, moves={2: R, 5: R})
    b.rule("sub_bars", {2: BAR}, "sub_bars", writes={5: BAR}, moves={2: R, 5: R})
    b.rule("sub_bars", {2: BLANK}, "m_restore")
    b.rewind(4, DOT_V, "m_restore", "m_skip", writes={4: VAR})
    b.rule("m_skip", {4: BAR}, "m_skip", moves={4: R})
    b.rule("m_skip", {}, "body")
    # mismatch: copy the body variable through unchanged.
    b.rewind(4, DOT_V, "mm_rw", "mm_bars", writes={4: VAR, 5: VAR}, moves={4: R, 5: R})
    b.rule("mm_bars", {4: BAR}, "mm_bars", writes={5: BAR}, moves={4: R, 5: R})
    b.rule("mm_bars", {}, "body")
    # after the body: ')' was emitted by "close"; resume the context.
    b.rule("close", {}, "ctx", moves={3: R})
    # finish: restore the dots on x and y.
    b.rewind(1, DOT_V, "fin1", "fin2", writes={1: VAR}, moves={})
    b.rewind(2, DOT_V, "fin2", "acc", writes={2: VAR}, moves={})
    return _wire_machine(b, "CBV", "i1", DOT_V)


# ---------------------------------------------------------------------------
# AE: literal wire equality
# ---------------------------------------------------------------------------

def _ae_machine() -> MachineSpec:
    # literal equality of two wires; on the wires of `canonical_binders`
    # copies of two closed terms it answers 1 exactly when they are
    # alpha-equal (see `render_term`)
    b = Rules()
    for s in WIRE_SYMBOLS:
        b.rule("a0", {1: s, 2: s}, "a0", moves={1: "R", 2: "R"})
    b.rule("a0", {1: BLANK, 2: BLANK}, "acc", writes={3: "1"})
    b.rule("a0", {}, "acc", writes={3: "0"})
    return _wire_machine(b, "AE", "a0", "0", "1")


# ---------------------------------------------------------------------------
# NF: normal-form test
# ---------------------------------------------------------------------------

def _nf_machine() -> MachineSpec:
    # A wire contains a redex iff it contains the substring "((L".
    b = Rules()
    R = "R"
    for state, on_lp in (("n0", "n1"), ("n1", "n2"), ("n2", "n2")):
        b.rule(state, {1: LP}, on_lp, moves={1: R})
        b.rule(state, {1: BLANK}, "acc", writes={2: "1"})
        b.rule(state, {}, "n0", moves={1: R})
    b.rule("n2", {1: LAM}, "acc", writes={2: "0"})
    return _wire_machine(b, "NF", "n0", "0", "1")


# ---------------------------------------------------------------------------
# BR1: one leftmost contraction
# ---------------------------------------------------------------------------

def _br1_machine() -> MachineSpec:
    """Contract the leftmost redex of the wire on tape 1.

    Tapes: 1 input, 2 function body with holes for the bound variable,
    3 argument, 4 binder bars, 5 result, 6 unary parenthesis-depth counter.
    The input must have all-distinct binders disjoint from its free
    variables; `_canonical_wire`, run on the host first, guarantees that.
    """
    b = Rules()
    R, L = "R", "L"
    b.rule("init", {}, "s0",
           writes={i: MARK for i in (2, 3, 4, 5, 6)},
           moves={i: R for i in (2, 3, 4, 5, 6)})
    # -- search for "((L", copying the prefix to the result tape --
    for state, on_lp in (("s0", "s1"), ("s1", "s2"), ("s2", "s2")):
        b.rule(state, {1: LP}, on_lp, writes={5: LP}, moves={1: R, 5: R})
        b.rule(state, {1: BLANK}, "fin")  # no redex: result = input
        for s in WIRE_SYMBOLS:
            if s != LP and not (state == "s2" and s == LAM):
                b.rule(state, {1: s}, "s0", writes={5: s}, moves={1: R, 5: R})
    # found "((L": take back the two copied parens, then read the binder.
    b.rule("s2", {1: LAM}, "e1", moves={1: R})
    b.rule("e1", {}, "e2", moves={5: L})
    b.rule("e2", {}, "e3", writes={5: BLANK}, moves={5: L})
    b.rule("e3", {}, "bx", writes={5: BLANK})
    b.rule("bx", {1: VAR}, "bbars", moves={1: R})
    b.rule("bbars", {1: BAR}, "bbars", writes={4: BAR}, moves={1: R, 4: R})
    b.rule("bbars", {1: DOT}, "mcopy", moves={1: R})
    # -- copy the body M to tape 2, holing out the bound variable --
    b.rule("mcopy", {1: LP}, "mcopy", writes={2: LP, 6: BAR},
           moves={1: R, 2: R, 6: R})
    b.rule("mcopy", {1: RP}, "m_pop", moves={6: L})
    b.rule("m_pop", {6: BAR}, "mcopy", writes={2: RP, 6: BLANK}, moves={1: R, 2: R})
    b.rule("m_pop", {6: MARK}, "narg", moves={1: R, 6: R})  # ')' closed (Lx.M
    b.rule("mcopy", {1: VAR}, "v_rw", writes={1: DOT_V}, moves={1: R})
    for s in (LAM, DOT):
        b.rule("mcopy", {1: s}, "mcopy", writes={2: s}, moves={1: R, 2: R})
    # compare the marked variable with the binder on tape 4.
    b.rewind(4, MARK, "v_rw", "v_cmp")
    b.rule("v_cmp", {1: BAR, 4: BAR}, "v_cmp", moves={1: R, 4: R})
    b.rule("v_cmp", {1: BAR}, "v_mm")
    b.rule("v_cmp", {4: BAR}, "v_mm")
    b.rule("v_cmp", {}, "mcopy", writes={2: HOLE_GLYPH}, moves={2: R})
    b.rewind(1, DOT_V, "v_mm", "v_mmb", writes={1: VAR, 2: VAR}, moves={1: R, 2: R})
    b.rule("v_mmb", {1: BAR}, "v_mmb", writes={2: BAR}, moves={1: R, 2: R})
    b.rule("v_mmb", {}, "mcopy")
    # -- copy the argument N to tape 3 --
    b.rule("narg", {1: VAR}, "n_var", writes={3: VAR}, moves={1: R, 3: R})
    b.rule("n_var", {1: BAR}, "n_var", writes={3: BAR}, moves={1: R, 3: R})
    b.rule("n_var", {}, "n_end")
    b.rule("narg", {1: LP}, "n_deep", writes={3: LP, 6: BAR},
           moves={1: R, 3: R, 6: R})
    b.rule("n_deep", {1: LP}, "n_deep", writes={3: LP, 6: BAR},
           moves={1: R, 3: R, 6: R})
    b.rule("n_deep", {1: RP}, "n_pop", moves={6: L})
    b.rule("n_pop", {6: BAR}, "n_chk", writes={3: RP, 6: BLANK}, moves={1: R, 3: R})
    b.rule("n_chk", {}, "n_chk2", moves={6: L})
    b.rule("n_chk2", {6: MARK}, "n_end", moves={6: R})
    b.rule("n_chk2", {6: BAR}, "n_deep", moves={6: R})
    for s in (VAR, BAR, LAM, DOT):
        b.rule("n_deep", {1: s}, "n_deep", writes={3: s}, moves={1: R, 3: R})
    # n_end: tape 1 sits on the ')' that closes the redex; skip it.
    b.rule("n_end", {1: RP}, "f_rw2", moves={1: R})
    # -- fill: result += M with each hole replaced by N --
    b.rewind(2, MARK, "f_rw2", "fill")
    b.rule("fill", {2: HOLE_GLYPH}, "f_rw3")
    b.rule("fill", {2: BLANK}, "sfx")
    for s in WIRE_SYMBOLS:
        if s != HOLE_GLYPH:
            b.rule("fill", {2: s}, "fill", writes={5: s}, moves={2: R, 5: R})
    b.rewind(3, MARK, "f_rw3", "f_arg")
    b.rule("f_arg", {3: BLANK}, "fill", moves={2: R})
    for s in WIRE_SYMBOLS:
        b.rule("f_arg", {3: s}, "f_arg", writes={5: s}, moves={3: R, 5: R})
    # -- copy the rest of the input, then clear the result anchor --
    b.rule("sfx", {1: BLANK}, "fin")
    for s in WIRE_SYMBOLS:
        b.rule("sfx", {1: s}, "sfx", writes={5: s}, moves={1: R, 5: R})
    b.rewind(5, MARK, "fin", "acc", writes={5: BLANK}, moves={})
    return _wire_machine(b, "BR1", "init", MARK, DOT_V)


SUITE = ("V", "CF", "CBV", "AE", "NF", "BR1")
_BUILDERS = dict(zip(SUITE, (_v_machine, _cf_machine, _cbv_machine, _ae_machine,
                             _nf_machine, _br1_machine)))


def build_machine(name: str) -> MachineSpec:
    """Machine suite entry point: a new machine on each call; name is one of `SUITE`."""
    if name not in _BUILDERS:
        raise ValidationError(f"unknown machine {name!r}; choose from {sorted(SUITE)}")
    return _BUILDERS[name]()


@cache
def _shared_machine(name: str) -> MachineSpec:
    """The drivers' machine ``name``, built on first use and kept for the process;
    only its resolver memo changes, bounded by its own rules and scans."""
    return build_machine(name)


# ---------------------------------------------------------------------------
# Driving the machines from the host
# ---------------------------------------------------------------------------

MACHINE_FUEL = 2_000_000  # steps for one NF or BR1 run, in every driver


def _run_wire(spec: MachineSpec, word: str) -> Outcome:
    out = run(spec, word, fuel=MACHINE_FUEL)
    if out.tag != ACCEPT:
        if out.tag == FUEL_EXHAUSTED:
            raise FuelExhausted(f"{spec.name} machine ran out of fuel")
        raise ValidationError(f"{spec.name} machine rejected wire {word!r}")
    return out


def nf_on_tm(t: Term) -> bool:
    """Normal-form verdict of the shared NF machine for t."""
    out = _run_wire(_shared_machine("NF"), render_term(t))
    return out.final.tapes[1].content() == "1"


def br1_on_tm(t: Term) -> Term:
    """One leftmost contraction of t, computed by the shared BR1 machine.

    t's wire is canonicalised first (`_canonical_wire`: the wire of its
    `canonical_binders` copy), so its binders are apart; the result is
    alpha-equal to beta_step(t) when t has a redex, and alpha-equal to t
    otherwise.
    """
    wire, names = _canonical_wire(*render_with_names(t))
    out = _run_wire(_shared_machine("BR1"), wire)
    return parse_wire(out.final.tapes[4].content(), names)


def reduce_on_tm(t: Term, fuel: int = 200) -> Term:
    """Normalize t by iterating the shared NF and BR1 machines.

    t is rendered once.  Each round canonicalises the wire on the host
    (`_canonical_wire`), asks NF whether it is normal, and if not lets BR1
    contract the leftmost redex; BR1's output is the next round's wire.
    Only the normal form's wire is parsed back, into the term
    ``canonical_binders`` would give.  fuel bounds the number of
    contractions; exceeding it raises FuelExhausted.
    """
    check_fuel(fuel)
    nfm = _shared_machine("NF")
    br = _shared_machine("BR1")
    wire, names = render_with_names(t)
    for _ in range(fuel + 1):
        wire, names = _canonical_wire(wire, names)
        if _run_wire(nfm, wire).final.tapes[1].content() == "1":
            return _build_wire(wire, names)
        wire = _run_wire(br, wire).final.tapes[4].content()
    raise FuelExhausted(f"no beta-normal form within {fuel} contractions")
