"""Textual formats for machines, recursive-function expressions, and lambda
terms.

Three kinds of source text:

``tm``   line-oriented machine descriptions.  Headers ``tapes:``, ``mode:
         semi|two_way``, ``states:``, ``initial:``, ``accept:``,
         ``input_alphabet:``, ``tape_alphabet:`` (the blank ``_`` is
         mandatory), then ``delta:`` followed by transition lines

             q a[,a2...] -> p b[,b2...] M[,M2...]

         with moves in {L, R, S}.  Duplicate (state, reads) lines, or
         lines of equal rank that one scan matches with no more specific
         line deciding it, make the machine nondeterministic.  A ``kind:
         dfa`` or ``kind: nfa`` header switches to finite-automaton parsing
         with ``alphabet:`` and lines ``q a -> p`` (an NFA may repeat a
         left-hand side).

``prf``  prefix expressions: ``Z k``, ``S``, ``P k i``, ``C f (g1, ..., gl)``,
         ``R (g, h)``, ``Mu g``, and ``def name = term`` bindings; a defined
         name is usable in later terms.

``lam``  ``\\x y. body`` abstraction sugar, juxtaposition application
         (left-associative), parentheses, ``#n`` Church-numeral literals, and
         ``def name = term`` bindings.

Comments run from ``#`` to end of line, except in ``lam`` where ``#`` starts
a numeral and comments use ``;`` instead.

`parse` returns the single object for a bare text, or a name -> object dict
when the text consists of ``def`` bindings.  `print_source` inverts it;
printing is canonical, so print-parse-print is byte-stable.
"""

import re
from typing import Dict, List, Optional, Tuple, Union

from .errors import ParseError
from .lam import Abs, App, Term, Var, canonical_binders, church_encode
from .prf import (Compose, Mu, Named, PrimRec, Proj, Succ, Zero, arity_check,
                  const, stdlib, stdlib_names)
from .prf import PrfExpr
from .tm import BLANK, MachineSpec, SEMI_INFINITE, TWO_WAY, make_machine
from .transform import Dfa, Nfa

_MODE_NAMES = {"semi": SEMI_INFINITE, "two_way": TWO_WAY}
_MODE_GLYPHS = {v: k for k, v in _MODE_NAMES.items()}


def _strip_comment(line: str, comment: str) -> str:
    i = line.find(comment)
    return line if i < 0 else line[:i]


# ---------------------------------------------------------------------------
# .tm
# ---------------------------------------------------------------------------

def _tm_lines(text: str):
    """Yield (lineno, stripped content) for non-empty, non-comment lines."""
    for no, raw in enumerate(text.splitlines(), start=1):
        s = _strip_comment(raw, "#").strip()
        if s:
            yield no, s


def parse_tm(text: str) -> Union[MachineSpec, Dfa, Nfa]:
    headers: Dict[str, Tuple[int, str]] = {}
    delta_lines: List[Tuple[int, str]] = []
    in_delta = False
    for no, s in _tm_lines(text):
        if in_delta:
            delta_lines.append((no, s))
            continue
        if ":" not in s:
            raise ParseError(f"expected 'header: value', got {s!r}", line=no, column=1)
        key, _, val = s.partition(":")
        key = key.strip()
        if key == "delta":
            in_delta = True
            continue
        headers[key] = (no, val.strip())

    def need(key: str) -> str:
        if key not in headers:
            raise ParseError(f"missing header {key + ':'!r}", line=1, column=1)
        return headers[key][1]

    kind = headers.get("kind", (0, "tm"))[1]
    if kind in ("dfa", "nfa"):
        return _parse_automaton(kind, headers, delta_lines, need)
    if kind != "tm":
        no, _ = headers["kind"]
        raise ParseError(f"unknown kind {kind!r}", line=no, column=1)

    tapes_no, tapes_s = headers.get("tapes", (1, "1"))
    try:
        tapes = int(tapes_s)
    except ValueError:
        raise ParseError(f"tapes: wants an integer, got {tapes_s!r}",
                         line=tapes_no, column=1)
    mode_no, mode_s = headers.get("mode", (1, "semi"))
    if mode_s not in _MODE_NAMES:
        raise ParseError(f"mode must be semi or two_way, got {mode_s!r}",
                         line=mode_no, column=1)

    rules = []
    for no, s in delta_lines:
        if "->" not in s:
            raise ParseError("transition line needs '->'", line=no, column=1)
        lhs, _, rhs = s.partition("->")
        lf = lhs.split()
        rf = rhs.split()
        if len(lf) != 2 or len(rf) != 3:
            raise ParseError("transition format is 'q a[,a2] -> p b[,b2] M[,M2]'",
                             line=no, column=1)
        state, reads = lf
        nxt, writes, moves = rf
        reads_t = tuple(reads.split(","))
        writes_t = tuple(writes.split(","))
        moves_t = tuple(moves.split(","))
        for m in moves_t:
            if m not in ("L", "R", "S"):
                raise ParseError(f"move must be L, R or S, got {m!r}",
                                 line=no, column=1 + s.find(m))
        if not len(reads_t) == len(writes_t) == len(moves_t) == tapes:
            raise ParseError(f"expected {tapes} symbols per vector", line=no, column=1)
        rules.append((state, reads_t, nxt, writes_t, moves_t))

    return make_machine(
        name=headers.get("name", (0, "machine"))[1],
        states=need("states").split(),
        initial=need("initial"),
        accept=need("accept").split(),
        input_alphabet=need("input_alphabet").split(),
        tape_alphabet=need("tape_alphabet").split(),
        tapes=tapes,
        rules=rules,
        tape_mode=_MODE_NAMES[mode_s],
    )


def _parse_automaton(kind, headers, delta_lines, need):
    trans: Dict[Tuple[str, str], object] = {}
    for no, s in delta_lines:
        parts = s.replace("->", " ").split()
        if len(parts) != 3:
            raise ParseError("automaton transition format is 'q a -> p'",
                             line=no, column=1)
        q, a, p = parts
        if kind == "dfa":
            if (q, a) in trans:
                raise ParseError(f"duplicate DFA transition for ({q},{a})",
                                 line=no, column=1)
            trans[(q, a)] = p
        else:
            trans.setdefault((q, a), set()).add(p)
    common = dict(
        states=frozenset(need("states").split()),
        initial=need("initial"),
        accept=frozenset(need("accept").split()),
        alphabet=frozenset(need("alphabet").split()),
    )
    if kind == "dfa":
        return Dfa(trans=trans, **common)
    return Nfa(trans={k: frozenset(v) for k, v in trans.items()}, **common)


def print_tm(obj: Union[MachineSpec, Dfa, Nfa],
             layout_comment: Optional[str] = None) -> str:
    if isinstance(obj, (Dfa, Nfa)):
        return _print_automaton(obj)
    lines = []
    if layout_comment:
        for c in layout_comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"name: {obj.name}")
    lines.append(f"tapes: {obj.tapes}")
    lines.append(f"mode: {_MODE_GLYPHS[obj.tape_mode]}")
    lines.append("states: " + " ".join(sorted(obj.states)))
    lines.append(f"initial: {obj.initial}")
    lines.append("accept: " + " ".join(sorted(obj.accept)))
    lines.append("input_alphabet: " + " ".join(sorted(obj.input_alphabet)))
    lines.append("tape_alphabet: " + " ".join(sorted(obj.tape_alphabet)))
    lines.append("delta:")
    entries = []
    for (state, reads), targets in obj.delta.items():
        for (nxt, writes, moves) in targets:
            entries.append((state, reads, nxt, writes, moves))
    entries.sort()
    for state, reads, nxt, writes, moves in entries:
        lines.append(f"{state} {','.join(reads)} -> {nxt} "
                     f"{','.join(writes)} {','.join(moves)}")
    return "\n".join(lines) + "\n"


def _print_automaton(a: Union[Dfa, Nfa]) -> str:
    kind = "dfa" if isinstance(a, Dfa) else "nfa"
    lines = [
        f"kind: {kind}",
        "states: " + " ".join(sorted(a.states)),
        f"initial: {a.initial}",
        "accept: " + " ".join(sorted(a.accept)),
        "alphabet: " + " ".join(sorted(a.alphabet)),
        "delta:",
    ]
    if kind == "dfa":
        for (q, s), p in sorted(a.trans.items()):
            lines.append(f"{q} {s} -> {p}")
    else:
        for (q, s), ps in sorted(a.trans.items()):
            for p in sorted(ps):
                lines.append(f"{q} {s} -> {p}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# .prf
# ---------------------------------------------------------------------------

class _Tokens:
    """Token stream carrying line/column for error messages."""

    def __init__(self, text: str, comment: str = "#"):
        self.toks: List[Tuple[str, int, int]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw, comment)
            col = 0
            while col < len(line):
                c = line[col]
                if c.isspace():
                    col += 1
                    continue
                if c in "(),=.\\#;":
                    self.toks.append((c, no, col + 1))
                    col += 1
                    continue
                j = col
                while j < len(line) and not line[j].isspace() and line[j] not in "(),=.\\#;":
                    j += 1
                self.toks.append((line[col:j], no, col + 1))
                col = j
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise self.error("unexpected end of input")
        t, _, _ = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            self.pos -= 1
            raise self.error(f"expected {tok!r}, got {got!r}")

    def error(self, msg: str) -> ParseError:
        if self.pos < len(self.toks):
            _, line, col = self.toks[self.pos]
        elif self.toks:
            _, line, col = self.toks[-1]
        else:
            line, col = 1, 1
        return ParseError(msg, line=line, column=col)


def _parse_prf_term(ts: _Tokens, env: Dict[str, PrfExpr]) -> PrfExpr:
    tok = ts.next()
    if tok == "Z":
        return Zero(_int_tok(ts))
    if tok == "S":
        return Succ()
    if tok == "P":
        k = _int_tok(ts)
        i = _int_tok(ts)
        return Proj(k, i)
    if tok == "C":
        f = _parse_prf_term(ts, env)
        ts.expect("(")
        gs = [_parse_prf_term(ts, env)]
        while ts.peek() == ",":
            ts.next()
            gs.append(_parse_prf_term(ts, env))
        ts.expect(")")
        return Compose(f, tuple(gs))
    if tok == "R":
        ts.expect("(")
        g = _parse_prf_term(ts, env)
        ts.expect(",")
        h = _parse_prf_term(ts, env)
        ts.expect(")")
        return PrimRec(g, h)
    if tok == "Mu":
        return Mu(_parse_prf_term(ts, env))
    if tok in env:
        return env[tok]
    ts.pos -= 1
    raise ts.error(f"unknown p.r.f. term head {tok!r}")


def _int_tok(ts: _Tokens) -> int:
    tok = ts.next()
    try:
        return int(tok)
    except ValueError:
        ts.pos -= 1
        raise ts.error(f"expected an integer, got {tok!r}")


def _with_native(name: str, body: PrfExpr) -> Named:
    """Wrap a parsed definition; definitions that match a library function
    get its big-integer shortcut back (printing drops the native field)."""
    m = re.fullmatch(r"const(\d+)/(\d+)", name)
    if m:
        ref = const(int(m.group(1)), int(m.group(2)))
        if body == ref.definition:
            return ref
    if name in stdlib_names():
        ref = stdlib(name)
        if body == ref.definition:
            return ref
    return Named(name, body)


def parse_prf(text: str) -> Union[PrfExpr, Dict[str, PrfExpr]]:
    ts = _Tokens(text, comment="#")
    if ts.peek() != "def":
        e = _parse_prf_term(ts, {})
        if ts.peek() is not None:
            raise ts.error("trailing tokens after term")
        arity_check(e)
        return e
    env: Dict[str, PrfExpr] = {}
    while ts.peek() is not None:
        ts.expect("def")
        name = ts.next()
        ts.expect("=")
        if name in env:
            raise ts.error(f"duplicate definition of {name!r}")
        body = _parse_prf_term(ts, env)
        arity_check(body)
        env[name] = _with_native(name, body)
    return env


def _print_prf_term(e: PrfExpr) -> str:
    if isinstance(e, Named):
        return e.name
    if isinstance(e, Zero):
        return f"Z {e.k}"
    if isinstance(e, Succ):
        return "S"
    if isinstance(e, Proj):
        return f"P {e.k} {e.i}"
    if isinstance(e, Compose):
        gs = ", ".join(_print_prf_term(g) for g in e.hs)
        return f"C {_print_prf_term(e.g)} ({gs})"
    if isinstance(e, PrimRec):
        return f"R ({_print_prf_term(e.g)}, {_print_prf_term(e.h)})"
    if isinstance(e, Mu):
        return f"Mu {_print_prf_term(e.g)}"
    raise ParseError(f"cannot print {e!r}", line=1, column=1)


def _hoist_named(e: PrfExpr, env: Dict[str, PrfExpr]) -> None:
    """Collect Named subexpressions of e, dependencies first, so every name
    the printer emits is defined on an earlier line."""
    if isinstance(e, Named):
        if e.name in env:
            return
        _hoist_named(e.definition, env)
        env[e.name] = e.definition
    elif isinstance(e, Compose):
        _hoist_named(e.g, env)
        for h in e.hs:
            _hoist_named(h, env)
    elif isinstance(e, PrimRec):
        _hoist_named(e.g, env)
        _hoist_named(e.h, env)
    elif isinstance(e, Mu):
        _hoist_named(e.g, env)


def print_prf(obj: Union[PrfExpr, Dict[str, PrfExpr]]) -> str:
    if not isinstance(obj, dict):
        env: Dict[str, PrfExpr] = {}
        _hoist_named(obj, env)
        if not env:
            return _print_prf_term(obj) + "\n"
        obj = {"main": obj}
    lines = []
    seen: Dict[str, PrfExpr] = {}
    for name, e in obj.items():
        body = e.definition if isinstance(e, Named) else e
        deps: Dict[str, PrfExpr] = dict.fromkeys(seen)
        _hoist_named(body, deps)
        for dep, dbody in deps.items():
            if dep not in seen and dep != name:
                lines.append(f"def {dep} = {_print_prf_term(dbody)}")
                seen[dep] = dbody
        lines.append(f"def {name} = {_print_prf_term(body)}")
        seen[name] = body
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# .lam
# ---------------------------------------------------------------------------

def _parse_lam_atom(ts: _Tokens, env: Dict[str, Term]) -> Optional[Term]:
    tok = ts.peek()
    if tok is None or tok in (")", ".", ",", "def", "="):
        return None
    if tok == "(":
        ts.next()
        t = _parse_lam_term(ts, env)
        ts.expect(")")
        return t
    if tok == "\\":
        ts.next()
        params = []
        while ts.peek() not in (".", None):
            params.append(ts.next())
        if not params:
            raise ts.error("abstraction needs at least one parameter")
        ts.expect(".")
        body = _parse_lam_term(ts, env)
        for p in reversed(params):
            body = Abs(p, body)
        return body
    if tok == "#":
        ts.next()
        return church_encode(_int_tok(ts))
    ts.next()
    if tok in env:
        return env[tok]
    return Var(tok)


def _parse_lam_term(ts: _Tokens, env: Dict[str, Term]) -> Term:
    t = _parse_lam_atom(ts, env)
    if t is None:
        raise ts.error("expected a lambda term")
    while True:
        nxt = _parse_lam_atom(ts, env)
        if nxt is None:
            return t
        t = App(t, nxt)


def parse_lam(text: str) -> Union[Term, Dict[str, Term]]:
    ts = _Tokens(text, comment=";")
    if ts.peek() != "def":
        t = _parse_lam_term(ts, {})
        if ts.peek() is not None:
            raise ts.error("trailing tokens after term")
        return t
    env: Dict[str, Term] = {}
    while ts.peek() is not None:
        ts.expect("def")
        name = ts.next()
        ts.expect("=")
        if name in env:
            raise ts.error(f"duplicate definition of {name!r}")
        env[name] = _parse_lam_term(ts, env)
    return env


def _print_lam_term(t: Term, ctx: str = "top") -> str:
    # ctx: "top" needs no parens; "fn" is the left of an application
    # (abstractions need parens); "arg" is the right (abs and apps need them).
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        params = []
        while isinstance(t, Abs):
            params.append(t.param)
            t = t.body
        s = "\\" + " ".join(params) + ". " + _print_lam_term(t, "top")
        return s if ctx == "top" else f"({s})"
    if isinstance(t, App):
        s = _print_lam_term(t.fn, "fn") + " " + _print_lam_term(t.arg, "arg")
        return s if ctx in ("top", "fn") else f"({s})"
    raise ParseError(f"cannot print {t!r}", line=1, column=1)


def print_lam(obj: Union[Term, Dict[str, Term]]) -> str:
    if isinstance(obj, dict):
        lines = [f"def {name} = {_print_lam_term(canonical_binders(t))}"
                 for name, t in obj.items()]
        return "\n".join(lines) + "\n"
    return _print_lam_term(canonical_binders(obj)) + "\n"


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_PARSERS = {"tm": parse_tm, "prf": parse_prf, "lam": parse_lam}
_PRINTERS = {"tm": print_tm, "prf": print_prf, "lam": print_lam}


def parse(kind: str, text: str):
    """Parse source text of the given kind (tm, prf, or lam)."""
    if kind not in _PARSERS:
        raise ParseError(f"unknown source kind {kind!r}", line=1, column=1)
    return _PARSERS[kind](text)


def print_source(kind: str, obj, **kw) -> str:
    """Canonical text for an object of the given kind."""
    if kind not in _PRINTERS:
        raise ParseError(f"unknown source kind {kind!r}", line=1, column=1)
    return _PRINTERS[kind](obj, **kw)
