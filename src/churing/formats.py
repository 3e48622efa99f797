"""Textual formats for machines, recursive-function expressions, and lambda
terms.

Three kinds of source text:

``tm``   line-oriented machine descriptions.  Headers ``tapes:``,
         ``states:``, ``initial:``, ``accept:``, ``input_alphabet:``,
         ``tape_alphabet:`` (the blank ``_`` is mandatory), then ``delta:``
         followed by transition lines

             q a[,a2...] -> p b[,b2...] M[,M2...]

         with moves in {L, R, S}.  Duplicate (state, reads) lines, or
         lines of equal rank that one scan matches with no more specific
         line deciding it, make the machine nondeterministic.  A ``kind:
         dfa`` or ``kind: nfa`` header switches to finite-automaton parsing
         with ``alphabet:`` and lines ``q a -> p`` (an NFA may repeat a
         left-hand side).  Every tape is semi-infinite; the printer writes
         ``mode: semi``, the only value the optional ``mode:`` header takes.
         A header given twice is a ParseError at its second line.

``prf``  prefix expressions: ``Z k``, ``S``, ``P k i``, ``C f (g1, ..., gl)``,
         ``R (g, h)``, ``Mu g``, and ``def name = term`` bindings; a defined
         name is usable in later terms.  A def name is a name, not
         punctuation or ``def``, as a λ parameter is, and not a term head.

``lam``  ``\\x y. body`` abstraction sugar, juxtaposition application
         (left-associative), parentheses, ``#n`` Church-numeral literals, and
         ``def name = term`` bindings.  A parameter or a def name is a name,
         not punctuation or ``def``; a parameter hides a definition of its
         name until the term that opened it ends.  A printed dict refuses an
         entry with a free name that an earlier entry defines.  A printed
         term puts each closed subterm of at least ``_DEF_MIN_NODES`` (12)
         nodes that its text would hold twice or more on a ``def`` line of
         its own, and its name in each place it occurs.  The subterms come
         from `churing.lam`'s de Bruijn walk, so alpha-equal terms print the
         same text.  The names are ``d1``, ``d2``, ... (skipping the term's
         free names) in the order the subterms first complete in post-order,
         so a def comes after the defs it uses.  The last def, ``main``, is
         the term; a term with no such subterm prints as one bare line.
         Each line is printed straight from the term, by `churing.lam`'s
         render walk, which writes a def's name where its subterm is.  A
         free name the parser would not read back as that one name (``a
         b``, ``def``, ``#``, the empty name) is refused (ValidationError),
         and so is a hole.

Comments run to the end of the line.  In ``prf`` they start at ``#``; in
``lam``, where ``#`` starts a numeral, at ``;``; in ``tm``, where ``#`` may be
a tape symbol, only a line whose first non-blank character is ``#`` is a
comment.

The ``tm`` parser splits each distinct vector text once, and checks each
distinct move text once, in a table of its own.

`parse` returns the single object for a bare text, or a name -> object dict
when the text consists of ``def`` bindings.  `print_source` inverts it, and
refuses a def name that `parse` would refuse (ValidationError); printing is
canonical, so print-parse-print is byte-stable.  For a λ-term printed with
def lines, printing the last entry of the parsed dict gives the text again.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from .errors import ParseError, ValidationError
from .prf import (Compose, Mu, Named, PrfExpr, PrimRec, Proj, Succ, Zero, named_const, stdlib,
                  stdlib_names)

if TYPE_CHECKING:  # the .tm and .lam parsers and printers load their models
    from .lam import Term
    from .tm import MachineSpec
    from .transform import Dfa, Nfa


def _strip_comment(line: str, comment: str) -> str:
    i = line.find(comment)
    return line if i < 0 else line[:i]


# ---------------------------------------------------------------------------
# .tm
# ---------------------------------------------------------------------------

def _tm_lines(text: str):
    """Yield (lineno, stripped content) for non-empty, non-comment lines."""
    for no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            yield no, s


def parse_tm(text: str) -> Union[MachineSpec, Dfa, Nfa]:
    from .tm import make_machine
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
        if key in headers:
            raise ParseError(f"repeated header {key + ':'!r}", line=no, column=1)
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
    if mode_s != "semi":
        raise ParseError(f"mode must be semi, got {mode_s!r}", line=mode_no, column=1)

    # Each distinct vector text is split once, and each distinct move text
    # checked once, in a table of its own: a read or write text is no move.
    symbols: Dict[str, Tuple[str, ...]] = {}
    moved: Dict[str, Tuple[str, ...]] = {}
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
        reads_t = symbols.get(reads)
        if reads_t is None:
            reads_t = symbols[reads] = tuple(reads.split(","))
        writes_t = symbols.get(writes)
        if writes_t is None:
            writes_t = symbols[writes] = tuple(writes.split(","))
        moves_t = moved.get(moves)
        if moves_t is None:
            moves_t = tuple(moves.split(","))
            for i, m in enumerate(moves_t):
                if m not in ("L", "R", "S"):
                    # the move text ends the line; count its moves before m
                    col = len(text.splitlines()[no - 1].rstrip()) - len(moves) + 1
                    col += sum(len(x) + 1 for x in moves_t[:i])
                    raise ParseError(f"move must be L, R or S, got {m!r}", line=no, column=col)
            moved[moves] = moves_t
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
    )


def _parse_automaton(kind, headers, delta_lines, need):
    from .transform import Dfa, Nfa
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


def print_tm(obj: Union[MachineSpec, Dfa, Nfa]) -> str:
    from .transform import Dfa, Nfa
    if isinstance(obj, (Dfa, Nfa)):
        return _print_automaton(obj, "dfa" if isinstance(obj, Dfa) else "nfa")
    lines = [f"name: {obj.name}"]
    lines.append(f"tapes: {obj.tapes}")
    lines.append("mode: semi")
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


def _print_automaton(a: Union[Dfa, Nfa], kind: str) -> str:
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

_TOKEN = re.compile(r"[(),=.\\#;]|[^\s(),=.\\#;]+")
# tokens that name nothing: no def and no λ parameter is named by one
_NOT_NAME = frozenset("(),=.\\#;") | {"def"}
# a .prf def may not be named by a term head either: the head would win
_PRF_NOT_NAME = _NOT_NAME | {"Z", "S", "P", "C", "R", "Mu"}


class _Tokens:
    """Token stream: each punctuation character is a token, and so is each
    run of other non-blank characters.  Tokens are plain strings; only an
    error works out a line and column, by scanning the text again."""

    def __init__(self, text: str, comment: str = "#"):
        self.text = text
        self.comment = comment
        self.toks: List[str] = [tok for raw in text.splitlines()
                                for tok in _TOKEN.findall(_strip_comment(raw, comment))]
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise self.error("unexpected end of input")
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            self.pos -= 1
            raise self.error(f"expected {tok!r}, got {got!r}")

    def def_head(self, env: dict, refused: frozenset) -> str:
        """Read ``def name =`` and return the name; refuse, at its token, a
        name in ``refused`` or one that ``env`` already defines."""
        self.expect("def")
        name = self.next()
        self.expect("=")
        if name in refused:
            self.pos -= 2
            raise self.error(f"expected a definition name, got {name!r}")
        if name in env:
            raise self.error(f"duplicate definition of {name!r}")
        return name

    def error(self, msg: str) -> ParseError:
        """A ParseError at the current token, or at the last one when the
        input has ended."""
        n = min(self.pos, len(self.toks) - 1)
        for no, raw in enumerate(self.text.splitlines(), start=1):
            found = list(_TOKEN.finditer(_strip_comment(raw, self.comment)))
            if 0 <= n < len(found):
                return ParseError(msg, line=no, column=found[n].start() + 1)
            n -= len(found)
        return ParseError(msg, line=1, column=1)


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


def _def_name(name: str, refused: frozenset, what: str = "a definition name") -> str:
    """name, if a parser refusing ``refused`` reads it as one name."""
    if not _TOKEN.fullmatch(name) or name in refused:
        raise ValidationError(f"cannot print {name!r} as {what}")
    return name


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
    ref = named_const(name, body)
    if ref is not None:
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
        return e
    env: Dict[str, PrfExpr] = {}
    while ts.peek() is not None:
        name = ts.def_head(env, _PRF_NOT_NAME)
        body = _parse_prf_term(ts, env)
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
                lines.append(f"def {_def_name(dep, _PRF_NOT_NAME)} = {_print_prf_term(dbody)}")
                seen[dep] = dbody
        lines.append(f"def {_def_name(name, _PRF_NOT_NAME)} = {_print_prf_term(body)}")
        seen[name] = body
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# .lam
# ---------------------------------------------------------------------------

_LAM_STOP = frozenset((")", ".", ",", "def", "="))  # tokens that end a term

# A closed subterm of at least this many nodes that occurs twice or more in
# a printed term is printed once, on a def line of its own.
_DEF_MIN_NODES = 12


def _parse_lam_term(ts: _Tokens, i: int, scope: Dict[str, Term], make) -> Tuple[Term, int]:
    """The term at token i, and the index after it.  An abstraction's body
    runs to the end of the term, so one loop reads it with the atoms of an
    application; only a parenthesis recurses.  ``scope`` maps a name to its
    definition, or to the one Var node of that name in this parse; an
    abstraction's parameter shadows a definition of its name until the term
    ends.  ``make`` holds `churing.lam`'s App, Var, church_encode and lam."""
    App, Var, church_encode, lam = make
    toks = ts.toks
    n = len(toks)
    t = None
    opened = []  # (application before it, params) of each abstraction read
    shadowed = []  # (name, definition) of each definition a parameter hides
    while i < n:
        tok = toks[i]
        if tok == "(":
            a, ts.pos = _parse_lam_term(ts, i + 1, scope, make)
            ts.expect(")")
            i = ts.pos
        elif tok == "\\":
            j = i + 1
            while j < n and toks[j] != ".":
                p = toks[j]
                if p in _NOT_NAME:
                    ts.pos = j
                    raise ts.error(f"expected a parameter name, got {p!r}")
                a = scope.get(p)
                if a is not None and (type(a) is not Var or a.name != p):
                    shadowed.append((p, a))
                    scope[p] = Var(p)
                j += 1
            ts.pos = j
            if j == i + 1:
                raise ts.error("abstraction needs at least one parameter")
            ts.expect(".")
            opened.append((t, toks[i + 1:j]))
            t, i = None, j + 1
            continue
        elif tok == "#":
            ts.pos = i + 1
            a = church_encode(_int_tok(ts))
            i = ts.pos
        elif tok in _LAM_STOP:
            break
        else:
            a = scope.get(tok)
            if a is None:
                a = scope[tok] = Var(tok)
            i += 1
        t = a if t is None else App(t, a)
    if t is None:
        ts.pos = i
        raise ts.error("expected a lambda term")
    while opened:
        fn, params = opened.pop()
        t = lam(params, t) if fn is None else App(fn, lam(params, t))
    for name, a in reversed(shadowed):
        scope[name] = a
    return t, i


def parse_lam(text: str) -> Union[Term, Dict[str, Term]]:
    from .lam import App, Var, church_encode, lam
    make = (App, Var, church_encode, lam)
    ts = _Tokens(text, comment=";")
    scope: Dict[str, Term] = {}
    if ts.peek() != "def":
        t, ts.pos = _parse_lam_term(ts, 0, scope, make)
        if ts.peek() is not None:
            raise ts.error("trailing tokens after term")
        return t
    env: Dict[str, Term] = {}
    while ts.peek() is not None:
        name = ts.def_head(env, _NOT_NAME)
        env[name], ts.pos = _parse_lam_term(ts, ts.pos, scope, make)
        scope[name] = env[name]
    return env


def _factor(t: Term):
    """The free names of t; the def lines of t as the module docstring gives them, each def name to its
    subterm in the order they are printed, before ``main``; and, by id, the
    def name of every node of t that a def line holds.  The subterms are
    `churing.lam`'s de Bruijn keys of t."""
    from .lam import _binder_names, _codes
    codes, loose, reps, closed = _codes(t)
    free = frozenset(code[1] for code in codes if code[0] == 1)
    sizes: list = []
    for code in codes:  # children before parents
        if code[0] == 3:
            sizes.append(sizes[code[1]] + sizes[code[2]] + 1)
        else:
            sizes.append(sizes[code[1]] + 1 if code[0] == 4 else 1)
    uses = [0] * len(codes)
    uses[-1] = 1
    defs = []
    for k in range(len(codes) - 1, -1, -1):  # parents before children
        u = uses[k]
        if u > 1 and not loose[k] and sizes[k] >= _DEF_MIN_NODES:
            defs.append(k)
            u = 1  # printed once, on its def line
        if codes[k][0] > 2:  # an application or an abstraction: its children
            for c in codes[k][1:]:
                uses[c] += u
    names = dict(zip(reversed(defs), _binder_names(free, "d")))
    refs = {i: names[k] for i, k in closed.items() if k in names}
    return free, {name: reps[k] for k, name in names.items()}, refs


def print_lam(obj: Union[Term, Dict[str, Term]]) -> str:
    """A dict prints one def line per entry, with its own names in its own
    order; a term prints with its shared closed subterms on def lines.  A
    def is closed, so its binders are named from x1 whatever the term's
    free names; main's binders skip its free names.

    A free name that `parse_lam` would not read back as that one name is
    refused with ValidationError, and so is an entry with a free name that
    an earlier entry defines: read back, that name would be the earlier
    definition.  A hole is refused too: read back, its ``[]`` would be a
    free name."""
    from .lam import _render, free_vars
    if isinstance(obj, dict):
        earlier: Dict[str, str] = {}  # each def name to its printed term
        for name, t in obj.items():
            free = free_vars(t)
            for x in sorted(free):
                _def_name(x, _NOT_NAME, "a free name")
            clash = free & earlier.keys()
            if clash:
                raise ValidationError(f"def {name} has the free name {min(clash)!r}, "
                                      "which an earlier def defines")
            earlier[_def_name(name, _NOT_NAME)] = _render(t, {}, free, holes=False)
        return "".join(f"def {name} = {text}\n" for name, text in earlier.items())
    free, defs, refs = _factor(obj)
    for x in sorted(free):
        _def_name(x, _NOT_NAME, "a free name")
    main = _render(obj, refs, free, holes=False)
    if not defs:
        return main + "\n"
    lines = [f"def {name} = {_render(t, refs, frozenset())}\n" for name, t in defs.items()]
    lines.append(f"def main = {main}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------

# CPython refuses to turn an int of more than 4,300 digits into text by
# default, so a large number is printed in chunks of fewer digits.
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def print_nat(n: int) -> str:
    """The exact decimal text of the natural number n, at any size, with no
    change to the interpreter's int-to-text limit."""
    parts = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        parts.append(f"{r:0{_CHUNK_DIGITS}d}")
    parts.append(str(n))
    return "".join(reversed(parts))


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


def print_source(kind: str, obj) -> str:
    """Canonical text for an object of the given kind."""
    if kind not in _PRINTERS:
        raise ParseError(f"unknown source kind {kind!r}", line=1, column=1)
    return _PRINTERS[kind](obj)
