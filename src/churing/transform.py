"""Machine-variant equivalences: multitape-to-single-tape compilation,
breadth-first simulation of nondeterminism to a depth, decider
combinators, and DFA/NFA acceptance.  The machines are those of `churing.tm`,
whose tapes are all semi-infinite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import (
    ACCEPT, FUEL_EXHAUSTED, NOT_FOUND, REJECT, NotADecider, ValidationError, check_fuel,
)
from .tm import (
    BLANK,
    WILD,
    Configuration,
    MachineSpec,
    Tape,
    _check_start,
    initial_configuration,
    resolve,
    run,
    successors,
)

HASH = "#"

# the squeezed state that gathers for the host's initial state
ENTRY = "enter"

# pool of glyphs for the dotted (head-marking) copies of tape symbols
_DOT_POOL = "abcdefghijklmnoprstuvw"

# control states of a squeezed machine beyond which to_single_tape gives up
MAX_STATES = 200_000


# ---------------------------------------------------------------------------
# Multitape -> single tape


def _dots(m: MachineSpec) -> Dict[str, str]:
    """The dotted glyph of each tape symbol of ``m``; a ValidationError when
    the single-tape layout cannot represent ``m``'s tapes."""
    if HASH in m.tape_alphabet:
        raise ValidationError(f"tape symbol {HASH!r} is the single-tape separator")
    pool = [c for c in _DOT_POOL if c not in m.tape_alphabet]
    if len(pool) < len(m.tape_alphabet):
        raise ValidationError(f"{len(m.tape_alphabet)} tape symbols need more dotted "
                              f"glyphs than the {len(pool)} left in the pool")
    return {s: pool[i] for i, s in enumerate(sorted(m.tape_alphabet))}


def to_single_tape(m: MachineSpec) -> MachineSpec:
    """An equivalent one-tape machine for a deterministic multitape machine
    (Sipser, Introduction to the Theory of Computation, Thm 3.13); a
    one-tape machine is returned as it is.

    Layout: ``#w1#w2#...#wk#`` from cell 0, one segment per tape, with
    exactly one dotted symbol per segment marking that tape's head.  The
    machine first rewrites its input ``w`` into ``#w#_#...#_#`` and dots the
    first cell of every segment.  Each host step is then two passes from
    cell 0, each followed by a rewind to cell 0:

    - gather: walk right to the last ``#``, reading the dotted symbol of
      every segment, and whether it sits on its segment's first cell.  At
      the last ``#`` the host step is known; no rule, or a left move of a
      head on a first cell, halts there, with nothing written (the stuck
      halt at cell 0).
    - update: per segment, write the step's symbol (a tape it does not write
      keeps its own) and move the dot.  A dot moved right past its segment's
      end grows the segment: a dotted blank takes the ``#`` cell and the rest
      of the tape shifts one cell right, up to and including the last ``#``;
      the pass then resumes from cell 0 with the edits still pending.

    A gather state keys on its *residual*: a hash-consed node that maps the
    symbols and first-cell flags of the segments still to pass to the host
    step, or to the halt.  So host states that must take the same step from
    here share one state, every state that must halt is one state, and the
    first-cell flag is kept only where the residual tells its cases apart.
    An update state keys on the (segment, symbol, move) edits still pending
    and the separators passed.  All accepting states are one state, which
    halts at once.  The state that starts the gather pass of the host's
    initial state is named ENTRY (`single_tape_start` starts there); every
    other state is ``s<N>``, N its place in the breadth-first search.

    A state that steps on every symbol of the one-tape alphabet gets one
    `*`-read row for its largest class of equal targets: the same next
    state and move, and the same written symbol, or the scanned one kept,
    written `*`.  Of equal classes the one whose first symbol sorts first
    wins, and a class of one row gets none.  A state that halts on some
    symbol keeps only explicit rows, since a `*` row would step there.
    Every other row is explicit, so each scan resolves to the step it would
    take in a table of explicit rows only.

    Refused with a ValidationError: a nondeterministic machine, ``#`` in
    the tape alphabet, more tape symbols than dotted glyphs, and a machine
    needing more than MAX_STATES control states."""
    if not m.deterministic:
        raise ValidationError("to_single_tape requires a deterministic machine")
    if m.tapes == 1:
        return m

    dot = _dots(m)
    undot = {v: k for k, v in dot.items()}
    alphabet = set(dot) | set(dot.values()) | {HASH}
    k = m.tapes
    reads = {q: m.index.entry(q)[1] for q in m.index.states}
    lefts = {q: {t for key in keys for _, _, moves in m.delta[q, key]
                 for t, mv in enumerate(moves) if mv == "L"}
             for q, keys in m.index.states.items()}
    # one name stands for every accepting state, one for every state with no rule
    idle = sorted(m.states - m.accept - set(reads))
    same = {q: min(m.accept) if q in m.accept else q if q in reads else idle[0] for q in m.states}
    gamma = {s: i for i, s in enumerate(sorted(m.tape_alphabet))}

    # residual nodes, by id: (t, rows) maps the scan of tape t, rows[first][symbol],
    # to the node of tape t+1; (k, (target, edits)) is a step, (k, None) the halt
    node: List[tuple] = []
    ids: Dict[tuple, int] = {}
    memo: Dict[tuple, int] = {}

    def residual(q: str, t: int, vec: tuple, edges: tuple) -> int:
        """The node of host state q's step over tapes t.. after the scan vec
        of the tapes before t, edges those of them whose dot is on a first
        cell and which q may move left."""
        at = (q, t, vec, edges)
        if at in memo:
            return memo[at]
        if len(memo) >= MAX_STATES:
            raise ValidationError(f"single-tape compilation of {m.name!r} needs "
                                  f"more than MAX_STATES = {MAX_STATES} states")
        if t == k:
            key = (k, None)  # no rule, or stuck at cell 0
            for s in resolve(m, q, vec):  # one step at most: m is deterministic
                if not any(u in edges for u in s[3]):
                    w, d = dict(s[1]), {**dict.fromkeys(s[2], 1), **dict.fromkeys(s[3], -1)}
                    edits = tuple((u + 1, w.get(u), d.get(u, 0)) for u in sorted({*w, *d}))
                    key = (k, (same[s[0]], edits))
        else:
            read, left = t in reads.get(q, ()), t in lefts.get(q, ())
            key = (t, tuple(tuple(residual(q, t + 1, vec + (c if read else WILD,),
                                           edges + (t,) * (first and left))
                                  for c in gamma) for first in (False, True)))
        n = memo[at] = ids.setdefault(key, len(node))
        if n == len(node):
            node.append(key)
        return n

    def gather(q: str) -> tuple:
        """The state that starts q's gather pass: for every accepting q the one with no rule."""
        return ("accept",) if q in m.accept else ("g", residual(q, 0, (), ()), False)

    def control(st: tuple, sym: str):
        """(next_state, write, move) for the compiled machine, or None."""
        kind = st[0]
        # --- phase 1: rewrite input `w` into the undotted layout #w#_#..._#
        if kind == "init":
            if sym == BLANK:
                return ("segcell", 1), HASH, "R"
            if sym in m.input_alphabet:
                return ("carry", sym), HASH, "R"
            return None
        if kind == "carry":
            c = st[1]
            if sym == BLANK:
                return ("segend", 1), c, "R"
            if sym in m.input_alphabet:
                return ("carry", sym), c, "R"
            return None
        if kind == "segcell":
            if sym == BLANK:
                return ("segend", st[1]), BLANK, "R"
            return None
        if kind == "segend":
            i = st[1]
            if sym != BLANK:
                return None
            if i < k:
                return ("segcell", i + 1), HASH, "R"
            return ("rw", ("dots", 0), 0), HASH, "S"
        # --- rewind: move left counting separators; the (k+1)-th is cell 0
        if kind == "rw":
            resume, c = st[1], st[2]
            if sym == HASH and c == k:
                return resume, HASH, "S"
            return ("rw", resume, c + (sym == HASH)), sym, "L"
        # --- phase 2: dot the first symbol of every segment; past the last
        # dot, walk on as an update pass with nothing pending
        if kind == "dots":
            if sym == HASH:
                return ("dotn", st[1]), HASH, "R"
            return st, sym, "R"
        if kind == "dotn":
            if sym == HASH or sym in undot:
                return None
            j = st[1] + 1
            return ("dots", j) if j < k else ("u", same[m.initial], (), k), dot[sym], "R"
        # --- gather pass: n is the residual node of the segments not yet
        # passed, first whether the head is on a segment's first cell where n
        # tells the two cases apart
        if kind == "g":
            n, first = st[1], st[2]
            t, body = node[n]
            if sym in undot:
                if t == k:
                    return None  # a (k+1)-th dot cannot occur
                return ("g", body[first][gamma[undot[sym]]], False), sym, "R"
            if sym == HASH and t == k:
                if body is None:
                    return None  # the host halts
                return ("rw", ("u", *body, 0), 0), HASH, "S"
            return ("g", n, sym == HASH and body[0] != body[1]), sym, "R"
        # --- update pass: edits holds the pending (segment, symbol or None
        # for the scanned one, move), i the separators passed; an edit that
        # leaves the dot in place is dropped at its segment's end
        if kind == "u":
            target, edits, i = st[1], st[2], st[3]
            due = edits[0] if edits and edits[0][0] == i else None
            if sym == HASH:
                if i == k:
                    return ("rw", gather(target), 0), HASH, "S"
                return ("u", target, edits[1:] if due else edits, i + 1), HASH, "R"
            if sym in undot and due:
                w = undot[sym] if due[1] is None else due[1]
                if due[2] == 0:
                    return st, dot[w], "R"
                return ("udot", target, edits[1:], i), w, "R" if due[2] > 0 else "L"
            return st, sym, "R"
        # the cell the dot moved to
        if kind == "udot":
            target, edits, i = st[1], st[2], st[3]
            if sym in undot:
                return None  # cannot happen: dot was just removed
            if sym != HASH:
                return ("u", target, edits, i), dot[sym], "R"
            # segment must grow: drop a dotted blank here and shift the
            # rest of the tape one cell right, counting separators
            return ("ucarry", target, edits, HASH, i), dot[BLANK], "R"
        if kind == "ucarry":
            target, edits, c, j = st[1], st[2], st[3], st[4]
            if c == HASH and j == k:  # the last separator lands here: resume at cell 0
                return ("rw", ("u", target, edits, 0), 0), HASH, "S"
            return ("ucarry", target, edits, sym, j + (sym == HASH)), c, "R"
        return None

    # breadth-first exploration of the control function over the alphabet
    entry = gather(m.initial)
    start = ("init",)
    names: Dict[tuple, str] = {start: "s0"}
    order: List[tuple] = [start]
    delta: Dict = {}
    queue = deque([start])
    symbols = sorted(alphabet)
    while queue:
        st = queue.popleft()
        q = names[st]
        rows = []
        for sym in symbols:
            res = control(st, sym)
            if res is None:
                continue
            nxt, w, mv = res
            if nxt not in names:
                if len(names) >= MAX_STATES:
                    raise ValidationError(f"single-tape compilation of {m.name!r} needs "
                                          f"more than MAX_STATES = {MAX_STATES} states")
                names[nxt] = ENTRY if nxt == entry else f"s{len(names)}"
                order.append(nxt)
                queue.append(nxt)
            rows.append((sym, (names[nxt], WILD if w == sym else w, mv)))
        # a state with a step on every symbol puts its largest class of equal
        # targets (of equal ones, the first met) on one `*` row, if not a lone row
        default = None
        if len(rows) == len(symbols):
            size: Dict[tuple, int] = {}
            for _, target in rows:
                size[target] = size.get(target, 0) + 1
            top = max(size, key=size.__getitem__)
            if size[top] > 1:
                default = nxt, w, mv = top
                delta[(q, (WILD,))] = ((nxt, (w,), (mv,)),)
        for sym, target in rows:
            if target != default:
                nxt, w, mv = target
                delta[(q, (sym,))] = ((nxt, (sym if w == WILD else w,), (mv,)),)

    accept = frozenset(names[st] for st in order if st == ("accept",))
    return MachineSpec(
        name=f"{m.name}_single",
        states=frozenset(names.values()),
        initial="s0",
        accept=accept,
        input_alphabet=m.input_alphabet,
        tape_alphabet=frozenset(alphabet),
        tapes=1,
        delta=delta,
    )


def single_tape_start(host: MachineSpec, c: Configuration) -> Configuration:
    """The configuration of ``to_single_tape(host)`` that stands for the
    host start ``c``: the host's tapes laid out as dotted segments, at cell
    0 in state ENTRY.  A segment runs from cell 0 of its tape to the last
    nonblank cell or the head, whichever is further.  For a one-tape host,
    which squeezes to itself, this is ``c``."""
    _check_start(host, c)
    if host.tapes == 1:
        return c
    if c.state != host.initial:
        raise ValidationError(f"a squeezed start is in the host's initial state "
                              f"{host.initial!r}, not {c.state!r}")
    dot = _dots(host)
    segments = []
    for tape, h in zip(c.tapes, c.heads):
        cells = list(tape.cells.ljust(h + 1, BLANK))
        cells[h] = dot[cells[h]]
        segments.append("".join(cells))
    return Configuration(ENTRY, (Tape.from_word(HASH + HASH.join(segments) + HASH),), (0,))


def single_tape_segments(host: MachineSpec, c: Configuration) -> List[str]:
    """Split a compiled machine's tape back into the host's per-tape
    contents (dots removed, blanks trimmed); `single_tape_start` lays them
    out.  ``host`` is the multitape machine the compiled one came from."""
    undot = {v: k for k, v in _dots(host).items()}
    raw = c.tapes[0].content()
    parts = raw.split(HASH)[1:-1]
    return ["".join(undot.get(ch, ch) for ch in p).strip(BLANK) for p in parts]


# ---------------------------------------------------------------------------
# Nondeterminism by breadth-first search


def nd_run(m: MachineSpec, word: str, max_depth: int) -> str:
    """Breadth-first search of the computation tree of ``m`` on ``word``
    (Sipser, Thm 3.16), one level at a time.  A level is the set of
    successors of the level before, less every configuration (state, heads,
    tapes) seen before: its subtree was already searched to at least the
    same depth.  Returns Accept exactly when some branch reaches an
    accepting state within ``max_depth`` steps, else NotFound."""
    check_fuel(max_depth, "max_depth")
    root = initial_configuration(m, [word])
    if root.state in m.accept:
        return ACCEPT
    seen = {(root.state, root.heads, root.tapes)}
    frontier = [root]
    for _ in range(max_depth):
        level = []
        for c in frontier:
            for n in successors(m, c):
                key = (n.state, n.heads, n.tapes)
                if key in seen:
                    continue
                if n.state in m.accept:
                    return ACCEPT
                seen.add(key)
                level.append(n)
        if not level:
            return NOT_FOUND
        frontier = level
    return NOT_FOUND


# ---------------------------------------------------------------------------
# Decider combinators


_COMBINE_OPS = ("union", "intersect", "diff", "symdiff", "complement")


def decide_combine(
    op: str,
    d1: MachineSpec,
    d2: Optional[MachineSpec],
    w: str,
    fuel: int,
) -> str:
    """Boolean combination of two decider verdicts.  A FuelExhausted sub-run
    breaks the caller's decider promise and raises NotADecider."""
    if op not in _COMBINE_OPS:
        raise ValidationError(f"unknown combinator {op!r}")
    if op != "complement" and d2 is None:
        raise ValidationError(f"{op} needs two deciders")

    def verdict(d: MachineSpec) -> bool:
        out = run(d, w, fuel)
        if out.tag == FUEL_EXHAUSTED:
            raise NotADecider(f"{d.name!r} did not halt within fuel on {w!r}")
        return out.tag == ACCEPT

    a = verdict(d1)
    if op == "complement":
        return REJECT if a else ACCEPT
    bb = verdict(d2)
    res = {
        "union": a or bb,
        "intersect": a and bb,
        "diff": a and not bb,
        "symdiff": a != bb,
    }[op]
    return ACCEPT if res else REJECT


# ---------------------------------------------------------------------------
# DFA / NFA acceptance


def _check_automaton(a: Dfa | Nfa, targets: set) -> None:
    """Freeze the sets of the DFA or NFA ``a``, and refuse it unless its
    initial and accept states, and the sources and ``targets`` of its
    transitions, are declared, and its transition symbols are in its
    alphabet of single characters (input is read one character at a time)."""
    kind = type(a).__name__.upper()
    for attr in ("states", "accept", "alphabet"):
        object.__setattr__(a, attr, frozenset(getattr(a, attr)))
    for s in sorted(a.alphabet):
        if len(s) != 1:
            raise ValidationError(f"{kind} alphabet symbols are single characters, got {s!r}")
    if a.initial not in a.states:
        raise ValidationError(f"{kind} initial state {a.initial!r} not declared")
    if not a.accept <= a.states:
        raise ValidationError(f"{kind} accept state {min(a.accept - a.states)!r} not declared")
    for q, c in a.trans:
        if q not in a.states:
            raise ValidationError(f"{kind} transition from undeclared state {q!r}")
        if c not in a.alphabet:
            raise ValidationError(f"{kind} transition symbol {c!r} outside the alphabet")
    if not targets <= a.states:
        raise ValidationError(f"{kind} transition into undeclared state "
                              f"{min(targets - a.states)!r}")


@dataclass(frozen=True)
class Dfa:
    states: FrozenSet[str]
    initial: str
    accept: FrozenSet[str]
    alphabet: FrozenSet[str]
    trans: Dict[Tuple[str, str], str]

    def __post_init__(self):
        _check_automaton(self, set(self.trans.values()))
        for s in self.states:
            for a in self.alphabet:
                if (s, a) not in self.trans:
                    raise ValidationError(f"DFA transition map not total at ({s!r},{a!r})")


@dataclass(frozen=True)
class Nfa:
    states: FrozenSet[str]
    initial: str
    accept: FrozenSet[str]
    alphabet: FrozenSet[str]
    trans: Dict[Tuple[str, str], FrozenSet[str]]

    def __post_init__(self):
        _check_automaton(self, set().union(*self.trans.values()))


def dfa_accepts(d: Dfa, w: str) -> bool:
    s = d.initial
    for ch in w:
        if ch not in d.alphabet:
            raise ValidationError(f"symbol {ch!r} outside the DFA alphabet")
        s = d.trans[(s, ch)]
    return s in d.accept


def nfa_accepts(n: Nfa, w: str) -> bool:
    cur = {n.initial}
    for ch in w:
        if ch not in n.alphabet:
            raise ValidationError(f"symbol {ch!r} outside the NFA alphabet")
        cur = {t for s in cur for t in n.trans.get((s, ch), frozenset())}
    return bool(cur & n.accept)
