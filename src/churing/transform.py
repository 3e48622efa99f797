"""Machine-variant equivalences: multitape-to-single-tape compilation,
breadth-first simulation of nondeterminism via address strings, decider
combinators, and DFA/NFA acceptance.
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
    SEMI_INFINITE,
    WILD,
    Configuration,
    MachineSpec,
    Tape,
    initial_configuration,
    resolve_one,
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
    """An equivalent one-tape machine for a deterministic semi-infinite
    multitape machine (Sipser, Introduction to the Theory of Computation,
    Thm 3.13); a one-tape machine is returned as it is.

    Layout: ``#w1#w2#...#wk#`` from cell 0, one segment per tape, with
    exactly one dotted symbol per segment marking that tape's head.  The
    machine first rewrites its input ``w`` into ``#w#_#...#_#`` and dots the
    first cell of every segment.  Each host step is then two passes from
    cell 0, each followed by a rewind to cell 0:

    - gather: walk right to the last ``#``, recording the dotted symbol of
      every tape the host state reads (`RuleIndex.lookup`); other tapes get
      a placeholder that no rule looks at.  For the tapes the state may move
      left it also records whether the dot sits on its segment's first
      cell.  At the last ``#`` the host step is resolved; no rule, or a left
      move of such a head, halts there, with nothing written (the stuck
      halt at cell 0).
    - update: per segment, write the step's symbol (a tape it does not write
      keeps its own) and move the dot.  A dot moved right past its segment's
      end grows the segment: a dotted blank takes the ``#`` cell and the rest
      of the tape shifts one cell right, up to and including the last ``#``.

    The control state keys only on what the host state reads and the step
    writes, so the state count follows the host's rules, not |Gamma|^k.  The
    machine accepts when it enters the gather pass of an accepting state.
    The state that starts the gather pass of the host's initial state is
    named ENTRY (`single_tape_start` starts there); every other state is
    ``s<N>``, N its place in the breadth-first search.
    Refused with a ValidationError: a nondeterministic or two-way machine,
    ``#`` in the tape alphabet, more tape symbols than dotted glyphs, and a
    machine needing more than MAX_STATES control states."""
    if not m.deterministic:
        raise ValidationError("to_single_tape requires a deterministic machine")
    if m.tape_mode != SEMI_INFINITE:
        raise ValidationError("to_single_tape handles semi_infinite machines only")
    if m.tapes == 1:
        return m

    dot = _dots(m)
    undot = {v: k for k, v in dot.items()}
    alphabet = set(dot) | set(dot.values()) | {HASH}
    k = m.tapes
    index = m.index
    reads = {q: index.lookup(q)[0] for q in index.states}
    lefts = {q: {t for key in keys for _, _, moves in m.delta[q, key]
                 for t, mv in enumerate(moves) if mv == "L"}
             for q, keys in index.states.items()}

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
            if sym == HASH:
                if c + 1 == k + 1:
                    return resume, HASH, "S"
                return ("rw", resume, c + 1), HASH, "L"
            return ("rw", resume, c), sym, "L"
        # --- phase 2: dot the first symbol of every segment
        if kind == "dots":
            j = st[1]
            if sym == HASH:
                if j < k:
                    return ("dotn", j), HASH, "R"
                return ("rw", ("g", m.initial, (), (), False), 0), HASH, "S"
            return st, sym, "R"
        if kind == "dotn":
            if sym == HASH or sym in undot:
                return None
            return ("dots", st[1] + 1), dot[sym], "R"
        # --- gather pass: vec holds the read symbols of the tapes passed,
        # edges the left-moving tapes whose dot is on a first cell, and
        # first whether the head is on the first cell of such a tape
        if kind == "g":
            q, vec, edges, first = st[1], st[2], st[3], st[4]
            if q in m.accept:
                return None  # the host run stops here, accepting
            t = len(vec)
            if sym in undot:
                if t >= k:
                    return None  # a (k+1)-th dot cannot occur
                got = undot[sym] if t in reads.get(q, ()) else WILD
                return ("g", q, vec + (got,), edges + (t,) * first, False), sym, "R"
            if sym == HASH and t == k:
                s = resolve_one(m, q, vec)
                if s is None or any(u in edges for u in s[3]):
                    return None  # host halts: no rule, or stuck at cell 0
                nxt, writes, shifts, _ = s
                w, d = dict(writes), dict(shifts)
                wm = tuple((w.get(t), d.get(t, 0)) for t in range(k))
                return ("rw", ("u", nxt, wm, 0), 0), HASH, "S"
            return ("g", q, vec, edges, sym == HASH and t in lefts.get(q, ())), sym, "R"
        # --- update pass: per segment, write and move the dot; wm holds
        # (symbol or None for the scanned one, move) per tape
        if kind == "u":
            q, wm, i = st[1], st[2], st[3]
            if sym == HASH:
                if i == k:
                    return ("rw", ("g", q, (), (), False), 0), HASH, "S"
                return ("u", q, wm, i + 1), HASH, "R"
            if sym in undot and i >= 1:
                w, d = wm[i - 1]
                w = undot[sym] if w is None else w
                if d == 0:
                    return st, dot[w], "R"
                return ("udot", q, wm, i), w, "R" if d > 0 else "L"
            return st, sym, "R"
        # the cell the dot moved to
        if kind == "udot":
            q, wm, i = st[1], st[2], st[3]
            if sym in undot:
                return None  # cannot happen: dot was just removed
            if sym != HASH:
                return ("u", q, wm, i), dot[sym], "R"
            # segment must grow: drop a dotted blank here and shift the
            # rest of the tape one cell right, counting separators
            return ("ucarry", q, wm, i, HASH, i), dot[BLANK], "R"
        if kind == "ucarry":
            q, wm, i, c, j = st[1], st[2], st[3], st[4], st[5]
            if c == HASH and j == k:  # the last separator lands here
                return ("rw", ("uskip", q, wm, i, 0), 0), HASH, "S"
            return ("ucarry", q, wm, i, sym, j + (sym == HASH)), c, "R"
        # after a growth shift: skip ahead to segment i+1 and resume
        if kind == "uskip":
            q, wm, i, j = st[1], st[2], st[3], st[4]
            if sym == HASH:
                if j == i:
                    if i == k:  # segment k grew; the pass is complete
                        return ("rw", ("g", q, (), (), False), 0), HASH, "S"
                    return ("u", q, wm, i + 1), HASH, "R"
                return ("uskip", q, wm, i, j + 1), HASH, "R"
            return st, sym, "R"
        return None

    # breadth-first exploration of the control function over the alphabet
    entry = ("g", m.initial, (), (), False)
    start = ("init",)
    names: Dict[tuple, str] = {start: "s0"}
    order: List[tuple] = [start]
    delta: Dict = {}
    queue = deque([start])
    while queue:
        st = queue.popleft()
        for sym in sorted(alphabet):
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
            delta[(names[st], (sym,))] = ((names[nxt], (w,), (mv,)),)

    accept = frozenset(names[st] for st in order if st[0] == "g" and st[1] in m.accept)
    return MachineSpec(
        name=f"{m.name}_single",
        states=frozenset(names.values()),
        initial="s0",
        accept=accept,
        input_alphabet=m.input_alphabet,
        tape_alphabet=frozenset(alphabet),
        tapes=1,
        delta=delta,
        tape_mode=SEMI_INFINITE,
    )


def single_tape_start(host: MachineSpec, c: Configuration) -> Configuration:
    """The configuration of ``to_single_tape(host)`` that stands for the
    host start ``c``: the host's tapes laid out as dotted segments, at cell
    0 in state ENTRY.  A segment runs from cell 0 of its tape to the last
    nonblank cell or the head, whichever is further.  For a one-tape host,
    which squeezes to itself, this is ``c``."""
    if host.tapes == 1:
        return c
    if c.state != host.initial:
        raise ValidationError(f"a squeezed start is in the host's initial state "
                              f"{host.initial!r}, not {c.state!r}")
    dot = _dots(host)
    segments = []
    for tape, h in zip(c.tapes, c.heads):
        cells = [tape.read(p) for p in range(max(h + 1, tape.origin + len(tape.cells)))]
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
# Nondeterminism via shortlex address strings


def next_address(a: str, b: int) -> str:
    """Shortlex successor over digits 1..b."""
    if b < 1:
        raise ValidationError("branching bound must be >= 1")
    digits = [int(ch) for ch in a]
    if any(not 1 <= d <= b for d in digits):
        raise ValidationError(f"address {a!r} has digits outside 1..{b}")
    for i in range(len(digits) - 1, -1, -1):
        if digits[i] < b:
            digits[i] += 1
            return "".join(map(str, digits[: i + 1])) + "1" * (len(digits) - i - 1)
    return "1" * (len(digits) + 1)


def _sorted_successors(m: MachineSpec, c: Configuration) -> List[Configuration]:
    return sorted(
        successors(m, c),
        key=lambda n: (n.state, n.heads, tuple((t.origin, t.cells) for t in n.tapes)),
    )


def nd_run(m: MachineSpec, word: str, max_depth: int, node_fuel: int = 10**7) -> str:
    """Breadth-first search of the computation tree to depth ``max_depth``,
    one frontier level at a time.  Within a level the nodes lie in the
    shortlex order of their address strings (`next_address` over the sorted
    successors).  A configuration (state, heads, tapes) seen before is not
    expanded again: its subtree was already searched to at least the same
    depth.  ``node_fuel`` bounds the number of nodes expanded, i.e.
    successor computations.  Returns Accept or NotFound."""
    check_fuel(max_depth, "max_depth")
    check_fuel(node_fuel, "node_fuel")
    root = initial_configuration(m, [word])
    if root.state in m.accept:
        return ACCEPT
    seen = {(root.state, root.heads, root.tapes)}
    frontier = [root]
    spent = 0
    for _ in range(max_depth):
        level = []
        for c in frontier:
            spent += 1
            if spent > node_fuel:
                return NOT_FOUND
            for n in _sorted_successors(m, c):
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


@dataclass(frozen=True)
class Dfa:
    states: FrozenSet[str]
    initial: str
    accept: FrozenSet[str]
    alphabet: FrozenSet[str]
    trans: Dict[Tuple[str, str], str]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "accept", frozenset(self.accept))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
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
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "accept", frozenset(self.accept))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))


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
        if not cur:
            return False
    return bool(cur & n.accept)
