"""Machine-variant equivalences: multitape-to-single-tape compilation,
breadth-first simulation of nondeterminism via address strings, decider
combinators, dovetailing, and small DFA/NFA decision procedures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import NotADecider, ValidationError
from .tm import (
    ACCEPT,
    BLANK,
    FUEL_EXHAUSTED,
    REJECT,
    SEMI_INFINITE,
    Configuration,
    MachineSpec,
    Outcome,
    initial_configuration,
    resolve_one,
    run,
    step,
    successors,
    validate_machine,
)

HASH = "#"
NOT_FOUND = "NotFound"

# pool of glyphs for the dotted (head-marking) copies of tape symbols
_DOT_POOL = "abcdefghijklmnoprstuvw"


# ---------------------------------------------------------------------------
# Multitape -> single tape
#
# Layout: #w1#w2#...#wk#  with exactly one dotted symbol per segment marking
# that tape's head.  The compiler emits an explicit transition table; states
# are generated lazily by exploring a host-level control function, so only
# reachable control states materialize.


def to_single_tape(m: MachineSpec, max_states: int = 200_000) -> MachineSpec:
    if not m.deterministic:
        raise ValidationError("to_single_tape requires a deterministic machine")
    if m.tape_mode != SEMI_INFINITE:
        raise ValidationError("to_single_tape handles semi_infinite machines only")
    if m.tapes == 1:
        return m
    if m.tapes > 3:
        raise ValidationError("to_single_tape is limited to 3 tapes")
    if len(m.tape_alphabet) > 6:
        raise ValidationError("to_single_tape is limited to 6 tape symbols")

    gamma = sorted(m.tape_alphabet)
    pool = [c for c in _DOT_POOL if c not in m.tape_alphabet and c != HASH]
    dot = {s: pool[i] for i, s in enumerate(gamma)}
    undot = {v: k for k, v in dot.items()}
    alphabet = set(gamma) | set(dot.values()) | {HASH}
    k = m.tapes

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
                return ("rw", ("g", m.initial, ()), 0), HASH, "S"
            return st, sym, "R"
        if kind == "dotn":
            if sym == HASH or sym in undot:
                return None
            return ("dots", st[1] + 1), dot[sym], "R"
        # --- gather pass: collect the k dotted symbols left to right
        if kind == "g":
            q, vec = st[1], st[2]
            if sym in undot:
                if len(vec) >= k:
                    return None  # a (k+1)-th dot cannot occur
                return ("g", q, vec + (undot[sym],)), sym, "R"
            if sym == HASH and len(vec) == k:
                s = resolve_one(m, q, vec)
                if s is None:
                    return None  # host halts without accepting
                nxt, writes, shifts = s
                syms, moves = list(vec), [0] * k
                for t, w in writes:
                    syms[t] = w
                for t, d in shifts:
                    moves[t] = d
                wm = tuple(zip(syms, moves))
                return ("rw", ("u", nxt, wm, 0), 0), HASH, "S"
            return st, sym, "R"
        # --- update pass: per segment, write and move the dot
        if kind == "u":
            q, wm, i = st[1], st[2], st[3]
            if sym == HASH:
                if i == k:
                    return ("rw", ("g", q, ()), 0), HASH, "S"
                return ("u", q, wm, i + 1), HASH, "R"
            if sym in undot and 1 <= i <= k:
                w, d = wm[i - 1]
                if d == 0:
                    return ("useek", q, wm, i), dot[w], "R"
                if d > 0:
                    return ("udotR", q, wm, i), w, "R"
                return ("udotL", q, wm, i), w, "L"
            return st, sym, "R"
        # rest of a segment whose dot was already placed this pass
        if kind == "useek":
            q, wm, i = st[1], st[2], st[3]
            if sym == HASH:
                if i == k:
                    return ("rw", ("g", q, ()), 0), HASH, "S"
                return ("u", q, wm, i + 1), HASH, "R"
            return st, sym, "R"
        if kind == "udotR":
            q, wm, i = st[1], st[2], st[3]
            if sym == HASH:
                # segment must grow: drop a dotted blank here and shift the
                # rest of the tape one cell right
                return ("ucarry", q, wm, i, HASH), dot[BLANK], "R"
            if sym in undot:
                return None  # cannot happen: dot was just removed
            return ("useek", q, wm, i), dot[sym], "R"
        if kind == "udotL":
            q, wm, i = st[1], st[2], st[3]
            if sym == HASH:
                return None  # host head fell off the left edge: stuck halt
            if sym in undot:
                return None
            return ("useek", q, wm, i), dot[sym], "R"
        if kind == "ucarry":
            q, wm, i, c = st[1], st[2], st[3], st[4]
            if sym == BLANK and c == HASH:
                # the shifted suffix ended at the final separator
                return ("rw", ("uskip", q, wm, i, 0), 0), c, "S"
            if sym == BLANK:
                return ("ucarryend", q, wm, i), c, "R"
            return ("ucarry", q, wm, i, sym), c, "R"
        if kind == "ucarryend":
            q, wm, i = st[1], st[2], st[3]
            if sym == BLANK:
                return ("rw", ("uskip", q, wm, i, 0), 0), sym, "S"
            return None
        # after a growth shift: skip ahead to segment i+1 and resume
        if kind == "uskip":
            q, wm, i, j = st[1], st[2], st[3], st[4]
            if sym == HASH:
                if j + 1 == i + 1:
                    if i == k:  # segment k grew; the pass is complete
                        return ("rw", ("g", q, ()), 0), HASH, "S"
                    return ("u", q, wm, i + 1), HASH, "R"
                if j + 1 > k:
                    return None
                return ("uskip", q, wm, i, j + 1), HASH, "R"
            return st, sym, "R"
        return None

    # breadth-first exploration of the control function over the alphabet
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
                if len(names) >= max_states:
                    raise ValidationError("single-tape compilation exceeded state budget")
                names[nxt] = f"s{len(names)}"
                order.append(nxt)
                queue.append(nxt)
            delta[(names[st], (sym,))] = ((names[nxt], (w,), (mv,)),)

    accept = frozenset(
        names[st] for st in order if st[0] == "g" and st[2] == () and st[1] in m.accept
    )
    spec = MachineSpec(
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
    return validate_machine(spec)


def single_tape_segments(host: MachineSpec, c: Configuration) -> List[str]:
    """Split a compiled machine's tape back into the host's per-tape
    contents (dots removed, blanks trimmed).  ``host`` is the multitape
    machine the compiled one came from."""
    gamma = sorted(host.tape_alphabet)
    pool = [ch for ch in _DOT_POOL if ch not in host.tape_alphabet and ch != HASH]
    undot = {pool[i]: s for i, s in enumerate(gamma)}
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
# Decider combinators and dovetailing


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


def dovetail_decide(m1: MachineSpec, m2: MachineSpec, w: str, fuel: int) -> str:
    """Interleave single steps of both recognizers: m1 accepting first means
    Accept, m2 accepting first means Reject."""
    c1: Optional[Configuration] = initial_configuration(m1, [w])
    c2: Optional[Configuration] = initial_configuration(m2, [w])
    for _ in range(fuel + 1):
        if c1 is not None and c1.state in m1.accept:
            return ACCEPT
        if c2 is not None and c2.state in m2.accept:
            return REJECT
        if c1 is None and c2 is None:
            break
        if c1 is not None:
            c1 = step(m1, c1)
        if c2 is not None:
            c2 = step(m2, c2)
    return FUEL_EXHAUSTED


# ---------------------------------------------------------------------------
# DFA / NFA decision procedures


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


def dfa_is_empty(d: Dfa) -> bool:
    seen = {d.initial}
    queue = deque([d.initial])
    while queue:
        s = queue.popleft()
        if s in d.accept:
            return False
        for a in d.alphabet:
            n = d.trans[(s, a)]
            if n not in seen:
                seen.add(n)
                queue.append(n)
    return True


def nfa_accepts(n: Nfa, w: str) -> bool:
    cur = {n.initial}
    for ch in w:
        if ch not in n.alphabet:
            raise ValidationError(f"symbol {ch!r} outside the NFA alphabet")
        cur = {t for s in cur for t in n.trans.get((s, ch), frozenset())}
        if not cur:
            return False
    return bool(cur & n.accept)
