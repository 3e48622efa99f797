"""Turing machines: multitape specs, fuel-bounded execution, traces.

Symbols are single printable characters; `_` is the blank.  Transition
tables are sparse: a read position may be the wildcard `*` (matches any
symbol), a write position may be `*` (leave the scanned symbol alone),
and moves are L, R or S (stay).  When several entries match a scanned
vector the most specific one (fewest wildcards) wins.

A machine is ``deterministic`` exactly when no scan vector over the tape
alphabet matches two or more targets of the highest matching rank: one
entry with several targets, or two entries of equal rank that a scan
matches both and that no more specific entry overrides.  `run` refuses a
nondeterministic machine (see `transform.nd_run`), so a deterministic one
never meets an ambiguous transition.

`validate_machine` indexes the table by state; one resolver (`resolve`,
memoized per state on the symbols under the tapes the state reads) serves
`run`, `step`, `successors` and the compilers that read a table.

Tape modes: ``semi_infinite`` protects cell 0 (an L move there is a stuck
halt), ``two_way`` allows negative cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import FuelExhausted, NonEncodable, ValidationError

BLANK = "_"
WILD = "*"
MOVES = ("L", "R", "S")
_MOVE_SET = frozenset(MOVES)

SEMI_INFINITE = "semi_infinite"
TWO_WAY = "two_way"

# (next_state, writes, moves)
Target = Tuple[str, Tuple[str, ...], Tuple[str, ...]]


# ---------------------------------------------------------------------------
# Tapes and configurations


@dataclass(frozen=True)
class Tape:
    """One tape as an explicit window of cells, blanks beyond.

    ``cells[i]`` is the symbol at absolute position ``origin + i``; the
    window is kept canonical (no leading/trailing blanks) so equal tape
    contents compare equal.
    """

    origin: int = 0
    cells: str = ""

    @staticmethod
    def from_word(word: str, origin: int = 0) -> "Tape":
        return _canon_tape(origin, word)

    def read(self, pos: int) -> str:
        i = pos - self.origin
        if 0 <= i < len(self.cells):
            return self.cells[i]
        return BLANK

    def write(self, pos: int, sym: str) -> "Tape":
        i = pos - self.origin
        if 0 <= i < len(self.cells):
            return _canon_tape(self.origin, self.cells[:i] + sym + self.cells[i + 1 :])
        if i < 0:
            return _canon_tape(pos, sym + BLANK * (-i - 1) + self.cells)
        return _canon_tape(self.origin, self.cells + BLANK * (i - len(self.cells)) + sym)

    def content(self) -> str:
        """The canonical window (blanks trimmed at both ends)."""
        return self.cells


def _canon_tape(origin: int, cells: str) -> Tape:
    left = len(cells) - len(cells.lstrip(BLANK))
    cells = cells.strip(BLANK)
    if not cells:
        return Tape(0, "")
    return Tape(origin + left, cells)


@dataclass(frozen=True)
class Configuration:
    state: str
    tapes: Tuple[Tape, ...]
    heads: Tuple[int, ...]
    steps_taken: int = 0

    def scanned(self) -> Tuple[str, ...]:
        return tuple(t.read(h) for t, h in zip(self.tapes, self.heads))


@dataclass(frozen=True)
class Outcome:
    tag: str  # "Accept" | "Reject" | "FuelExhausted"
    final: Configuration
    trace: Optional[Tuple[Configuration, ...]] = None

    @property
    def accepted(self) -> bool:
        return self.tag == ACCEPT


ACCEPT = "Accept"
REJECT = "Reject"
FUEL_EXHAUSTED = "FuelExhausted"


# ---------------------------------------------------------------------------
# Machine specs


@dataclass(frozen=True)
class MachineSpec:
    name: str
    states: frozenset
    initial: str
    accept: frozenset
    input_alphabet: frozenset
    tape_alphabet: frozenset
    tapes: int
    delta: Dict[Tuple[str, Tuple[str, ...]], Tuple[Target, ...]]
    tape_mode: str = SEMI_INFINITE
    deterministic: bool = True
    # built by validate_machine
    index: Optional["RuleIndex"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "accept", frozenset(self.accept))
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "tape_alphabet", frozenset(self.tape_alphabet))


# A resolved transition: (next_state, writes, shifts).  writes holds the
# (tape, symbol) pairs that may change a cell; shifts holds the (tape, -1|+1)
# head moves; stay moves and `*` writes leave no entry.
Step = Tuple[str, Tuple[Tuple[int, str], ...], Tuple[Tuple[int, int], ...]]


class RuleIndex:
    """A machine's rules grouped by state, and the resolver's memo.

    ``states`` maps a state to its read vectors, whose targets are in
    ``delta``: tuples of strings, which the garbage collector stops
    tracking, so indexing a big machine brings on no extra full
    collections.  ``memo`` fills lazily, for visited states only: it maps a
    state to ``(reads, known)``, where ``reads`` are the tapes some rule of
    the state reads (not `*`; no rule looks at another tape) and ``known``
    maps the symbols scanned on them, joined into one string (symbols are
    single characters), to the resolved steps.  Nothing here refers back to
    the machine, so a dropped machine is freed at once."""

    __slots__ = ("states", "delta", "memo")

    def __init__(self, states: Dict[str, Tuple[Tuple[str, ...], ...]],
                 delta: Dict[Tuple[str, Tuple[str, ...]], Tuple[Target, ...]]):
        self.states = states
        self.delta = delta
        self.memo: Dict[str, Tuple[Tuple[int, ...], Dict[str, Tuple[Step, ...]]]] = {}

    def lookup(self, state: str) -> Optional[Tuple[Tuple[int, ...], Dict[str, Tuple[Step, ...]]]]:
        """``(reads, known)`` of a state, or None when it has no rules."""
        entry = self.memo.get(state)
        if entry is None and state in self.states:
            keys = self.states[state]
            reads = sorted({t for key in keys for t, r in enumerate(key) if r != WILD})
            entry = self.memo[state] = (tuple(reads), {})
        return entry

    def resolve(self, state: str, syms: str) -> Tuple[Step, ...]:
        """Steps of the most specific rules of ``state`` (which has rules)
        matching ``syms``."""
        known = self.lookup(state)[1]
        hit = known.get(syms)
        if hit is None:
            hit = known[syms] = self._match(state, syms)
        return hit

    def _match(self, state: str, syms: str) -> Tuple[Step, ...]:
        reads, keys = self.memo[state][0], self.states[state]
        best: List[Target] = []
        best_rank = -1
        for key in keys:
            rank = 0
            for t, c in zip(reads, syms):
                r = key[t]
                if r == WILD:
                    continue
                if r != c:
                    break
                rank += 1
            else:
                if rank > best_rank:
                    best_rank, best = rank, list(self.delta[state, key])
                elif rank == best_rank:
                    best.extend(self.delta[state, key])
        scanned = dict(zip(reads, syms))
        return tuple(
            (
                nxt,
                tuple((t, w) for t, w in enumerate(writes) if w != WILD and w != scanned.get(t)),
                tuple((t, -1 if mv == "L" else 1) for t, mv in enumerate(moves) if mv != "S"),
            )
            for nxt, writes, moves in best
        )


def make_machine(
    name: str,
    states: Iterable[str],
    initial: str,
    accept: Iterable[str],
    input_alphabet: Iterable[str],
    tape_alphabet: Iterable[str],
    tapes: int,
    rules: Iterable[tuple],
    tape_mode: str = SEMI_INFINITE,
) -> MachineSpec:
    """Build and validate a machine from flat rules.

    Each rule is (state, reads, next_state, writes, moves); for a 1-tape
    machine the vectors may be given as plain strings of length 1.
    """
    delta: Dict[Tuple[str, Tuple[str, ...]], List[Target]] = {}
    for state, reads, nxt, writes, moves in rules:
        reads_t = _vec(reads, tapes)
        writes_t = _vec(writes, tapes)
        moves_t = _vec(moves, tapes)
        delta.setdefault((state, reads_t), []).append((nxt, writes_t, moves_t))
    spec = MachineSpec(
        name=name,
        states=frozenset(states),
        initial=initial,
        accept=frozenset(accept),
        input_alphabet=frozenset(input_alphabet),
        tape_alphabet=frozenset(tape_alphabet),
        tapes=tapes,
        delta={k: tuple(v) for k, v in delta.items()},
        tape_mode=tape_mode,
    )
    return validate_machine(spec)


def _vec(v, k: int) -> Tuple[str, ...]:
    t = tuple(v)
    if len(t) != k:
        raise ValidationError(f"vector {v!r} has length {len(t)}, machine has {k} tapes")
    return t


def validate_machine(spec: MachineSpec) -> MachineSpec:
    """Check every MachineSpec invariant, build the per-state rule index and
    classify det/nondet: a machine is deterministic unless some scan vector
    matches two or more targets of the highest matching rank, which is
    exactly when `run` would find the transition ambiguous."""
    if spec.tapes < 1:
        raise ValidationError("machine needs at least one tape")
    if spec.tape_mode not in (SEMI_INFINITE, TWO_WAY):
        raise ValidationError(f"unknown tape mode {spec.tape_mode!r}")
    if not spec.input_alphabet <= spec.tape_alphabet:
        raise ValidationError("input alphabet must be a subset of the tape alphabet")
    if BLANK not in spec.tape_alphabet:
        raise ValidationError("blank symbol missing from tape alphabet")
    if BLANK in spec.input_alphabet:
        raise ValidationError("blank symbol may not appear in the input alphabet")
    if WILD in spec.tape_alphabet:
        raise ValidationError("'*' is reserved and may not be a tape symbol")
    for s in spec.tape_alphabet:
        if len(s) != 1:
            raise ValidationError(f"symbols are single characters, got {s!r}")
    if spec.initial not in spec.states:
        raise ValidationError(f"initial state {spec.initial!r} not declared")
    if not spec.accept <= spec.states:
        raise ValidationError("accept states must be declared states")
    deterministic = True
    symbols = spec.tape_alphabet | {WILD}
    by_state: Dict[str, List[Tuple[str, ...]]] = {}  # state -> its read vectors
    multi: List[Tuple[str, Tuple[str, ...]]] = []  # keys with several targets
    for (state, reads), targets in spec.delta.items():
        if state not in spec.states:
            raise ValidationError(f"transition from undeclared state {state!r}")
        if len(reads) != spec.tapes:
            raise ValidationError(f"read vector {reads!r} does not match tape count")
        if not symbols.issuperset(reads):
            bad = next(r for r in reads if r not in symbols)
            raise ValidationError(f"read symbol {bad!r} outside tape alphabet")
        if len(targets) > 1:
            multi.append((state, reads))
        for nxt, writes, moves in targets:
            if nxt not in spec.states:
                raise ValidationError(f"transition into undeclared state {nxt!r}")
            if len(writes) != spec.tapes or len(moves) != spec.tapes:
                raise ValidationError("write/move vectors must match tape count")
            if not symbols.issuperset(writes):
                bad = next(w for w in writes if w not in symbols)
                raise ValidationError(f"write symbol {bad!r} outside tape alphabet")
            if not _MOVE_SET.issuperset(moves):
                bad = next(mv for mv in moves if mv not in MOVES)
                raise ValidationError(f"move {bad!r} is not one of {MOVES}")
        keys = by_state.get(state)
        if keys is None:
            by_state[state] = [reads]
        else:
            keys.append(reads)
    states = {state: tuple(keys) for state, keys in by_state.items()}
    # several targets on one key are ambiguous unless more specific keys
    # override every scan it matches
    if any(_exposed(reads, states[state], spec.tape_alphabet) for state, reads in multi):
        deterministic = False
    blind = str.maketrans(dict.fromkeys(spec.tape_alphabet, "#"))
    for state, keys in states.items():
        # with one tape, distinct keys of equal rank never match one scan
        if deterministic and spec.tapes > 1 and _may_overlap(keys, blind):
            deterministic = not _overlap(keys, spec.tape_alphabet)
    return replace(spec, deterministic=deterministic, index=RuleIndex(states, spec.delta))


def _may_overlap(keys: Tuple[Tuple[str, ...], ...], blind: dict) -> bool:
    """A quick test, false when no two ``keys`` can match one scan at equal
    rank: that takes two keys of equal rank that read different tapes.
    ``blind`` translates every tape symbol to "#"."""
    if len({key.count(WILD) for key in keys}) == len(keys):
        return False
    shapes = {"".join(key).translate(blind) for key in keys}
    return len({shape.count("#") for shape in shapes}) < len(shapes)


def _overlap(keys: List[Tuple[str, ...]], alphabet: frozenset) -> bool:
    """True when some scan matches two keys of the highest matching rank."""
    ranked = [(len(key) - key.count(WILD), key) for key in keys]
    for i, (rank, a) in enumerate(ranked):
        for rank_b, b in ranked[i + 1 :]:
            meet = _unify(a, b) if rank_b == rank else None
            if meet is None:
                continue
            above = [key for r, key in ranked if r > rank and _unify(key, meet) is not None]
            if not _covered(meet, above, alphabet):
                return True
    return False


def _exposed(key: Tuple[str, ...], keys: Tuple[Tuple[str, ...], ...], alphabet: frozenset) -> bool:
    """True when some scan matches ``key`` and no more specific key of ``keys``."""
    rank = len(key) - key.count(WILD)
    above = [k for k in keys if len(k) - k.count(WILD) > rank and _unify(k, key) is not None]
    return not _covered(key, above, alphabet)


def _unify(a: Tuple[str, ...], b: Tuple[str, ...]) -> Optional[Tuple[str, ...]]:
    """The key matching exactly the scans both keys match, or None."""
    out = []
    for x, y in zip(a, b):
        if x == WILD:
            out.append(y)
        elif y == WILD or x == y:
            out.append(x)
        else:
            return None
    return tuple(out)


def _covered(meet: Tuple[str, ...], above: List[Tuple[str, ...]], alphabet: frozenset) -> bool:
    """Whether every scan matching ``meet`` matches some key in ``above``
    (each of which unifies with ``meet``).  Only the tapes where ``meet`` is
    `*` and some key of ``above`` is not can tell scans apart, and there a
    symbol no key names stands for all such symbols."""
    free = sorted({t for key in above for t, r in enumerate(key) if r != WILD and meet[t] == WILD})
    choices = []
    for t in free:
        named = sorted({key[t] for key in above} - {WILD})
        choices.append(named + sorted(alphabet.difference(named))[:1])
    for pick in product(*choices):
        scan = dict(zip(free, pick))
        if not any(all(r == WILD or meet[t] != WILD or scan[t] == r for t, r in enumerate(key))
                   for key in above):
            return False
    return True


# ---------------------------------------------------------------------------
# Execution


def _rules_of(spec: MachineSpec) -> RuleIndex:
    if spec.index is None:
        raise ValidationError(f"machine {spec.name!r} was not validated; see validate_machine")
    return spec.index


def resolve(spec: MachineSpec, state: str, scanned: Sequence[str]) -> Tuple[Step, ...]:
    """Resolved steps of the most specific rules of ``state`` matching the
    full scan vector ``scanned``; only the tapes the state reads are looked
    at, and the answer is memoized per state."""
    index = _rules_of(spec)
    entry = index.lookup(state)
    if entry is None:
        return ()
    return index.resolve(state, "".join([scanned[t] for t in entry[0]]))


def resolve_one(spec: MachineSpec, state: str, scanned: Sequence[str]) -> Optional[Step]:
    """The single resolved step for a scan (None when the state has no
    matching rule); more than one is a ValidationError."""
    steps = resolve(spec, state, scanned)
    if len(steps) > 1:
        raise _ambiguous(spec, state, scanned)
    return steps[0] if steps else None


def _ambiguous(spec: MachineSpec, state: str, scanned: Sequence[str]) -> ValidationError:
    return ValidationError(
        f"ambiguous transition in {spec.name!r} at state {state!r} reading {tuple(scanned)}"
    )


def _apply(spec: MachineSpec, c: Configuration, s: Step) -> Optional[Configuration]:
    """The configuration after step ``s``; None if it moves a head left off
    protected cell 0 (a stuck halt, nothing written)."""
    nxt, writes, shifts = s
    if spec.tape_mode == SEMI_INFINITE and any(d < 0 and c.heads[t] == 0 for t, d in shifts):
        return None
    tapes = list(c.tapes)
    for t, sym in writes:
        tapes[t] = tapes[t].write(c.heads[t], sym)
    heads = list(c.heads)
    for t, d in shifts:
        heads[t] += d
    return Configuration(nxt, tuple(tapes), tuple(heads), c.steps_taken + 1)


def successors(spec: MachineSpec, c: Configuration) -> List[Configuration]:
    """All next configurations (empty when halted)."""
    out = []
    for s in resolve(spec, c.state, c.scanned()):
        n = _apply(spec, c, s)
        if n is not None:
            out.append(n)
    return out


def step(spec: MachineSpec, c: Configuration) -> Optional[Configuration]:
    """One deterministic step; None means Halted (no applicable entry, or a
    protected-cell left move)."""
    s = resolve_one(spec, c.state, c.scanned())
    return None if s is None else _apply(spec, c, s)


def initial_configuration(
    spec: MachineSpec, words: Sequence[str], heads: Optional[Sequence[int]] = None
) -> Configuration:
    if len(words) > spec.tapes:
        raise ValidationError(f"{len(words)} input words for {spec.tapes} tapes")
    tapes = []
    for i in range(spec.tapes):
        w = words[i] if i < len(words) else ""
        for ch in w:
            if ch not in spec.tape_alphabet:
                raise ValidationError(f"input symbol {ch!r} outside tape alphabet")
        tapes.append(Tape.from_word(w))
    hs = tuple(heads) if heads is not None else (0,) * spec.tapes
    return Configuration(spec.initial, tuple(tapes), hs, 0)


def run(
    spec: MachineSpec,
    word: str,
    fuel: int,
    want_trace: bool = False,
    start: Optional[Configuration] = None,
) -> Outcome:
    """Run a deterministic machine on ``word`` (tape 1, head at its first
    symbol); Accept as soon as the state is accepting.

    The tapes live in mutable buffers, one list of cells and one origin per
    tape, always covering the head's cell; Configurations are built only at
    exit, or after every step when ``want_trace`` is set."""
    if not spec.deterministic:
        raise ValidationError("run requires a deterministic machine; see nd_run")
    index = _rules_of(spec)
    memo = index.memo
    c = start if start is not None else initial_configuration(spec, [word])
    state, heads = c.state, list(c.heads)
    origins = [min(t.origin, h) for t, h in zip(c.tapes, heads)]
    cells = []
    for t, h, o in zip(c.tapes, heads, origins):
        buf = [BLANK] * (t.origin - o) + list(t.cells)
        buf.extend(BLANK * (h - o + 1 - len(buf)))
        cells.append(buf)
    guard = spec.tape_mode == SEMI_INFINITE
    accept = spec.accept
    trace = [c] if want_trace else None
    steps = 0
    tag = FUEL_EXHAUSTED
    while True:
        if state in accept:
            tag = ACCEPT
            break
        if steps >= fuel:
            break
        entry = memo.get(state)
        if entry is None:
            entry = index.lookup(state)
            if entry is None:
                tag = REJECT
                break
        reads, known = entry
        if len(reads) == 1:
            t = reads[0]
            key = cells[t][heads[t] - origins[t]]
        else:
            key = "".join([cells[t][heads[t] - origins[t]] for t in reads])
        todo = known.get(key)
        if todo is None:
            todo = index.resolve(state, key)
        if len(todo) != 1:
            if todo:
                scanned = [buf[h - o] for buf, h, o in zip(cells, heads, origins)]
                raise _ambiguous(spec, state, scanned)
            tag = REJECT
            break
        nxt, writes, shifts = todo[0]
        if guard:
            stuck = False
            for t, d in shifts:
                if d < 0 and heads[t] == 0:
                    stuck = True
            if stuck:
                tag = REJECT  # cell 0 is protected
                break
        for t, sym in writes:
            cells[t][heads[t] - origins[t]] = sym
        for t, d in shifts:
            h = heads[t] = heads[t] + d
            buf = cells[t]
            i = h - origins[t]
            if i == len(buf):
                buf.append(BLANK)
            elif i < 0:
                grow = len(buf) + 1  # amortize a long walk left
                buf[:0] = BLANK * grow
                origins[t] -= grow
        state = nxt
        steps += 1
        if trace is not None:
            trace.append(_snapshot(state, cells, origins, heads, c.steps_taken + steps))
    final = _snapshot(state, cells, origins, heads, c.steps_taken + steps)
    return Outcome(tag, final, tuple(trace) if trace else None)


def _snapshot(state, cells, origins, heads, steps_taken) -> Configuration:
    tapes = tuple(_canon_tape(o, "".join(buf)) for buf, o in zip(cells, origins))
    return Configuration(state, tapes, tuple(heads), steps_taken)


# ---------------------------------------------------------------------------
# Unary numeric convention: 0 is the glyph "0", n > 0 is n ones; argument i
# sits on tape i starting at cell 1 (cell 0 stays blank); on Accept the head
# of the output tape is expected at the first nonblank cell.


def encode_unary(n: int) -> str:
    if n < 0:
        raise ValidationError("unary encoding takes naturals")
    return "0" if n == 0 else "1" * n


def decode_unary(word: str) -> int:
    if word == "0":
        return 0
    if word and set(word) == {"1"}:
        return len(word)
    raise NonEncodable(f"{word!r} is not a unary numeral")


def numeric_start(spec: MachineSpec, args: Sequence[int]) -> Configuration:
    words = [BLANK + encode_unary(a) for a in args]
    c = initial_configuration(spec, words)
    return replace(c, heads=(1,) * spec.tapes)


def run_numeric(
    spec: MachineSpec,
    args: Sequence[int],
    fuel: int,
    output_tape: int = 1,
):
    """Run under the unary convention; returns the decoded output natural on
    Accept, otherwise the failing Outcome.  Raises NonEncodable if the final
    output tape holds no numeral."""
    if not 1 <= output_tape <= spec.tapes:
        raise ValidationError(f"no tape {output_tape} on a {spec.tapes}-tape machine")
    if len(args) > spec.tapes:
        raise ValidationError(f"{len(args)} arguments for {spec.tapes} tapes")
    out = run(spec, "", fuel, start=numeric_start(spec, args))
    if out.tag != ACCEPT:
        return out
    return decode_unary(out.final.tapes[output_tape - 1].content())


# ---------------------------------------------------------------------------
# Corpus machines


def zeros_then_ones() -> MachineSpec:
    """Decider for {0^n 1^n}: mark a 0 as X, find the matching 1, mark it Y,
    rewind, repeat; a residue of Ys (or nothing) accepts."""
    return make_machine(
        name="zeros_then_ones",
        states={"q0", "q1", "q2", "q4", "q5"},
        initial="q0",
        accept={"q5"},
        input_alphabet={"0", "1"},
        tape_alphabet={"0", "1", "X", "Y", BLANK},
        tapes=1,
        rules=[
            ("q0", "0", "q1", "X", "R"),
            ("q0", "Y", "q4", "Y", "R"),
            ("q0", BLANK, "q5", BLANK, "R"),
            ("q1", "0", "q1", "0", "R"),
            ("q1", "Y", "q1", "Y", "R"),
            ("q1", "1", "q2", "Y", "L"),
            ("q2", "0", "q2", "0", "L"),
            ("q2", "Y", "q2", "Y", "L"),
            ("q2", "X", "q0", "X", "R"),
            ("q4", "Y", "q4", "Y", "R"),
            ("q4", BLANK, "q5", BLANK, "R"),
        ],
    )


def identity_numeric() -> MachineSpec:
    """Numeric identity: the start state already accepts, leaving tape 1 (and
    the head position) untouched."""
    return make_machine(
        name="identity_numeric",
        states={"q0"},
        initial="q0",
        accept={"q0"},
        input_alphabet={"0", "1"},
        tape_alphabet={"0", "1", BLANK},
        tapes=1,
        rules=[],
    )
