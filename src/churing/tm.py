"""Turing machines: multitape specs, fuel-bounded execution, traces.

Symbols are single printable characters; `_` is the blank.  A machine
stores its sparse rules as built: a rule names only the tapes it reads,
writes or moves.  A tape it does not name reads any symbol, keeps it and
stays (`*`, `*` and S in the dense vectors of `.tm` text and
`make_machine`).  The most specific matching rule (most tapes read) wins.

A `MachineSpec` is validated when it is built, whether directly, by
`make_machine`, by `Rules.machine` or by `dataclasses.replace`; the build
also indexes the table by state (`RuleIndex`).  One resolver (`resolve`,
memoized per state on the symbols under the tapes the state reads) serves
`run`, `successors` and the compilers that read a table, and it
decides ``deterministic`` too: a machine is deterministic exactly when no
scan vector over the tape alphabet resolves to two or more targets of the
highest matching rank.  The build asks the resolver about one scan per
class of scans it cannot tell apart.  `run` refuses a nondeterministic
machine (see `transform.nd_run`).  Every start, whoever builds it, passes
one check, `_check_start`, which keeps every scan over the tape alphabet:
so a deterministic machine resolves each scan to one step or none, and
`run` has no ambiguity branch.

Every tape is semi-infinite: its cells are numbered from 0, a `Tape` holds
them from cell 0, a left move of a head on cell 0 is a stuck halt with
nothing written, and no head of a configuration lies left of cell 0.  `run`
keeps each tape in a list of its cells from cell 0, so a head is the index
of its cell; a head moves with no bounds test, and a list grows only when a
read or a write reaches past its end.  The resolver keeps one `Entry` per
state (its read tapes, its memo of scans, whether it accepts), and each
resolved step carries its writes, the tapes it moves right and left (only
the left ones meet the stuck rule), whether it is a sweep, and the entry of
its next state: threaded code (J. R. Bell, "Threaded code", CACM 16(6),
1973).  So `run` goes from entry to entry, and entering a state costs no
lookup and no accept-set test.  Most steps of the corpus and compiled
machines are sweeps, steps that keep the state, write nothing and move the
head of the one tape the state reads (`Rules.rewind` builds them).  `run`
takes a sweep as one scan along that tape, moving on while the next cell
resolves to the very same step object (the resolver interns its answers).
It counts one step per cell, so the fuel runs out where it would step by
step; every other step, and every step of a traced run, is taken singly.

`Rules` builds a sparse table rule by rule; `make_machine` builds a machine
from dense rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (ACCEPT, FUEL_EXHAUSTED, REJECT, NonEncodable, ValidationError,
                     check_encoded, check_fuel)

BLANK = "_"
WILD = "*"
MOVES = ("L", "R", "S")
_STORED_MOVES = frozenset("LR")

# The most tapes a machine may declare (`prf_to_tm.MAX_TAPES` is the lower
# cap of the compiler).  A tape costs a buffer in `run` and a level of
# recursion in `transform.to_single_tape`'s squeeze, which passes Python's
# recursion limit past about 300 tapes; compiled `extract` needs 68.
MAX_MACHINE_TAPES = 128

# A rule's key (state, reads) and target (next_state, writes, moves): reads,
# writes and moves are (tape, symbol or L or R) pairs, tapes 0-based, in order
Pairs = Tuple[Tuple[int, str], ...]
Key = Tuple[str, Pairs]
Target = Tuple[str, Pairs, Pairs]


# ---------------------------------------------------------------------------
# Tapes and configurations


@dataclass(frozen=True)
class Tape:
    """One tape: ``cells[i]`` is the symbol at cell i, trailing blanks
    trimmed so equal tape contents compare equal; every later cell is blank.
    A position is a cell, 0 or more (`_check_start` refuses a head left of
    cell 0)."""

    cells: str = ""

    @staticmethod
    def from_word(word: str) -> "Tape":
        return Tape(word.rstrip(BLANK))

    def read(self, pos: int) -> str:
        return self.cells[pos] if pos < len(self.cells) else BLANK

    def write(self, pos: int, sym: str) -> "Tape":
        cells = self.cells.ljust(pos, BLANK)
        return Tape((cells[:pos] + sym + cells[pos + 1:]).rstrip(BLANK))

    def content(self) -> str:
        """The symbols from the first nonblank cell to the last."""
        return self.cells.lstrip(BLANK)


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


# ---------------------------------------------------------------------------
# Machine specs


@dataclass(frozen=True)
class MachineSpec:
    """A validated machine: building one checks every invariant and derives
    ``deterministic`` and the rule ``index``, which cannot be given.
    ``delta`` maps each `Key` to its targets, in order, as `Rules` builds."""

    name: str
    states: frozenset
    initial: str
    accept: frozenset
    input_alphabet: frozenset
    tape_alphabet: frozenset
    tapes: int
    delta: Dict[Key, Tuple[Target, ...]]
    deterministic: bool = field(init=False)
    index: "RuleIndex" = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for attr in ("states", "accept", "input_alphabet", "tape_alphabet"):
            object.__setattr__(self, attr, frozenset(getattr(self, attr)))
        if self.tapes < 1:
            raise ValidationError("machine needs at least one tape")
        if self.tapes > MAX_MACHINE_TAPES:
            raise ValidationError(f"{self.tapes} tapes are more than "
                                  f"MAX_MACHINE_TAPES = {MAX_MACHINE_TAPES}")
        if not self.input_alphabet <= self.tape_alphabet:
            raise ValidationError("input alphabet must be a subset of the tape alphabet")
        if BLANK not in self.tape_alphabet:
            raise ValidationError("blank symbol missing from tape alphabet")
        if BLANK in self.input_alphabet:
            raise ValidationError("blank symbol may not appear in the input alphabet")
        if WILD in self.tape_alphabet:
            raise ValidationError("'*' is reserved and may not be a tape symbol")
        for s in self.tape_alphabet:
            if len(s) != 1:
                raise ValidationError(f"symbols are single characters, got {s!r}")
        if self.initial not in self.states:
            raise ValidationError(f"initial state {self.initial!r} not declared")
        if not self.accept <= self.states:
            raise ValidationError("accept states must be declared states")
        by_state: Dict[str, List[Pairs]] = {}  # state -> its reads
        multi = set()  # states with a key of several targets
        for (state, reads), targets in self.delta.items():
            if state not in self.states:
                raise ValidationError(f"transition from undeclared state {state!r}")
            _check_pairs(reads, self.tapes, self.tape_alphabet, "read")
            if len(targets) > 1:
                multi.add(state)
            for nxt, writes, moves in targets:
                if nxt not in self.states:
                    raise ValidationError(f"transition into undeclared state {nxt!r}")
                _check_pairs(writes, self.tapes, self.tape_alphabet, "write")
                _check_pairs(moves, self.tapes, _STORED_MOVES, "move")
            by_state.setdefault(state, []).append(reads)
        index = RuleIndex({state: tuple(keys) for state, keys in by_state.items()}, self.delta,
                          self.accept)
        # the resolver searches the states that have a key of several
        # targets or two keys that may match one scan at equal rank (with
        # one tape, distinct keys of equal rank never do)
        deterministic = not any(
            index.ambiguous(state, self.tape_alphabet)
            for state, keys in index.states.items()
            if state in multi or (self.tapes > 1 and _may_overlap(keys)))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "deterministic", deterministic)


def _check_pairs(pairs: Pairs, tapes: int, allowed: frozenset, what: str) -> None:
    """Refuse a rule's ``what`` pairs unless their tapes increase within
    0..tapes-1 and each names a member of ``allowed``."""
    last = -1
    for t, x in pairs:
        if type(t) is not int or not 0 <= t < tapes:
            raise ValidationError(f"{what} on tape {t!r}, not one of 0..{tapes - 1}")
        if t <= last:
            raise ValidationError(f"{what} tapes repeated or out of order in {pairs!r}")
        if x not in allowed:
            if x == ("S" if what == "move" else WILD):
                raise ValidationError(f"{what} {x!r} on tape {t} is stored: a rule leaves "
                                      f"out the tapes it does not {what}")
            raise ValidationError(f"move {x!r} is not one of {MOVES}" if what == "move"
                                  else f"{what} symbol {x!r} outside tape alphabet")
        last = t


# A resolved transition: (next_state, writes, rights, lefts, sweep, to).
# writes holds the target's writes less those of the scanned symbol, so each
# may change a cell.  rights and lefts hold the tapes whose head moves right
# and left; only lefts meet the stuck rule, and most steps have none.  sweep
# is +1 or -1 when the step keeps the state, writes nothing and moves only
# the one tape the state reads, else 0.  to is the `Entry` of next_state, so
# `run` enters it without a lookup.
Step = Tuple[str, Pairs, Tuple[int, ...], Tuple[int, ...], int, "Entry"]

# A state's entry: (state, reads, known, one, accepting).  reads are the
# tapes some key of the state reads (no rule looks at another tape); known
# maps the symbols scanned on them, joined into one string (symbols are
# single characters), to the resolved steps; one is the read tape when
# there is exactly one, else None; accepting is whether the state accepts.
# A state with no rules reads no tape and resolves every scan to no step.
Entry = Tuple[str, Tuple[int, ...], Dict[str, Tuple[Step, ...]], Optional[int], bool]


class RuleIndex:
    """A machine's rules grouped by state, and the resolver's memo.

    ``states`` maps a state to the reads of its keys, whose targets are in
    ``delta``: tuples of ints and strings, which the garbage collector
    stops tracking, so indexing a big machine brings on no extra full
    collections.  ``memo`` maps a state to its `Entry`, made on first need
    (`entry`) for any state, accepting and rule-less ones too; its
    ``known`` fills lazily, one scan at a time.  Each resolved `Step`
    carries the entry of its next state, so `run` goes from entry to entry.
    ``answers`` interns the answers: equal answers of one index are one
    object, so `run` can tell that two scans take the same step by
    identity, and can take the step of a deterministic scan by unpacking
    its one-element answer.  Nothing here refers back to the machine, so a
    dropped machine is freed at once; its memo, whose entries and steps
    refer to each other, waits for the cyclic garbage collector."""

    __slots__ = ("states", "delta", "accept", "memo", "answers")

    def __init__(self, states: Dict[str, Tuple[Pairs, ...]],
                 delta: Dict[Key, Tuple[Target, ...]], accept: frozenset):
        self.states = states
        self.delta = delta
        self.accept = accept
        self.memo: Dict[str, Entry] = {}
        self.answers: Dict[tuple, Tuple[Step, ...]] = {}

    def entry(self, state: str) -> Entry:
        """The `Entry` of ``state``."""
        entry = self.memo.get(state)
        if entry is None:
            keys = self.states.get(state, ())
            reads = tuple(sorted({t for key in keys for t, _ in key}))
            entry = self.memo[state] = (state, reads, {}, reads[0] if len(reads) == 1 else None,
                                        state in self.accept)
        return entry

    def resolve(self, entry: Entry, syms: str) -> Tuple[Step, ...]:
        """Steps of the most specific rules of ``entry``'s state matching
        ``syms``, the symbols under its read tapes."""
        known = entry[2]
        hit = known.get(syms)
        if hit is None:
            steps = self._match(entry, syms)
            hit = self.answers.get(steps)
            if hit is None:
                hit = self.answers[steps] = tuple(s + (self.entry(s[0]),) for s in steps)
            known[syms] = hit
        return hit

    def _match(self, entry: Entry, syms: str) -> tuple:
        """The steps of `resolve`, without their next entries."""
        state, reads, _, one, _ = entry
        scanned = dict(zip(reads, syms))
        best: List[Target] = []
        best_rank = -1
        for key in self.states.get(state, ()):
            for t, r in key:
                if scanned[t] != r:
                    break
            else:
                if len(key) > best_rank:
                    best_rank, best = len(key), list(self.delta[state, key])
                elif len(key) == best_rank:
                    best.extend(self.delta[state, key])
        out = []
        for nxt, writes, moves in best:
            writes = tuple((t, w) for t, w in writes if w != scanned.get(t))
            rights = tuple(t for t, mv in moves if mv == "R")
            lefts = tuple(t for t, mv in moves if mv == "L")
            sweep = 0
            if nxt == state and not writes and (rights, lefts) in (((one,), ()), ((), (one,))):
                sweep = 1 if rights else -1
            out.append((nxt, writes, rights, lefts, sweep))
        return tuple(out)

    def ambiguous(self, state: str, alphabet: frozenset) -> bool:
        """Whether some scan resolves to more than one step in ``state``.
        Scans are tried one per class the resolver cannot tell apart: on
        each tape the state reads, every symbol some key names, and one
        symbol no key names, standing for all the others."""
        entry = self.entry(state)
        keys = self.states[state]
        choices = []
        for t in entry[1]:
            named = sorted({r for key in keys for u, r in key if u == t})
            choices.append(named + sorted(alphabet.difference(named))[:1])
        return any(len(self._match(entry, "".join(scan))) > 1 for scan in product(*choices))


def make_machine(
    name: str,
    states: Iterable[str],
    initial: str,
    accept: Iterable[str],
    input_alphabet: Iterable[str],
    tape_alphabet: Iterable[str],
    tapes: int,
    rules: Iterable[tuple],
) -> MachineSpec:
    """Build and validate a machine from dense rules, stored sparse: each
    is (state, reads, next_state, writes, moves), each vector one entry per
    tape; for a 1-tape machine the vectors may be strings of length 1."""
    delta: Dict[Key, List[Target]] = {}
    for state, reads, nxt, writes, moves in rules:
        if len(reads) != tapes:
            raise ValidationError(f"read vector {tuple(reads)!r} does not match tape count")
        if len(writes) != tapes or len(moves) != tapes:
            raise ValidationError("write/move vectors must match tape count")
        delta.setdefault((state, _sparse(reads, WILD)), []).append(
            (nxt, _sparse(writes, WILD), _sparse(moves, "S")))
    return MachineSpec(name, states, initial, accept, input_alphabet, tape_alphabet, tapes,
                       {key: tuple(targets) for key, targets in delta.items()})


def _sparse(vec: Sequence[str], absent: str) -> Pairs:
    """The (tape, entry) pairs of a dense vector, less its ``absent`` ones."""
    return tuple((t, x) for t, x in enumerate(vec) if x != absent)


class Rules:
    """Sparse rules of a machine under construction (the multitape tables of
    Sipser, Introduction to the Theory of Computation, Thm 3.16).

    A rule maps 1-based tapes to the symbols it reads and writes and the
    moves it makes; a tape it does not name reads `*`, writes `*` and stays.
    Rules with equal state and reads become one key with several targets,
    in the order given."""

    def __init__(self):
        self.delta: Dict[Key, List[Target]] = {}  # each key's targets, stored as built
        self.tapes = 1  # the highest tape a rule names
        self.n = 0

    def rule(self, state: str, reads: dict, nxt: str,
             writes: Optional[dict] = None, moves: Optional[dict] = None) -> None:
        self.delta.setdefault((state, self._pairs(reads, WILD)), []).append(
            (nxt, self._pairs(writes, WILD), self._pairs(moves, "S")))

    def _pairs(self, d: Optional[dict], absent: str) -> Pairs:
        """The stored pairs of a rule's dict of 1-based tapes."""
        if not d:
            return ()
        self.tapes = max(self.tapes, max(d))
        return tuple(sorted([(t - 1, x) for t, x in d.items() if x != absent]))

    def fresh(self) -> str:
        """A new state name: g1, g2, ..."""
        self.n += 1
        return f"g{self.n}"

    def rewind(self, t: int, mark: str, entry: str, exit_: str,
               writes: Optional[dict] = None, moves: Optional[dict] = None) -> None:
        """From ``entry``, move tape ``t`` left to ``mark``; there make
        ``writes`` and ``moves`` (by default one cell right on tape ``t``)
        into ``exit_``."""
        self.rule(entry, {t: mark}, exit_, writes, {t: "R"} if moves is None else moves)
        self.rule(entry, {}, entry, None, {t: "L"})

    def machine(self, name: str, initial: str, accept: Iterable[str],
                input_alphabet: Iterable[str], tape_alphabet: Iterable[str]) -> MachineSpec:
        """The validated machine of the rules as stored: `tapes` tapes, and
        the states ``initial``, ``accept`` and every state a rule names."""
        delta = {key: tuple(targets) for key, targets in self.delta.items()}
        states = {initial, *accept, *(q for q, _ in delta),
                  *(nxt for targets in delta.values() for nxt, _, _ in targets)}
        return MachineSpec(name, states, initial, accept, input_alphabet, tape_alphabet,
                           self.tapes, delta)


def _may_overlap(keys: Tuple[Pairs, ...]) -> bool:
    """A quick test, false when no two ``keys`` can match one scan at equal
    rank: that takes two keys of equal rank that read different tapes."""
    if len({len(key) for key in keys}) == len(keys):
        return False
    shapes = {tuple(t for t, _ in key) for key in keys}
    return len({len(shape) for shape in shapes}) < len(shapes)


# ---------------------------------------------------------------------------
# Execution


def resolve(spec: MachineSpec, state: str, scanned: Sequence[str]) -> Tuple[Step, ...]:
    """Resolved steps of the most specific rules of ``state`` matching the
    full scan vector ``scanned``; only the tapes the state reads are looked
    at, and the answer is memoized per state."""
    index = spec.index
    entry = index.entry(state)
    return index.resolve(entry, "".join([scanned[t] for t in entry[1]]))


def successors(spec: MachineSpec, c: Configuration) -> List[Configuration]:
    """All next configurations (empty when halted); a step that moves a head
    left off cell 0 is a stuck halt and has none.  ``c`` passes
    `_check_start`."""
    _check_start(spec, c)
    out = []
    for nxt, writes, rights, lefts, _, _ in resolve(spec, c.state, c.scanned()):
        heads = list(c.heads)
        for t in rights:
            heads[t] += 1
        for t in lefts:
            heads[t] -= 1
        if -1 in heads:  # a left move off cell 0: stuck
            continue
        tapes = list(c.tapes)
        for t, sym in writes:
            tapes[t] = tapes[t].write(c.heads[t], sym)
        out.append(Configuration(nxt, tuple(tapes), tuple(heads), c.steps_taken + 1))
    return out


def initial_configuration(
    spec: MachineSpec, words: Sequence[str], heads: Optional[Sequence[int]] = None
) -> Configuration:
    """Word i on tape i from cell 0, heads at ``heads`` (default cell 0).

    Without ``heads`` this is the start on an input word: ``words[0]``
    must be over the input alphabet.  The start passes `_check_start`."""
    if len(words) > spec.tapes:
        raise ValidationError(f"{len(words)} input words for {spec.tapes} tapes")
    if heads is None and words and not spec.input_alphabet.issuperset(words[0]):
        bad = next(ch for ch in words[0] if ch not in spec.input_alphabet)
        raise ValidationError(f"input symbol {bad!r} outside input alphabet")
    tapes = tuple(Tape.from_word(w) for w in words) + (Tape(),) * (spec.tapes - len(words))
    hs = tuple(heads) if heads is not None else (0,) * spec.tapes
    return _check_start(spec, Configuration(spec.initial, tapes, hs))


def _check_start(spec: MachineSpec, c: Configuration) -> Configuration:
    """``c``, when it has one tape and one head per tape, no head left of
    cell 0 and every symbol in the tape alphabet.  Rules write only tape
    symbols, so every later scan is over the tape alphabet too."""
    if not len(c.tapes) == len(c.heads) == spec.tapes:
        raise ValidationError(
            f"{len(c.tapes)} tapes and {len(c.heads)} heads for a {spec.tapes}-tape machine")
    alphabet = spec.tape_alphabet
    for t, (tape, h) in enumerate(zip(c.tapes, c.heads), 1):
        if h < 0:
            raise ValidationError(f"head {t} at cell {h}, left of cell 0")
        if not alphabet.issuperset(tape.cells):
            bad = next(ch for ch in tape.cells if ch not in alphabet)
            raise ValidationError(f"symbol {bad!r} on tape {t} outside tape alphabet")
    return c


def run(
    spec: MachineSpec,
    word: str,
    fuel: int,
    want_trace: bool = False,
    start: Optional[Configuration] = None,
) -> Outcome:
    """Run a deterministic machine on ``word`` (tape 1, head at its first
    symbol), or from ``start``; Accept as soon as the state is accepting.
    The start passes `_check_start` once.

    The tapes live in mutable buffers, one list of cells per tape from cell
    0, each as long as the longest tape of the start plus one, and each head
    is the index of its cell.  A head moves with no bounds test; a buffer
    grows only when a read or a write reaches past its end.  A
    Configuration is built only at exit, or after every step when
    ``want_trace`` is set.

    The outer loop runs once per state entered, from the state's `Entry`
    to the one its step carries; the inner one once per step while the
    state stays.  Only the tapes a step moves left are checked against cell
    0, before anything is written.  Without a trace, after the first step
    of a sweep (a step whose ``sweep`` is set) the head moves on cell by
    cell while the cell under it resolves to the same step: at most to the
    buffer's end, to the fuel, or to cell 0, where the next step meets the
    stuck rule.  Every other step is taken singly."""
    check_fuel(fuel)
    if not spec.deterministic:
        raise ValidationError("run requires a deterministic machine; see nd_run")
    index = spec.index
    c = initial_configuration(spec, [word]) if start is None else _check_start(spec, start)
    # one buffer per tape from cell 0: a head is its cell's index
    n = max(len(t.cells) for t in c.tapes) + 1
    cells = [list(t.cells.ljust(n, BLANK)) for t in c.tapes]
    pos = list(c.heads)
    trace = [c] if want_trace else None
    steps = 0
    tag = FUEL_EXHAUSTED
    entry = index.entry(c.state)
    while True:  # one pass per state entered
        _, reads, known, one, accepting = entry
        if accepting:
            tag = ACCEPT
            break
        if steps >= fuel:
            break
        while True:  # one pass per step, or per sweep, while the state stays
            try:
                if one is not None:
                    key = cells[one][pos[one]]
                else:
                    key = "".join([cells[t][pos[t]] for t in reads])
            except IndexError:  # a head past its buffer's end
                _grow(cells, pos)
                continue
            todo = known.get(key)
            if todo is None:
                todo = index.resolve(entry, key)
            try:  # one step, or none (Reject)
                [(_, writes, rights, lefts, sweep, to)] = todo
            except ValueError:
                to = None
                break
            if lefts:
                for t in lefts:
                    if not pos[t]:
                        to = None  # cell 0 is protected
                if to is None:
                    break
            if writes:  # most steps write nothing or move one way: skip empty loops
                for t, sym in writes:
                    try:
                        cells[t][pos[t]] = sym
                    except IndexError:  # grow the buffer and redo this write only
                        _grow(cells, pos)
                        cells[t][pos[t]] = sym
            if rights:
                for t in rights:
                    pos[t] += 1
            if lefts:
                for t in lefts:
                    pos[t] -= 1
            steps += 1
            if trace is not None:
                trace.append(_snapshot(to[0], cells, pos, c.steps_taken + steps))
            if to is not entry:
                break
            if sweep and trace is None:
                # a sweep on the one tape the state reads: move on while the
                # cell under the head resolves to the same step, within the
                # buffer and the fuel
                buf = cells[one]
                i = start_i = pos[one]
                if sweep > 0:
                    stop = len(buf) - 1
                    if stop < i:  # the head is past the buffer's end
                        stop = i
                    if stop - i > fuel - steps:
                        stop = i + fuel - steps
                else:  # not past cell 0
                    stop = 0
                    if i > fuel - steps:
                        stop = i - fuel + steps
                while i != stop and known.get(buf[i]) is todo:
                    i += sweep
                pos[one] = i
                steps += (i - start_i) * sweep
            if steps >= fuel:
                break
        if to is None:
            tag = REJECT
            break
        entry = to
    final = _snapshot(entry[0], cells, pos, c.steps_taken + steps)
    return Outcome(tag, final, tuple(trace) if trace else None)


def _grow(cells: List[List[str]], pos: List[int]) -> None:
    """Lengthen every buffer whose head lies past its end by as many cells
    as the head's index plus one, so a long walk right grows it seldom."""
    for buf, i in zip(cells, pos):
        if i >= len(buf):
            buf.extend(BLANK * (i + 1))


def _snapshot(state, cells, pos, steps_taken) -> Configuration:
    tapes = tuple(Tape("".join(buf).rstrip(BLANK)) for buf in cells)
    return Configuration(state, tapes, tuple(pos), steps_taken)


# ---------------------------------------------------------------------------
# Unary numeric convention: 0 is the glyph "0", n > 0 is n ones.  A machine
# run on k numbers takes argument i on tape i from cell 1 (cell 0 stays
# blank), every head starting on cell 1, and answers on tape k+1 if it has
# that tape, else on tape 1; the tapes past k+1 are scratch.  `numeric_layout`
# is this rule, the one place it is decided: `prf_to_tm` compiles to it,
# `run_numeric` reads by it, and `transform.single_tape_start` squeezes its
# start.  On Accept the answer is the output tape's content, blanks trimmed.


@dataclass(frozen=True)
class NumericLayout:
    arity: int
    argument_tapes: Tuple[int, ...]
    output_tape: int
    scratch_tapes: Tuple[int, ...]


def numeric_layout(spec: MachineSpec, k: int) -> NumericLayout:
    """Where ``spec`` run on k numbers takes them and leaves its answer.  It
    checks no arity: `numeric_start` refuses more numbers than tapes."""
    out = k + 1 if spec.tapes > k else 1
    return NumericLayout(k, tuple(range(1, k + 1)), out, tuple(range(k + 2, spec.tapes + 1)))


def encode_unary(n: int) -> str:
    check_encoded(n, "unary word")
    return "0" if n == 0 else "1" * n


def decode_unary(word: str) -> int:
    if word == "0":
        return 0
    if word and set(word) == {"1"}:
        return len(word)
    raise NonEncodable(f"{word!r} is not a unary numeral")


def numeric_start(spec: MachineSpec, args: Sequence[int]) -> Configuration:
    words = [BLANK + encode_unary(a) for a in args]
    return initial_configuration(spec, words, (1,) * spec.tapes)


def run_numeric(
    spec: MachineSpec,
    args: Sequence[int],
    fuel: int,
    output_tape: Optional[int] = None,
):
    """Run under the unary convention; returns the decoded output natural on
    Accept, otherwise the failing Outcome.  The answer is read from
    ``output_tape``, by default the one `numeric_layout` names.  Raises
    NonEncodable if the final output tape holds no numeral."""
    if output_tape is None:
        output_tape = numeric_layout(spec, len(args)).output_tape
    elif not 1 <= output_tape <= spec.tapes:
        raise ValidationError(f"no tape {output_tape} on a {spec.tapes}-tape machine")
    out = run(spec, "", fuel, start=numeric_start(spec, args))
    if out.tag != ACCEPT:
        return out
    return decode_unary(out.final.tapes[output_tape - 1].content())
