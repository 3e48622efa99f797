"""Reference TM semantics for the differential tests.

This is the original step loop of ``churing.tm``, kept as it was: every step
rescans all the rules of the current state for the most specific match,
reads all k tapes, and rebuilds a written tape through ``Tape.write``.  Two
things differ: the per-state grouping is passed in rather than cached on
the frozen spec, and ``run`` does not refuse machines classified
nondeterministic, since that classification is itself under test.
``churing.tm.run`` must agree with ``run`` here on the tag, the final
configuration, ``steps_taken`` and the trace.

``step`` is also the host oracle of the tm→prf tests.

``brute_force_accepts`` searches every branch of a nondeterministic machine
with ``successors`` here: the oracle for ``churing.transform.nd_run``.

``dovetail_decide`` (two recognizers stepped in turn) and ``dfa_is_empty``
(reachability of an accepting DFA state) are the decision procedures the
tests exercise and no part of the library calls.

``equivalent_states`` is the oracle for a machine without duplicate states:
Hopcroft's partition refinement over the machine's steps.

``explicit_rows`` is the oracle for a one-tape table with `*` rows: the
same machine with one explicit row for every (state, symbol) that steps.

``compiled_stdlib`` gives every stdlib function the p.r.f.→TM compiler
compiles, for the tests that take all of them.
"""

import dataclasses
import itertools
from collections import deque
from typing import Dict, List, Optional, Tuple

from churing.errors import ValidationError, check_fuel
from churing.prf import PrfExpr, stdlib, stdlib_names
from churing.prf_to_tm import compile_prf_to_tm
from churing.tm import (
    ACCEPT, FUEL_EXHAUSTED, REJECT, WILD, Configuration,
    MachineSpec, NumericLayout, Outcome, Target, Tape, initial_configuration,
)


def _by_state(spec: MachineSpec):
    """Delta entries grouped by source state."""
    index = {}
    for (s, reads), targets in spec.delta.items():
        index.setdefault(s, []).append((reads, targets))
    return index


def _match(by_state, state: str, scanned: Tuple[str, ...]) -> Tuple[Target, ...]:
    """Targets of the most specific delta entries matching the scan."""
    best: List[Target] = []
    best_rank = -1
    for reads, targets in by_state.get(state, ()):
        rank = 0
        ok = True
        for r, c in zip(reads, scanned):
            if r == WILD:
                continue
            if r != c:
                ok = False
                break
            rank += 1
        if not ok:
            continue
        if rank > best_rank:
            best_rank, best = rank, list(targets)
        elif rank == best_rank:
            best.extend(targets)
    return tuple(best)


def _apply(
    spec: MachineSpec,
    target: Target,
    tapes: Tuple[Tape, ...],
    heads: Tuple[int, ...],
    scanned: Tuple[str, ...],
):
    """Write/move for one target; returns (state, tapes, heads) or None if stuck."""
    nxt, writes, moves = target
    new_tapes = []
    new_heads = []
    for i in range(spec.tapes):
        sym = scanned[i] if writes[i] == WILD else writes[i]
        t = tapes[i] if sym == scanned[i] else tapes[i].write(heads[i], sym)
        h = heads[i]
        if moves[i] == "L":
            if h == 0:
                return None  # stuck: cell 0 is protected
            h -= 1
        elif moves[i] == "R":
            h += 1
        new_tapes.append(t)
        new_heads.append(h)
    return nxt, tuple(new_tapes), tuple(new_heads)


def successors(spec: MachineSpec, c: Configuration, by_state=None) -> List[Configuration]:
    """All next configurations (empty when halted)."""
    by_state = by_state if by_state is not None else _by_state(spec)
    scanned = c.scanned()
    out = []
    for target in _match(by_state, c.state, scanned):
        applied = _apply(spec, target, c.tapes, c.heads, scanned)
        if applied is not None:
            nxt, tapes, heads = applied
            out.append(Configuration(nxt, tapes, heads, c.steps_taken + 1))
    return out


def step(spec: MachineSpec, c: Configuration, by_state=None) -> Optional[Configuration]:
    """One deterministic step; None means Halted (no applicable entry, or a
    protected-cell left move)."""
    by_state = by_state if by_state is not None else _by_state(spec)
    scanned = c.scanned()
    targets = _match(by_state, c.state, scanned)
    if not targets:
        return None
    if len(targets) > 1:
        raise ValidationError(
            f"ambiguous transition in {spec.name!r} at state {c.state!r} reading {scanned}"
        )
    applied = _apply(spec, targets[0], c.tapes, c.heads, scanned)
    if applied is None:
        return None
    nxt, tapes, heads = applied
    return Configuration(nxt, tapes, heads, c.steps_taken + 1)


def run(
    spec: MachineSpec,
    word: str,
    fuel: int,
    want_trace: bool = False,
    start: Optional[Configuration] = None,
) -> Outcome:
    """Run a deterministic machine on ``word`` (tape 1, head at its first
    symbol); Accept as soon as the state is accepting."""
    by_state = _by_state(spec)
    c = start if start is not None else initial_configuration(spec, [word])
    trace = [c] if want_trace else None
    for _ in range(fuel):
        if c.state in spec.accept:
            return Outcome(ACCEPT, c, tuple(trace) if trace else None)
        n = step(spec, c, by_state)
        if n is None:
            return Outcome(REJECT, c, tuple(trace) if trace else None)
        c = n
        if trace is not None:
            trace.append(c)
    if c.state in spec.accept:
        return Outcome(ACCEPT, c, tuple(trace) if trace else None)
    return Outcome(FUEL_EXHAUSTED, c, tuple(trace) if trace else None)


def brute_force_accepts(spec: MachineSpec, word: str, depth: int) -> bool:
    """Whether some branch reaches an accepting state within ``depth``
    steps: every configuration of levels 0..depth is looked at."""
    by_state = _by_state(spec)
    level = [initial_configuration(spec, [word])]
    for _ in range(depth + 1):
        if any(c.state in spec.accept for c in level):
            return True
        level = [n for c in level for n in successors(spec, c, by_state)]
        if not level:
            return False
    return False


def dovetail_decide(m1: MachineSpec, m2: MachineSpec, w: str, fuel: int) -> str:
    """Interleave single steps of both recognizers: m1 accepting first means
    Accept, m2 accepting first means Reject."""
    check_fuel(fuel)
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


def dfa_is_empty(d) -> bool:
    """Whether the DFA ``d`` accepts no word."""
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


def equivalent_states(spec: MachineSpec) -> List[frozenset]:
    """The classes of two or more states of the deterministic machine
    ``spec`` that behave alike: on every scan both halt, or both write the
    same symbols, make the same moves and go to equivalent states, and both
    accept or neither does.  Hopcroft's splitting ("An n log n algorithm for
    minimizing states in a finite automaton", 1971) on the inverse
    transitions: each scan is a letter, each state starts in the block of
    its acceptance and the writes and moves of its steps, and every initial
    block is a splitter, as a partial transition function needs."""
    by_state = _by_state(spec)
    scans = list(itertools.product(sorted(spec.tape_alphabet), repeat=spec.tapes))
    inverse = {a: {} for a in scans}
    by_label: dict = {}
    for q in sorted(spec.states):
        label = [q in spec.accept]
        for a in scans:
            targets = _match(by_state, q, a)
            if len(targets) > 1:
                raise ValidationError(f"state {q!r} is nondeterministic on {a}")
            if targets:
                nxt, writes, moves = targets[0]
                label.append((a, tuple(c if w == WILD else w for w, c in zip(writes, a)), moves))
                inverse[a].setdefault(nxt, []).append(q)
        by_label.setdefault(tuple(label), set()).add(q)
    blocks = list(by_label.values())
    block_of = {q: b for b, states in enumerate(blocks) for q in states}
    waiting = {(b, a) for b in range(len(blocks)) for a in scans}
    while waiting:
        b, a = waiting.pop()
        touched: dict = {}
        for q in blocks[b]:
            for p in inverse[a].get(q, ()):
                touched.setdefault(block_of[p], set()).add(p)
        for x, inside in touched.items():
            if len(inside) == len(blocks[x]):
                continue
            blocks[x] -= inside
            y = len(blocks)
            blocks.append(inside)
            for p in inside:
                block_of[p] = y
            for c in scans:
                if (x, c) in waiting:
                    waiting.add((y, c))
                else:
                    waiting.add((y, c) if len(inside) <= len(blocks[x]) else (x, c))
    return [frozenset(states) for states in blocks if len(states) > 1]


def explicit_rows(spec: MachineSpec) -> MachineSpec:
    """The one-tape machine ``spec`` with every `*` read expanded over the
    symbols its state names no row for, and the scanned symbol written for
    every `*` write: a table of explicit rows only, with the same steps."""
    assert spec.tapes == 1, "explicit_rows expands one-tape tables"
    delta = {}
    for (q, (read,)), targets in spec.delta.items():
        syms = [read] if read != WILD else [
            c for c in sorted(spec.tape_alphabet) if (q, (c,)) not in spec.delta]
        for c in syms:
            delta[q, (c,)] = tuple((nxt, (c if w == WILD else w,), moves)
                                   for nxt, (w,), moves in targets)
    return dataclasses.replace(spec, delta=delta)


def compiled_stdlib() -> Dict[str, Tuple[PrfExpr, MachineSpec, NumericLayout]]:
    """Every stdlib function that `compile_prf_to_tm` compiles, by name in
    `stdlib_names` order: its expression, machine and layout.  The others
    need more tapes than the compiler allows."""
    out = {}
    for name in stdlib_names():
        e = stdlib(name)
        try:
            out[name] = (e, *compile_prf_to_tm(e))
        except ValidationError:
            continue
    return out
