"""Reference TM semantics for the differential tests.

This is the original step loop of ``churing.tm``, kept as it was: every step
rescans all the rules of the current state for the most specific match,
reads all k tapes, and rebuilds a written tape through ``Tape.write``.  Two
things differ: the per-state grouping is passed in rather than cached on
the frozen spec, and ``run`` does not refuse machines classified
nondeterministic, since that classification is itself under test.
``churing.tm.run`` must agree with ``run`` here on the tag, the final
configuration, ``steps_taken`` and the trace.
"""

from typing import List, Optional, Tuple

from churing.errors import ValidationError
from churing.tm import (
    ACCEPT, FUEL_EXHAUSTED, REJECT, SEMI_INFINITE, WILD, Configuration,
    MachineSpec, Outcome, Target, Tape, initial_configuration,
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
            if spec.tape_mode == SEMI_INFINITE and h == 0:
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
