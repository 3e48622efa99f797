"""The sparse rule builder (`tm.Rules`) and the machines built with it."""

import hashlib

import pytest

from churing.errors import ValidationError
from churing.formats import parse, print_source
from churing.lam_to_tm import SUITE, build_machine
from churing.prf import Zero
from churing.prf_to_tm import compile_prf_to_tm
from churing.tm import BLANK, WILD, MachineSpec, Rules
from churing.transform import to_single_tape

from conftest import CORPUS
from tm_reference import compiled_stdlib, dense, explicit_rows


def test_unnamed_tapes_read_and_write_wildcards_and_stay():
    b = Rules()
    b.rule("q", {2: "a"}, "r", {3: "b"}, {1: "R"})
    m = b.machine("m", "q", ["r"], ["a"], ["a", "b", BLANK])
    assert dense(m) == {("q", (WILD, "a", WILD)): (("r", (WILD, WILD, "b"), ("R", "S", "S")),)}


def test_tape_count_and_states_are_inferred():
    b = Rules()
    b.rule("q", {}, b.fresh(), None, {4: "R"})
    b.rewind(2, "^", "g1", "done")
    m = b.machine("m", "q", ["acc"], ["a"], ["a", "^", BLANK])
    assert m.tapes == 4
    assert m.states == {"q", "g1", "done", "acc"}
    assert list(dense(m)) == [("q", (WILD,) * 4), ("g1", (WILD, "^", WILD, WILD)),
                              ("g1", (WILD,) * 4)]
    assert m.deterministic


def test_repeated_key_makes_a_nondeterministic_machine():
    b = Rules()
    b.rule("q", {1: "a"}, "r", moves={1: "R"})
    b.rule("q", {1: "a"}, "s", moves={1: "R"})
    m = b.machine("m", "q", ["r"], ["a"], ["a", BLANK])
    assert dense(m)[("q", ("a",))] == (("r", (WILD,), ("R",)), ("s", (WILD,), ("R",)))
    assert not m.deterministic


def _reference_delta(rules, tapes):
    """delta of sparse rules expanded one tape at a time, as a table is read."""
    def full(d, base):
        return tuple(d.get(t, base) for t in range(1, tapes + 1))

    delta = {}
    for state, reads, nxt, writes, moves in rules:
        delta.setdefault((state, full(reads, WILD)), []).append(
            (nxt, full(writes, WILD), full(moves, "S")))
    return {k: tuple(v) for k, v in delta.items()}


@pytest.mark.parametrize("rules, tapes", [
    ([("q", {}, "r", {}, {})], 1),                                  # names no tape
    ([("q", {1: "a"}, "q", {3: "b"}, {}), ("q", {}, "r", {}, {})], 3),  # top tape written
    ([("q", {2: "a"}, "r", {}, {4: "L"}), ("r", {}, "q", {1: "b"}, {})], 4),  # top tape moved
    ([("q", {16: "a"}, "r", {1: "b"}, {8: "R"}), ("q", {}, "q", {16: "a"}, {16: "L"})], 16),
    ([("q", {1: "a", 2: "b"}, "r", {2: "a"}, {1: "R"}), ("q", {2: "b"}, "s", {}, {}),
      ("q", {1: "a", 2: "b"}, "s", {1: "b"}, {2: "L"})], 2),        # a repeated key
])
def test_expansion_matches_a_tape_by_tape_reference(rules, tapes):
    b = Rules()
    for rule in rules:
        b.rule(*rule)
    m = b.machine("m", "q", ["r"], ["a", "b"], ["a", "b", BLANK])
    want = _reference_delta(rules, tapes)
    assert m.tapes == tapes
    assert dense(m) == want  # targets compare in order
    assert list(dense(m)) == list(want)
    assert m.states == {"q", "r", *(r[2] for r in rules)}


def test_machine_is_validated():
    b = Rules()
    b.rule("q", {1: "z"}, "r")
    with pytest.raises(ValidationError, match="outside tape alphabet"):
        b.machine("m", "q", ["r"], ["a"], ["a", BLANK])


# SHA-256 (first 16 hex digits) of print_source("tm", ...), recorded before
# the compilers shared one builder; the printed machines must not change.
# The multitape "single:" entries were recorded when to_single_tape came to
# key its control states on read sets, again when it named its entry state
# `transform.ENTRY` (the same text with that one state renamed), and again
# when it keyed them on the residual host step (fewer states, same runs),
# and again when each squeezed state came to fold its largest class of equal
# targets into one `*` row.  The "explicit:" entries are the same squeezed
# machines with every `*` row expanded (`tm_reference.explicit_rows`): they
# are the "single:" digests recorded before the `*` rows, so the compressed
# table is the explicit one.
PINNED = {
    "suite:V": "9fef32e7f12124f6",
    "suite:CF": "96c6fbc2e0b56250",
    "suite:CBV": "08fe3f4ed3f26745",
    "suite:AE": "3d237815e8122bfc",
    "suite:NF": "5b2aabd634d0b963",
    "suite:BR1": "e37e7070fafc297f",
    "prf:absdiff": "c62989af38f525b4",
    "prf:add": "c17787cd823a52e8",
    "prf:eq": "3e0587848b275b47",
    "prf:exp": "245febdb833bd039",
    "prf:id": "824782aa9ebb027a",
    "prf:lt": "21e2e2a155b85228",
    "prf:monus": "ffa6003d0408b508",
    "prf:mul": "edcc8cb28d46a055",
    "prf:pow2": "f80c444cbb5c3cf6",
    "prf:pow3": "2193e4acdd15f7e0",
    "prf:pred": "5a4de563e9e11562",
    "prf:sg": "d975efd320e9b983",
    "prf:Zero(0)": "f1753ff125afd3cc",
    "prf:Zero(1)": "aeb5efb33f597bad",
    "prf:Zero(2)": "4a6342486f6fdf4f",
    "prf:Zero(3)": "23fccc744e435f47",
    "explicit:add_compiled.tm": "c3b656d7a03bff8e",
    "explicit:copier.tm": "4ac82e80b215a8df",
    "explicit:zero2_compiled.tm": "47f38766805bc6af",
    "single:add_compiled.tm": "b90a6725901c083c",
    "single:copier.tm": "496af4767cd0cbf6",
    "single:ends1.tm": "08041826d91c028b",
    "single:eraser.tm": "6085f37b6809f77f",
    "single:flipper.tm": "9b2a7e88f720fdf0",
    "single:identity.tm": "70b45bce94cd55ca",
    "single:onon.tm": "93946e674c6a5fef",
    "single:succ.tm": "7ec93b6f52d30044",
    "single:zero2_compiled.tm": "b195f32ce5e06b3a",
}


def _digest(m: MachineSpec) -> str:
    return hashlib.sha256(print_source("tm", m).encode()).hexdigest()[:16]


def test_printed_machines_are_pinned():
    got = {f"suite:{n}": _digest(build_machine(n)) for n in SUITE}
    for n, (_, m, _) in compiled_stdlib().items():
        got[f"prf:{n}"] = _digest(m)
    for k in range(4):
        got[f"prf:Zero({k})"] = _digest(compile_prf_to_tm(Zero(k))[0])
    for f in sorted(CORPUS.glob("*.tm")):
        m = parse("tm", f.read_text())
        if not isinstance(m, MachineSpec):
            continue
        try:
            single = to_single_tape(m)
        except ValidationError:  # nondeterministic
            continue
        got[f"single:{f.name}"] = _digest(single)
        if m.tapes > 1:
            got[f"explicit:{f.name}"] = _digest(explicit_rows(single))
    assert got == PINNED
