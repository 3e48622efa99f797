"""Machine transformations: single-tape squeeze, NDTM search, combinators."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import tm_reference as ref

from churing.errors import NotADecider, ValidationError
from churing.formats import parse
from churing.tm import initial_configuration, make_machine, run, successors
from churing.transform import (
    Dfa, Nfa, decide_combine, dfa_accepts, dfa_is_empty, dovetail_decide,
    next_address, nd_run, nfa_accepts, single_tape_segments, to_single_tape,
)

from conftest import corpus_text


def _copier():
    return parse("tm", corpus_text("copier.tm"))


def _ends1():
    return parse("tm", corpus_text("ends1.tm"))


def _g11():
    return parse("tm", corpus_text("contains11_guesser.tm"))


def test_single_tape_copier_agrees():
    host = _copier()
    single = to_single_tape(host)
    assert single.tapes == 1
    for n in range(0, 5):
        for w in map("".join, itertools.product("ab", repeat=n)):
            o_host = run(host, w, fuel=10_000)
            o_single = run(single, w, fuel=200_000)
            assert o_host.tag == o_single.tag == "Accept"
            segs = single_tape_segments(host, o_single.final)
            assert segs == [t.content() for t in o_host.final.tapes]


def test_single_tape_verdicts_ends1():
    host = _ends1()
    single = to_single_tape(host)
    for w in ["", "1", "0", "01", "10", "0011", "0101", "111"]:
        assert (run(host, w, fuel=10_000).tag
                == run(single, w, fuel=200_000).tag), w


def test_single_tape_refuses_nondeterministic():
    with pytest.raises(ValidationError):
        to_single_tape(_g11())


def test_next_address_shortlex():
    seq = [""]
    for _ in range(6):
        seq.append(next_address(seq[-1], 2))
    assert seq == ["", "1", "2", "11", "12", "21", "22"]


def _brute_force_accepts(m, word, depth):
    """Enumerate every branch sequence up to the given depth."""
    level = [initial_configuration(m, [word])]
    for _ in range(depth + 1):
        if any(c.state in m.accept for c in level):
            return True
        level = [n for c in level for n in successors(m, c)]
        if not level:
            return False
    return False


def test_nd_run_matches_brute_force():
    m = _g11()
    for n in range(0, 6):
        for w in map("".join, itertools.product("01", repeat=n)):
            got = nd_run(m, w, max_depth=12)
            want = _brute_force_accepts(m, w, 12)
            assert (got == "Accept") == want, w


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("pqr"), st.sampled_from("01_*"), st.sampled_from("pqra"),
                          st.sampled_from("01_*"), st.sampled_from("LRS")), max_size=8),
       st.text(alphabet="01", max_size=4), st.integers(0, 6))
def test_nd_run_matches_brute_force_on_generated_machines(rules, word, depth):
    m = make_machine(name="gen", states="pqra", initial="p", accept=["a"],
                     input_alphabet="01", tape_alphabet="01_", tapes=1, rules=rules)
    level = [initial_configuration(m, [word])]
    want = False
    for _ in range(depth + 1):
        if any(c.state == "a" for c in level):
            want = True
            break
        level = [n for c in level for n in ref.successors(m, c)]
    assert (nd_run(m, word, max_depth=depth) == "Accept") == want


def test_nd_run_guesser_depth_ten_is_fast():
    m = _g11()
    started = time.perf_counter()
    assert nd_run(m, "010101011", max_depth=10) == "Accept"
    assert nd_run(m, "010101010", max_depth=10) == "NotFound"
    assert time.perf_counter() - started < 0.2


def test_nd_run_node_fuel_counts_nodes_expanded():
    # a walker that accepts at depth 5: five expansions (root and depths 1..4)
    # find it, where replaying every address from the root took 1+2+...+5
    m = make_machine(name="walk", states=["w", "a"], initial="w", accept=["a"],
                     input_alphabet=["1"], tape_alphabet=["1", "_"], tapes=1,
                     rules=[("w", "1", "w", "1", "R"), ("w", "_", "a", "_", "S")])
    assert nd_run(m, "1111", max_depth=5, node_fuel=5) == "Accept"
    assert nd_run(m, "1111", max_depth=5, node_fuel=4) == "NotFound"
    assert nd_run(m, "1111", max_depth=4) == "NotFound"


def test_single_tape_refuses_ambiguous_targets():
    # deterministic=True forged onto a machine with an equal-rank overlap
    from dataclasses import replace
    m = make_machine(name="overlap", states=["q", "A", "B"], initial="q",
                     accept=["A"], input_alphabet=["a"], tape_alphabet=["a", "_"],
                     tapes=2, rules=[("q", "a*", "A", "**", "SS"),
                                     ("q", "*_", "B", "**", "SS")])
    with pytest.raises(ValidationError, match="ambiguous"):
        to_single_tape(replace(m, deterministic=True))


def test_nd_run_on_deterministic_machine():
    from churing.tm import zeros_then_ones
    m = zeros_then_ones()
    for w in ["", "01", "0011", "10", "001"]:
        want = run(m, w, fuel=1000).tag == "Accept"
        assert (nd_run(m, w, max_depth=30) == "Accept") == want


def _always(tag_word_map, name):
    """Tiny total machines over {a} used for the combinators."""
    rules = [("s", "*", "acc" if tag_word_map else "rej", "*", "S")]
    return make_machine(name=name, states=["s", "acc", "rej"], initial="s",
                        accept=["acc"], input_alphabet=["a"],
                        tape_alphabet=["a", "_"], tapes=1, rules=rules)


def test_decide_combine():
    yes, no = _always(True, "yes"), _always(False, "no")
    cases = [("union", True), ("intersect", False), ("diff", True),
             ("symdiff", True)]
    for op, want in cases:
        assert (decide_combine(op, yes, no, "a", fuel=100) == "Accept") == want, op
    assert decide_combine("complement", yes, None, "a", fuel=100) == "Reject"


def test_decide_combine_rejects_nonhalting_sub_run():
    loop = make_machine(name="loop", states=["s", "acc"], initial="s",
                        accept=["acc"], input_alphabet=["a"],
                        tape_alphabet=["a", "_"], tapes=1,
                        rules=[("s", "*", "s", "*", "R")])
    with pytest.raises(NotADecider):
        decide_combine("union", loop, _always(True, "yes"), "a", fuel=50)


def test_dovetail_decide():
    yes, no = _always(True, "yes"), _always(False, "no")
    loop = make_machine(name="loop", states=["s", "acc"], initial="s",
                        accept=["acc"], input_alphabet=["a"],
                        tape_alphabet=["a", "_"], tapes=1,
                        rules=[("s", "*", "s", "*", "R")])
    assert dovetail_decide(yes, loop, "a", fuel=100) == "Accept"
    assert dovetail_decide(loop, yes, "a", fuel=100) == "Reject"
    assert dovetail_decide(no, loop, "a", fuel=100) == "FuelExhausted"


def test_dfa_nfa_behaviour():
    d = parse("tm", corpus_text("even_as.tm"))
    assert isinstance(d, Dfa)
    assert dfa_accepts(d, "") and dfa_accepts(d, "aba")
    assert not dfa_accepts(d, "a")
    assert not dfa_is_empty(d)

    n = parse("tm", corpus_text("contains11_nfa.tm"))
    assert isinstance(n, Nfa)
    for w in ["11", "011", "110", "0110"]:
        assert nfa_accepts(n, w), w
    for w in ["", "0", "101", "1010"]:
        assert not nfa_accepts(n, w), w


def test_nfa_agrees_with_guesser():
    n = parse("tm", corpus_text("contains11_nfa.tm"))
    m = _g11()
    for k in range(0, 6):
        for w in map("".join, itertools.product("01", repeat=k)):
            assert nfa_accepts(n, w) == (nd_run(m, w, max_depth=12) == "Accept")
