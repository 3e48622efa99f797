"""Multitape machine core: matching, stepping, running, unary convention."""

import pytest
from hypothesis import given, strategies as st

from churing.errors import ValidationError
from churing.tm import (
    BLANK, Tape, decode_unary, encode_unary, identity_numeric,
    initial_configuration, make_machine, run, run_numeric, step, successors,
    zeros_then_ones,
)


def test_zeros_then_ones_verdicts():
    m = zeros_then_ones()
    for w in ["", "01", "0011", "000111"]:
        assert run(m, w, fuel=1000).tag == "Accept", w
    for w in ["0", "1", "10", "0101", "001", "011"]:
        assert run(m, w, fuel=1000).tag == "Reject", w


def test_zeros_then_ones_is_quick():
    m = zeros_then_ones()
    for w in ["", "01", "0011", "000111", "0101", "001"]:
        out = run(m, w, fuel=1000)
        assert out.final.steps_taken < 1000


def test_accept_checked_before_stepping():
    # The initial state is accepting, so even a rule-free machine accepts.
    m = make_machine(name="t", states=["a"], initial="a", accept=["a"],
                     input_alphabet=["0"], tape_alphabet=["0", "_"],
                     tapes=1, rules=[])
    assert run(m, "0", fuel=10).tag == "Accept"


def test_semi_infinite_left_edge_rejects():
    m = make_machine(name="t", states=["a", "b"], initial="a", accept=["b"],
                     input_alphabet=["0"], tape_alphabet=["0", "_"], tapes=1,
                     rules=[("a", "0", "a", "0", "L")])
    assert run(m, "0", fuel=10).tag == "Reject"


def test_wildcard_specificity():
    # A specific rule must win over the wildcard one.
    m = make_machine(name="t", states=["a", "win", "lose"], initial="a",
                     accept=["win"], input_alphabet=["0", "1"],
                     tape_alphabet=["0", "1", "_"], tapes=1,
                     rules=[("a", "*", "lose", "*", "R"),
                            ("a", "1", "win", "1", "S")])
    assert run(m, "1", fuel=10).tag == "Accept"
    assert run(m, "0", fuel=10).tag == "Reject"  # lose has no accept


def test_wildcard_write_keeps_symbol():
    m = make_machine(name="t", states=["a", "b"], initial="a", accept=["b"],
                     input_alphabet=["0", "1"], tape_alphabet=["0", "1", "_"],
                     tapes=1, rules=[("a", "*", "b", "*", "S")])
    out = run(m, "1", fuel=10)
    assert out.final.tapes[0].content() == "1"


def test_nondeterministic_machines_refuse_run():
    m = make_machine(name="t", states=["a", "b", "c"], initial="a",
                     accept=["c"], input_alphabet=["0"],
                     tape_alphabet=["0", "_"], tapes=1,
                     rules=[("a", "0", "b", "0", "R"),
                            ("a", "0", "c", "0", "R")])
    assert not m.deterministic
    with pytest.raises(ValidationError):
        run(m, "0", fuel=10)
    c = initial_configuration(m, ["0"])
    assert len(successors(m, c)) == 2


def test_fuel_exhaustion_is_distinct_from_reject():
    m = make_machine(name="loop", states=["a", "b"], initial="a", accept=["b"],
                     input_alphabet=["0"], tape_alphabet=["0", "_"], tapes=1,
                     rules=[("a", "*", "a", "*", "R")])
    assert run(m, "0", fuel=25).tag == "FuelExhausted"


def test_unary_codec_values():
    assert encode_unary(0) == "0"
    assert encode_unary(3) == "111"
    assert decode_unary("0") == 0
    assert decode_unary("111") == 3


@given(st.integers(min_value=0, max_value=300))
def test_unary_round_trip(n):
    assert decode_unary(encode_unary(n)) == n


def test_run_numeric_identity():
    m = identity_numeric()
    for n in range(5):
        assert run_numeric(m, [n], fuel=100) == n


def test_tape_content_strips_blanks():
    t = Tape.from_word("_ab_")
    assert t.content() == "ab"


def test_step_is_pure():
    m = zeros_then_ones()
    c = initial_configuration(m, ["01"])
    n1 = step(m, c)
    n2 = step(m, c)
    assert n1 == n2 and c.steps_taken == 0


def _two_tape_overlap():
    """Rules of equal rank that the scan (a, _) matches both."""
    return make_machine(name="overlap", states=["q", "A", "B"], initial="q",
                        accept=["A"], input_alphabet=["a"],
                        tape_alphabet=["a", "_"], tapes=2,
                        rules=[("q", "a*", "A", "**", "SS"),
                               ("q", "*_", "B", "**", "SS")])


def test_equal_rank_overlap_is_nondeterministic():
    from churing.transform import to_single_tape
    m = _two_tape_overlap()
    assert not m.deterministic
    with pytest.raises(ValidationError, match="requires a deterministic machine"):
        run(m, "a", fuel=10)
    with pytest.raises(ValidationError, match="deterministic"):
        to_single_tape(m)


def test_overlap_covered_by_a_more_specific_rule_stays_deterministic():
    # BR1's v_cmp reads |,*,*,*,*,* and *,*,*,|,*,* at equal rank; the rule
    # |,*,*,|,*,* decides every scan both match.
    from churing.lam_to_tm import build_machine
    assert build_machine("BR1").deterministic


def test_overlap_cover_must_name_every_symbol():
    # (a,*,*) and (*,a,*) overlap on (a,a,x); rules (a,a,x) decide it only
    # when they name every x of the tape alphabet.
    gamma = ["a", "b", "_"]

    def machine(covered):
        rules = [("q", "a**", "q", "***", "RSS"), ("q", "*a*", "q", "***", "SRS")]
        rules += [("q", "aa" + x, "q", "***", "SSR") for x in covered]
        return make_machine(name="cover", states=["q"], initial="q", accept=[],
                            input_alphabet=["a", "b"], tape_alphabet=gamma,
                            tapes=3, rules=rules)

    assert machine(gamma).deterministic
    assert not machine(["a", "b"]).deterministic


def test_several_targets_count_only_where_no_specific_rule_overrides():
    # The wildcard key has two targets, but a concrete rule for every tape
    # symbol overrides it, so no scan reaches them.
    def machine(named):
        rules = [("q", "*", "q", "*", "L"), ("q", "*", "r", "*", "L")]
        rules += [("q", x, "r", "*", "R") for x in named]
        return make_machine(name="shadow", states=["q", "r"], initial="q",
                            accept=["r"], input_alphabet=["a"],
                            tape_alphabet=["a", "_"], tapes=1, rules=rules)

    m = machine(["a", "_"])
    assert m.deterministic
    assert run(m, "a", fuel=10).tag == "Accept"
    assert not machine(["a"]).deterministic
    concrete = make_machine(name="dup", states=["q"], initial="q", accept=[],
                            input_alphabet=["a"], tape_alphabet=["a", "_"], tapes=1,
                            rules=[("q", "a", "q", "a", "R"), ("q", "a", "q", "a", "R")])
    assert not concrete.deterministic


def test_concrete_states_skip_the_overlap_check(monkeypatch):
    import churing.tm as tm
    from churing.formats import parse
    from churing.transform import to_single_tape
    from conftest import corpus_text

    single = to_single_tape(parse("tm", corpus_text("copier.tm")))

    def refuse(*_):
        raise AssertionError("overlap check ran on concrete keys")

    monkeypatch.setattr(tm, "_overlap", refuse)
    rules = [("q", x + y, "q", "**", "RR") for x in "ab_" for y in "ab_"]
    m = make_machine(name="grid", states=["q"], initial="q", accept=[],
                     input_alphabet=["a", "b"], tape_alphabet=["a", "b", "_"],
                     tapes=2, rules=rules)
    assert m.deterministic
    assert tm.validate_machine(single).deterministic


def test_unvalidated_machine_is_refused():
    from dataclasses import replace
    m = replace(zeros_then_ones(), index=None)
    with pytest.raises(ValidationError, match="not validated"):
        run(m, "01", fuel=100)
