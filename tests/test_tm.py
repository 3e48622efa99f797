"""Multitape machine core: matching, stepping, running, unary convention."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from churing.errors import ValidationError
from churing.formats import parse
from churing.prf import stdlib
from churing.prf_to_tm import compile_prf_to_tm
from churing.tm import (
    Configuration, MachineSpec, Tape, decode_unary, encode_unary,
    initial_configuration, make_machine, numeric_layout, run, run_numeric, successors,
)
from conftest import corpus_text


def zeros_then_ones():
    """The {0^n 1^n} decider of the corpus."""
    return parse("tm", corpus_text("onon.tm"))


def identity_numeric():
    """The numeric identity of the corpus: its start state accepts."""
    return parse("tm", corpus_text("identity.tm"))


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


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=300))
def test_unary_round_trip(n):
    assert decode_unary(encode_unary(n)) == n


def test_run_numeric_identity():
    m = identity_numeric()
    for n in range(5):
        assert run_numeric(m, [n], fuel=100) == n


def test_run_numeric_wants_no_more_arguments_than_tapes():
    copier = parse("tm", corpus_text("copier.tm"))  # two tapes
    with pytest.raises(ValidationError, match="3 input words for 2 tapes"):
        run_numeric(copier, [1, 2, 3], fuel=100)


def test_run_numeric_reads_the_output_tape_numeric_layout_names():
    """The default output tape is the layout's; an explicit one must be a
    tape of the machine, and is read as given."""
    m, layout = compile_prf_to_tm(stdlib("add"))
    assert numeric_layout(m, 2).output_tape == layout.output_tape == 3
    assert run_numeric(m, [2, 3], fuel=10_000) == 5
    assert run_numeric(m, [2, 3], fuel=10_000, output_tape=layout.output_tape) == 5
    assert run_numeric(m, [2, 3], fuel=10_000, output_tape=1) == 2  # the first argument
    for bad in (0, m.tapes + 1):
        with pytest.raises(ValidationError, match=f"no tape {bad} on a {m.tapes}-tape machine"):
            run_numeric(m, [2, 3], fuel=10_000, output_tape=bad)


def test_tape_content_strips_blanks():
    t = Tape.from_word("_ab_")
    assert t.content() == "ab"
    # a tape is its cells from cell 0, trailing blanks trimmed
    assert t == Tape("_ab") and t.read(0) == "_" and t.read(2) == "b" and t.read(9) == "_"
    assert t.write(5, "a") == Tape("_ab__a") and t.write(2, "_") == Tape("_a")
    assert t.write(0, "a").content() == "aab" and Tape.from_word("__") == Tape()


def test_step_is_pure():
    m = zeros_then_ones()
    c = initial_configuration(m, ["01"])
    n1 = successors(m, c)
    n2 = successors(m, c)
    assert n1 == n2 and len(n1) == 1 and c.steps_taken == 0


def test_successors_refuses_a_head_left_of_cell_0():
    m = make_machine(name="left", states=["q"], initial="q", accept=[], input_alphabet=["a", "b"],
                     tape_alphabet=["a", "b", "_"], tapes=1, rules=[("q", "*", "q", "*", "L")])
    c = Configuration("q", (Tape.from_word("ab"),), (-1,))
    with pytest.raises(ValidationError, match="head 1 at cell -1, left of cell 0"):
        successors(m, c)


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
    from churing.transform import to_single_tape

    single = to_single_tape(parse("tm", corpus_text("copier.tm")))

    def refuse(*_):
        raise AssertionError("overlap check ran on concrete keys")

    monkeypatch.setattr(tm.RuleIndex, "_match", refuse)
    rules = [("q", x + y, "q", "**", "RR") for x in "ab_" for y in "ab_"]
    m = make_machine(name="grid", states=["q"], initial="q", accept=[],
                     input_alphabet=["a", "b"], tape_alphabet=["a", "b", "_"],
                     tapes=2, rules=rules)
    assert m.deterministic
    assert replace(single).deterministic


def test_machine_is_validated_when_built():
    from churing.tm import MachineSpec
    m = zeros_then_ones()
    fields = dict(name="z", states=m.states, initial=m.initial, accept=m.accept,
                  input_alphabet=m.input_alphabet, tape_alphabet=m.tape_alphabet,
                  tapes=1, delta=m.delta)
    built = MachineSpec(**fields)
    assert built.deterministic and built.index is not None
    assert run(built, "01", fuel=100).tag == "Accept"
    with pytest.raises(ValidationError, match="initial state 'nope' not declared"):
        MachineSpec(**{**fields, "initial": "nope"})
    with pytest.raises(ValidationError, match=r"read on tape 1, not one of 0\.\.0"):
        replace(_two_tape_overlap(), tapes=1)
    renamed = replace(m, name="again")
    assert renamed.deterministic and renamed.index is not m.index
    with pytest.raises(TypeError):
        MachineSpec(**fields, deterministic=False)


def _sparse_pair(delta):
    """A two-tape machine over {0, _} with the stored rules ``delta``."""
    return MachineSpec(name="t", states=frozenset("ab"), initial="a", accept=frozenset(),
                       input_alphabet=frozenset("0"), tape_alphabet=frozenset("0_"), tapes=2,
                       delta=delta)


@pytest.mark.parametrize("key, target, error", [
    (((2, "0"),), ((), ()), "read on tape 2, not one of 0..1"),
    ((), (((-1, "0"),), ()), "write on tape -1, not one of 0..1"),
    ((), ((), (("1", "R"),)), "move on tape '1', not one of 0..1"),
    (((1, "0"), (0, "0")), ((), ()), "read tapes repeated or out of order in ((1, '0'), (0, '0'))"),
    ((), (((0, "0"), (0, "_")), ()), "write tapes repeated or out of order in ((0, '0'), (0, '_'))"),
    ((), ((), ((1, "L"), (0, "R"))), "move tapes repeated or out of order in ((1, 'L'), (0, 'R'))"),
    (((0, "*"),), ((), ()),
     "read '*' on tape 0 is stored: a rule leaves out the tapes it does not read"),
    ((), (((1, "*"),), ()),
     "write '*' on tape 1 is stored: a rule leaves out the tapes it does not write"),
    ((), ((), ((0, "S"),)),
     "move 'S' on tape 0 is stored: a rule leaves out the tapes it does not move"),
    (((0, "1"),), ((), ()), "read symbol '1' outside tape alphabet"),
    ((), ((), ((0, "U"),)), "move 'U' is not one of ('L', 'R', 'S')"),
], ids=["read-tape", "write-tape", "move-tape", "read-order", "write-repeat", "move-order",
        "star-read", "star-write", "stay", "read-symbol", "move"])
def test_a_stored_rule_names_each_tape_once_in_order(key, target, error):
    assert _sparse_pair({("a", ((0, "0"),)): (("b", ((1, "0"),), ((0, "R"),)),)}).deterministic
    with pytest.raises(ValidationError) as info:
        _sparse_pair({("a", key): (("b", *target),)})
    assert str(info.value) == error


@pytest.mark.parametrize("writes, moves, error", [
    (("0",), ("R", "S"), "write/move vectors must match tape count"),
    (("0", "0"), ("R",), "write/move vectors must match tape count"),
    (("0", "0"), ("R", "U"), "move 'U' is not one of ('L', 'R', 'S')"),
], ids=["short-writes", "short-moves", "move"])
def test_make_machine_refuses_what_no_tm_file_reaches(writes, moves, error):
    # `parse_tm` refuses both first, at the line of the vector
    with pytest.raises(ValidationError) as info:
        make_machine(name="t", states=["a"], initial="a", accept=[], input_alphabet=["0"],
                     tape_alphabet=["0", "_"], tapes=2,
                     rules=[("a", ("0", "0"), "a", writes, moves)])
    assert str(info.value) == error


def test_derived_fields_cannot_be_forged():
    # the flag and the index come from the rules, never from the caller
    overlap = _two_tape_overlap()
    two = make_machine(name="two", states=["a", "b", "c"], initial="a", accept=["c"],
                       input_alphabet=["1"], tape_alphabet=["0", "1", "_"], tapes=1,
                       rules=[("a", "1", "b", "1", "R"), ("a", "1", "c", "0", "R")])
    for m in (overlap, two):
        assert not m.deterministic
        with pytest.raises(ValueError, match="init=False"):
            replace(m, deterministic=True)
        with pytest.raises(ValueError, match="init=False"):
            replace(m, index=None)


def test_word_outside_input_alphabet_is_refused():
    from churing.transform import decide_combine, nd_run, to_single_tape
    from tm_reference import dovetail_decide

    copier = parse("tm", corpus_text("copier.tm"))
    single = to_single_tape(copier)
    for m in (copier, single):
        with pytest.raises(ValidationError, match="outside input alphabet"):
            run(m, "a_b", fuel=1000)
        with pytest.raises(ValidationError, match="outside input alphabet"):
            initial_configuration(m, ["c"])
    with pytest.raises(ValidationError, match="outside input alphabet"):
        nd_run(copier, "a_b", max_depth=5)
    with pytest.raises(ValidationError, match="outside input alphabet"):
        dovetail_decide(copier, single, "ab_", fuel=100)
    with pytest.raises(ValidationError, match="outside input alphabet"):
        decide_combine("complement", copier, None, "_", fuel=100)
    assert run(copier, "ab", fuel=1000).tag == run(single, "ab", fuel=100_000).tag == "Accept"
    # the unary convention still starts with a blank cell 0
    assert run_numeric(identity_numeric(), [3], fuel=10) == 3


def test_initial_configuration_refuses_a_head_left_of_cell_0():
    m = zeros_then_ones()
    with pytest.raises(ValidationError, match="head 1 at cell -2, left of cell 0"):
        initial_configuration(m, ["0011"], heads=(-2,))
    assert initial_configuration(m, ["0011"], heads=(3,)).heads == (3,)


def test_run_refuses_a_start_with_a_head_left_of_cell_0():
    m = zeros_then_ones()
    start = Configuration(m.initial, (Tape.from_word("0011"),), (-2,))
    with pytest.raises(ValidationError, match="head 1 at cell -2, left of cell 0"):
        run(m, "", fuel=10, start=start)


def test_a_start_off_the_tape_alphabet_is_refused_everywhere():
    # over {a, _} a rank-3 key decides every scan that both rank-1 keys
    # match, so the machine is deterministic; a `z` under head 1 would let
    # the two rank-1 keys tie
    from churing.transform import single_tape_start
    m = make_machine(name="tie", states=["q", "A", "B"], initial="q", accept=["A"],
                     input_alphabet=["a"], tape_alphabet=["a", "_"], tapes=3,
                     rules=[("q", "*a*", "A", "***", "SSS"), ("q", "**a", "B", "***", "SSS"),
                            ("q", "aaa", "A", "***", "SSS"), ("q", "_aa", "B", "***", "SSS")])
    assert m.deterministic
    z = Configuration("q", (Tape("z"), Tape("a"), Tape("a")), (0, 0, 0))
    for go in (lambda: run(m, "", fuel=10, start=z), lambda: successors(m, z),
               lambda: single_tape_start(m, z),
               lambda: initial_configuration(m, ["", "z"], heads=(0, 0, 0))):
        with pytest.raises(ValidationError, match="'z' on tape [12] outside tape alphabet"):
            go()
    ok = replace(z, tapes=(Tape("_a"), Tape("a"), Tape("a")))
    assert run(m, "", fuel=10, start=ok).final.state == "B"
    assert [c.state for c in successors(m, ok)] == ["B"]

    copier = parse("tm", corpus_text("copier.tm"))
    start = Configuration(copier.initial, (Tape("z"), Tape()), (0, 0))
    for go in (lambda: run(copier, "", fuel=100, start=start),
               lambda: single_tape_start(copier, start)):
        with pytest.raises(ValidationError, match="'z' on tape 1 outside tape alphabet"):
            go()


@pytest.mark.parametrize("heads", [(0,), (0, 0, 0)])
def test_initial_configuration_wants_one_head_per_tape(heads):
    copier = parse("tm", corpus_text("copier.tm"))  # two tapes
    with pytest.raises(ValidationError, match="heads for a 2-tape machine"):
        initial_configuration(copier, ["ab"], heads=heads)
    assert initial_configuration(copier, ["ab"], heads=(0, 0)).heads == (0, 0)


def test_run_wants_a_start_with_one_tape_and_one_head_per_tape():
    copier = parse("tm", corpus_text("copier.tm"))
    start = initial_configuration(copier, ["ab"])
    for bad in (replace(start, heads=(0,)), replace(start, heads=(0, 0, 0)),
                replace(start, tapes=start.tapes[:1])):
        with pytest.raises(ValidationError, match="for a 2-tape machine"):
            run(copier, "", fuel=1000, start=bad)
    assert run(copier, "", fuel=1000, start=start).tag == "Accept"
    # a start built by hand with tape 2 blank is the start on the input "ab"
    built = Configuration(copier.initial, (Tape.from_word("ab"), Tape()), (0, 0))
    assert run(copier, "", fuel=1000, start=built).tag == run(copier, "ab", fuel=1000).tag \
        == "Accept"
