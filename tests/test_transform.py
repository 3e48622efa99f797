"""Machine transformations: single-tape squeeze, NDTM search, combinators."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import tm_reference as ref

from churing import transform
from churing.cli import cli
from churing.errors import NotADecider, ValidationError
from churing.formats import parse, print_tm
from churing.lam_to_tm import SUITE, build_machine
from churing.prf import Proj, stdlib
from churing.prf_to_tm import compile_prf_to_tm
from churing.tm import (
    FUEL_EXHAUSTED, WILD, Configuration, MachineSpec, initial_configuration, make_machine,
    numeric_start, run,
)
from churing.transform import (
    ENTRY, Dfa, Nfa, decide_combine, dfa_accepts, nd_run, nfa_accepts,
    single_tape_segments, single_tape_start, to_single_tape,
)

from conftest import CORPUS, corpus_text


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


# --- the squeezed machine against its host --------------------------------

SINGLE_FUEL = 10 ** 6  # squeezed steps; far above what 60 host steps of 5 tapes take


def _agrees(host: MachineSpec, single: MachineSpec, out, start=None, word=""):
    """The squeezed run from ``start`` (default: on ``word``) halts like the
    host run ``out``, with the host's tapes as its segments."""
    got = run(single, word, SINGLE_FUEL, start=start)
    assert got.tag == out.tag
    assert single_tape_segments(host, got.final) == [t.content() for t in out.final.tapes]


def test_single_tape_growth_shifts_past_blanks_of_later_segments():
    # tape 1 grows twice while tape 2 holds a blank it walked over
    m = make_machine(name="grow", states=["q0", "q2", "q3"], initial="q0", accept=["q3"],
                     input_alphabet="ab", tape_alphabet="_ab", tapes=2,
                     rules=[("q0", "**", "q2", "**", "RR"), ("q2", "**", "q3", "**", "RS")])
    out = run(m, "", 60)
    assert out.tag == "Accept"
    _agrees(m, to_single_tape(m), out)


def test_single_tape_left_move_off_cell_zero_writes_nothing():
    m = make_machine(name="stuck", states=["q0"], initial="q0", accept=[],
                     input_alphabet="ab", tape_alphabet="_ab", tapes=2,
                     rules=[("q0", "**", "q0", "__", "LL")])
    out = run(m, "a", 60)
    assert out.tag == "Reject" and [t.content() for t in out.final.tapes] == ["a", ""]
    _agrees(m, to_single_tape(m), out, word="a")


@st.composite
def _multitape_machines(draw):
    """Deterministic machines of 2-5 tapes over {_,a,b}: each state reads a
    subset of the tapes (maybe none), has a rule for some scans of it, and
    writes and moves any tape, read or not."""
    k = draw(st.integers(2, 5))
    states = ["q0", "q1", "q2"]
    rules = []
    for q in states:
        read = sorted(draw(st.sets(st.integers(0, k - 1))))
        scans = draw(st.lists(st.tuples(*[st.sampled_from("_ab")] * len(read)),
                              unique=True, min_size=1, max_size=4))
        for scan in scans:
            key = ["*"] * k
            for t, c in zip(read, scan):
                key[t] = c
            rules.append((q, key, draw(st.sampled_from(states + ["acc"])),
                          draw(st.lists(st.sampled_from("_ab*"), min_size=k, max_size=k)),
                          draw(st.lists(st.sampled_from("LRRS"), min_size=k, max_size=k))))
    return make_machine(name="gen", states=states + ["acc"], initial="q0", accept=["acc"],
                        input_alphabet="ab", tape_alphabet="_ab", tapes=k, rules=rules)


@settings(max_examples=120, deadline=None)
@given(_multitape_machines(), st.text(alphabet="ab", max_size=3))
def test_single_tape_agrees_with_generated_hosts(m, word):
    assert m.deterministic
    out = run(m, word, 60)
    if out.tag != FUEL_EXHAUSTED:
        _agrees(m, to_single_tape(m), out, word=word)


def test_single_tape_agrees_on_corpus_machines():
    words = ["", "0", "1", "a", "b", "01", "11", "ab", "ba", "0110", "abba", "1101"]
    checked = 0
    for f in sorted(CORPUS.glob("*.tm")):
        m = parse("tm", f.read_text())
        if not isinstance(m, MachineSpec) or not m.deterministic:
            continue
        single = to_single_tape(m)
        if m.tapes == 1:
            assert single is m
            continue
        for w in words:
            if not set(w) <= m.input_alphabet:
                continue
            out = run(m, w, 2000)
            if out.tag != FUEL_EXHAUSTED:
                _agrees(m, single, out, word=w)
                checked += 1
    assert checked == 20  # copier, zero2_compiled and add_compiled halt on every word


@pytest.mark.parametrize("fn", ["P 1 1", "pred", "sg", "add", "monus"])
def test_single_tape_agrees_on_compiled_functions(fn):
    host = compile_prf_to_tm(Proj(1, 1) if fn == "P 1 1" else stdlib(fn))[0]
    single = to_single_tape(host)
    arity = 2 if fn in ("add", "monus") else 1
    for args in itertools.product(range(4), repeat=arity):
        c = numeric_start(host, args)
        out = run(host, "", 10 ** 5, start=c)
        assert out.tag == "Accept"
        _agrees(host, single, out, start=single_tape_start(host, c))


# (verdict, steps_taken, segments) of squeezed runs, recorded before the
# squeeze keyed its states on the residual host step: the fuel a squeezed
# run spends must not move when its control states change.
SQUEEZED_STEPS = {
    ("pred", (0,)): ("Accept", 2748, ["0", "0", "0", "0"]),
    ("pred", (1,)): ("Accept", 6164, ["1", "0", "1", "0"]),
    ("pred", (2,)): ("Accept", 10614, ["11", "1", "11", "1"]),
    ("pred", (3,)): ("Accept", 17744, ["111", "11", "111", "11"]),
    ("sg", (0,)): ("Accept", 3486, ["0", "0", "0", "0", ""]),
    ("sg", (1,)): ("Accept", 8312, ["1", "1", "1", "1", "0"]),
    ("sg", (2,)): ("Accept", 14652, ["11", "1", "11", "1", "0"]),
    ("sg", (3,)): ("Accept", 22276, ["111", "1", "111", "1", "0"]),
    ("add", (0, 0)): ("Accept", 5336, ["0", "0", "0", "0", "0", ""]),
    ("add", (1, 2)): ("Accept", 27176, ["1", "11", "111", "11", "111", "11"]),
    ("add", (2, 1)): ("Accept", 18112, ["11", "1", "111", "1", "111", "11"]),
    ("add", (3, 2)): ("Accept", 45086, ["111", "11", "11111", "11", "11111", "1111"]),
    ("monus", (0, 0)): ("Accept", 7296, ["0", "0", "0", "0", "0", "", "", ""]),
    ("monus", (1, 2)): ("Accept", 38612, ["1", "11", "0", "11", "0", "0", "0", "0"]),
    ("monus", (2, 1)): ("Accept", 35984, ["11", "1", "1", "1", "1", "11", "11", "1"]),
    ("monus", (3, 2)): ("Accept", 93226, ["111", "11", "1", "11", "1", "11", "11", "1"]),
    ("copier.tm", ""): ("Accept", 40, ["", ""]),
    ("copier.tm", "a"): ("Accept", 98, ["a", "a"]),
    ("copier.tm", "ab"): ("Accept", 166, ["ab", "ab"]),
    ("copier.tm", "abba"): ("Accept", 356, ["abba", "abba"]),
    ("copier.tm", "babab"): ("Accept", 478, ["babab", "babab"]),
    ("add_compiled.tm", ""): ("Reject", 64, ["", "", "", "", "", ""]),
    ("add_compiled.tm", "0"): ("Reject", 64, ["0", "", "", "", "", ""]),
    ("add_compiled.tm", "1"): ("Reject", 64, ["1", "", "", "", "", ""]),
    ("add_compiled.tm", "01"): ("Reject", 69, ["01", "", "", "", "", ""]),
    ("add_compiled.tm", "110"): ("Reject", 74, ["110", "", "", "", "", ""]),
    ("zero2_compiled.tm", ""): ("Accept", 56, ["", "", "0"]),
    ("zero2_compiled.tm", "1"): ("Accept", 56, ["1", "", "0"]),
    ("zero2_compiled.tm", "01"): ("Accept", 64, ["01", "", "0"]),
}


@pytest.mark.parametrize("name", ["pred", "sg", "add", "monus",
                                  "copier.tm", "add_compiled.tm", "zero2_compiled.tm"])
def test_squeezed_step_counts_are_pinned(name):
    corpus = name.endswith(".tm")
    host = parse("tm", corpus_text(name)) if corpus else compile_prf_to_tm(stdlib(name))[0]
    single = to_single_tape(host)
    for (fn, arg), pin in SQUEEZED_STEPS.items():
        if fn != name:
            continue
        start = None if corpus else single_tape_start(host, numeric_start(host, arg))
        out = run(single, arg if corpus else "", 10 ** 6, start=start)
        got = (out.tag, out.final.steps_taken, single_tape_segments(host, out.final))
        assert got == pin, (fn, arg)


def test_single_tape_segments_undo_single_tape_start():
    copier, pred = _copier(), compile_prf_to_tm(stdlib("pred"))[0]
    starts = [(copier, initial_configuration(copier, [w])) for w in ["", "a", "abba"]]
    starts.append((copier, initial_configuration(copier, ["ab", "b"], heads=(4, 0))))
    starts += [(pred, numeric_start(pred, [n])) for n in range(4)]
    for host, c in starts:
        sq = single_tape_start(host, c)
        assert (sq.state, sq.heads) == (ENTRY, (0,))
        assert single_tape_segments(host, sq) == [t.content() for t in c.tapes]
    with pytest.raises(ValidationError, match="initial state"):
        single_tape_start(copier, run(copier, "ab", 10).final)
    tapes = initial_configuration(copier, ["ab"]).tapes
    with pytest.raises(ValidationError, match="head 1 at cell -1, left of cell 0"):
        single_tape_start(copier, Configuration(copier.initial, tapes, (-1, 0)))
    with pytest.raises(ValidationError, match="1 tapes and 1 heads for a 2-tape machine"):
        single_tape_start(copier, Configuration(copier.initial, tapes[:1], (0,)))
    ends1 = _ends1()  # one tape: the machine squeezes to itself, and its start too
    c = initial_configuration(ends1, ["0110"])
    assert single_tape_start(ends1, c) is c


@pytest.mark.parametrize("name", ["copier.tm", "add_compiled.tm", "zero2_compiled.tm", "pred"])
def test_single_tape_entry_is_where_the_blank_run_first_gathers(name):
    host = (compile_prf_to_tm(stdlib(name))[0] if name == "pred"
            else parse("tm", corpus_text(name)))
    single = to_single_tape(host)
    blank = single_tape_start(host, initial_configuration(host, [])).tapes
    trace = run(single, "", 1000, want_trace=True).trace
    # the first configuration at cell 0 over the blank layout rewinds onto
    # cell 0; its next step, in place, enters ENTRY
    at = next(i for i, s in enumerate(trace) if s.heads == (0,) and s.tapes == blank)
    assert ENTRY not in {s.state for s in trace[:at + 1]}
    assert (trace[at + 1].state, trace[at + 1].heads, trace[at + 1].tapes) == (ENTRY, (0,), blank)


def test_single_tape_of_compiled_pred_is_small():
    assert len(to_single_tape(compile_prf_to_tm(stdlib("pred"))[0]).states) <= 3100


# (rules, bytes of print_tm) of squeezed compiled functions when every
# (state, symbol) pair with a step had a row of its own
DENSE_SIZE = {"pred": (26_590, 556_603), "sg": (40_026, 847_745), "add": (53_967, 1_149_894),
              "monus": (104_678, 2_282_894)}


@pytest.mark.parametrize("fn", sorted(DENSE_SIZE))
def test_squeezed_star_rows_cut_rules_and_text_by_two_fifths(fn):
    single = to_single_tape(compile_prf_to_tm(stdlib(fn))[0])
    rules, size = DENSE_SIZE[fn]
    assert len(single.delta) <= 0.6 * rules
    assert len(print_tm(single)) <= 0.6 * size


@pytest.mark.parametrize("name", ["copier.tm", "pred"])
def test_squeezed_star_rows_fold_each_full_state_s_largest_class(name):
    host = (compile_prf_to_tm(stdlib(name))[0] if name == "pred"
            else parse("tm", corpus_text(name)))
    single = to_single_tape(host)
    classes = {}  # state -> target -> symbols, of the table with no `*` row
    for (q, (c,)), [(nxt, (w,), mv)] in ref.dense(ref.explicit_rows(single)).items():
        classes.setdefault(q, {}).setdefault((nxt, WILD if w == c else w, mv), []).append(c)
    table = ref.dense(single)
    folded = 0
    for q, by_target in classes.items():
        star = table.get((q, (WILD,)))
        full = sum(map(len, by_target.values())) == len(single.tape_alphabet)
        # the largest class; of equal ones, the one whose first symbol sorts first
        largest = min(by_target.values(), key=lambda cs: (-len(cs), min(cs)))
        if not full or len(largest) == 1:
            assert star is None, q
            continue
        folded += 1
        [(nxt, (w,), mv)] = star
        assert by_target[nxt, w, mv] is largest, q
        assert all((q, (c,)) not in table for c in largest)
    assert folded > 0


def test_equivalent_states_finds_a_known_duplicate_pair():
    # b1 and b2 differ in name only, each looping on x; c steps as they do
    # but moves left; e1 and e2 differ only two steps on, in the state they
    # reach: acc accepts, h does not
    m = make_machine(name="dup", states=["a", "b1", "b2", "c", "e1", "e2", "f1", "f2", "h", "acc"],
                     initial="a", accept=["acc"], input_alphabet="xy", tape_alphabet="_xy",
                     tapes=1, rules=[
                         ("a", ["x"], "b1", ["x"], ["R"]), ("a", ["y"], "b2", ["y"], ["R"]),
                         ("a", ["_"], "c", ["_"], ["S"]),
                         ("b1", ["x"], "b1", ["*"], ["R"]), ("b1", ["_"], "acc", ["_"], ["S"]),
                         ("b2", ["x"], "b2", ["x"], ["R"]), ("b2", ["_"], "acc", ["*"], ["S"]),
                         ("c", ["x"], "c", ["x"], ["R"]), ("c", ["_"], "acc", ["_"], ["L"]),
                         ("e1", ["*"], "f1", ["*"], ["R"]), ("f1", ["*"], "acc", ["*"], ["S"]),
                         ("e2", ["*"], "f2", ["*"], ["R"]), ("f2", ["*"], "h", ["*"], ["S"])])
    assert ref.equivalent_states(m) == [frozenset({"b1", "b2"})]


def test_squeezed_machines_have_no_equivalent_states():
    hosts = [compile_prf_to_tm(stdlib(fn))[0] for fn in ("pred", "sg", "add")]
    for f in sorted(CORPUS.glob("*.tm")):
        m = parse("tm", f.read_text())
        if isinstance(m, MachineSpec) and m.deterministic and m.tapes > 1:
            hosts.append(m)
    assert len(hosts) == 6  # and add_compiled, copier and zero2_compiled
    # two accepting states and two with no rule, each pair reached by one step
    hosts.append(make_machine(
        name="ends", states=["q", "a1", "a2", "h1", "h2"], initial="q", accept=["a1", "a2"],
        input_alphabet="ab", tape_alphabet="_ab", tapes=2,
        rules=[("q", "a*", "a1", "**", "RS"), ("q", "b*", "a2", "**", "RS"),
               ("q", "_a", "h1", "**", "SR"), ("q", "__", "h2", "**", "SR")]))
    for host in hosts:
        assert ref.equivalent_states(to_single_tape(host)) == [], host.name


def test_single_tape_refuses_what_the_layout_cannot_hold():
    def machine(gamma):
        return make_machine(name="m", states=["q"], initial="q", accept=["q"],
                            input_alphabet="a", tape_alphabet=gamma, tapes=2, rules=[])

    with pytest.raises(ValidationError, match="separator"):
        to_single_tape(machine("_a#"))
    for name in SUITE:  # every lambda machine writes "#"
        with pytest.raises(ValidationError, match="separator"):
            to_single_tape(build_machine(name))
    with pytest.raises(ValidationError, match="dotted glyphs"):
        to_single_tape(machine("_a" + "ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    assert to_single_tape(machine("_a" + "ABCDEFGHIJKLMNOPQRS")).tapes == 1  # 21 of 21


# copier squeezes to 83 states: under a cap of 10 the residual nodes of its
# steps pass it first, under 40 the control states do
@pytest.mark.parametrize("cap, where", [(10, "residual"), (40, "to_single_tape")])
def test_single_tape_refuses_past_max_states(monkeypatch, capsys, cap, where):
    assert len(to_single_tape(_copier()).states) == 83
    monkeypatch.setattr(transform, "MAX_STATES", cap)
    with pytest.raises(ValidationError) as info:
        to_single_tape(_copier())
    assert str(info.value) == (f"single-tape compilation of 'copier' needs more than "
                               f"MAX_STATES = {cap} states")
    assert info.traceback[-1].name == where
    assert cli(["transform", "--single-tape", str(CORPUS / "copier.tm")]) == 3
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("pqr"), st.sampled_from("01_*"), st.sampled_from("pqra"),
                          st.sampled_from("01_*"), st.sampled_from("LRS")), max_size=8),
       st.text(alphabet="01", max_size=4), st.integers(0, 6))
def test_nd_run_matches_brute_force_on_generated_machines(rules, word, depth):
    m = make_machine(name="gen", states="pqra", initial="p", accept=["a"],
                     input_alphabet="01", tape_alphabet="01_", tapes=1, rules=rules)
    want = ref.brute_force_accepts(m, word, depth)
    assert (nd_run(m, word, max_depth=depth) == "Accept") == want


def test_nd_run_guesser_depth_ten_is_fast():
    m = _g11()
    started = time.perf_counter()
    assert nd_run(m, "010101011", max_depth=10) == "Accept"
    assert nd_run(m, "010101010", max_depth=10) == "NotFound"
    assert time.perf_counter() - started < 0.2


def test_nd_run_budgets_are_natural_numbers():
    m = parse("tm", corpus_text("contains11_guesser.tm"))
    with pytest.raises(ValidationError, match="max_depth must be a natural number"):
        nd_run(m, "011", max_depth=-1)
    assert nd_run(m, "011", max_depth=0) == "NotFound"
    with pytest.raises(ValidationError, match="fuel must be a natural number"):
        ref.dovetail_decide(m, m, "011", fuel=-1)


def test_nd_run_decides_at_exactly_max_depth():
    # a walker that accepts at depth 5, and on no branch before it
    m = make_machine(name="walk", states=["w", "a"], initial="w", accept=["a"],
                     input_alphabet=["1"], tape_alphabet=["1", "_"], tapes=1,
                     rules=[("w", "1", "w", "1", "R"), ("w", "_", "a", "_", "S")])
    assert nd_run(m, "1111", max_depth=4) == "NotFound"
    assert nd_run(m, "1111", max_depth=5) == "Accept"


def test_single_tape_refuses_ambiguous_targets():
    # a machine with an equal-rank overlap cannot be marked deterministic,
    # so to_single_tape sees it as it is and refuses it
    from dataclasses import replace
    m = make_machine(name="overlap", states=["q", "A", "B"], initial="q",
                     accept=["A"], input_alphabet=["a"], tape_alphabet=["a", "_"],
                     tapes=2, rules=[("q", "a*", "A", "**", "SS"),
                                     ("q", "*_", "B", "**", "SS")])
    assert not m.deterministic
    with pytest.raises(ValueError, match="init=False"):
        replace(m, deterministic=True)
    with pytest.raises(ValidationError, match="requires a deterministic machine"):
        to_single_tape(m)


def test_nd_run_on_deterministic_machine():
    m = parse("tm", corpus_text("onon.tm"))
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
    assert ref.dovetail_decide(yes, loop, "a", fuel=100) == "Accept"
    assert ref.dovetail_decide(loop, yes, "a", fuel=100) == "Reject"
    assert ref.dovetail_decide(no, loop, "a", fuel=100) == "FuelExhausted"


def test_dfa_nfa_behaviour():
    d = parse("tm", corpus_text("even_as.tm"))
    assert isinstance(d, Dfa)
    assert dfa_accepts(d, "") and dfa_accepts(d, "aba")
    assert not dfa_accepts(d, "a")
    assert not ref.dfa_is_empty(d)

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
