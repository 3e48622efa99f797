"""The shared transition resolver against the reference step loop.

`tm_reference` keeps the original semantics (rescan every rule, read every
tape, rebuild written tapes).  `churing.tm.run` must agree with it on the
tag, the final configuration, `steps_taken` and the trace, on the corpus,
the compiled stdlib, the lambda machine suite, generated machines (also
from start configurations built directly) and machines built to sweep,
and a built machine must be deterministic exactly when no scan vector is
ambiguous under the reference matcher.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import tm_reference as ref
from churing.errors import ValidationError
from churing.formats import parse
from churing.lam import Abs, App, Var, canonical_binders, lam
from churing.lam_to_tm import build_machine, render_with_names
from churing.prf import arity_check
from churing.tm import (
    BLANK, MOVES, WILD, Configuration, MachineSpec, Tape,
    initial_configuration, make_machine, numeric_start, run, successors,
)

from conftest import CORPUS


def _agree(m, word="", fuel=10**6, start=None):
    """run and the reference agree, with and without a trace; returns the
    reference outcome."""
    want = ref.run(m, word, fuel, start=start)
    got = run(m, word, fuel, start=start)
    assert (got.tag, got.final, got.trace) == (want.tag, want.final, None)
    assert got.final.steps_taken == want.final.steps_taken
    got_t = run(m, word, fuel, want_trace=True, start=start)
    want_t = ref.run(m, word, fuel, want_trace=True, start=start)
    assert (got_t.tag, got_t.final, got_t.trace) == (want_t.tag, want_t.final, want_t.trace)
    return want


def _fuel_sweep(m, word="", start=None, cap=10**6):
    """Agreement at every fuel from 0 to one past the halting step."""
    n = ref.run(m, word, cap, start=start).final.steps_taken
    for fuel in range(n + 2):
        _agree(m, word, fuel, start=start)


def _corpus_machines():
    out = []
    for f in sorted(CORPUS.glob("*.tm")):
        m = parse("tm", f.read_text())
        if isinstance(m, MachineSpec):
            out.append(pytest.param(m, id=f.name))
    return out


@pytest.mark.parametrize("m", _corpus_machines())
def test_corpus_machines_agree(m):
    syms = sorted(m.input_alphabet)
    words = ["".join(w) for n in range(5) for w in itertools.product(syms, repeat=n)]
    if not m.deterministic:
        with pytest.raises(ValidationError):
            run(m, words[0], 10)
        for w in words:
            level = [initial_configuration(m, [w])]
            for _ in range(6):
                nxt = []
                for c in level:
                    assert successors(m, c) == ref.successors(m, c)
                    nxt.extend(ref.successors(m, c))
                level = nxt
        return
    for w in words:
        _agree(m, w, fuel=50_000)
    _fuel_sweep(m, words[-1])


@pytest.mark.parametrize("m, arity", [pytest.param(m, arity_check(e), id=name)
                                      for name, (e, m, _) in ref.compiled_stdlib().items()])
def test_compiled_stdlib_agrees(m, arity):
    for args in itertools.product(range(3), repeat=arity):
        _agree(m, start=numeric_start(m, args), fuel=200_000)
    start = numeric_start(m, (1,) * arity)
    n = ref.run(m, "", 200_000, start=start).final.steps_taken
    for fuel in sorted({0, 1, 2, n // 3, n // 2, n - 1, n, n + 1}):
        _agree(m, start=start, fuel=fuel)


def _suite_wires():
    x, y = Var("x"), Var("y")
    terms = [x, lam(["x"], x), App(lam(["x"], x), lam(["y"], y)),
             App(lam(["x"], App(x, x)), lam(["y"], y)),
             lam(["x", "y"], App(y, x)), App(App(lam(["x", "y"], x), y), Abs("z", Var("z")))]
    return [render_with_names(canonical_binders(t))[0] for t in terms]


@pytest.mark.parametrize("name", ["V", "CF", "CBV", "AE", "NF", "BR1"])
def test_lambda_suite_agrees(name):
    m = build_machine(name)
    assert m.deterministic
    wires = _suite_wires()
    for w in wires:
        _agree(m, w, fuel=500_000)
    _fuel_sweep(m, wires[2])


# ---------------------------------------------------------------------------
# Generated machines


STATES = ["q0", "q1", "q2", "q3"]


def _vec(k, pool):
    return st.tuples(*[st.sampled_from(pool)] * k)


@st.composite
def _machines(draw):
    """Arbitrary rules: wildcard reads, `*` writes, stay and left moves;
    mostly nondeterministic."""
    k = draw(st.integers(1, 3))
    syms = draw(st.sampled_from(["ab", "abc"]))
    gamma = [BLANK, *syms]
    rules = draw(st.lists(st.tuples(
        st.sampled_from(STATES[:3]), _vec(k, gamma + [WILD]), st.sampled_from(STATES),
        _vec(k, gamma + [WILD]), _vec(k, list(MOVES))), max_size=8))
    return make_machine(name="gen", states=STATES, initial="q0", accept=["q3"],
                        input_alphabet=syms, tape_alphabet=gamma, tapes=k, rules=rules)


@st.composite
def _det_machines(draw, moves=MOVES, default=False):
    """Deterministic by construction: each state reads a fixed set of tapes;
    its keys name all of them, only the first of them, or none.  Each move
    is drawn from ``moves``.  With ``default`` every state has a key of
    none, which writes a symbol on every tape, so every scan takes a step."""
    k = draw(st.integers(1, 3))
    syms = draw(st.sampled_from(["ab", "abc"]))
    gamma = [BLANK, *syms]
    rules = {}
    for q in STATES[:3]:
        read = draw(st.sets(st.integers(0, k - 1), min_size=1))
        first = min(read)
        if default:
            rules[q, (WILD,) * k] = (draw(st.sampled_from(STATES)), draw(_vec(k, gamma)),
                                     draw(_vec(k, list(moves))))
        for v in draw(st.lists(_vec(k, gamma), max_size=5)):
            only = draw(st.sampled_from([read, {first}, set()]))
            key = tuple(v[t] if t in only else WILD for t in range(k))
            target = (draw(st.sampled_from(STATES)), draw(_vec(k, gamma + [WILD])),
                      draw(_vec(k, list(moves))))
            rules.setdefault((q, key), target)
    return make_machine(name="gen", states=STATES, initial="q0", accept=["q3"],
                        input_alphabet=syms, tape_alphabet=gamma, tapes=k,
                        rules=[(q, key, *t) for (q, key), t in rules.items()])


WORDS = st.text(alphabet="ab", max_size=4)


@settings(max_examples=150, deadline=None)
@given(_det_machines(), WORDS)
def test_generated_deterministic_machines_agree(m, word):
    assert m.deterministic
    _fuel_sweep(m, word, cap=40)


@st.composite
def _starts(draw, m):
    """A start configuration built directly: each tape's word after 0 or
    more leading blanks, each head left of, on or right of its word, often
    at cell 0 and never left of it; any acting state, any step count."""
    tapes, heads = [], []
    for _ in range(m.tapes):
        word = draw(st.text(alphabet="ab_", max_size=5))
        tape = Tape.from_word(BLANK * draw(st.integers(0, 6)) + word)
        end = len(tape.cells)
        heads.append(draw(st.one_of(st.just(0), st.integers(0, end + 2))))
        tapes.append(tape)
    return Configuration(draw(st.sampled_from(STATES[:3])), tuple(tapes), tuple(heads),
                         draw(st.integers(0, 3)))


@st.composite
def _start_cases(draw):
    m = draw(_det_machines(moves=("L", "L", "L", "R", "S"), default=True))
    return m, draw(_starts(m))


def _left_mover():
    """Three tapes; every step writes on each of them and moves heads 1 and
    3 left, so from heads (1, 5, 1) the second step is stuck."""
    return make_machine(name="left", states=["q0"], initial="q0", accept=[],
                        input_alphabet="ab", tape_alphabet=[BLANK, "a", "b"], tapes=3,
                        rules=[("q0", (WILD,) * 3, "q0", ("b", "a", "b"), ("L", "R", "L"))])


def _left_mover_start(blanks, heads):
    """Tape 1 holds "ab" after ``blanks`` blank cells, tape 3 "a" after three."""
    tapes = (Tape.from_word(BLANK * blanks + "ab"), Tape.from_word("ab"), Tape.from_word("___a"))
    return Configuration("q0", tapes, heads)


@settings(max_examples=100, deadline=None)
@given(_start_cases())
@example((_left_mover(), _left_mover_start(2, (1, 5, 1))))
@example((_left_mover(), _left_mover_start(0, (3, 5, 4))))
def test_start_configurations_agree(case):
    """Heads kept as indices of buffers that start at cell 0: starts with
    any number of leading blank cells and any head on or right of cell 0,
    and steps that move several heads left, at cell 0 too, and write."""
    m, start = case
    _fuel_sweep(m, start=start, cap=40)


def _ambiguous_somewhere(m):
    """Brute force over every state and scan vector with the reference."""
    by_state = ref._by_state(m)
    return any(len(ref._match(by_state, q, v)) > 1
               for q in m.states
               for v in itertools.product(sorted(m.tape_alphabet), repeat=m.tapes))


@settings(max_examples=300, deadline=None)
@given(_machines(), WORDS)
def test_static_determinism_is_exact(m, word):
    assert m.deterministic == (not _ambiguous_somewhere(m))
    if m.deterministic:
        _fuel_sweep(m, word, cap=40)
        return
    with pytest.raises(ValidationError, match="deterministic"):
        run(m, word, 10)
    level = [initial_configuration(m, [word])]
    for _ in range(4):
        nxt = []
        for c in level:
            assert successors(m, c) == ref.successors(m, c)
            nxt.extend(ref.successors(m, c))
        level = nxt[:50]


SWEEP_GAMMA = [BLANK, "a", "b", "#"]


@st.composite
def _sweep_machines(draw):
    """Deterministic machines built to sweep.  Each acting state has a
    default rule, reading `*` on every tape, that keeps the state, writes
    nothing and moves one head, as `Rules.rewind` builds; its other rules
    name exactly the tapes the state reads, which may or may not include
    the moved one.  Some of them take the default's step by another rule."""
    k = draw(st.integers(1, 3))
    rules = {}
    for q in STATES[:3]:
        moves = ["S"] * k
        moves[draw(st.integers(0, k - 1))] = draw(st.sampled_from("LR"))
        rules[q, (WILD,) * k] = (q, (WILD,) * k, tuple(moves))
        read = draw(st.sets(st.integers(0, k - 1), min_size=1))
        for v in draw(st.lists(_vec(k, SWEEP_GAMMA), max_size=4)):
            key = tuple(v[t] if t in read else WILD for t in range(k))
            target = draw(st.one_of(
                st.just((q, key, tuple(moves))),  # the default's step again
                st.tuples(st.sampled_from(STATES), _vec(k, SWEEP_GAMMA + [WILD]),
                          _vec(k, list(MOVES)))))
            rules.setdefault((q, key), target)
    return make_machine(name="sweep", states=STATES, initial="q0", accept=["q3"],
                        input_alphabet="ab", tape_alphabet=SWEEP_GAMMA, tapes=k,
                        rules=[(q, key, *t) for (q, key), t in rules.items()])


@st.composite
def _sweep_starts(draw, m):
    """Words of 5 to 40 letters on every tape, each head on a letter of its
    word, by default the last, so that a left sweep may cross the word."""
    words = [draw(st.text(alphabet="ab#", min_size=5, max_size=40)) for _ in range(m.tapes)]
    heads = [len(w) - 1 - draw(st.integers(0, len(w) - 1)) for w in words]
    return initial_configuration(m, words, heads)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sweeps_agree(data):
    m = data.draw(_sweep_machines())
    assert m.deterministic
    _fuel_sweep(m, start=data.draw(_sweep_starts(m)), cap=90)


def _rewrite_and_write_past_the_end():
    """Two tapes; the states read tape 1 only.  Two steps move head 2 right
    past every cell seen so far; then one step rewrites the cell it reads on
    tape 1 ("1" to "0") and writes "x" under head 2.  From "0" in that state
    there is no rule, so retaking the step after the first write rejects."""
    rules = [("a", ("1", WILD), "b", (WILD, WILD), ("S", "R")),
             ("b", ("1", WILD), "c", (WILD, WILD), ("S", "R")),
             ("c", ("1", WILD), "d", ("0", "x"), ("S", "S")),
             ("d", ("0", WILD), "e", (WILD, WILD), ("S", "S"))]
    return make_machine(name="rewrite", states="abcde", initial="a", accept="e",
                        input_alphabet="01", tape_alphabet=[BLANK, "0", "1", "x"], tapes=2,
                        rules=rules)


def _walk_then_write_far_right():
    """Two tapes, only tape 1 read: head 2 moves right twice per letter of
    the word of 1s on tape 1, then, past the word, "x" is written under it."""
    rules = [("a", ("1", WILD), "m", (WILD, WILD), ("S", "R")),
             ("m", (WILD, WILD), "a", (WILD, WILD), ("R", "R")),
             ("a", (BLANK, WILD), "w", (WILD, "x"), ("S", "R")),
             ("w", (WILD, WILD), "z", (WILD, WILD), ("S", "S"))]
    return make_machine(name="walk", states="amwz", initial="a", accept="z",
                        input_alphabet="1", tape_alphabet=[BLANK, "1", "x"], tapes=2,
                        rules=rules)


def test_a_write_past_its_buffer_grows_it_and_redoes_that_write_only():
    """`run` grows a buffer when a write reaches past its end and redoes
    that write alone: the step is not read or taken again, since an earlier
    write of it may have changed the scanned cell."""
    m = _rewrite_and_write_past_the_end()
    assert _agree(m, "1").tag == "Accept"
    _fuel_sweep(m, "1")
    final = run(m, "1", 10).final
    assert (final.state, final.tapes, final.heads) == ("e", (Tape("0"), Tape("__x")), (0, 2))
    walk = _walk_then_write_far_right()
    for n in (0, 1, 5, 40):
        assert _agree(walk, "1" * n).final.tapes[1] == Tape(BLANK * 2 * n + "x")
    _fuel_sweep(walk, "1" * 7)
