"""The shared transition resolver against the reference step loop.

`tm_reference` keeps the original semantics (rescan every rule, read every
tape, rebuild written tapes).  `churing.tm.run` must agree with it on the
tag, the final configuration, `steps_taken` and the trace, on the corpus,
the compiled stdlib, the lambda machine suite and generated machines, and
`validate_machine` must call a machine deterministic exactly when no scan
vector is ambiguous under the reference matcher.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import tm_reference as ref
from churing.errors import ValidationError
from churing.formats import parse
from churing.lam import Abs, App, Var, lam
from churing.lam_to_tm import build_machine, freshen, render_with_names
from churing.prf import arity_check, stdlib, stdlib_names
from churing.prf_to_tm import compile_prf_to_tm
from churing.tm import (
    BLANK, MOVES, SEMI_INFINITE, TWO_WAY, WILD, MachineSpec,
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


def _compiled_stdlib():
    out = []
    for name in stdlib_names():
        e = stdlib(name)
        try:
            m, _ = compile_prf_to_tm(e)
        except ValidationError:
            continue  # needs more tapes than the compiler allows
        out.append(pytest.param(m, arity_check(e), id=name))
    return out


@pytest.mark.parametrize("m, arity", _compiled_stdlib())
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
    return [render_with_names(freshen(t))[0] for t in terms]


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
    """Arbitrary rules: wildcard reads, `*` writes, stay and left moves,
    both tape modes; mostly nondeterministic."""
    k = draw(st.integers(1, 3))
    syms = draw(st.sampled_from(["ab", "abc"]))
    gamma = [BLANK, *syms]
    rules = draw(st.lists(st.tuples(
        st.sampled_from(STATES[:3]), _vec(k, gamma + [WILD]), st.sampled_from(STATES),
        _vec(k, gamma + [WILD]), _vec(k, list(MOVES))), max_size=8))
    mode = draw(st.sampled_from([SEMI_INFINITE, TWO_WAY]))
    return make_machine(name="gen", states=STATES, initial="q0", accept=["q3"],
                        input_alphabet=syms, tape_alphabet=gamma, tapes=k,
                        rules=rules, tape_mode=mode)


@st.composite
def _det_machines(draw):
    """Deterministic by construction: each state reads a fixed set of tapes;
    its keys name all of them, only the first of them, or none."""
    k = draw(st.integers(1, 3))
    syms = draw(st.sampled_from(["ab", "abc"]))
    gamma = [BLANK, *syms]
    rules = {}
    for q in STATES[:3]:
        read = draw(st.sets(st.integers(0, k - 1), min_size=1))
        first = min(read)
        for v in draw(st.lists(_vec(k, gamma), max_size=5)):
            only = draw(st.sampled_from([read, {first}, set()]))
            key = tuple(v[t] if t in only else WILD for t in range(k))
            target = (draw(st.sampled_from(STATES)), draw(_vec(k, gamma + [WILD])),
                      draw(_vec(k, list(MOVES))))
            rules.setdefault((q, key), target)
    mode = draw(st.sampled_from([SEMI_INFINITE, TWO_WAY]))
    return make_machine(name="gen", states=STATES, initial="q0", accept=["q3"],
                        input_alphabet=syms, tape_alphabet=gamma, tapes=k,
                        rules=[(q, key, *t) for (q, key), t in rules.items()],
                        tape_mode=mode)


WORDS = st.text(alphabet="ab", max_size=4)


@settings(max_examples=150, deadline=None)
@given(_det_machines(), WORDS)
def test_generated_deterministic_machines_agree(m, word):
    assert m.deterministic
    _fuel_sweep(m, word, cap=40)


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
