"""The λ text path: printed text pinned by digest, the printer against the
two-pass reference, and parse-error positions."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from churing.errors import ParseError
from churing.formats import parse, print_source
from churing.lam import HOLE, Abs, App, Var, alpha_eq, canonical_binders, render
from churing.prf import stdlib, stdlib_names
from churing.prf_to_lam import compile_prf_to_lambda

import lam_reference
from conftest import CORPUS


def _compiled_terms():
    """(key, term) for every compiled stdlib function and corpus p.r.f."""
    out = [(f"stdlib:{n}", compile_prf_to_lambda(stdlib(n))) for n in stdlib_names()]
    for f in sorted(CORPUS.glob("*.prf")):
        p = parse("prf", f.read_text())
        for name, e in (p.items() if isinstance(p, dict) else [("main", p)]):
            out.append((f"{f.name}:{name}", compile_prf_to_lambda(e)))
    return out


# SHA-256 (first 16 hex digits) of print_source("lam", ...), recorded before
# the printer came to rename binders as it prints; the text must not change.
PINNED = {
    "stdlib:absdiff": "ac27672032b9dd00",
    "stdlib:add": "3d827a269bbad946",
    "stdlib:div": "331ee5961319a65d",
    "stdlib:divides": "07ca5d7dc93ab884",
    "stdlib:eq": "2db3a38f471985db",
    "stdlib:exp": "e28e76672e5befba",
    "stdlib:extract": "3279224c27d2ff13",
    "stdlib:id": "8cfd78e95ab3af90",
    "stdlib:lt": "0f1137cb9af74bfc",
    "stdlib:mod": "90d7542d2b753d65",
    "stdlib:monus": "cddf036afb8e9d3f",
    "stdlib:mul": "9889e0c1251b8e4f",
    "stdlib:pow2": "918caec17cc70832",
    "stdlib:pow3": "4dadc7350c6d4b5e",
    "stdlib:pred": "c766a713bcee476d",
    "stdlib:prime": "a75db91d27e88789",
    "stdlib:sg": "0c5e7b8a5648e4de",
    "arith.prf:id": "8cfd78e95ab3af90",
    "arith.prf:add": "3d827a269bbad946",
    "arith.prf:mul": "9889e0c1251b8e4f",
    "arith.prf:exp": "e28e76672e5befba",
    "arith.prf:pred": "c766a713bcee476d",
    "arith.prf:monus": "cddf036afb8e9d3f",
    "arith.prf:sg": "0c5e7b8a5648e4de",
    "arith.prf:absdiff": "4c70841bac5897ed",
    "arith.prf:eq": "00a66347d07e1d25",
    "arith.prf:lt": "0f1137cb9af74bfc",
    "first_at_least.prf:main": "4acfdee801613d01",
    "succ.prf:main": "80a3f06b783b06f4",
    "combinators.lam": "cc1b185c99f37e23",
    "example_term.lam": "df2f32a423c61488",
}


def _digest(obj) -> str:
    return hashlib.sha256(print_source("lam", obj).encode()).hexdigest()[:16]


def test_printed_terms_are_pinned():
    got = {key: _digest(t) for key, t in _compiled_terms()}
    for f in sorted(CORPUS.glob("*.lam")):
        got[f.name] = _digest(parse("lam", f.read_text()))
    assert got == PINNED


def test_compiled_terms_parse_back_to_their_renamed_form():
    for key, t in _compiled_terms():
        assert parse("lam", print_source("lam", t)) == canonical_binders(t), key


# Names include the printer's own x1, x2, so free names must be skipped.
_names = st.sampled_from(["x1", "x2", "y", "z"])


_terms = lam_reference.terms(st.one_of(_names.map(Var), st.just(HOLE)), _names,
                             max_leaves=30)
_hole_free_terms = lam_reference.terms(_names.map(Var), _names, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_terms)
def test_render_matches_the_two_pass_reference(t):
    assert render(t) == lam_reference.render(t)


@settings(max_examples=200, deadline=None)
@given(_hole_free_terms)
def test_print_parse_round_trip(t):
    text = print_source("lam", t)
    back = parse("lam", text)
    assert alpha_eq(back, t)
    assert print_source("lam", back) == text


@pytest.mark.parametrize("t,text", [
    (Abs("x1", Var("x1")), "\\x1. x1"),
    (Abs("a", App(Var("x1"), Var("a"))), "\\x2. x1 x2"),           # free x1 skipped
    (Abs("a", Abs("a", Var("a"))), "\\x1 x2. x2"),                 # shadowed binder
    (Abs("a", App(Abs("a", Var("a")), Var("a"))), "\\x1. (\\x2. x2) x1"),
    (App(App(Abs("a", Var("a")), HOLE), Abs("b", HOLE)), "(\\x1. x1) [] (\\x2. [])"),
    (App(Var("f"), App(Var("g"), Var("h"))), "f (g h)"),
])
def test_render_examples(t, text):
    assert render(t) == text == lam_reference.render(t)


# (kind, text, str(error), line, column), recorded before the token stream
# stopped carrying positions; a malformed input must be reported as before.
PARSE_ERRORS = [
    ('lam', '(x', 'unexpected end of input at line 1, column 2', 1, 2),
    ('lam', '(x y\n', 'unexpected end of input at line 1, column 4', 1, 4),
    ('lam', '(x .', "expected ')', got '.' at line 1, column 4", 1, 4),
    ('lam', '\\. x', 'abstraction needs at least one parameter at line 1, column 2', 1, 2),
    ('lam', 'def f = \\. x\n', 'abstraction needs at least one parameter at line 1, column 10', 1, 10),
    ('lam', '\\x y', 'unexpected end of input at line 1, column 4', 1, 4),
    ('lam', '\\x. ', 'expected a lambda term at line 1, column 3', 1, 3),
    ('lam', 'f \\x.', 'expected a lambda term at line 1, column 5', 1, 5),
    ('lam', 'x)', 'trailing tokens after term at line 1, column 2', 1, 2),
    ('lam', 'x y )\n', 'trailing tokens after term at line 1, column 5', 1, 5),
    ('lam', 'x . y', 'trailing tokens after term at line 1, column 3', 1, 3),
    ('lam', ', x', 'expected a lambda term at line 1, column 1', 1, 1),
    ('lam', '', 'expected a lambda term at line 1, column 1', 1, 1),
    ('lam', '; only a comment\n', 'expected a lambda term at line 1, column 1', 1, 1),
    ('lam', 'def f = x\ndef f = y\n', "duplicate definition of 'f' at line 2, column 9", 2, 9),
    ('lam', 'def f = x\ndef f', 'unexpected end of input at line 2, column 5', 2, 5),
    ('lam', '# x', "expected an integer, got 'x' at line 1, column 3", 1, 3),
    ('lam', '#', 'unexpected end of input at line 1, column 1', 1, 1),
    ('lam', '#12a', "expected an integer, got '12a' at line 1, column 2", 1, 2),
    ('lam', 'def f = \n', 'expected a lambda term at line 1, column 7', 1, 7),
    ('lam', 'def f x', "expected '=', got 'x' at line 1, column 7", 1, 7),
    ('lam', 'def f = x\n y z )', "expected 'def', got ')' at line 2, column 6", 2, 6),
    ('lam', 'def f = x\n)', "expected 'def', got ')' at line 2, column 1", 2, 1),
    ('lam', 'x def', 'trailing tokens after term at line 1, column 3', 1, 3),
    ('lam', '(\\x. x', 'unexpected end of input at line 1, column 6', 1, 6),
    ('lam', '\t(x\t,', "expected ')', got ',' at line 1, column 5", 1, 5),
    ('lam', '; header (\ndef f = \\x. x ; id )\n\ndef g = (f\n   y ; c\n', 'unexpected end of input at line 5, column 4', 5, 4),
    ('lam', 'x\r\n)', 'trailing tokens after term at line 2, column 1', 2, 1),
    ('lam', 'x\x0cy\x0c)', 'trailing tokens after term at line 3, column 1', 3, 1),
    ('lam', 'x\u2028 y ; c\u2028)', 'trailing tokens after term at line 3, column 1', 3, 1),
    ('lam', '\\x ( y. z )', 'trailing tokens after term at line 1, column 11', 1, 11),
    ('lam', 'def = x', "expected '=', got 'x' at line 1, column 7", 1, 7),
    ('lam', 'def f = (x = y)', "expected ')', got '=' at line 1, column 12", 1, 12),
    ('prf', 'C S (S', 'unexpected end of input at line 1, column 6', 1, 6),
    ('prf', 'C S (S, )', "unknown p.r.f. term head ')' at line 1, column 9", 1, 9),
    ('prf', 'S )', 'trailing tokens after term at line 1, column 3', 1, 3),
    ('prf', 'def f = S\ndef f = S', "duplicate definition of 'f' at line 2, column 9", 2, 9),
    ('prf', 'Z x', "expected an integer, got 'x' at line 1, column 3", 1, 3),
    ('prf', 'P 1', 'unexpected end of input at line 1, column 3', 1, 3),
    ('prf', '', 'unexpected end of input at line 1, column 1', 1, 1),
    ('prf', '# only a comment\n', 'unexpected end of input at line 1, column 1', 1, 1),
    ('prf', 'def f = S # succ\n\ndef g = C f (Q)\n', "unknown p.r.f. term head 'Q' at line 3, column 14", 3, 14),
    ('prf', 'R (S S)', "expected ',', got 'S' at line 1, column 6", 1, 6),
    ('prf', 'def f S', "expected '=', got 'S' at line 1, column 7", 1, 7),
    ('prf', 'Mu', 'unexpected end of input at line 1, column 1', 1, 1),
    ('prf', 'def f = (S)\n', "unknown p.r.f. term head '(' at line 1, column 9", 1, 9),
    ('prf', 'def f = C S\n', 'unexpected end of input at line 1, column 11', 1, 11),
    ('prf', 'S\nS', 'trailing tokens after term at line 2, column 1', 2, 1),
    ('prf', 'def f = S\n  # c (\n def g = R (f, P 3 3', 'unexpected end of input at line 3, column 20', 3, 20),
    ('prf', 'C S (S ; x)', "expected ')', got ';' at line 1, column 8", 1, 8),
]


@pytest.mark.parametrize("kind,text,message,line,column", PARSE_ERRORS)
def test_parse_error_positions(kind, text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(kind, text)
    assert (str(info.value), info.value.line, info.value.column) == (message, line, column)


def test_abstraction_bodies_do_not_nest_the_parser():
    # only a parenthesis recurses, so a long chain of abstractions in
    # argument position parses and prints at any length
    n = 20_000
    text = "".join(f"\\a{i}. f " for i in range(n)) + "a0"
    t = parse("lam", text)
    inner = "".join(f"\\x{i + 1}. f (" for i in range(n - 1))
    assert print_source("lam", t) == f"{inner}\\x{n}. f x1" + ")" * (n - 1) + "\n"
