"""The λ text path: printed text pinned by digest, the printer against the
two-pass reference, and parse-error positions."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from churing.errors import ParseError
from churing.formats import parse, print_source
from churing.lam import HOLE, Abs, App, Var, alpha_eq, canonical_binders, free_vars, lam, render
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


# SHA-256 (first 16 hex digits) of print_source("lam", ...).  The compiled
# terms were re-recorded when the printer came to put shared closed subterms
# on def lines; each new text parses to a term alpha-equal to what the old
# text parsed to.  The corpus .lam files print as before.
PINNED = {
    "stdlib:absdiff": "78934479c97d695c",
    "stdlib:add": "f450d5a7e64af969",
    "stdlib:div": "0dc90a2e7a80f89d",
    "stdlib:divides": "88e45afb86c052c2",
    "stdlib:eq": "395e12fd3e90c6a5",
    "stdlib:exp": "2abb0b1ae282f405",
    "stdlib:extract": "a83b1a9ddb3f40b5",
    "stdlib:id": "8cfd78e95ab3af90",
    "stdlib:lt": "cef16d3819ecc755",
    "stdlib:mod": "f46cdf567a799406",
    "stdlib:monus": "45e1edc4ffbd46dc",
    "stdlib:mul": "3782fd5231cfdb98",
    "stdlib:pow2": "824d0a5ea0798ed0",
    "stdlib:pow3": "246505a409818274",
    "stdlib:pred": "9614e5933acc8988",
    "stdlib:prime": "bf5e4c0e8d597bf8",
    "stdlib:sg": "419c71b61c51b35f",
    "arith.prf:id": "8cfd78e95ab3af90",
    "arith.prf:add": "f450d5a7e64af969",
    "arith.prf:mul": "3782fd5231cfdb98",
    "arith.prf:exp": "2abb0b1ae282f405",
    "arith.prf:pred": "9614e5933acc8988",
    "arith.prf:monus": "45e1edc4ffbd46dc",
    "arith.prf:sg": "419c71b61c51b35f",
    "arith.prf:absdiff": "c50880f1a21d0900",
    "arith.prf:eq": "ab9067c0c68d592b",
    "arith.prf:lt": "cef16d3819ecc755",
    "first_at_least.prf:main": "930fd6f6c8772c0f",
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
    # a text with def lines parses to a dict whose last entry, main, is the
    # term: alpha-equal to it, and printing the same text
    for key, t in _compiled_terms():
        text = print_source("lam", t)
        back = parse("lam", text)
        if text.startswith("def "):
            assert alpha_eq(back["main"], t), key
            assert print_source("lam", back["main"]) == text, key
        else:
            assert back == canonical_binders(t), key


# Bytes of the 17 compiled stdlib terms in print: 247,139 when every shared
# subterm was printed in full at each place it occurs.
STDLIB_TEXT_BYTES = 19_969


def test_compiled_stdlib_text_keeps_its_sharing():
    texts = [print_source("lam", compile_prf_to_lambda(stdlib(n))) for n in stdlib_names()]
    assert sum(len(text.encode()) for text in texts) == STDLIB_TEXT_BYTES


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


def _primed(t, bound=frozenset()):
    """An alpha-equal copy of t with each binder p renamed p'."""
    if isinstance(t, Var):
        return Var(t.name + "'") if t.name in bound else t
    if isinstance(t, App):
        return App(_primed(t.fn, bound), _primed(t.arg, bound))
    return Abs(t.param + "'", _primed(t.body, bound | {t.param}))


def _filled(t, fills):
    """A copy of t with its holes filled, left to right, from ``fills``."""
    if t is HOLE:
        return next(fills)
    if isinstance(t, App):
        return App(_filled(t.fn, fills), _filled(t.arg, fills))
    if isinstance(t, Abs):
        return Abs(t.param, _filled(t.body, fills))
    return t


@st.composite
def _terms_with_sharing(draw):
    """(t, u): a term that holds a closed subterm of at least 12 nodes three
    times or more, twice as one object and once as a copy with other binder
    names, and an alpha-equal term that holds the two the other way round."""
    c = draw(_hole_free_terms)  # bound, and padded to 12 nodes with binders
    c = lam(sorted(free_vars(c)) + ["a"] * max(0, 12 - lam_reference.nodes(c)), c)
    c2 = _primed(c)
    context = App(App(App(draw(_terms), HOLE), HOLE), HOLE)
    t = _filled(context, itertools.cycle([c, c2, c]))
    u = _filled(context, itertools.cycle([c2, c, c2]))
    return t, u


@settings(max_examples=200, deadline=None)
@given(_terms_with_sharing())
def test_shared_subterms_print_once_and_round_trip(pair):
    t, u = pair
    text = print_source("lam", t)
    assert text.startswith("def d1 = ")
    back = parse("lam", text)["main"]
    assert alpha_eq(back, t)
    assert len(lam_reference.node_objects(back)) <= len(lam_reference.node_objects(t))
    assert print_source("lam", back) == text
    assert print_source("lam", u) == print_source("lam", canonical_binders(t)) == text


def test_a_parameter_hides_a_definition_of_its_name():
    defs = parse("lam", "def f = \\x. x\ndef g = \\f. f y\ndef h = (\\f. f) f\n")
    assert alpha_eq(defs["g"], Abs("a", App(Var("a"), Var("y"))))
    assert alpha_eq(defs["h"], App(Abs("a", Var("a")), Abs("b", Var("b"))))
    assert defs["h"].arg is defs["f"]


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
# A parameter named by punctuation or ``def`` is refused where it stands.
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
    ('lam', '\\x ( y. z )', "expected a parameter name, got '(' at line 1, column 4", 1, 4),
    ('lam', '\\( x. x', "expected a parameter name, got '(' at line 1, column 2", 1, 2),
    ('lam', '\\x #. x', "expected a parameter name, got '#' at line 1, column 4", 1, 4),
    ('lam', '\\x ). x', "expected a parameter name, got ')' at line 1, column 4", 1, 4),
    ('lam', '\\x def. x', "expected a parameter name, got 'def' at line 1, column 4", 1, 4),
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
