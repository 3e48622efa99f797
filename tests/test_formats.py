"""Parsers and canonical printers for the .tm / .prf / .lam formats."""

import pytest

from churing.errors import Fuel, ParseError, ValidationError
from churing.formats import (
    parse, parse_lam, parse_prf, parse_tm, print_lam, print_nat, print_prf, print_source,
    print_tm,
)
from churing.lam import (HOLE, App, Var, alpha_eq, app, canonical_binders, church_decode, lam,
                         render)
from churing.lam_to_tm import SUITE, build_machine
from churing.prf import Compose, Named, Proj, Succ, Zero, const, evaluate, stdlib, stdlib_names
from churing.tm import run
from churing.transform import to_single_tape

from conftest import CORPUS
from tm_reference import compiled_stdlib


def _corpus(ext):
    return sorted(CORPUS.glob(f"*.{ext}"))


def _as_dict(obj):
    # source files may hold one bare term instead of def bindings
    return obj if isinstance(obj, dict) else {"": obj}


def test_corpus_is_large_enough():
    assert len(_corpus("tm")) >= 10
    prf_defs = sum(len(_as_dict(parse_prf(p.read_text()))) for p in _corpus("prf"))
    assert prf_defs >= 10
    lam_defs = sum(len(_as_dict(parse_lam(p.read_text()))) for p in _corpus("lam"))
    assert lam_defs >= 15


@pytest.mark.parametrize("path", _corpus("tm"), ids=lambda p: p.name)
def test_tm_round_trip(path):
    m1 = parse_tm(path.read_text())
    text = print_tm(m1)
    m2 = parse_tm(text)
    assert m2 == m1
    assert print_tm(m2) == text  # canonical form is a fixed point


def _hash_glyph_machines():
    # machines whose tape alphabets hold '#'
    copier = parse_tm((CORPUS / "copier.tm").read_text())
    return [to_single_tape(copier)] + [build_machine(name) for name in SUITE]


@pytest.mark.parametrize("m", _hash_glyph_machines(), ids=lambda m: m.name)
def test_tm_with_hash_symbol_round_trip(m):
    assert "#" in m.tape_alphabet
    text = print_tm(m)
    assert print_tm(parse_tm(text)) == text


def test_tm_comment_is_a_whole_line():
    text = print_tm(parse_tm((CORPUS / "copier.tm").read_text()))
    lines = text.splitlines()
    lines.insert(1, "   # a comment line, indented")
    lines.insert(0, "# a comment line")
    assert print_tm(parse_tm("\n".join(lines))) == text
    with pytest.raises(ParseError):  # '#' after a transition is two more fields
        parse_tm(text.rstrip("\n") + " # not a comment\n")


@pytest.mark.parametrize("path", _corpus("prf"), ids=lambda p: p.name)
def test_prf_round_trip(path):
    d1 = parse_prf(path.read_text())
    text = print_prf(d1)
    d2 = parse_prf(text)
    a, b = _as_dict(d1), _as_dict(d2)
    assert list(b) == list(a)
    for k in a:
        assert b[k] == a[k]
    assert print_prf(d2) == text


@pytest.mark.parametrize("path", _corpus("lam"), ids=lambda p: p.name)
def test_lam_round_trip(path):
    d1 = parse_lam(path.read_text())
    text = print_lam(d1)
    d2 = parse_lam(text)
    a, b = _as_dict(d1), _as_dict(d2)
    assert list(b) == list(a)
    for k in a:
        assert alpha_eq(b[k], a[k]), k
    assert print_lam(d2) == text


def test_parsed_tm_behaves():
    m = parse_tm((CORPUS / "onon.tm").read_text())
    assert run(m, "0011", fuel=1000).tag == "Accept"
    assert run(m, "010", fuel=1000).tag == "Reject"


def test_parsed_prf_evaluates():
    defs = parse_prf((CORPUS / "arith.prf").read_text())
    assert evaluate(defs["add"], [3, 4], 10 ** 6) == 7
    assert evaluate(defs["monus"], [2, 5], 10 ** 6) == 0


def test_tm_mode_header_is_semi_or_absent():
    text = (CORPUS / "succ.tm").read_text()
    m = parse_tm(text)
    assert parse_tm(text.replace("mode: semi\n", "")) == m
    lineno = text.splitlines().index("mode: semi") + 1
    for mode in ("two-way", "semi_infinite", ""):
        with pytest.raises(ParseError, match="mode must be semi") as caught:
            parse_tm(text.replace("mode: semi", f"mode: {mode}"))
        assert caught.value.line == lineno


def _spent(e, args):
    fuel = Fuel(10 ** 6)
    value = evaluate(e, args, fuel)
    return value, 10 ** 6 - fuel.remaining


def test_parsed_const_keeps_its_native():
    body = "C S (" * 5 + "Z 2" + ")" * 5
    parsed = parse_prf(f"def const5/2 = {body}\n")["const5/2"]
    assert parsed == const(5, 2) and parsed.native is not None
    assert _spent(parsed, [4, 1]) == _spent(const(5, 2), [4, 1]) == (5, 1)
    # a name that the body does not spell keeps the body only
    for name in ("const4/2", "const5/1", "const05/2", "five"):
        other = parse_prf(f"def {name} = {body}\n")[name]
        assert other.native is None and _spent(other, [4, 1]) == (5, 12)


def test_parsed_lam_reduces():
    defs = parse_lam((CORPUS / "combinators.lam").read_text())
    from churing.lam import App, normalize
    r = normalize(App(App(defs["add"], defs["two"]), defs["three"]), 10 ** 5)
    assert r.normal and church_decode(r.term) == 5


def test_lam_church_literal():
    defs = parse_lam("def n = #3\n")
    assert church_decode(defs["n"]) == 3


def test_parse_dispatch():
    assert parse("lam", "def i = \\x. x\n")["i"] is not None
    with pytest.raises(ParseError):
        parse("tm", "no such header\n")


@pytest.mark.parametrize("kind,text", [
    ("tm", "name: x\n"),                      # missing required headers
    ("tm", "!!!"),
    ("prf", "def f = C S\n"),                 # C needs an argument list
    ("prf", "def f = (S)\n"),                 # no grouping parens
    ("lam", "def f = \\. x\n"),               # abstraction needs a binder
    ("lam", "def f = (x\n"),                  # unbalanced
    ("lam", "def f = y z\ndef f = x\n"),      # duplicate definition
])
def test_malformed_sources_raise(kind, text):
    with pytest.raises(ParseError):
        parse(kind, text)


def test_parse_error_reports_location():
    try:
        parse_lam("def f = \\x. x\ndef g = (y\n")
    except ParseError as e:
        assert e.line == 2 or "line 2" in str(e)
    else:
        pytest.fail("expected a ParseError")


# Punctuation and ``def`` name no definition, as they name no λ parameter,
# and a p.r.f. term head names no p.r.f. definition (read back, the head would
# win); the error points at the name.  A prf comment starts at ``#``, a lam
# one at ``;``.
@pytest.mark.parametrize("kind,name", [
    *[("lam", p) for p in ["(", ")", ",", "=", "\\", "#", ".", "def"]],
    *[("prf", p) for p in ["(", ")", ",", "=", "\\", ";", ".", "def"]],
    *[("prf", h) for h in ["Z", "S", "P", "C", "R", "Mu"]],
])
def test_a_def_name_is_not_punctuation(kind, name):
    body = {"lam": "x", "prf": "S"}[kind]
    with pytest.raises(ParseError) as info:
        parse(kind, f"def f = {body}\ndef {name} = {body}\n")
    e = info.value
    assert (e.message, e.line, e.column) == (f"expected a definition name, got {name!r}", 2, 5)


def test_printers_refuse_a_def_name_their_parser_refuses():
    e = Compose(Named("S", Zero(1)), (Proj(1, 1),))
    assert evaluate(e, (3,), 100) == 0  # printed as "def S = Z 1", S would read back as succ
    with pytest.raises(ValidationError, match="cannot print 'S' as a definition name"):
        print_prf(e)
    for name in ("(", "def", "Mu", "a b", ""):
        with pytest.raises(ValidationError):
            print_prf({name: Succ()})
    for name in ("#", "def", ";", "a b", "x;y", ""):
        with pytest.raises(ValidationError):
            print_lam({name: Var("x")})
    # the names of the library, of constants and of the lam printer still print
    c = Compose(const(5, 2), (Proj(1, 1), Proj(1, 1)))
    for e in [c, *(stdlib(n) for n in stdlib_names())]:
        text = print_prf(e)
        assert print_prf(parse_prf(text)) == text
    assert "def const5/2 = " in print_prf(c)
    assert print_lam({"S": Var("x"), "Mu": Var("y")}) == "def S = x\ndef Mu = y\n"


def test_binders_named_like_defs_print_as_the_canonical_copy():
    d1, d2 = Var("d1"), Var("d2")
    shared = lam("d1 d2", app(d2, d1, d2, d1, d2, d1))  # closed, 13 nodes
    t = lam("d2", app(shared, d2, shared))
    text = print_lam(t)
    assert text.startswith("def d1 = ") and text.count("\n") == 2
    assert print_lam(canonical_binders(t)) == text
    assert alpha_eq(parse_lam(text)["main"], t)


def test_a_printed_dict_refuses_an_earlier_name_free_in_a_later_entry():
    a = lam("p q", app(Var("p"), Var("q"), Var("q")))
    with pytest.raises(ValidationError, match="def b has the free name 'a'"):
        print_lam({"a": a, "b": App(Var("a"), Var("z"))})
    # a name defined only later, or bound where it occurs, reads back as it was
    for defs in ({"b": App(Var("a"), Var("z")), "a": a},
                 {"a": a, "b": lam("a", App(Var("a"), Var("z")))}):
        back = parse_lam(print_lam(defs))
        assert back.keys() == defs.keys()
        assert all(alpha_eq(back[k], defs[k]) for k in defs)


@pytest.mark.parametrize("name", ["a b", "def", "#", ""])
def test_print_lam_refuses_a_free_name_its_parser_misreads(name):
    # read back, "f a b" would be three atoms, "f def" would end the term,
    # "f #" a numeral with no digits and "f " a bare f
    shared = lam("p q", app(Var("q"), Var("p"), Var("q"), Var("p"), Var("q"), Var("p")))
    for t in (App(Var("f"), Var(name)),                        # one bare line
              app(shared, Var(name), shared),                  # def lines
              lam("y", app(Var("y"), Var(name)))):
        with pytest.raises(ValidationError, match=f"cannot print {name!r} as a free name"):
            print_lam(t)
    with pytest.raises(ValidationError, match=f"cannot print {name!r} as a free name"):
        print_lam({"g": App(Var("f"), Var(name))})
    # a name the parser reads back as itself prints
    t = app(shared, Var("f~1"), shared)
    assert alpha_eq(parse_lam(print_lam(t))["main"], t)


def test_print_lam_refuses_a_hole():
    # "f []" would read back as f applied to a free name "[]"
    shared = lam("p q", app(Var("q"), Var("p"), Var("q"), Var("p"), Var("q"), Var("p")))
    for t in (App(Var("f"), HOLE),                             # one bare line
              HOLE,
              app(shared, HOLE, shared),                       # def lines
              lam("y", App(HOLE, Var("y")))):
        with pytest.raises(ValidationError, match="cannot print a hole"):
            print_lam(t)
        with pytest.raises(ValidationError, match="cannot print a hole"):
            print_lam({"g": t})
    assert render(App(Var("f"), HOLE)) == "f []"  # messages still show the hole


_TM_HEAD = ("name: m\ntapes: {tapes}\nstates: q0 q1\ninitial: q0\naccept: q1\n"
            "input_alphabet: a\ntape_alphabet: a _\ndelta:\n")


def test_a_move_text_first_read_as_a_symbol_is_still_no_move():
    # line 10 reads and writes "a" before the move text "a" ends it
    text = _TM_HEAD.format(tapes=1) + "q0 a -> q1 a R\nq1 a -> q1 a a\n"
    with pytest.raises(ParseError) as info:
        parse_tm(text)
    e = info.value
    assert (e.message, e.line, e.column) == ("move must be L, R or S, got 'a'", 10, 14)
    text = _TM_HEAD.format(tapes=2) + "q0 a,_ -> q1 a,_ R,S\n  q1 a,_ -> q1 a,_ R,a\n"
    with pytest.raises(ParseError) as info:
        parse_tm(text)
    e = info.value  # the column counts the line's indent
    assert (e.message, e.line, e.column) == ("move must be L, R or S, got 'a'", 10, 22)


def test_a_wrong_length_vector_on_a_later_line_fails_there():
    rules = "q0 a,_ -> q1 a,_ R,S\nq0 _,_ -> q1 a,_ R,S\nq1 a,_ -> q0 a R,S\n"
    with pytest.raises(ParseError) as info:
        parse_tm(_TM_HEAD.format(tapes=2) + rules)
    e = info.value
    assert (e.message, e.line, e.column) == ("expected 2 symbols per vector", 11, 1)


def test_compiled_machines_read_back_as_themselves():
    machines = {n: m for n, (_, m, _) in compiled_stdlib().items()}
    machines["squeezed id"] = to_single_tape(machines["id"])
    machines["squeezed pred"] = to_single_tape(machines["pred"])
    machines["squeezed copier"] = to_single_tape(parse_tm((CORPUS / "copier.tm").read_text()))
    assert len(machines) == 15
    for name, m in machines.items():
        text = print_tm(m)
        if name.startswith("squeezed"):  # its text has `*` reads and `*` writes
            rows = [line.split() for line in text.splitlines() if " -> " in line]
            assert any(r[1] == "*" for r in rows) and any(r[4] == "*" for r in rows)
        assert parse_tm(text) == m


def _digits_value(text: str) -> int:
    """The number a decimal text names, read 1,000 digits at a time, so no
    conversion meets the interpreter's int-to-text limit."""
    n = 0
    for i in range(0, len(text), 1000):
        part = text[i:i + 1000]
        n = n * 10 ** len(part) + int(part)
    return n


_BIG = {"0": 0, "7": 7, "10^4000-1": 10 ** 4000 - 1, "10^4000": 10 ** 4000,
        "10^4000+1": 10 ** 4000 + 1, "2^20000": 2 ** 20_000,
        "10^12000+10^4000": 10 ** 12_000 + 10 ** 4000}


@pytest.mark.parametrize("name", _BIG)
def test_print_nat_is_exact_at_any_size(name):
    n = _BIG[name]
    text = print_nat(n)
    assert text.isdigit() and (text == "0" or text[0] != "0")
    assert _digits_value(text) == n


def test_print_source_dispatch():
    m = parse_tm((CORPUS / "succ.tm").read_text())
    assert print_source("tm", m) == print_tm(m)
