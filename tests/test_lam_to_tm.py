"""Lambda terms on tape: the wire codec and the reduction machine suite."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from churing import lam_to_tm
from churing.errors import FuelExhausted, ValidationError, WireParseError
from churing.formats import parse
from churing.lam import (
    HOLE, Abs, App, Term, Var, alpha_eq, app, beta_step, canonical_binders, church_decode,
    church_encode, free_vars, lam, normalize,
)
from churing.lam_to_tm import (
    MACHINE_FUEL, SUITE, _canonical_wire, build_machine, br1_on_tm, nf_on_tm, parse_wire,
    reduce_on_tm, render_term, render_with_names,
)
from churing.tm import initial_configuration, run

from conftest import corpus_text
from lam_reference import bound_vars, closed_terms, is_normal_form, read_wire, terms
from test_rules import PINNED, _digest


def _terms():
    x, y, z = Var("x"), Var("y"), Var("z")
    return [
        x,
        lam(["x"], x),
        lam(["x", "y"], App(y, x)),
        App(lam(["x"], x), y),
        App(lam(["x", "y"], App(y, x)), z),
        App(church_encode(2), church_encode(3)),
        lam(["x"], App(x, lam(["y"], App(x, y)))),
    ]


def test_wire_examples():
    x = Var("x")
    assert render_term(x) == "v|"
    assert render_term(lam(["x"], x)) == "(Lv|.v|)"
    assert render_term(lam(["x", "y"], App(Var("y"), x))) == \
        "(Lv|.(Lv||.(v||v|)))"


def test_wire_round_trip_preserves_alpha_class():
    for t in _terms():
        wire, names = render_with_names(t)
        assert alpha_eq(parse_wire(wire, names), t)
    # without a name table the parse is still alpha-faithful on closed terms
    two = church_encode(2)
    assert alpha_eq(parse_wire(render_term(two)), two)


def test_wire_round_trip_names():
    t = App(lam(["x"], Var("x")), Var("free"))
    wire, names = render_with_names(t)
    assert parse_wire(wire, names) == t  # identical, names restored


def test_deep_wires_round_trip():
    # 5000 nested applications: the codec keeps its own stack, not Python's
    t = church_encode(5000)
    wire, names = render_with_names(t)
    assert parse_wire(wire, names) == t
    assert nf_on_tm(t)


_BAD_WIRES = ["v", "(Lv|.v|", "(v|)", "x", "(Lv.v|)", "v|)", "(v|v|))", "v|v|", "(v|v|)@",
              "", "(", "(Lv|v|)", "(L.v|)", "(Lv|.v|v|)", "((Lv|.v|)", "|", "#", "(v|\n)"]


def test_parse_wire_errors_carry_position():
    for bad in _BAD_WIRES:
        with pytest.raises(WireParseError, match=r" at line 1, column \d+$"):
            parse_wire(bad)


_TERM_SAW = "expected term, saw {!r}".format
_UNCLOSED_ABS, _TRAILING = "unclosed abstraction", "trailing characters after term"
# the message and column of each bad wire's fault; the last two put a term
# in brackets where ")" belongs, which the reader finds only at its ")"
_WIRE_FAULTS = list(zip(_BAD_WIRES, [
    (_TERM_SAW("v"), 1), (_UNCLOSED_ABS, 8), (_TERM_SAW(")"), 4), (_TERM_SAW("x"), 1),
    (_TERM_SAW("L"), 2), (_TRAILING, 3), (_TRAILING, 7), (_TRAILING, 3), (_TRAILING, 7),
    ("unexpected end of wire", 1), ("unexpected end of wire", 2), (_TERM_SAW("L"), 2),
    (_TERM_SAW("L"), 2), (_UNCLOSED_ABS, 8), ("unexpected end of wire", 10),
    (_TERM_SAW("|"), 1), (_TERM_SAW("#"), 1), (_TERM_SAW("\n"), 4),
], strict=True)) + [
    ("(Lv|.v|(v|v|))", (_UNCLOSED_ABS, 8)), ("(v|v|(Lv|.v|))", ("unclosed application", 6)),
]


@pytest.mark.parametrize("bad, fault", _WIRE_FAULTS)
@pytest.mark.parametrize("reader", [parse_wire, _canonical_wire])
def test_the_wire_reader_names_each_fault_where_it_is(reader, bad, fault):
    with pytest.raises(WireParseError) as got:
        reader(bad, {})
    msg, column = fault
    assert (str(got.value), got.value.column) == (f"{msg} at line 1, column {column}", column)


def _by_the_term(wire, names):
    """The canonical wire by way of a term, as reduce_on_tm once took it
    between rounds: parse, rename the binders apart, render."""
    return render_with_names(canonical_binders(parse_wire(wire, names)))


def _same_as_by_the_term(wire, names):
    got, want = _canonical_wire(wire, names), _by_the_term(wire, names)
    assert got == want and list(got[1]) == list(want[1]), (wire, names)


def test_canonical_wire_examples():
    # binders apart from each other and from the free names, numbered with
    # them by first occurrence; the binders are named past the free x1
    assert _canonical_wire("((Lv|.(Lv|.v|))(Lv||.v|||))", {1: "x", 2: "y", 3: "x1"}) == \
        ("((Lv|.(Lv||.v||))(Lv|||.v||||))", {1: "x2", 2: "x3", 3: "x4", 4: "x1"})
    # a name missing from the table reads as x<i>, so index 2 is x2, the
    # name of index 1, and both are bound here
    assert _canonical_wire("(Lv|.(v|v||))", {1: "x2"}) == ("(Lv|.(v|v|))", {1: "x1"})
    assert _canonical_wire("(@(Lv||.v|))", {}) == ("(@(Lv|.v||))", {1: "x2", 2: "x1"})
    for wire, names in [("(Lv|.(v|v||))", {1: "x2"}), ("((Lv|.v|)v|)", {}),
                        ("(Lv|.(Lv|.(v|(Lv|.v|))))", {1: "x3"})]:
        _same_as_by_the_term(wire, names)


@pytest.mark.parametrize("bad", _BAD_WIRES)
def test_canonical_wire_refuses_what_parse_wire_refuses(bad):
    with pytest.raises(WireParseError) as want:
        parse_wire(bad, {})
    with pytest.raises(WireParseError) as got:
        _canonical_wire(bad, {})
    assert str(got.value) == str(want.value) and got.value.column == want.value.column


def test_canonical_wire_matches_the_term_route_on_closed_terms():
    for size in range(6):
        for t in closed_terms(size):
            _same_as_by_the_term(*render_with_names(t))


# the names include the binder names x1, x2, which the renaming must skip
# when they are free, and the tables map some indices to a shared name
_names = st.sampled_from(["x1", "x2", "y", "z"])


@settings(max_examples=300, deadline=None)
@given(terms(st.one_of(_names.map(Var), st.just(HOLE)), _names, max_leaves=20),
       st.one_of(st.none(), st.dictionaries(st.integers(1, 8), _names)))
def test_canonical_wire_matches_the_term_route_on_generated_terms(t, table):
    wire, names = render_with_names(t)
    _same_as_by_the_term(wire, names if table is None else table)


@st.composite
def _edited_wires(draw):
    """The wire and names of a generated term, after 0-2 one-character
    inserts, deletes or replaces drawn from the wire glyphs, ``x`` and a
    newline."""
    t = draw(terms(st.one_of(_names.map(Var), st.just(HOLE)), _names, max_leaves=8))
    wire, names = render_with_names(t)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from("idr"))
        i = draw(st.integers(0, len(wire)))
        c = draw(st.sampled_from("v|L.()#@x\n"))
        wire = wire[:i] + (c if edit != "d" else "") + wire[i + (edit != "i"):]
    return wire, names


@settings(max_examples=400, deadline=None)
@given(_edited_wires())
def test_the_wire_reader_refuses_exactly_what_the_grammar_refuses(case):
    wire, names = case
    want = read_wire(wire, names)
    if want is None:
        with pytest.raises(WireParseError):
            parse_wire(wire, names)
        with pytest.raises(WireParseError):
            _canonical_wire(wire, names)
    else:
        assert parse_wire(wire, names) == want
        _canonical_wire(wire, names)


def _reduce_by_terms(t: Term):
    """reduce_on_tm with a term between rounds, as it once was: the normal
    form, and each BR1 output wire with its names."""
    nfm, br = lam_to_tm._shared_machine("NF"), lam_to_tm._shared_machine("BR1")
    cur, outputs = t, []
    while True:
        cur = canonical_binders(cur)
        wire, names = render_with_names(cur)
        if run(nfm, wire, fuel=MACHINE_FUEL).final.tapes[1].content() == "1":
            return cur, outputs
        out = run(br, wire, fuel=MACHINE_FUEL).final.tapes[4].content()
        outputs.append((out, names))
        cur = parse_wire(out, names)


def test_reduce_on_tm_keeps_every_wire_of_the_term_route():
    # succ, add and mul of the numerals 2-5 from the corpus, as in the
    # tm-long benchmark: every BR1 output wire canonicalises as by the term,
    # the normal form is the same term, and the same budget runs out
    comb = parse("lam", corpus_text("combinators.lam"))
    pool = [("succ", n) for n in range(2, 6)]
    pool += [(op, m, n) for op in ("add", "mul") for m in range(2, 6) for n in range(2, 6)]
    contractions = 0
    for op, *nums in pool:
        t = app(comb[op], *map(church_encode, nums))
        want, outputs = _reduce_by_terms(t)
        for wire, names in outputs:
            _same_as_by_the_term(wire, names)
        assert reduce_on_tm(t, fuel=len(outputs)) == want
        with pytest.raises(FuelExhausted, match=f"within {len(outputs) - 1} contractions"):
            reduce_on_tm(t, fuel=len(outputs) - 1)
        contractions += len(outputs)
    assert contractions == 268


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_wire_round_trip_random(seed):
    rng = random.Random(seed)
    pool = list(closed_terms(4))
    t = pool[rng.randrange(len(pool))]
    assert alpha_eq(parse_wire(render_term(t)), t)


def test_v_machine_lists_variables():
    # duplicate occurrences are listed once, in order of first appearance
    t = App(App(Var("x"), Var("y")), Var("x"))
    out = run(build_machine("V"), render_term(t), fuel=100_000)
    assert out.tag == "Accept"
    assert out.final.tapes[1].content() == "v|#v||#"


def test_v_machine_matches_host_variable_sets():
    for t in _terms():
        wire = render_term(t)
        out = run(build_machine("V"), wire, fuel=500_000)
        assert out.tag == "Accept"
        entries = [e for e in out.final.tapes[1].content().split("#") if e]
        # every wire index, exactly once each
        import re
        wire_vars = {m.group(0) for m in re.finditer(r"v\|+", wire)}
        assert len(entries) == len(set(entries))
        assert set(entries) == wire_vars


def test_nf_machine_agrees_with_host():
    for t in _terms():
        assert nf_on_tm(t) == is_normal_form(t), t


def test_br1_single_contraction():
    for t in _terms():
        stepped = br1_on_tm(t)
        f = canonical_binders(t)
        want = beta_step(f) or f
        assert alpha_eq(stepped, want), t


def test_br1_fixes_normal_forms():
    for t in [Var("x"), lam(["x"], Var("x")), church_encode(3)]:
        assert alpha_eq(br1_on_tm(t), t)


def test_reduce_on_tm_examples():
    x, y, z = Var("x"), Var("y"), Var("z")
    # (\x y. y x) z  ->  \y. y z
    got = reduce_on_tm(App(lam(["x", "y"], App(y, x)), z))
    assert alpha_eq(got, lam(["y"], App(y, z)))
    # K a b -> a
    k = lam(["x", "y"], x)
    assert alpha_eq(reduce_on_tm(App(App(k, Var("a")), Var("b"))), Var("a"))
    # Church arithmetic: 2 applied to 3 is exponentiation, 3^2 = 9
    got = reduce_on_tm(App(church_encode(2), church_encode(3)))
    assert church_decode(got) == 9


def test_reduce_on_tm_diverges_on_omega():
    w = lam(["x"], App(Var("x"), Var("x")))
    omega = App(w, w)
    with pytest.raises(FuelExhausted):
        reduce_on_tm(omega, fuel=20)


def test_every_driver_refuses_a_negative_budget():
    t = App(church_encode(2), church_encode(2))
    with pytest.raises(ValidationError, match="fuel must be a natural number, got -1"):
        reduce_on_tm(t, fuel=-1)
    # a budget of 0 contractions still returns a normal form, and no other
    identity = lam(["x"], Var("x"))
    assert alpha_eq(reduce_on_tm(identity, fuel=0), identity)
    with pytest.raises(FuelExhausted, match="within 0 contractions"):
        reduce_on_tm(t, fuel=0)


def test_reduce_on_tm_matches_host_normalizer():
    rng = random.Random(7)
    pool = list(closed_terms(4))
    picked = rng.sample(pool, 40)
    for t in picked:
        r = normalize(t, 200)
        if not r.normal:
            continue
        assert alpha_eq(reduce_on_tm(t, fuel=250), r.term), t


def test_a_driver_machine_that_rejects_names_itself():
    # "((L" is a redex signature with no binder after it
    with pytest.raises(ValidationError, match=r"^BR1 machine rejected wire '\(\(L\.'$"):
        lam_to_tm._run_wire(lam_to_tm._shared_machine("BR1"), "((L.")


def test_a_driver_machine_out_of_steps_is_out_of_fuel(monkeypatch):
    # NF finds the redex of (I I) in 3 steps; BR1 needs many more
    ii = App(lam(["x"], Var("x")), lam(["y"], Var("y")))
    monkeypatch.setattr(lam_to_tm, "MACHINE_FUEL", 10)
    with pytest.raises(FuelExhausted, match="^BR1 machine ran out of fuel$"):
        reduce_on_tm(ii)
    monkeypatch.setattr(lam_to_tm, "MACHINE_FUEL", 2)
    with pytest.raises(FuelExhausted, match="^NF machine ran out of fuel$"):
        reduce_on_tm(ii)


@pytest.fixture
def builds(monkeypatch):
    """The names `build_machine` is called with, counted from a state where
    the drivers share no machine yet."""
    built = []
    real = lam_to_tm.build_machine
    monkeypatch.setattr(lam_to_tm, "build_machine", lambda name: built.append(name) or real(name))
    lam_to_tm._shared_machine.cache_clear()
    yield built
    lam_to_tm._shared_machine.cache_clear()


def test_drivers_build_nf_and_br1_once(builds):
    t = App(church_encode(2), church_encode(2))
    assert church_decode(reduce_on_tm(t)) == 4
    assert church_decode(reduce_on_tm(t)) == 4
    assert not nf_on_tm(t)
    assert alpha_eq(br1_on_tm(t), beta_step(t))
    assert sorted(builds) == ["BR1", "NF"]


def test_build_machine_builds_anew_and_shared_machines_stay_pinned(builds):
    assert build_machine("BR1") is not build_machine("BR1")
    reduce_on_tm(App(church_encode(2), church_encode(3)))
    for n in ("NF", "BR1"):
        assert _digest(lam_to_tm._shared_machine(n)) == PINNED[f"suite:{n}"]
    assert {n: _digest(build_machine(n)) for n in SUITE} == \
        {n: PINNED[f"suite:{n}"] for n in SUITE}


def test_a_run_out_of_fuel_leaves_nothing_for_the_next(builds):
    w = lam(["x"], App(Var("x"), Var("x")))
    with pytest.raises(FuelExhausted):
        reduce_on_tm(App(w, w), fuel=20)
    t = App(church_encode(3), lam(["y"], App(Var("z"), Var("y"))))
    assert alpha_eq(reduce_on_tm(t), normalize(t).term)
    assert builds == ["NF", "BR1"]


def _count_abs(t: Term) -> int:
    if isinstance(t, Abs):
        return 1 + _count_abs(t.body)
    if isinstance(t, App):
        return _count_abs(t.fn) + _count_abs(t.arg)
    return 0


def test_canonical_binders_keeps_alpha_class_and_separates_binders():
    for t in _terms():
        f = canonical_binders(t)
        assert alpha_eq(f, t)
        assert free_vars(f) == free_vars(t)
        # all binders pairwise distinct and apart from the free variables
        assert len(bound_vars(f)) == _count_abs(f)
        assert not bound_vars(f) & free_vars(f)


def _all_named_x(t: Term) -> Term:
    """t with every binder and variable named x: still closed when t is,
    each variable now bound by its innermost binder."""
    if isinstance(t, Abs):
        return Abs("x", _all_named_x(t.body))
    if isinstance(t, App):
        return App(_all_named_x(t.fn), _all_named_x(t.arg))
    return Var("x")


def test_ae_decides_alpha_equality_of_canonical_wires():
    # on wires of canonical_binders copies, closed terms are alpha-equal
    # exactly when AE answers 1; the pool holds shadowed binder names.  A
    # plain wire numbers a binder by its name, so it is no alpha class.
    assert render_term(lam(["x", "y"], Var("y"))) != render_term(lam(["x", "x"], Var("x")))
    assert render_term(lam(["x"], Var("y"))) == render_term(lam(["x"], Var("z")))
    pool = [t for size in (1, 2, 3, 4) for t in closed_terms(size)]
    pool = list(dict.fromkeys(pool + [_all_named_x(t) for t in pool]))
    assert lam(["x", "x"], Var("x")) in pool and lam(["x0", "x1"], Var("x1")) in pool
    ae = build_machine("AE")
    wires = [render_term(canonical_binders(t)) for t in pool]
    for a, wa in zip(pool, wires):
        for b, wb in zip(pool, wires):
            out = run(ae, "", fuel=1000, start=initial_configuration(ae, [wa, wb]))
            assert out.tag == "Accept"
            assert (out.final.tapes[2].content() == "1") == alpha_eq(a, b), (a, b)


def test_contexts_with_holes_round_trip_through_the_wire():
    ctx = lam(["x"], App(App(Var("x"), HOLE), lam(["y"], App(HOLE, Var("z")))))
    wire, names = render_with_names(ctx)
    assert wire == "(Lv|.((v|@)(Lv||.(@v|||))))"
    back = parse_wire(wire, names)
    assert back == ctx and alpha_eq(back, ctx)
    assert parse_wire("@") == HOLE
