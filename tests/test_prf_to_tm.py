"""Recursive functions compiled to multitape machines (unary convention)."""

import itertools

import pytest

from churing.errors import ValidationError
from churing.prf import Compose, Mu, Proj, Succ, Zero, arity_check, const, evaluate, stdlib
from churing.prf_to_tm import _Builder, compile_prf_to_tm, layout_report, succ_machine
from churing.tm import numeric_layout, numeric_start, run, run_numeric

import tm_reference as ref
from tm_reference import compiled_stdlib

FUEL = 10 ** 6


def test_succ_machine_exact_behaviour():
    m = succ_machine()
    assert m.tapes == 1
    for n in range(5):
        assert run_numeric(m, [n], fuel=100) == n + 1
    # accepting head parks on the numeral's first cell
    from churing.tm import numeric_start
    out = run(m, "", fuel=100, start=numeric_start(m, [2]))
    assert out.tag == "Accept" and out.final.heads == (1,)


@pytest.mark.parametrize("name,oracle", [
    ("add", lambda a, b: a + b),
    ("mul", lambda a, b: a * b),
    ("monus", lambda a, b: max(a - b, 0)),
])
def test_compiled_binary_functions(name, oracle):
    f = stdlib(name)
    m, layout = compile_prf_to_tm(f)
    assert layout.arity == 2
    for a, b in itertools.product(range(5), repeat=2):
        got = run_numeric(m, [a, b], fuel=FUEL)
        assert got == oracle(a, b), (name, a, b)


def test_compiled_pred():
    m, _ = compile_prf_to_tm(stdlib("pred"))
    for n in range(5):
        got = run_numeric(m, [n], fuel=FUEL)
        assert got == max(n - 1, 0)


def test_compiled_zero_is_tiny():
    m, _ = compile_prf_to_tm(Zero(2))
    assert len(m.states) <= 8
    for a, b in itertools.product(range(3), repeat=2):
        assert run_numeric(m, [a, b], fuel=1000) == 0


def test_compiled_projection():
    m, _ = compile_prf_to_tm(Proj(3, 2))
    assert run_numeric(m, [4, 7, 1], fuel=FUEL) == 7


def test_compiled_composition():
    # succ(succ(x))
    f = Compose(Succ(), (Compose(Succ(), (Proj(1, 1),)),))
    m, _ = compile_prf_to_tm(f)
    for n in range(4):
        assert run_numeric(m, [n], fuel=FUEL) == n + 2


def test_compiled_mu():
    # least y with monus(x, y) = 0, i.e. the identity
    f = Mu(Compose(stdlib("monus"), (Proj(2, 1), Proj(2, 2))))
    m, _ = compile_prf_to_tm(f)
    for n in range(4):
        assert run_numeric(m, [n], fuel=FUEL) == n


def test_compiled_mu_divergence_runs_out_of_fuel():
    m, _ = compile_prf_to_tm(Mu(const(1, 2)))
    out = run_numeric(m, [0], fuel=5000)
    assert not isinstance(out, int) and out.tag == "FuelExhausted"


def test_accepting_heads_park_at_cell_one():
    m, _ = compile_prf_to_tm(stdlib("add"))
    out = run(m, "", fuel=FUEL, start=numeric_start(m, [2, 2]))
    assert out.tag == "Accept"
    assert all(h == 1 for h in out.final.heads)
    # the cell-0 markers are erased before accepting
    assert all("^" not in t.content() for t in out.final.tapes)


def test_every_head_is_on_cell_one_at_each_gadget_boundary(monkeypatch):
    # `_Builder`'s head invariant, checked on the reference step loop: each
    # of the six gadgets records its entry and exit states, and every run
    # of a compiled stdlib function at points 0..1 must have every head on
    # cell 1 whenever it enters one of them
    boundaries = {}  # builder -> the entry and exit states of its gadgets
    for name in ("erase", "write_zero", "append_one", "copy", "equal", "is_zero"):
        def gadget(self, *args, _wrapped=getattr(_Builder, name)):
            boundaries.setdefault(self, set()).update(a for a in args if isinstance(a, str))
            return _wrapped(self, *args)
        monkeypatch.setattr(_Builder, name, gadget)
    states_of = {}  # id of a built machine -> its builder's boundary states
    build = _Builder.machine

    def machine(self, *args):
        m = build(self, *args)
        states_of[id(m)] = boundaries[self]
        return m
    monkeypatch.setattr(_Builder, "machine", machine)
    visits = 0
    for name, (_, m, layout) in compiled_stdlib().items():
        states = states_of[id(m)]
        for args in itertools.product(range(2), repeat=layout.arity):
            out = ref.run(m, "", FUEL, want_trace=True, start=numeric_start(m, args))
            assert out.tag == "Accept", (name, args)
            for before, c in zip((None,) + out.trace, out.trace):
                # a rewind loops in its entry state: only an entry counts
                if c.state in states and (before is None or before.state != c.state):
                    assert set(c.heads) == {1}, (name, args, c.state, c.steps_taken)
                    visits += 1
    assert visits > 1000  # 1,086 when the invariant was first stated


def test_tape_budget_guard():
    # deep nesting beyond 16 tapes is refused, not silently miscompiled
    f = stdlib("add")
    for _ in range(8):
        f = Compose(stdlib("add"), (f, f))
    with pytest.raises(ValidationError):
        compile_prf_to_tm(f)


def test_layout_report_mentions_the_tapes():
    m, layout = compile_prf_to_tm(stdlib("add"))
    rep = layout_report(m, layout)
    assert "output tape" in rep and str(layout.output_tape) in rep


def test_every_compiled_layout_is_the_numeric_layout():
    exprs = {"S": Succ(), "P 1 1": Proj(1, 1), **{f"Z {k}": Zero(k) for k in range(4)}}
    compiled = {name: (e, *compile_prf_to_tm(e)) for name, e in exprs.items()}
    compiled.update(compiled_stdlib())
    for name, (e, m, layout) in sorted(compiled.items()):
        k = arity_check(e)
        assert layout == numeric_layout(m, k), name
        assert layout.output_tape == (1 if name == "S" else k + 1), name
    assert len(compiled) == 18


def test_compiled_matches_evaluator_on_random_exprs():
    exprs = [
        stdlib("sg"),
        Compose(stdlib("add"), (Proj(2, 2), Proj(2, 1))),
        Compose(stdlib("mul"), (stdlib("pred"), Proj(1, 1))),
    ]
    for e in exprs:
        m, layout = compile_prf_to_tm(e)
        k = layout.arity
        for pt in itertools.product(range(3), repeat=k):
            want = evaluate(e, pt, FUEL)
            got = run_numeric(m, list(pt), fuel=FUEL)
            assert got == want, (e, pt)
