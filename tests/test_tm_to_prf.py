"""Single-tape machines arithmetized as recursive functions (Gödel coding)."""

import pytest

from churing.errors import ValidationError
from churing.prf import evaluate
from churing.prf_to_tm import succ_machine
from churing.tm import numeric_start
from churing.tm_to_prf import (
    compile_tm_to_prf, decode_tape, enc_predicate, encode_tape,
    machine_tables, next_configuration_expr, num_steps_expr, pack_config,
    state_indices, unpack_config,
)
from tm_reference import step

FUEL = 10 ** 8


def test_tape_codec_frozen_values():
    # digits _ -> 0, "0" -> 1, "1" -> 2 at weight 3^position
    assert encode_tape("1101") == 71
    assert encode_tape("0") == 1
    for n in range(5):
        assert encode_tape("1" * n) == 3 ** n - 1
    assert decode_tape(71) == "1101"
    assert decode_tape(1) == "0"


def test_tape_codec_round_trip():
    for w in ["", "0", "1", "11", "101", "0011", "11111"]:
        assert decode_tape(encode_tape(w)) == w


def test_enc_predicate():
    # accepts exactly codes of unary numerals: 1 ("0") and 3^j - 1 ("1"*j)
    e = enc_predicate()
    good = {1} | {3 ** j - 1 for j in range(1, 6)}
    for n in range(0, 250):
        assert evaluate(e, [n], FUEL) == int(n in good), n


def test_config_packing_bijective():
    seen = set()
    for w in range(5):
        for q in range(3):
            for p in range(4):
                c = pack_config(w, q, p)
                assert unpack_config(c) == (w, q, p)
                assert c not in seen
                seen.add(c)


def test_state_indices():
    m = succ_machine()
    idx, sink = state_indices(m)
    assert idx[m.initial] == 0
    assert sink == len(m.states)
    assert sorted(idx.values()) == list(range(len(m.states)))


def test_machine_tables_cover_transitions():
    m = succ_machine()
    tables = machine_tables(m)
    assert set(tables) == {"action", "next_symbol", "next_state"}
    idx, sink = state_indices(m)
    # accepting states read as halted: stay, keep symbol, go to the sink
    acc = idx[next(iter(m.accept))]
    for s in range(3):
        assert evaluate(tables["action"], [acc, s], FUEL) == 2
        assert evaluate(tables["next_symbol"], [acc, s], FUEL) == s
        assert evaluate(tables["next_state"], [acc, s], FUEL) == sink


def _tape_code(tape):
    # cell 0 is the protected blank outside the code; cell i maps to 3^(i-1)
    return sum(encode_tape(ch) * 3 ** i for i, ch in enumerate(tape.cells[1:]))


def test_step_agreement_with_host():
    m = succ_machine()
    nxt = next_configuration_expr(m)
    idx, sink = state_indices(m)
    for n in range(4):
        c = numeric_start(m, [n])
        for _ in range(40):
            if c.state in m.accept:
                break
            code = pack_config(_tape_code(c.tapes[0]), idx[c.state], c.heads[0])
            c2 = step(m, c)
            want = pack_config(_tape_code(c2.tapes[0]), idx[c2.state], c2.heads[0])
            assert evaluate(nxt, [code], FUEL) == want, (n, c)
            c = c2


def test_num_steps_value():
    m = succ_machine()
    steps = num_steps_expr(m)
    # "11": walk right over two ones, append, rewind: six steps to accept
    assert evaluate(steps, [encode_tape("11")], FUEL) == 6


def test_compiled_succ_end_to_end():
    m = succ_machine()
    f = compile_tm_to_prf(m)
    for n in range(4):
        assert evaluate(f, [n], FUEL) == n + 1


def test_execute_stabilizes_after_halting():
    from churing.tm_to_prf import execute_expr
    m = succ_machine()
    ex = execute_expr(m)
    steps = num_steps_expr(m)
    w0 = encode_tape("11")
    t_h = evaluate(steps, [w0], FUEL)
    frozen = evaluate(ex, [w0, t_h + 1], FUEL)
    for extra in (2, 3):
        assert evaluate(ex, [w0, t_h + extra], FUEL) == frozen


def test_source_machine_guardrails():
    from churing.tm import make_machine
    two_tape = make_machine(name="t", states=["a"], initial="a", accept=["a"],
                            input_alphabet=["0"], tape_alphabet=["0", "_"],
                            tapes=2, rules=[])
    with pytest.raises(ValidationError) as err:
        compile_tm_to_prf(two_tape)
    # a squeezed machine carries '#' and dotted glyphs, so advising
    # to_single_tape would only lead to the alphabet refusal below
    assert str(err.value) == "Goedel compilation needs a single-tape machine"
    wide = make_machine(name="w", states=["a"], initial="a", accept=["a"],
                        input_alphabet=["0", "x"],
                        tape_alphabet=["0", "x", "_"], tapes=1, rules=[])
    with pytest.raises(ValidationError):
        compile_tm_to_prf(wide)


def test_machine_tables_refuse_ambiguous_targets():
    # a machine whose one entry has two targets cannot be marked
    # deterministic, so machine_tables sees it as it is and refuses it
    from dataclasses import replace
    from churing.tm import make_machine
    m = make_machine(name="two", states=["a", "b", "c"], initial="a", accept=["c"],
                     input_alphabet=["1"], tape_alphabet=["0", "1", "_"], tapes=1,
                     rules=[("a", "1", "b", "1", "R"), ("a", "1", "c", "0", "R")])
    assert not m.deterministic
    with pytest.raises(ValueError, match="init=False"):
        replace(m, deterministic=True)
    with pytest.raises(ValidationError, match="needs a deterministic machine"):
        machine_tables(m)


def test_equiv_grid_round_trip_column_only_for_bare_successor():
    # only S compiles to a one-tape machine over {0,1,_}; pred's machine has
    # four tapes, and prime's does not compile (more than 16 tapes)
    from churing.equiv import equiv_grid
    from churing.prf import Named, Succ, stdlib
    from churing.prf_to_lam import compile_prf_to_lambda
    from churing.prf_to_tm import compile_prf_to_tm

    report = equiv_grid(Succ(), succ_machine(), compile_prf_to_lambda(Succ()), [(0,), (2,)])
    assert [report.results[p]["roundtrip"] for p in report.grid] == [1, 3]
    named = Named("s", Named("t", Succ()))  # S under names is still bare S
    report = equiv_grid(named, succ_machine(), compile_prf_to_lambda(named), [(1,)])
    assert report.results[(1,)] == {"prf": 2, "tm": 2, "lam": 2, "roundtrip": 2}
    pred = stdlib("pred")
    report = equiv_grid(pred, compile_prf_to_tm(pred)[0], compile_prf_to_lambda(pred), [(2,)])
    assert report.results[(2,)] == {"prf": 1, "tm": 1, "lam": 1}
    prime = stdlib("prime")
    report = equiv_grid(prime, succ_machine(), compile_prf_to_lambda(prime), [(0,)], fuel=100)
    assert "roundtrip" not in report.results[(0,)]
