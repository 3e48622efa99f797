"""Exit-code contract and report formats of the command line interface."""

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from churing import cli as cli_module, lam as lam_module
from churing.cli import cli
from churing.equiv import DEFAULT_FUEL, MAX_GRID_POINTS, equiv_grid, parse_grid
from churing.errors import MAX_ENCODED, GuardExceeded, NotANumeral, ValidationError
from churing.formats import parse, print_nat, print_source
from churing.lam import App, Var, church_encode, lam
from churing.prf import MAX_NATIVE_BITS, Succ, arity_check, stdlib, stdlib_names
from churing.prf_to_lam import compile_prf_to_lambda
from churing.tm import MAX_MACHINE_TAPES, encode_unary, make_machine

from conftest import CORPUS

SRC = Path(__file__).resolve().parent.parent / "src"


def _c(name):
    return str(CORPUS / name)


# --- run ---------------------------------------------------------------

def test_run_tm_accept(capsys):
    assert cli(["run", "tm", _c("onon.tm"), "--input", "0011"]) == 0
    assert capsys.readouterr().out.strip() == "Accept"


def test_run_tm_reject(capsys):
    assert cli(["run", "tm", _c("onon.tm"), "--input", "010"]) == 1
    assert capsys.readouterr().out.strip() == "Reject"


def test_run_tm_word_outside_input_alphabet(capsys):
    assert cli(["run", "tm", _c("copier.tm"), "--input", "a_b"]) == 3
    assert "outside input alphabet" in capsys.readouterr().err
    assert cli(["transform", "--nd-run", _c("contains11_guesser.tm"), "--input", "012"]) == 3


def test_run_tm_decides_with_an_automaton(capsys):
    assert cli(["run", "tm", _c("even_as.tm"), "--input", "aba"]) == 0
    assert cli(["run", "tm", _c("even_as.tm"), "--input", "ab"]) == 1
    assert cli(["run", "tm", _c("contains11_nfa.tm"), "--input", "0110"]) == 0
    assert cli(["run", "tm", _c("contains11_nfa.tm"), "--input", "0101"]) == 1
    assert capsys.readouterr().out.split() == ["Accept", "Reject", "Accept", "Reject"]
    assert cli(["run", "tm", _c("even_as.tm"), "--input", "abc"]) == 3
    assert "outside the DFA alphabet" in capsys.readouterr().err


def test_run_tm_fuel_exhausted(capsys):
    assert cli(["run", "tm", _c("onon.tm"), "--input", "0011",
                "--fuel", "2"]) == 2
    assert capsys.readouterr().out.strip() == "FuelExhausted"


_ONON_TRACE = """\
q0 ['0011']
q1 ['X011']
q1 ['X011']
q2 ['X0Y1']
q2 ['X0Y1']
q0 ['X0Y1']
q1 ['XXY1']
q1 ['XXY1']
q2 ['XXYY']
q2 ['XXYY']
q0 ['XXYY']
q4 ['XXYY']
q4 ['XXYY']
q5 ['XXYY']
"""


def test_run_tm_trace(tmp_path, capsys):
    # pinned output: one line per configuration on stderr, the tag on stdout
    assert cli(["run", "tm", _c("onon.tm"), "--input", "0011", "--trace"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("Accept\n", _ONON_TRACE)
    # the squeezed copier sweeps its one tape back and forth
    squeezed = tmp_path / "copier1.tm"
    assert cli(["transform", "--single-tape", _c("copier.tm")]) == 0
    squeezed.write_text(capsys.readouterr().out)
    assert cli(["run", "tm", str(squeezed), "--input", "abba", "--trace"]) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert (out, len(lines), lines[:3], lines[-1]) == (
        "Accept\n", 357, ["s0 ['abba']", "s2 ['#bba']", "s3 ['#aba']"], "s72 ['#abbac#abbac#']")
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "8178d81ca4bbaf5d8d58a8638d7f77d23367f1886267670246ba2e6d74136826")
    # the tapes alone, which no renaming of the squeezed states moves
    tapes = "".join(line.split(" ", 1)[1] + "\n" for line in lines)
    assert hashlib.sha256(tapes.encode()).hexdigest() == (
        "4990da06e13ce848e2619c9a4c8ec2939dc125daa0db0c35db021482f60a9374")


_RUN_ONE = {"tm": ["tm", _c("onon.tm"), "--input", "0011"],
            "prf": ["prf", _c("succ.prf"), "--args", "4"],
            "lam": ["lam", _c("example_term.lam")]}


@pytest.mark.parametrize("model", sorted(_RUN_ONE))
def test_run_fuel_is_a_natural_number(model, capsys):
    # negative fuel is bad input in every model; zero fuel runs out at once
    assert cli(["run", *_RUN_ONE[model], "--fuel", "-1"]) == 3
    assert "fuel must be a natural number" in capsys.readouterr().err
    assert cli(["run", *_RUN_ONE[model], "--fuel", "0"]) == 2
    assert capsys.readouterr().out.strip() == "FuelExhausted"


def test_nd_run_depth_is_a_natural_number(capsys):
    assert cli(["transform", "--nd-run", _c("contains11_guesser.tm"), "--input", "011",
                "--depth", "-1"]) == 3
    assert "max_depth must be a natural number" in capsys.readouterr().err
    assert cli(["transform", "--nd-run", _c("contains11_guesser.tm"), "--input", "011",
                "--depth", "0"]) == 1


def test_run_prf(capsys):
    assert cli(["run", "prf", _c("succ.prf"), "--args", "4"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_run_prf_divergent(tmp_path, capsys):
    f = tmp_path / "div.prf"
    f.write_text("Mu C S (Z 2)\n")
    assert cli(["run", "prf", str(f), "--args", "0", "--fuel", "10000"]) == 2
    assert capsys.readouterr().out.strip() == "FuelExhausted"


def test_run_prf_prints_a_huge_value_exactly(tmp_path, capsys):
    # 2^20000 has 6,021 digits, more than CPython turns into text by default;
    # the command prints them all and leaves that limit as it was
    f = tmp_path / "pow2.prf"
    f.write_text(print_source("prf", stdlib("pow2")))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert cli(["run", "prf", str(f), "--args", "20000"]) == 0
    assert capsys.readouterr().out == print_nat(2 ** 20_000) + "\n"
    assert cli(["equiv", "--prf", str(f), "--tm", _c("succ.tm"), "--lam", _c("combinators.lam"),
                "--grid", "20000..20000", "--fuel", "100"]) == 2
    assert f"20000;prf;{print_nat(2 ** 20_000)}" in capsys.readouterr().out.splitlines()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _in_a_child(argv):
    """``churing argv`` run in a child, which must finish within 1 s with a
    peak RSS under 200 MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    began = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "churing.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - began
    # the largest peak of every child reaped so far, in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert seconds < 1 and peak_mb < 200, (seconds, peak_mb, proc.stderr)
    return proc


def _refused_at_once(argv):
    """stderr of ``churing argv`` in a child, which must exit 3 within 1 s
    with a peak RSS under 200 MB: what a cap refuses is never built."""
    proc = _in_a_child(argv)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    return proc.stderr


def test_run_prf_refuses_a_native_result_past_its_cap(tmp_path):
    # 2^(10^10) would be an int of about 1.25 GB, built for one unit of fuel
    f = tmp_path / "pow2.prf"
    f.write_text(print_source("prf", stdlib("pow2")))  # main = C exp (const2/1, P 1 1)
    err = _refused_at_once(["run", "prf", str(f), "--args", "10000000000"])
    assert "exp: a result of up to 20000000000 bits is past MAX_NATIVE_BITS = " in err
    assert MAX_NATIVE_BITS == 2 ** 20
    # the cap is on the bound n * b.bit_length(): pow2 runs to n = 2^19
    assert stdlib("pow2").native(2 ** 19) == 2 ** 2 ** 19
    for name, args in [("pow2", (2 ** 19 + 1,)), ("pow3", (2 ** 19 + 1,)),
                       ("exp", (3, 2 ** 19 + 1)), ("mul", (2 ** 2 ** 19, 2 ** 2 ** 19))]:
        with pytest.raises(GuardExceeded, match=f"^{name}: a result of up to"):
            stdlib(name).native(*args)
    assert stdlib("exp").native(1, 10 ** 100) == 1 and stdlib("exp").native(0, 10 ** 100) == 0


def test_run_prf_prime_native_answers_or_refuses_at_once(tmp_path):
    # stdlib prime as a def of its own, so `run prf` reaches its native;
    # trial division to the square root would run for minutes at 10^18 + 3
    # and overflow a float at 10^400
    f = tmp_path / "prime.prf"
    text = print_source("prf", stdlib("prime")).replace("def main = ", "def prime = ")
    f.write_text(text + "def main = C prime (P 1 1)\n")
    proc = _in_a_child(["run", "prf", str(f), "--args", "1000000000000000003"])
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr
    err = _refused_at_once(["run", "prf", str(f), "--args", str(10 ** 400)])
    assert "prime: an argument of 1329 bits is past PRIME_NATIVE_BOUND = " in err


# each model refuses the options of the others: `run tm --args` would
# otherwise run the adder on the empty word and answer Reject; a DFA or an
# NFA decides its word in no steps, so it has no trace to print and no fuel
# to spend (`--fuel 0` would otherwise still answer Accept)
@pytest.mark.parametrize("argv, error", [
    (["tm", _c("add_compiled.tm"), "--args", "2", "3"], "--args does not apply to run tm"),
    (["prf", _c("succ.prf"), "--args", "4", "--trace"], "--trace does not apply to run prf"),
    (["lam", _c("example_term.lam"), "--input", "01"], "--input does not apply to run lam"),
    (["tm", _c("even_as.tm"), "--input", "aab", "--trace"],
     f"--trace does not apply to the finite automaton in {_c('even_as.tm')}"),
    (["tm", _c("contains11_nfa.tm"), "--input", "011", "--trace"],
     f"--trace does not apply to the finite automaton in {_c('contains11_nfa.tm')}"),
    (["tm", _c("even_as.tm"), "--input", "aab", "--fuel", "0"],
     f"--fuel does not apply to the finite automaton in {_c('even_as.tm')}"),
    (["tm", _c("contains11_nfa.tm"), "--input", "011", "--fuel", str(DEFAULT_FUEL)],
     f"--fuel does not apply to the finite automaton in {_c('contains11_nfa.tm')}"),
], ids=["tm", "prf", "lam", "tm-dfa", "tm-nfa", "tm-dfa-fuel", "tm-nfa-fuel"])
def test_run_refuses_an_option_of_another_model(argv, error, capsys):
    assert cli(["run", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_run_lam_numeral(tmp_path, monkeypatch, capsys):
    # a numeral is decoded by one run of the normalizing machine
    runs = []
    real = lam_module._run_machine
    monkeypatch.setattr(lam_module, "_run_machine", lambda *a: runs.append(1) or real(*a))
    f = tmp_path / "t.lam"
    f.write_text("(\\m n. n m) #2 #3\n")  # 3 applied to 2 is 2^3
    assert cli(["run", "lam", str(f)]) == 0
    assert (capsys.readouterr().out, len(runs)) == ("#8\n", 1)


def test_run_lam_apply(tmp_path, capsys):
    f = tmp_path / "succ.lam"
    f.write_text("\\n f x. f (n f x)\n")
    assert cli(["run", "lam", str(f), "--apply", "#6"]) == 0
    assert capsys.readouterr().out.strip() == "#7"
    # the arguments are juxtaposed terms, each parsed whole
    assert cli_module.parse_apply("a (b c) d") == [Var("a"), App(Var("b"), Var("c")), Var("d")]


@pytest.mark.parametrize("args, where", [
    ("x )", "trailing tokens after term at line 1, column 3"),
    ("#q", "expected an integer, got 'q' at line 1, column 2"),
    ("x\n)", "trailing tokens after term at line 2, column 1"),
])
def test_run_lam_apply_errors_point_into_the_arguments(tmp_path, capsys, args, where):
    f = tmp_path / "id.lam"
    f.write_text("\\x. x\n")
    assert cli(["run", "lam", str(f), "--apply", args]) == 3
    assert capsys.readouterr().err == f"error: {where}\n"


def test_run_lam_divergent(tmp_path, capsys):
    f = tmp_path / "omega.lam"
    f.write_text("(\\x. x x) (\\x. x x)\n")
    assert cli(["run", "lam", str(f), "--fuel", "500"]) == 2


def test_run_lam_non_numeral_is_normalized_once(tmp_path, monkeypatch, capsys):
    # the normal form printed is the one the decoder read back
    runs = []
    real = lam_module._run_machine
    monkeypatch.setattr(lam_module, "_run_machine", lambda *a: runs.append(1) or real(*a))
    f = tmp_path / "t.lam"
    f.write_text("def x = #5 q\n")
    assert cli(["run", "lam", str(f)]) == 0
    assert (capsys.readouterr().out, len(runs)) == ("\\x1. q (q (q (q (q x1))))\n", 1)


def test_non_numeral_is_rendered_only_when_read(tmp_path, monkeypatch, capsys):
    # run lam prints the normal form once; an equiv_grid cell never reads it
    renders = []
    real = lam_module._render  # formats.print_lam and lam.render look it up there
    monkeypatch.setattr(lam_module, "_render", lambda *a, **k: renders.append(1) or real(*a, **k))
    f = tmp_path / "t.lam"
    f.write_text("def x = #5 q\n")
    assert cli(["run", "lam", str(f)]) == 0
    assert (capsys.readouterr().out, len(renders)) == ("\\x1. q (q (q (q (q x1))))\n", 1)
    renders.clear()
    report = equiv_grid(Succ(), parse("tm", Path(_c("succ.tm")).read_text()),
                        lam(["n"], Var("q")), [(0,)])
    assert (report.results[(0,)]["lam"], len(renders)) == (None, 0)
    with pytest.raises(NotANumeral) as caught:
        lam_module.church_decode(App(church_encode(2), Var("q")))
    assert str(caught.value) == "not a numeral: \\x1. q (q x1)"
    assert len(renders) == 1


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# stdout of `churing run lam`, recorded when a non-numeral was normalized a
# second time to print it: each compiled stdlib function applied to #2 in
# every argument, and the SHA-256 of the normal form each one and each corpus
# file prints, none of them a numeral; every run exits 0.  The normal forms
# of absdiff, div, divides, eq, extract, mod and prime were re-recorded when
# the printer came to put shared closed subterms on def lines; each new text
# parses to a term alpha-equal to what the old text parsed to.
_RUN_LAM_APPLIED = {
    "absdiff": "#0", "add": "#4", "div": "#1", "divides": "#1", "eq": "#1", "exp": "#4",
    "extract": "#1", "id": "#2", "lt": "#0", "mod": "#0", "monus": "#0", "mul": "#4",
    "pow2": "#4", "pow3": "#9", "pred": "#1", "prime": "#1", "sg": "#1",
}
_RUN_LAM_NORMAL_FORMS = {
    "combinators.lam": "b74ebb88b382f46f29d81ca22ada160ec28126cc087206084623275d500a80f3",
    "example_term.lam": "98b21dd16a26831b4cf2662c67cc3bcb55a286adf1b154c4cbc0a036d138d6cb",
    "absdiff": "ef3c8b9c47cfef8fa1b621c1c1e57aef01f0d8f735a3413be8e783e0f7ad00db",
    "add": "6d7f0ba5a2084117966f179baf4217cc572f3e0d3c44b0a80e65d66422570c75",
    "div": "4a4cc843add139b1fb0e494b4d16ff2188f99d72d3ea1907191e28cb001778df",
    "divides": "cb902afc609544ce8171a6a532a21c27005754297c687eb4d11ad614018a660f",
    "eq": "1fcc2ba5c50c2b08f67d942a535d1a51f5de6497ec6c432a4f192d3a221fa4ec",
    "exp": "0d77f84c854125988b616402d10d5c9c76ac692c064d1ac546208489678c558c",
    "extract": "f29b0c3981a070bf50a5f03b5d7fe108d2b81e569eabf40e5b9dbd9ccad276a8",
    "id": "8cfd78e95ab3af9097913e88b5fef8aa76d4fa21635e8c1ace8a42fa091385f8",
    "lt": "b5ead1551793a114cb0e960104da8bb518033ae39f3616159d6112fbd0635853",
    "mod": "de4e27da89cb4d879cfa2e787c247a6883973888a7fcbe0f8e9447fda1315572",
    "monus": "e2c2aef5b3c81d7b02b9e65d6f0724a70ab7fcb3dc88d4948ec4213f2a3a8517",
    "mul": "c65bd7c3957e11f558f18755bc0b88d24fd227be6277c0c6fccca6e807da3624",
    "pow2": "643a3a4b0ba41a78d7c7be78242a577bc096e27173e0cda92dadecfe5186e258",
    "pow3": "dc2be7c402b9d9f34e2d0cd2cacf4bae6e925aa07d8a92285170787ac9a06593",
    "pred": "f89620e7fa445393a2cb637e0ecef36c02aca90f8c1e96cb7df54d2f98eb2962",
    "prime": "f047e09076f4c65edb3afb63826fac7644744b77309da1f1061a0eee8722f89c",
    "sg": "1b850c441d752ddf97347a74cf0e92dad231537861a2a70eae146267826cb370",
}


@pytest.mark.parametrize("name", stdlib_names())
def test_run_lam_compiled_stdlib_is_pinned(tmp_path, capsys, name):
    f = tmp_path / f"{name}.lam"
    f.write_text(print_source("lam", compile_prf_to_lambda(stdlib(name))))
    args = " ".join(["#2"] * arity_check(stdlib(name)))
    assert cli(["run", "lam", str(f), "--apply", args]) == 0
    assert capsys.readouterr().out == _RUN_LAM_APPLIED[name] + "\n"
    assert cli(["run", "lam", str(f)]) == 0
    assert _sha256(capsys.readouterr().out) == _RUN_LAM_NORMAL_FORMS[name]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.lam")), ids=lambda p: p.name)
def test_run_lam_corpus_is_pinned(path, capsys):
    assert cli(["run", "lam", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == _RUN_LAM_NORMAL_FORMS[path.name]


# --- errors ------------------------------------------------------------

def test_missing_file_is_an_error():
    assert cli(["run", "tm", "/nonexistent/x.tm", "--input", ""]) == 3


def test_malformed_source_is_an_error(tmp_path):
    f = tmp_path / "bad.tm"
    f.write_text("gibberish\n")
    assert cli(["run", "tm", str(f), "--input", ""]) == 3


def test_non_integer_argument_is_an_error(capsys):
    assert cli(["run", "prf", _c("succ.prf"), "--args", "abc"]) == 3
    assert "error:" in capsys.readouterr().err


def test_directory_is_an_error(capsys):
    assert cli(["run", "prf", str(CORPUS)]) == 3
    assert "error:" in capsys.readouterr().err


def test_file_that_is_not_utf8_is_an_error(tmp_path, capsys):
    # every command that reads a file, on each kind of file it reads
    bad = {}
    for kind in ("tm", "prf", "lam"):
        bad[kind] = str(tmp_path / f"bad.{kind}")
        Path(bad[kind]).write_bytes(b"\xff\xfe")
    argvs = [["check", bad["tm"]], ["run", "tm", bad["tm"]], ["run", "prf", bad["prf"]],
             ["run", "lam", bad["lam"]], ["transform", "--single-tape", bad["tm"]],
             ["transform", "--nd-run", bad["tm"]]]
    argvs += [["compile", "--from", src, "--to", dst, bad[src], "-o", str(tmp_path / "out")]
              for src, dst in [("prf", "tm"), ("prf", "lam"), ("tm", "prf"), ("lam", "tm-suite")]]
    partner = {"prf": _c("succ.prf"), "tm": _c("succ.tm"), "lam": _c("combinators.lam")}
    for kind in bad:
        slots = dict(partner, **{kind: bad[kind]})
        argvs.append(["equiv", "--prf", slots["prf"], "--tm", slots["tm"], "--lam", slots["lam"],
                      "--grid", "0..1"])
    for argv in argvs:
        assert cli(argv) == 3, argv
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode"), argv


def test_equiv_names_the_file_that_is_not_utf8(tmp_path, capsys):
    # of the three files equiv reads, the error names the one at fault
    partner = {"prf": _c("succ.prf"), "tm": _c("succ.tm"), "lam": _c("combinators.lam")}
    for kind in partner:
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(b"\xff\xfe")
        slots = dict(partner, **{kind: str(bad)})
        assert cli(["equiv", "--prf", slots["prf"], "--tm", slots["tm"], "--lam", slots["lam"],
                    "--grid", "0..1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode"), kind
        assert err.rstrip("\n").endswith(f" in {bad}"), err


def test_a_fault_exits_four_with_its_traceback(monkeypatch, capsys):
    # a bug in churing is neither a negative answer (1) nor an input error (3)
    def broken(*args):
        raise ZeroDivisionError("planted")
    monkeypatch.setattr(cli_module, "evaluate", broken)
    assert cli(["run", "prf", _c("succ.prf"), "--args", "4"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("ZeroDivisionError: planted\n")


def test_every_command_on_every_corpus_file_keeps_the_exit_code_contract(tmp_path, capsys):
    # each file, whatever its kind, goes through every command; equiv puts it
    # in the slot of its kind, beside the successor in the other two
    partner = {"prf": _c("succ.prf"), "tm": _c("succ.tm"), "lam": str(tmp_path / "succ.lam")}
    assert cli(["compile", "--from", "prf", "--to", "lam", partner["prf"], "-o", partner["lam"]]) == 0
    pairs = [("prf", "tm"), ("prf", "lam"), ("tm", "prf"), ("lam", "tm-suite")]
    fuel = ["--fuel", "20000"]
    argvs = []
    for path in sorted(CORPUS.iterdir()):
        f, slots = str(path), dict(partner, **{path.suffix[1:]: str(path)})
        argvs += [["run", "tm", f, *fuel], ["run", "prf", f, "--args", "1", *fuel],
                  ["run", "lam", f, *fuel], ["transform", "--single-tape", f],
                  ["transform", "--nd-run", f], ["check", f],
                  ["equiv", "--prf", slots["prf"], "--tm", slots["tm"], "--lam", slots["lam"],
                   "--grid", "0..1", *fuel]]
        argvs += [["compile", "--from", src, "--to", dst, f, "-o", str(tmp_path / f"out.{dst}")]
                  for src, dst in pairs]
    broken = []
    for argv in argvs:
        try:
            code = cli(argv)
        except Exception as ex:  # an escape breaks the contract as much as a bad code
            code = ex
        if not (type(code) is int and 0 <= code <= 3):
            broken.append((argv, code))
    capsys.readouterr()
    assert len(argvs) == 187 and broken == []


def test_run_lam_deep_numeral(tmp_path, capsys):
    f = tmp_path / "deep.lam"
    f.write_text("def x = #100000\n")
    assert cli(["run", "lam", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "#100000"


def test_run_lam_deep_non_numeral(tmp_path, capsys):
    # the normal form is 100000 applications of q deep; printing it needs
    # no recursion
    f = tmp_path / "deep.lam"
    f.write_text("def x = #100000 q\n")
    assert cli(["run", "lam", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\\x1. q (q (q ") and out.endswith("x1" + ")" * 99999 + "\n")


def _nested_prf(n):
    return "C S (" * n + "P 1 1" + ")" * n + "\n"


def _def_chain_prf(n):
    return "def f0 = P 1 1\n" + "".join(f"def f{i} = C S (f{i - 1})\n" for i in range(1, n + 1))


def _nested_lam(n):
    return "(\\a. " * n + "a" + ")" * n + "\n"


@pytest.mark.parametrize("n", [30_000, 100_000])
@pytest.mark.parametrize("source", [_nested_prf, _def_chain_prf, _nested_lam],
                         ids=["nested-prf", "def-chain-prf", "nested-lam"])
def test_deep_input_exits_three(tmp_path, source, n):
    # a crash here (stack overflow, exit 139) would take the test process
    # down with it, so each command runs in its own process
    kind = "lam" if source is _nested_lam else "prf"
    f = tmp_path / f"deep.{kind}"
    f.write_text(source(n))
    commands = [["run", kind, str(f)] + (["--args", "1"] if kind == "prf" else [])]
    if kind == "prf":
        commands.append(["compile", "--from", "prf", "--to", "lam", str(f),
                         "-o", str(tmp_path / "out.lam")])
    if source is _def_chain_prf:
        # every line is shallow, so the file parses; running or compiling nests
        assert cli(["check", str(f)]) == 0
    else:
        commands.append(["check", str(f)])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [subprocess.Popen([sys.executable, "-m", "churing.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv in commands]
    for argv, proc in zip(commands, procs):
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (3, "error: input nested too deeply\n"), argv


def test_shallow_nesting_still_runs(tmp_path, capsys):
    prf, chain, lam_f = tmp_path / "n.prf", tmp_path / "c.prf", tmp_path / "n.lam"
    prf.write_text(_nested_prf(200))
    chain.write_text(_def_chain_prf(200))
    lam_f.write_text(_nested_lam(100))
    for f in (prf, chain, lam_f):
        assert cli(["check", str(f)]) == 0
    for f in (prf, chain):
        assert cli(["run", "prf", str(f), "--args", "1"]) == 0
        assert cli(["compile", "--from", "prf", "--to", "lam", str(f),
                    "-o", str(tmp_path / "out.lam")]) == 0
    assert cli(["run", "lam", str(lam_f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3] == out[5] == "201"  # run prf on each file
    assert out[-1].startswith("\\x1 x2 ") and out[-1].endswith(" x100")


def test_usage_error_exits_three():
    assert cli(["run", "nosuchmodel", "x"]) == 3
    assert cli(["frobnicate"]) == 3


# --- check -------------------------------------------------------------

def test_check_ok(capsys):
    assert cli(["check", _c("arith.prf")]) == 0
    assert "ok:" in capsys.readouterr().out


def test_check_bad(tmp_path):
    f = tmp_path / "bad.lam"
    f.write_text("def f = (x\n")
    assert cli(["check", str(f)]) == 3


def test_check_refuses_a_def_named_by_punctuation(tmp_path, capsys):
    for name, text in (("d.lam", "def # = x\n"), ("d.prf", "def ( = S\n"),
                       ("d.prf", "def S = Z 1\n")):
        f = tmp_path / name
        f.write_text(text)
        assert cli(["check", str(f)]) == 3
        assert capsys.readouterr().err == (
            f"error: expected a definition name, got {text[4]!r} at line 1, column 5\n")


def test_check_refuses_a_mode_header_other_than_semi(tmp_path, capsys):
    f = tmp_path / "two.tm"
    f.write_text(Path(_c("succ.tm")).read_text().replace("mode: semi", "mode: two-way"))
    assert cli(["check", str(f)]) == 3
    assert "mode must be semi" in capsys.readouterr().err


def _automaton(kind, states="a", initial="a", accept="a", alphabet="0", delta="a 0 -> a"):
    return (f"kind: {kind}\nstates: {states}\ninitial: {initial}\naccept: {accept}\n"
            f"alphabet: {alphabet}\ndelta:\n{delta}\n")


# each automaton was once accepted by `check`; run, a DFA answered with a
# KeyError traceback (exit 4) and an NFA with Reject, and a symbol of two
# characters could never be read
@pytest.mark.parametrize("text, error", [
    (_automaton("dfa", initial="b"), "DFA initial state 'b' not declared"),
    (_automaton("dfa", delta="a 0 -> zz"), "DFA transition into undeclared state 'zz'"),
    (_automaton("dfa", accept="a b"), "DFA accept state 'b' not declared"),
    (_automaton("nfa", initial="b"), "NFA initial state 'b' not declared"),
    (_automaton("nfa", delta="a 0 -> zz"), "NFA transition into undeclared state 'zz'"),
    (_automaton("nfa", delta="b 0 -> a"), "NFA transition from undeclared state 'b'"),
    (_automaton("nfa", delta="a 9 -> a"), "NFA transition symbol '9' outside the alphabet"),
    (_automaton("dfa", alphabet="0 00", delta="a 0 -> a\na 00 -> a"),
     "DFA alphabet symbols are single characters, got '00'"),
], ids=["dfa-initial", "dfa-target", "dfa-accept", "nfa-initial", "nfa-target", "nfa-source",
        "nfa-symbol", "dfa-two-characters"])
def test_an_automaton_is_checked_where_it_is_built(tmp_path, capsys, text, error):
    f = tmp_path / "fa.tm"
    f.write_text(text)
    for argv in (["check", str(f)], ["run", "tm", str(f), "--input", "00"]):
        assert cli(argv) == 3
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_an_nfa_reads_every_symbol_of_its_input(tmp_path, capsys):
    # once no state was live after the `1`, the NFA answered Reject
    # without reading the `z`
    f = tmp_path / "fa.tm"
    f.write_text(_automaton("nfa", states="a b", accept="b", alphabet="0 1", delta="a 0 -> b"))
    assert cli(["run", "tm", str(f), "--input", "1z"]) == 3
    assert capsys.readouterr() == ("", "error: symbol 'z' outside the NFA alphabet\n")


# each line was once read as `a 0 -> a`, wherever its arrow stood or with
# none: `check` passed it and `run tm --input 00` answered Accept
@pytest.mark.parametrize("line", ["a 0 a", "-> a 0 a", "a -> 0 a", "a 0 -> a -> a", "a 0 -> a->"])
@pytest.mark.parametrize("kind", ["dfa", "nfa"])
def test_an_automaton_line_is_two_tokens_one_arrow_and_one_token(tmp_path, capsys, kind, line):
    f = tmp_path / "fa.tm"
    f.write_text(_automaton(kind, delta=line))
    for argv in (["check", str(f)], ["run", "tm", str(f), "--input", "00"]):
        assert cli(argv) == 3
        assert capsys.readouterr() == (
            "", "error: automaton transition format is 'q a -> p' at line 7, column 1\n")
    # the arrow needs no spaces around it
    f.write_text(_automaton(kind, delta="a 0->a"))
    assert cli(["run", "tm", str(f), "--input", "00"]) == 0


def _tm(head="", tapes="1", accept="a", input_alphabet="0", tape_alphabet="0 _",
        delta="a 0 -> a 0 R"):
    return (f"{head}tapes: {tapes}\nstates: a\ninitial: a\naccept: {accept}\n"
            f"input_alphabet: {input_alphabet}\ntape_alphabet: {tape_alphabet}\n"
            f"delta:\n{delta}\n")


# every refusal of `.tm` text that a file can reach
@pytest.mark.parametrize("text, error", [
    (_tm(input_alphabet="0 1"), "input alphabet must be a subset of the tape alphabet"),
    (_tm(tape_alphabet="0"), "blank symbol missing from tape alphabet"),
    (_tm(input_alphabet="0 _"), "blank symbol may not appear in the input alphabet"),
    (_tm(tape_alphabet="0 _ *"), "'*' is reserved and may not be a tape symbol"),
    (_tm(tape_alphabet="0 _ ab"), "symbols are single characters, got 'ab'"),
    (_tm(accept="a b"), "accept states must be declared states"),
    (_tm(delta="b 0 -> a 0 R"), "transition from undeclared state 'b'"),
    (_tm(delta="a 0 -> b 0 R"), "transition into undeclared state 'b'"),
    (_tm(delta="a 0 -> a 1 R"), "write symbol '1' outside tape alphabet"),
    (_tm(head="kind: pda\n"), "unknown kind 'pda' at line 1, column 1"),
    (_tm(tapes="two"), "tapes: wants an integer, got 'two' at line 1, column 1"),
    (_tm(delta="a 0 a 0 R"), "transition line needs '->' at line 8, column 1"),
    (_automaton("dfa", delta="a 0 -> a 0"),
     "automaton transition format is 'q a -> p' at line 7, column 1"),
    (_automaton("dfa", delta="a 0 -> a\na 0 -> a"),
     "duplicate DFA transition for (a,0) at line 8, column 1"),
], ids=["input-alphabet", "no-blank", "blank-input", "wild-symbol", "two-characters",
        "accept", "source", "target", "write", "kind", "tapes", "no-arrow",
        "automaton-line", "dfa-duplicate"])
def test_every_refusal_of_tm_text_exits_three(tmp_path, capsys, text, error):
    f = tmp_path / "m.tm"
    f.write_text(text)
    for argv in (["check", str(f)], ["run", "tm", str(f), "--input", "0"]):
        assert cli(argv) == 3
        assert capsys.readouterr() == ("", f"error: {error}\n")


# a later header once silently won: `accept: a` made this start rejecting
@pytest.mark.parametrize("text, line", [
    ("name: m\ninitial: q\naccept: q\nstates: q a\ninput_alphabet: 0\n"
     "tape_alphabet: 0 _\naccept: a\ndelta:\n", 7),
    (_automaton("dfa").replace("delta:", "accept: \ndelta:"), 6),
], ids=["tm", "dfa"])
def test_a_repeated_tm_header_is_refused_at_its_line(tmp_path, capsys, text, line):
    f = tmp_path / "twice.tm"
    f.write_text(text)
    for argv in (["check", str(f)], ["run", "tm", str(f), "--input", ""]):
        assert cli(argv) == 3
        assert capsys.readouterr() == ("", f"error: repeated header 'accept:' "
                                           f"at line {line}, column 1\n")


def test_a_machine_of_more_than_max_tapes_is_refused_at_once(tmp_path):
    # 30,000,000 tapes once passed `check`; `run tm` then ran out of memory
    f = tmp_path / "wide.tm"
    f.write_text("tapes: 30000000\nstates: q\ninitial: q\naccept: q\n"
                 "input_alphabet: 0\ntape_alphabet: 0 _\ndelta:\n")
    error = "error: 30000000 tapes are more than MAX_MACHINE_TAPES = 128"
    assert error in _refused_at_once(["run", "tm", str(f), "--input", "0"])
    assert error in _refused_at_once(["equiv", "--prf", _c("succ.prf"), "--tm", str(f),
                                      "--lam", _c("combinators.lam"), "--grid", "0..1"])
    # compiled `extract` needs 68 tapes, and the squeeze nests once per tape
    assert MAX_MACHINE_TAPES == 128
    spec = make_machine("m", ["q"], "q", ["q"], ["0"], ["0", "_"], MAX_MACHINE_TAPES, [])
    assert spec.tapes == MAX_MACHINE_TAPES


@pytest.mark.parametrize("n", ["100000000000", "1" * 5000])
def test_check_of_a_huge_constant_builds_no_huge_term(tmp_path, n):
    # the name const<n>/<k> with a body that does not spell n: no n-node
    # term is built to compare the body with, and n is never read as an int
    f = tmp_path / "huge.prf"
    f.write_text(f"def const{n}/1 = Z 1\n")
    t0 = time.perf_counter()
    assert cli(["check", str(f)]) == 0
    assert time.perf_counter() - t0 < 1.0


# --- compile -----------------------------------------------------------

def test_compile_prf_to_tm(tmp_path, capsys):
    out = tmp_path / "succ_compiled.tm"
    assert cli(["compile", "--from", "prf", "--to", "tm",
                _c("succ.prf"), "-o", str(out)]) == 0
    assert cli(["run", "tm", str(out), "--input", ""]) in (0, 1)
    text = out.read_text()
    assert "tapes:" in text


def test_compile_prf_to_lam(tmp_path, capsys):
    out = tmp_path / "succ.lam"
    assert cli(["compile", "--from", "prf", "--to", "lam",
                _c("succ.prf"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert cli(["run", "lam", str(out), "--apply", "#3"]) == 0
    assert capsys.readouterr().out.strip() == "#4"


def test_compiled_lam_text_has_def_lines_and_runs(tmp_path, capsys):
    src, out = tmp_path / "div.prf", tmp_path / "div.lam"
    src.write_text(print_source("prf", stdlib("div")))
    assert cli(["compile", "--from", "prf", "--to", "lam", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    assert text == print_source("lam", compile_prf_to_lambda(stdlib("div")))
    lines = text.splitlines()
    assert lines[0].startswith("def d1 = ") and lines[-1].startswith("def main = ")
    capsys.readouterr()
    assert cli(["run", "lam", str(out), "--apply", "#7 #2"]) == 0
    assert capsys.readouterr().out == "#3\n"
    assert cli(["check", str(out)]) == 0
    assert capsys.readouterr().out == f"ok: lam source with {len(lines)} object(s)\n"


def test_compile_tm_to_prf(tmp_path, capsys):
    out = tmp_path / "succ.prf"
    assert cli(["compile", "--from", "tm", "--to", "prf",
                _c("succ.tm"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert cli(["run", "prf", str(out), "--args", "2",
                "--fuel", "100000000"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("name", ["even_as.tm", "contains11_nfa.tm"])
def test_compile_tm_to_prf_refuses_an_automaton(name, tmp_path, capsys):
    assert cli(["compile", "--from", "tm", "--to", "prf", _c(name),
                "-o", str(tmp_path / "x.prf")]) == 3
    assert "holds a finite automaton" in capsys.readouterr().err


def test_compile_tm_to_prf_is_byte_stable(tmp_path):
    # the text must not depend on the order of a set of states
    texts = []
    for seed in ("0", "1"):
        out = tmp_path / f"succ-{seed}.prf"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "churing.cli", "compile", "--from", "tm", "--to", "prf",
             _c("succ.tm"), "-o", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_compile_lam_to_tm_suite(tmp_path, capsys):
    prefix = tmp_path / "suite"
    assert cli(["compile", "--from", "lam", "--to", "tm-suite",
                _c("example_term.lam"), "-o", str(prefix)]) == 0
    for name in ("V", "CF", "CBV", "AE", "NF", "BR1"):
        # '#' is a tape symbol of the suite, and the files read back
        assert cli(["check", str(tmp_path / f"suite.{name}.tm")]) == 0


def test_compile_unknown_pair(tmp_path):
    assert cli(["compile", "--from", "lam", "--to", "prf",
                _c("example_term.lam"), "-o", str(tmp_path / "x")]) == 3


# --- transform ---------------------------------------------------------

def test_transform_single_tape(tmp_path, capsys):
    assert cli(["transform", "--single-tape", _c("copier.tm")]) == 0
    text = capsys.readouterr().out
    assert "tapes: 1" in text


def test_transform_single_tape_of_a_compiled_machine(capsys):
    assert cli(["transform", "--single-tape", _c("add_compiled.tm")]) == 0
    assert "tapes: 1" in capsys.readouterr().out


def test_transform_single_tape_refuses_a_separator_symbol(tmp_path, capsys):
    # the suite machines use "#", which the text format cannot read back
    # (it starts a comment) and the single-tape layout cannot hold
    out = tmp_path / "suite"
    assert cli(["compile", "--from", "lam", "--to", "tm-suite", _c("example_term.lam"),
                "-o", str(out)]) == 0
    assert cli(["transform", "--single-tape", f"{out}.V.tm"]) == 3


@pytest.mark.parametrize("option", [["--input", "ab"], ["--depth", "3"], ["--depth", "12"]])
def test_transform_single_tape_refuses_a_run_option(option, capsys):
    # the squeeze runs nothing, so a word or a depth given to it is a mistake
    assert cli(["transform", "--single-tape", _c("copier.tm"), *option]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option[0]} does not apply to transform --single-tape\n"


def test_transform_refuses_an_automaton(capsys):
    assert cli(["transform", "--single-tape", _c("even_as.tm")]) == 3
    assert cli(["transform", "--nd-run", _c("contains11_nfa.tm"), "--input", "011"]) == 3
    assert capsys.readouterr().err.count("not a Turing machine") == 2


def test_transform_nd_run(capsys):
    assert cli(["transform", "--nd-run", _c("contains11_guesser.tm"),
                "--input", "0110"]) == 0
    assert capsys.readouterr().out.strip() == "Accept"
    assert cli(["transform", "--nd-run", _c("contains11_guesser.tm"),
                "--input", "0101"]) == 1


# --- equiv -------------------------------------------------------------

def test_equiv_grid_agrees(tmp_path, capsys):
    lam_f = tmp_path / "succ.lam"
    assert cli(["compile", "--from", "prf", "--to", "lam",
                _c("succ.prf"), "-o", str(lam_f)]) == 0
    capsys.readouterr()
    assert cli(["equiv", "--prf", _c("succ.prf"), "--tm", _c("succ.tm"),
                "--lam", str(lam_f), "--grid", "0..2",
                "--fuel", "100000000"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if ";" in l]
    # machine-readable lines: one verdict per grid point, all Agree
    verdicts = [l for l in lines if ";verdict;" in l]
    assert len(verdicts) == 3
    assert all(l.endswith(";Agree") for l in verdicts)
    assert any(";prf;1" in l for l in lines)


def test_equiv_grid_counterexample(tmp_path, capsys):
    # pit successor against a constant: disagreement everywhere but reported
    # at the least point
    prf_f = tmp_path / "wrong.prf"
    prf_f.write_text("C S (C S (P 1 1))\n")  # n + 2
    lam_f = tmp_path / "succ.lam"
    assert cli(["compile", "--from", "prf", "--to", "lam",
                _c("succ.prf"), "-o", str(lam_f)]) == 0
    capsys.readouterr()
    assert cli(["equiv", "--prf", str(prf_f), "--tm", _c("succ.tm"),
                "--lam", str(lam_f), "--grid", "0..2",
                "--fuel", "100000000"]) == 1
    err = capsys.readouterr().err
    assert "counterexample: (0,)" in err


def test_equiv_non_numeric_machine(capsys):
    # flipper halts with tapes that are no unary numeral on some points;
    # those cells are unknown, and the disagreement at 1 is still reported
    assert cli(["equiv", "--prf", _c("succ.prf"), "--tm", _c("flipper.tm"),
                "--lam", _c("combinators.lam"), "--grid", "0..2"]) == 1
    captured = capsys.readouterr()
    assert "2;tm;?" in captured.out.splitlines()
    assert "counterexample: (1,)" in captured.err


def test_equiv_is_inconclusive_where_a_column_gives_no_number(capsys):
    # onon decides a language and combinators.lam holds no numeral function:
    # only the recursive function gives a number, which is no agreement
    assert cli(["equiv", "--prf", _c("succ.prf"), "--tm", _c("onon.tm"),
                "--lam", _c("combinators.lam"), "--grid", "0..2"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if ";verdict;" in l] == [f"{n};verdict;Inconclusive" for n in range(3)]
    assert [l for l in lines if ";tm;" in l or ";lam;" in l] == [
        f"{n};{model};?" for n in range(3) for model in ("lam", "tm")]


@pytest.mark.parametrize("module, column", [
    ("prf", "evaluate"), ("tm", "run_numeric"), ("lam", "church_decode"),
], ids=["evaluate", "run_numeric", "church_decode"])
def test_equiv_grid_lets_a_validation_error_through(module, column, monkeypatch):
    # a cell is ? only for a run that ends without a number, never for bad input;
    # equiv_grid reads each column's function from its model when it runs
    def invalid(*args, **kwargs):
        raise ValidationError("planted")
    monkeypatch.setattr(f"churing.{module}.{column}", invalid)
    with pytest.raises(ValidationError, match="planted"):
        equiv_grid(Succ(), parse("tm", Path(_c("succ.tm")).read_text()),
                   compile_prf_to_lambda(Succ()), [(0,)])


def test_equiv_machine_with_too_few_tapes(tmp_path):
    # a binary function cannot be run on a one-tape machine: a usage error,
    # not a grid of unknown cells that could read as agreement
    f = tmp_path / "add.prf"
    f.write_text("R (P 1 1, C S (P 3 3))\n")
    assert cli(["equiv", "--prf", str(f), "--tm", _c("succ.tm"),
                "--lam", _c("example_term.lam"), "--grid", "0..1"]) == 3


def test_equiv_refuses_an_automaton(capsys):
    assert cli(["equiv", "--prf", _c("succ.prf"), "--tm", _c("even_as.tm"),
                "--lam", _c("combinators.lam"), "--grid", "0..1"]) == 3
    assert "not a Turing machine" in capsys.readouterr().err


def test_equiv_bad_grid(tmp_path):
    assert cli(["equiv", "--prf", _c("succ.prf"), "--tm", _c("succ.tm"),
                "--lam", _c("example_term.lam"), "--grid", "zap"]) == 3


def test_equiv_empty_grid_is_refused(capsys):
    # an empty grid would report a vacuous agreement
    assert cli(["equiv", "--prf", _c("succ.prf"), "--tm", _c("succ.tm"),
                "--lam", _c("example_term.lam"), "--grid", "3..1"]) == 3
    captured = capsys.readouterr()
    assert "grid '3..1' is empty" in captured.err
    assert captured.out == ""


def test_equiv_refuses_a_huge_grid_before_listing_it(tmp_path, capsys):
    # 10^16 points at arity 2: refused from the range alone, at once
    f = tmp_path / "add.prf"
    f.write_text(print_source("prf", stdlib("add")))
    began = time.perf_counter()
    assert cli(["equiv", "--prf", str(f), "--tm", _c("succ.tm"), "--lam", _c("combinators.lam"),
                "--grid", "0..100000000"]) == 3
    assert time.perf_counter() - began < 1
    captured = capsys.readouterr()
    assert "more than MAX_GRID_POINTS" in captured.err and captured.out == ""
    assert MAX_GRID_POINTS == 10_000
    assert len(parse_grid("0..99", 2)) == MAX_GRID_POINTS
    with pytest.raises(ValidationError, match="more than MAX_GRID_POINTS"):
        parse_grid("0..100", 2)


def test_an_encoded_argument_past_its_cap_is_refused_before_it_is_built(tmp_path):
    # one point, so MAX_GRID_POINTS lets it through; the tm column would be
    # a unary word of 10^9 cells, the λ column a numeral of 10^9 nodes
    err = _refused_at_once(["equiv", "--prf", _c("succ.prf"), "--tm", _c("succ.tm"),
                            "--lam", _c("combinators.lam"), "--grid", "1000000000..1000000000"])
    assert "a unary word of more than MAX_ENCODED" in err
    err = _refused_at_once(["run", "lam", _c("combinators.lam"), "--apply", "#1000000000"])
    assert "a Church numeral of more than MAX_ENCODED" in err
    assert MAX_ENCODED == 1_000_000
    assert len(encode_unary(MAX_ENCODED)) == MAX_ENCODED
    for encode, what in [(encode_unary, "unary word"), (church_encode, "Church numeral")]:
        with pytest.raises(ValidationError, match=f"a {what} of more than MAX_ENCODED"):
            encode(MAX_ENCODED + 1)
        with pytest.raises(ValidationError, match=f"a {what} encodes naturals only"):
            encode(-1)


# --- what a command loads -----------------------------------------------

_COMPILERS = {"churing.prf_to_tm", "churing.tm_to_prf", "churing.prf_to_lam",
              "churing.lam_to_tm"}


def _modules_loaded(argv):
    """The churing modules a fresh interpreter holds after ``cli(argv)``."""
    code = ("import sys\n"
            "from churing.cli import cli\n"
            f"code = cli({argv!r})\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('churing.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()  # after the command's output
    assert code == "0", proc.stdout
    return set(modules)


_MACHINES = {"churing.tm", "churing.transform"}


# each command imports what it runs: the λ-calculus, the machines and the
# compilers stay out of a .prf command, and a Turing machine's run needs no
# λ-calculus, transform or compiler
@pytest.mark.parametrize("argv, present, absent", [
    (["run", "prf", _c("succ.prf"), "--args", "4"], "churing.prf",
     {"churing.lam", *_MACHINES, *_COMPILERS}),
    (["check", _c("arith.prf")], "churing.prf", {"churing.lam", *_MACHINES, *_COMPILERS}),
    (["run", "tm", _c("onon.tm"), "--input", "0011"], "churing.tm",
     {"churing.lam", "churing.transform", *_COMPILERS}),
], ids=["run prf", "check prf", "run tm"])
def test_a_command_loads_only_what_it_runs(argv, present, absent):
    loaded = _modules_loaded(argv)
    assert present in loaded
    assert loaded.isdisjoint(absent), loaded


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or real(self, *a, **kw))
    assert cli(["run", "prf", _c("succ.prf"), "--args", "4"]) == 0
    assert cli(["check", _c("succ.tm")]) == 0
    assert built == []
    assert capsys.readouterr().out == "5\nok: tm source with 1 object(s)\n"


# --- python -m churing.cli ---------------------------------------------

def test_module_entry_point_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "churing.cli", "run", "prf", _c("succ.prf"), "--args", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "3\n")
    proc = subprocess.run([sys.executable, "-m", "churing.cli", "check", "nosuchfile.prf"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
