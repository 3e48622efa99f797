"""Exit-code contract and report formats of the command line interface."""

from pathlib import Path

import pytest

from churing.cli import cli

CORPUS = Path(__file__).parent.parent / "corpus"


def _c(name):
    return str(CORPUS / name)


# --- run ---------------------------------------------------------------

def test_run_tm_accept(capsys):
    assert cli(["run", "tm", _c("onon.tm"), "--input", "0011"]) == 0
    assert capsys.readouterr().out.strip() == "Accept"


def test_run_tm_reject(capsys):
    assert cli(["run", "tm", _c("onon.tm"), "--input", "010"]) == 1
    assert capsys.readouterr().out.strip() == "Reject"


def test_run_tm_fuel_exhausted(capsys):
    assert cli(["run", "tm", _c("onon.tm"), "--input", "0011",
                "--fuel", "2"]) == 2
    assert capsys.readouterr().out.strip() == "FuelExhausted"


def test_run_prf(capsys):
    assert cli(["run", "prf", _c("succ.prf"), "--args", "4"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_run_prf_divergent(tmp_path, capsys):
    f = tmp_path / "div.prf"
    f.write_text("Mu C S (Z 2)\n")
    assert cli(["run", "prf", str(f), "--args", "0", "--fuel", "10000"]) == 2
    assert capsys.readouterr().out.strip() == "FuelExhausted"


def test_run_lam_numeral(tmp_path, capsys):
    f = tmp_path / "t.lam"
    f.write_text("(\\m n. n m) #2 #3\n")  # 3 applied to 2 is 2^3
    assert cli(["run", "lam", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "#8"


def test_run_lam_apply(tmp_path, capsys):
    f = tmp_path / "succ.lam"
    f.write_text("\\n f x. f (n f x)\n")
    assert cli(["run", "lam", str(f), "--apply", "#6"]) == 0
    assert capsys.readouterr().out.strip() == "#7"


def test_run_lam_divergent(tmp_path, capsys):
    f = tmp_path / "omega.lam"
    f.write_text("(\\x. x x) (\\x. x x)\n")
    assert cli(["run", "lam", str(f), "--fuel", "500"]) == 2


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


def test_run_lam_deep_numeral(tmp_path, capsys):
    f = tmp_path / "deep.lam"
    f.write_text("def x = #100000\n")
    assert cli(["run", "lam", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "#100000"


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


def test_compile_tm_to_prf(tmp_path, capsys):
    out = tmp_path / "succ.prf"
    assert cli(["compile", "--from", "tm", "--to", "prf",
                _c("succ.tm"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert cli(["run", "prf", str(out), "--args", "2",
                "--fuel", "100000000"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_compile_lam_to_tm_suite(tmp_path, capsys):
    prefix = tmp_path / "suite"
    assert cli(["compile", "--from", "lam", "--to", "tm-suite",
                _c("example_term.lam"), "-o", str(prefix)]) == 0
    for name in ("V", "CF", "CBV", "AE", "NF", "BR1"):
        assert (tmp_path / f"suite.{name}.tm").exists()


def test_compile_unknown_pair(tmp_path):
    assert cli(["compile", "--from", "lam", "--to", "prf",
                _c("example_term.lam"), "-o", str(tmp_path / "x")]) == 3


# --- transform ---------------------------------------------------------

def test_transform_single_tape(tmp_path, capsys):
    assert cli(["transform", "--single-tape", _c("copier.tm")]) == 0
    text = capsys.readouterr().out
    assert "tapes: 1" in text


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


def test_equiv_bad_grid(tmp_path):
    assert cli(["equiv", "--prf", _c("succ.prf"), "--tm", _c("succ.tm"),
                "--lam", _c("example_term.lam"), "--grid", "zap"]) == 3
