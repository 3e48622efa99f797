"""Command line for running, compiling, and cross-checking the three models.

Subcommands:

    run tm|prf|lam FILE [--input W | --args N... | --apply TERMS]
                        [--fuel N] [--trace]
    compile --from {prf,tm,lam} --to {tm,prf,lam,tm-suite} FILE -o OUT
    transform --single-tape FILE | --nd-run FILE --input W --depth D
    equiv --prf FILE --tm FILE --lam FILE --grid A..B [--fuel N]
    check FILE

Exit codes: 0 success / Accept / all-Agree, 1 Reject / Disagree,
2 FuelExhausted / Inconclusive, 3 parse or validation error, or input
nested too deeply for the interpreter's recursion limit.
"""

import argparse
import itertools
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .equiv import AGREE, DEFAULT_FUEL, INCONCLUSIVE, equiv_grid  # callers read cli.AGREE
from .errors import FuelExhausted, NotANumeral, ParseError, ValidationError
from .formats import parse, print_source
from .lam import Term, app, church_decode
from .lam_to_tm import SUITE, build_machine
from .prf import arity_check, evaluate
from .prf_to_lam import compile_prf_to_lambda
from .prf_to_tm import compile_prf_to_tm, layout_report
from .tm import ACCEPT, FUEL_EXHAUSTED, REJECT, MachineSpec, run
from .tm_to_prf import compile_tm_to_prf
from .transform import Dfa, dfa_accepts, nd_run, nfa_accepts, to_single_tape

EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE, EXIT_ERROR = 0, 1, 2, 3

_KIND_BY_SUFFIX = {".tm": "tm", ".prf": "prf", ".lam": "lam"}


def _kind_of(path: str) -> str:
    kind = _KIND_BY_SUFFIX.get(Path(path).suffix)
    if kind is None:
        raise ParseError(f"cannot tell the format of {path!r}; "
                         "use a .tm, .prf or .lam suffix", line=1, column=1)
    return kind


def _load(path: str, kind: Optional[str] = None):
    kind = kind or _kind_of(path)
    obj = parse(kind, Path(path).read_text())
    if isinstance(obj, dict):
        if not obj:
            raise ParseError(f"{path} defines nothing", line=1, column=1)
        return next(reversed(obj.values()))  # last definition is the main one
    return obj


def _load_machine(path: str) -> MachineSpec:
    """A Turing machine from a .tm file; a DFA or NFA there is an input error."""
    m = _load(path, "tm")
    if not isinstance(m, MachineSpec):
        raise ValidationError(f"{path} holds a finite automaton, not a Turing machine")
    return m


def _outcome_exit(tag: str) -> int:
    return {ACCEPT: EXIT_OK, REJECT: EXIT_NEGATIVE, FUEL_EXHAUSTED: EXIT_INCONCLUSIVE}[tag]


def _cmd_run(args) -> int:
    fuel = args.fuel
    if args.model == "tm":
        m = _load(args.file, "tm")
        if not isinstance(m, MachineSpec):  # a DFA or an NFA decides the word
            accepts = dfa_accepts if isinstance(m, Dfa) else nfa_accepts
            tag = ACCEPT if accepts(m, args.input or "") else REJECT
            print(tag)
            return _outcome_exit(tag)
        out = run(m, args.input or "", fuel=fuel, want_trace=args.trace)
        if args.trace and out.trace:
            for c in out.trace:
                print(c.state, [t.content() for t in c.tapes], file=sys.stderr)
        print(out.tag)
        return _outcome_exit(out.tag)
    if args.model == "prf":
        e = _load(args.file, "prf")
        try:
            print(evaluate(e, args.args or [], fuel))
            return EXIT_OK
        except FuelExhausted:
            print(FUEL_EXHAUSTED)
            return EXIT_INCONCLUSIVE
    t = _load(args.file, "lam")
    if args.apply:
        for part in parse_apply(args.apply):
            t = app(t, part)
    try:
        print(f"#{church_decode(t, fuel)}")
    except NotANumeral as e:
        print(print_source("lam", e.term), end="")
    except FuelExhausted:
        print(FUEL_EXHAUSTED)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def parse_apply(text: str) -> List[Term]:
    """Arguments for ``run lam --apply``: a whitespace-juxtaposed term list."""
    t = parse("lam", f"__probe__ {text}")
    parts: List[Term] = []
    while hasattr(t, "arg"):
        parts.append(t.arg)
        t = t.fn
    return list(reversed(parts))


def _cmd_compile(args) -> int:
    src_kind, dst = args.src, args.dst
    pairs = {("prf", "tm"), ("prf", "lam"), ("tm", "prf"), ("lam", "tm-suite")}
    if (src_kind, dst) not in pairs:
        print(f"no translation from {src_kind} to {dst}", file=sys.stderr)
        return EXIT_ERROR
    obj = _load_machine(args.file) if src_kind == "tm" else _load(args.file, src_kind)
    if dst == "tm":
        m, layout = compile_prf_to_tm(obj)
        text = print_source("tm", m, layout_comment=layout_report(m, layout))
    elif dst == "lam":
        text = print_source("lam", compile_prf_to_lambda(obj))
    elif dst == "prf":
        text = print_source("prf", {"main": compile_tm_to_prf(obj)})
    else:  # lam -> tm-suite: one .tm file per machine, OUT is a prefix
        for name in SUITE:
            path = Path(f"{args.out}.{name}.tm")
            path.write_text(print_source("tm", build_machine(name)))
            print(path)
        return EXIT_OK
    Path(args.out).write_text(text)
    print(args.out)
    return EXIT_OK


def _cmd_transform(args) -> int:
    m = _load_machine(args.file)
    if args.single_tape:
        print(print_source("tm", to_single_tape(m)), end="")
        return EXIT_OK
    verdict = nd_run(m, args.input or "", max_depth=args.depth)
    print(verdict)
    return EXIT_OK if verdict == ACCEPT else EXIT_NEGATIVE


def _parse_grid(spec: str, k: int) -> List[Tuple[int, ...]]:
    lo_s, _, hi_s = spec.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ParseError(f"grid must look like 0..4, got {spec!r}", line=1, column=1)
    if hi < lo:
        raise ValidationError(f"grid {spec!r} is empty")
    return [tuple(p) for p in itertools.product(range(lo, hi + 1), repeat=k)]


def _cmd_equiv(args) -> int:
    e = _load(args.prf, "prf")
    m = _load_machine(args.tm)
    t = _load(args.lam, "lam")
    report = equiv_grid(e, m, t, _parse_grid(args.grid, arity_check(e)),
                        fuel=args.fuel)
    print(report.table())
    for line in report.lines():
        print(line)
    cex = report.counterexample()
    if cex is not None:
        print(f"counterexample: {cex} -> {report.results[cex]}", file=sys.stderr)
        return EXIT_NEGATIVE
    if INCONCLUSIVE in report.verdicts.values():
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_check(args) -> int:
    kind = _kind_of(args.file)
    obj = parse(kind, Path(args.file).read_text())
    n = len(obj) if isinstance(obj, dict) else 1
    print(f"ok: {kind} source with {n} object(s)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="churing",
                description="Turing machines, recursive "
                            "functions, and lambda terms.")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run a machine, function, or term")
    r.add_argument("model", choices=["tm", "prf", "lam"])
    r.add_argument("file")
    r.add_argument("--input", help="input word (tm)")
    r.add_argument("--args", nargs="*", type=int, help="numeric arguments (prf)")
    r.add_argument("--apply", help="terms to apply (lam)")
    r.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    r.add_argument("--trace", action="store_true")
    r.set_defaults(fn=_cmd_run)

    c = sub.add_parser("compile", help="translate between the models")
    c.add_argument("--from", dest="src", required=True,
                   choices=["prf", "tm", "lam"])
    c.add_argument("--to", dest="dst", required=True,
                   choices=["tm", "prf", "lam", "tm-suite"])
    c.add_argument("file")
    c.add_argument("-o", "--out", required=True)
    c.set_defaults(fn=_cmd_compile)

    t = sub.add_parser("transform", help="single-tape squeeze or NDTM run")
    g = t.add_mutually_exclusive_group(required=True)
    g.add_argument("--single-tape", action="store_true")
    g.add_argument("--nd-run", action="store_true")
    t.add_argument("file")
    t.add_argument("--input")
    t.add_argument("--depth", type=int, default=12)
    t.set_defaults(fn=_cmd_transform)

    e = sub.add_parser("equiv", help="differential equivalence over a grid")
    e.add_argument("--prf", required=True)
    e.add_argument("--tm", required=True)
    e.add_argument("--lam", required=True)
    e.add_argument("--grid", required=True, help="A..B inclusive range")
    e.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    e.set_defaults(fn=_cmd_equiv)

    k = sub.add_parser("check", help="parse and validate a source file")
    k.add_argument("file")
    k.set_defaults(fn=_cmd_check)
    return p


def cli(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as ex:  # argparse usage errors / --help
        return ex.code if isinstance(ex.code, int) else EXIT_ERROR
    except (ParseError, ValidationError, RecursionError) as ex:
        msg = "input nested too deeply" if isinstance(ex, RecursionError) else ex
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_ERROR
    except FuelExhausted as ex:
        print(f"fuel exhausted: {ex}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except OSError as ex:  # missing file, a directory, no permission
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
