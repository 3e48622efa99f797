"""Command line for running, compiling, and cross-checking the three models.

Subcommands:

    run tm|prf|lam FILE [--input W | --args N... | --apply TERMS]
                        [--fuel N] [--trace]
    compile --from {prf,tm,lam} --to {tm,prf,lam,tm-suite} FILE -o OUT
    transform --single-tape FILE | --nd-run FILE [--input W] [--depth D]
    equiv --prf FILE --tm FILE --lam FILE --grid A..B [--fuel N]
    check FILE

Each model takes only its own ``run`` options; another model's option
(``run tm --args``, ``run prf --input``, ``run lam --trace``) exits 3, as
does ``--fuel`` or ``--trace`` for a DFA or NFA, which spends no steps, and
``--input`` or ``--depth`` for ``transform --single-tape``, which runs nothing.
An ``equiv`` point is Agree only when every column gives the same number.

Exit codes: 0 success / Accept / all-Agree, 1 Reject / NotFound /
Disagree, 2 FuelExhausted / Inconclusive, 3 parse or validation error, a
file that cannot be read or is not UTF-8, or input nested too deeply for
the interpreter's recursion limit, 4 a fault in churing itself (the
traceback is printed).

Each command imports the models and compilers it runs when it runs, so a
``run prf`` or ``check`` of a .prf file never loads the Turing machine
modules or a compiler; the argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence

from .equiv import (AGREE, DEFAULT_FUEL, DISAGREE, INCONCLUSIVE,  # callers read cli.AGREE
                    equiv_grid, parse_grid)
from .errors import (ACCEPT, FUEL_EXHAUSTED, NOT_FOUND, REJECT, ChuringError, FuelExhausted,
                     NotANumeral, ParseError, ValidationError)
from .formats import parse, print_nat, print_source
from .prf import arity_check, evaluate  # formats has loaded prf; callers read cli.evaluate

if TYPE_CHECKING:
    from .lam import Term
    from .tm import MachineSpec

EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE, EXIT_ERROR, EXIT_FAULT = 0, 1, 2, 3, 4

# the exit code of each verdict a command ends with; None is a command that
# printed a value or wrote a file
_VERDICT_EXIT = {None: EXIT_OK, ACCEPT: EXIT_OK, AGREE: EXIT_OK,
                 REJECT: EXIT_NEGATIVE, NOT_FOUND: EXIT_NEGATIVE, DISAGREE: EXIT_NEGATIVE,
                 FUEL_EXHAUSTED: EXIT_INCONCLUSIVE, INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _error(what) -> None:
    print(f"error: {what}", file=sys.stderr)


def _fault(ex: Exception) -> None:
    import traceback  # only a fault pays for the import
    traceback.print_exception(ex)


# the exit code of an exception a command raises, and what it prints, from
# the first row whose types match; an OSError is a missing file, a directory
# or no permission
_ERROR_EXIT = [
    (FuelExhausted, EXIT_INCONCLUSIVE, lambda ex: print(FUEL_EXHAUSTED)),
    (RecursionError, EXIT_ERROR, lambda ex: _error("input nested too deeply")),
    ((ChuringError, OSError, UnicodeError), EXIT_ERROR, _error),
    (Exception, EXIT_FAULT, _fault),
]

# the run options each model reads
_RUN_OPTIONS = {"tm": {"input", "trace"}, "prf": {"args"}, "lam": {"apply"}}

_KIND_BY_SUFFIX = {".tm": "tm", ".prf": "prf", ".lam": "lam"}


def _kind_of(path: str) -> str:
    kind = _KIND_BY_SUFFIX.get(Path(path).suffix)
    if kind is None:
        raise ParseError(f"cannot tell the format of {path!r}; "
                         "use a .tm, .prf or .lam suffix", line=1, column=1)
    return kind


def _read(path: str) -> str:
    """The text of a file; a file that is not UTF-8 is named in the error."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as ex:
        raise UnicodeDecodeError(ex.encoding, ex.object, ex.start, ex.end,
                                 f"{ex.reason} in {path}") from None


def _load(path: str, kind: Optional[str] = None):
    kind = kind or _kind_of(path)
    obj = parse(kind, _read(path))
    if isinstance(obj, dict):
        return next(reversed(obj.values()))  # last definition is the main one
    return obj


def _load_machine(path: str) -> MachineSpec:
    """A Turing machine from a .tm file; a DFA or NFA there is an input error."""
    from .tm import MachineSpec
    m = _load(path, "tm")
    if not isinstance(m, MachineSpec):
        raise ValidationError(f"{path} holds a finite automaton, not a Turing machine")
    return m


def _cmd_run(args) -> Optional[str]:
    for opt in ("input", "args", "apply", "trace"):
        if opt not in _RUN_OPTIONS[args.model] and getattr(args, opt) not in (None, False):
            raise ValidationError(f"--{opt} does not apply to run {args.model}")
    fuel = DEFAULT_FUEL if args.fuel is None else args.fuel
    if args.model == "prf":
        print(print_nat(evaluate(_load(args.file, "prf"), args.args or [], fuel)))
        return None
    if args.model == "lam":
        from .lam import app, church_decode
        t = _load(args.file, "lam")
        if args.apply:
            t = app(t, *parse_apply(args.apply))
        try:
            print(f"#{church_decode(t, fuel)}")
        except NotANumeral as e:
            print(print_source("lam", e.term), end="")
        return None
    from .tm import MachineSpec, run
    m = _load(args.file, "tm")
    if isinstance(m, MachineSpec):
        out = run(m, args.input or "", fuel=fuel, want_trace=args.trace)
        for c in out.trace or ():
            print(c.state, [t.content() for t in c.tapes], file=sys.stderr)
        tag = out.tag
    else:  # a DFA or an NFA decides the word, in no steps to trace or spend fuel on
        from .transform import Dfa, dfa_accepts, nfa_accepts
        for opt, given in (("fuel", args.fuel is not None), ("trace", args.trace)):
            if given:  # `--fuel 0` is given too
                raise ValidationError(
                    f"--{opt} does not apply to the finite automaton in {args.file}")
        accepts = dfa_accepts if isinstance(m, Dfa) else nfa_accepts
        tag = ACCEPT if accepts(m, args.input or "") else REJECT
    print(tag)
    return tag


def parse_apply(text: str) -> List[Term]:
    """Arguments for ``run lam --apply``: juxtaposed terms; a parse error points into ``text``."""
    probe = "__probe__ "
    try:
        t = parse("lam", probe + text)
    except ParseError as e:
        if e.line != 1:
            raise
        raise ParseError(e.message, line=1, column=e.column - len(probe)) from None
    parts: List[Term] = []
    while hasattr(t, "arg"):
        parts.append(t.arg)
        t = t.fn
    return list(reversed(parts))


def _cmd_compile(args) -> None:
    src_kind, dst = args.src, args.dst
    pairs = {("prf", "tm"), ("prf", "lam"), ("tm", "prf"), ("lam", "tm-suite")}
    if (src_kind, dst) not in pairs:
        raise ValidationError(f"no translation from {src_kind} to {dst}")
    obj = _load_machine(args.file) if src_kind == "tm" else _load(args.file, src_kind)
    if dst == "tm":
        from .prf_to_tm import compile_prf_to_tm, layout_report
        m, layout = compile_prf_to_tm(obj)
        report = "".join(f"# {line}\n" for line in layout_report(m, layout).splitlines())
        text = report + print_source("tm", m)
    elif dst == "lam":
        from .prf_to_lam import compile_prf_to_lambda
        text = print_source("lam", compile_prf_to_lambda(obj))
    elif dst == "prf":
        from .tm_to_prf import compile_tm_to_prf
        text = print_source("prf", {"main": compile_tm_to_prf(obj)})
    else:  # lam -> tm-suite: one .tm file per machine, OUT is a prefix
        from .lam_to_tm import SUITE, build_machine
        for name in SUITE:
            path = Path(f"{args.out}.{name}.tm")
            path.write_text(print_source("tm", build_machine(name)))
            print(path)
        return
    Path(args.out).write_text(text)
    print(args.out)


def _cmd_transform(args) -> Optional[str]:
    from .transform import nd_run, to_single_tape
    if args.single_tape:
        for opt in ("input", "depth"):
            if getattr(args, opt) is not None:
                raise ValidationError(f"--{opt} does not apply to transform --single-tape")
    m = _load_machine(args.file)
    if args.single_tape:
        print(print_source("tm", to_single_tape(m)), end="")
        return None
    depth = 12 if args.depth is None else args.depth
    verdict = nd_run(m, args.input or "", max_depth=depth)
    print(verdict)
    return verdict


def _cmd_equiv(args) -> str:
    e = _load(args.prf, "prf")
    m = _load_machine(args.tm)
    t = _load(args.lam, "lam")
    report = equiv_grid(e, m, t, parse_grid(args.grid, arity_check(e)), fuel=args.fuel)
    print(report.table(), *report.lines(), sep="\n")
    cex = report.counterexample()
    if cex is not None:
        print(f"counterexample: {cex} -> {report.results[cex]}", file=sys.stderr)
        return DISAGREE
    return INCONCLUSIVE if INCONCLUSIVE in report.verdicts.values() else AGREE


def _cmd_check(args) -> None:
    kind = _kind_of(args.file)
    obj = parse(kind, _read(args.file))
    n = len(obj) if isinstance(obj, dict) else 1
    print(f"ok: {kind} source with {n} object(s)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="churing",
                description="Turing machines, recursive functions, and lambda terms.")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run a machine, function, or term")
    r.add_argument("model", choices=["tm", "prf", "lam"])
    r.add_argument("file")
    r.add_argument("--input", help="input word (tm)")
    r.add_argument("--args", nargs="*", type=int, help="numeric arguments (prf)")
    r.add_argument("--apply", help="terms to apply (lam)")
    r.add_argument("--fuel", type=int, help=f"budget (default {DEFAULT_FUEL}; not for a DFA or NFA)")
    r.add_argument("--trace", action="store_true")
    r.set_defaults(fn=_cmd_run)

    c = sub.add_parser("compile", help="translate between the models")
    c.add_argument("--from", dest="src", required=True, choices=["prf", "tm", "lam"])
    c.add_argument("--to", dest="dst", required=True, choices=["tm", "prf", "lam", "tm-suite"])
    c.add_argument("file")
    c.add_argument("-o", "--out", required=True)
    c.set_defaults(fn=_cmd_compile)

    t = sub.add_parser("transform", help="single-tape squeeze or NDTM run")
    g = t.add_mutually_exclusive_group(required=True)
    g.add_argument("--single-tape", action="store_true")
    g.add_argument("--nd-run", action="store_true")
    t.add_argument("file")
    t.add_argument("--input")
    t.add_argument("--depth", type=int, help="search depth (--nd-run; default 12)")
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


_PARSER = _build_parser()


def cli(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _VERDICT_EXIT[args.fn(args)]
    except SystemExit as ex:  # --help
        return ex.code if isinstance(ex.code, int) else EXIT_ERROR
    except Exception as ex:
        code, say = next((code, say) for kinds, code, say in _ERROR_EXIT
                         if isinstance(ex, kinds))
        say(ex)
        return code


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
