"""One function, three models of computation.

Takes truncated subtraction (monus) as a partial recursive expression,
compiles it to a multitape Turing machine and to a lambda term, and checks
that all three compute the same values on a small grid.
"""

import itertools

from churing.lam import App, church_decode, church_encode, normalize
from churing.prf import evaluate, stdlib
from churing.prf_to_lam import compile_prf_to_lambda
from churing.prf_to_tm import compile_prf_to_tm, layout_report
from churing.tm import run_numeric

FUEL = 10 ** 6


def main():
    monus = stdlib("monus")

    machine, layout = compile_prf_to_tm(monus)
    print(layout_report(machine, layout))

    term = compile_prf_to_lambda(monus)
    print("\ncompiled lambda term has",
          sum(1 for _ in str(term)), "characters of AST repr")

    print("\n x  y | prf  tm  lam")
    print("------+-------------")
    for x, y in itertools.product(range(4), repeat=2):
        v_prf = evaluate(monus, [x, y], FUEL)
        v_tm = run_numeric(machine, [x, y], FUEL)
        r = normalize(App(App(term, church_encode(x)), church_encode(y)), FUEL)
        v_lam = church_decode(r.term)
        mark = "" if v_prf == v_tm == v_lam == max(x - y, 0) else "  <-- DISAGREE"
        print(f" {x}  {y} |  {v_prf}    {v_tm}    {v_lam}{mark}")


if __name__ == "__main__":
    main()
