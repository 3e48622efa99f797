"""Reference λ printer for the differential tests.

This is the two-pass printer ``churing.lam.render`` replaced: it first
builds a renamed copy of the whole term with ``canonical_binders`` and then
prints that copy.  ``churing.lam.render`` must give the same text.
"""

from churing.errors import ValidationError
from churing.lam import Abs, App, Hole, Term, Var, canonical_binders


def render(t: Term) -> str:
    return _render(canonical_binders(t))


def _render(t: Term) -> str:
    """Application spines are left associated; an abstraction at the head of
    a spine and any non-atomic argument are parenthesized.  Iterative: each
    term is printed in place, and what follows it waits on a stack of terms
    and literal text."""
    out: list = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        while True:
            cls = type(t)
            if cls is str:
                out.append(t)
            elif cls is Var:
                out.append(t.name)
            elif cls is Abs:
                params = []
                while type(t) is Abs:
                    params.append(t.param)
                    t = t.body
                out.append("\\" + " ".join(params) + ". ")
                continue
            elif cls is App:
                while type(t) is App:  # arguments pushed last one first
                    a = t.arg
                    if type(a) is Var:
                        todo.append(" " + a.name)
                    elif type(a) is Hole:
                        todo.append(" []")
                    else:
                        todo += (")", a, " (")
                    t = t.fn
                if type(t) is Abs:
                    out.append("(")
                    todo.append(")")
                continue
            elif cls is Hole:
                out.append("[]")
            else:
                raise ValidationError(f"cannot print {t!r}")
            break
    return "".join(out)
