"""Shared exception types, verdict names and the step/contraction budget."""

# the verdicts a machine run or search ends with; `tm` and `transform` read
# them from here, and so does the command line without loading either
ACCEPT = "Accept"
REJECT = "Reject"
FUEL_EXHAUSTED = "FuelExhausted"
NOT_FOUND = "NotFound"


class ChuringError(Exception):
    pass


class ValidationError(ChuringError):
    """A machine, expression or term violates a structural invariant."""


class ParseError(ChuringError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.column = column


class FuelExhausted(ChuringError):
    """The step/contraction/evaluation budget ran out before a verdict."""


class NonEncodable(ChuringError):
    """A halted tape does not hold a well-formed unary numeral."""


class NotANumeral(ChuringError):
    """A normal form does not match the shape of a Church numeral; ``term``
    is that normal form, when the decoder read it back.  Without a message,
    the message is "not a numeral: <term>", rendered when it is read."""

    def __init__(self, message=None, term=None):
        super().__init__(message)
        self.term = term

    def __str__(self):
        from .lam import render  # lam imports this module
        return f"not a numeral: {render(self.term)}" if self.args[0] is None else super().__str__()


class NotADecider(ChuringError):
    """A machine asserted to be a decider failed to halt within fuel."""


class GuardExceeded(ChuringError):
    """Inputs outside the desk-scale termination guard."""


class WireParseError(ParseError):
    """Malformed wire string for a lambda term on tape."""


def check_fuel(amount, what: str = "fuel") -> None:
    """Every budget is a natural number; a budget of 0 runs out at the
    first step, contraction or evaluation."""
    if amount < 0:
        raise ValidationError(f"{what} must be a natural number, got {amount}")


# The largest natural an argument is encoded as.  A Church numeral (`#n`,
# ``run lam --apply``, the λ column of ``equiv``) and a unary word (the
# machine columns) build n nodes or cells before any fuel is spent, so a
# larger one is a ValidationError (exit 3) before anything is built.
MAX_ENCODED = 1_000_000


def check_encoded(n: int, what: str) -> None:
    """``n`` may be encoded as a ``what``: a natural of at most MAX_ENCODED."""
    if n < 0:
        raise ValidationError(f"a {what} encodes naturals only")
    if n > MAX_ENCODED:
        raise ValidationError(f"a {what} of more than MAX_ENCODED = {MAX_ENCODED} is not built")


class Fuel:
    """Mutable budget; every primitive operation spends one unit.

    fuel is a natural number (`check_fuel`).  Exhaustion raises
    FuelExhausted rather than returning a sentinel so deeply nested
    evaluators unwind cleanly.
    """

    __slots__ = ("remaining",)

    def __init__(self, amount):
        check_fuel(amount)
        self.remaining = int(amount)

    def __repr__(self):
        return f"Fuel({self.remaining})"
