"""Exact rationals: coercion, parsing and the "p/q" wire format, and the
integer rule and line protocol of the package's text readers.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always in lowest terms, positive denominator).  The wire format is the
string "p/q"; a bare integer "p" is accepted on input.

The DIMACS-style text formats (``p cnf n m`` formulas, ``p is n m``
graphs) share one line protocol, read by ``_read_dimacs``: blank lines and
lines starting with "c" are skipped, and exactly one header ``p <kind> n m``
with integer counts >= 0 comes before any data line.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


def parse_int(text: str) -> int:
    """The integer written as an optional sign and ASCII digits
    ([+-]?[0-9]+); ValueError for anything else.  ``int()`` alone also
    takes "1_0", surrounding spaces and non-ASCII digits such as "３"."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _read_dimacs(text: str, kind: str, error) -> tuple:
    """(n, m, [(lineno, tokens), ...]) of a DIMACS-style text with header
    "p <kind> n m": the data lines as whitespace-split tokens, after the
    line protocol in the module docstring.  A line is the header when its
    first token is "p".  Every fault raises ``error``, naming its line
    when it has one."""
    counts = None
    body = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        if tokens[0] != "p":
            if counts is None:
                raise error(f"line {lineno}: data before header")
            body.append((lineno, tokens))
            continue
        if counts is not None:
            raise error(f"line {lineno}: duplicate header")
        if len(tokens) != 4 or tokens[1] != kind:
            raise error(f"line {lineno}: malformed header {line.strip()!r}")
        try:
            counts = parse_int(tokens[2]), parse_int(tokens[3])
        except ValueError:
            raise error(f"line {lineno}: non-integer header fields") from None
        if min(counts) < 0:
            raise error(f"line {lineno}: negative header counts")
    if counts is None:
        raise error(f"missing header line \"p {kind} n m\"")
    return (*counts, body)


def as_rational(value) -> Fraction:
    """Coerce an int (not a bool), Fraction, or "p/q"/"p" string to an
    exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (q > 0) or the integer shorthand "p"."""
    num, slash, den = text.strip().partition("/")
    try:
        if slash and not den[:1].isdigit():  # the denominator has no sign
            raise ValueError(den)
        p, q = parse_int(num), parse_int(den) if slash else 1
    except ValueError:
        raise DomainError(f"malformed rational {text!r}: expected \"p/q\" or \"p\"") from None
    if q == 0:
        raise DomainError(f"malformed rational {text!r}: zero denominator")
    return Fraction(p, q)


def format_rational(value) -> str:
    """Serialize a rational as "p/q" in lowest terms, q > 0."""
    q = as_rational(value)
    return f"{q.numerator}/{q.denominator}"
