"""Exact rationals: coercion, parsing and the "p/q" wire format, and the
integer rule of the package's text readers.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always in lowest terms, positive denominator).  The wire format is the
string "p/q"; a bare integer "p" is accepted on input.
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


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q"/"p" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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
