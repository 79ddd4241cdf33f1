"""Exact rationals: coercion, parsing and the "p/q" wire format.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always in lowest terms, positive denominator).  The wire format is the
string "p/q"; a bare integer "p" is accepted on input.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


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
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise DomainError(f"malformed rational {text!r}: expected \"p/q\" or \"p\"")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise DomainError(f"malformed rational {text!r}: zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(value) -> str:
    """Serialize a rational as "p/q" in lowest terms, q > 0."""
    q = as_rational(value)
    return f"{q.numerator}/{q.denominator}"
