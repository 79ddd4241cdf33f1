"""Exact rationals: coercion, parsing and the "p/q" wire format; the
package's integer rule, for arguments and for text; and the line protocol
of its text formats.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always in lowest terms, positive denominator).  The wire format is the
string "p/q"; a bare integer "p" is accepted on input.

An integer argument is any int but a bool (``_is_int``); every count,
size and index the package takes is refused by ``_require_int`` with one
message when it is not an integer at or above its lower bound.

Exact values cross text through ``parse_rational`` and
``format_rational``, at any length.  Python limits int <-> decimal-string
conversion to 4300 digits by default, and the limit is process-wide
state, so past it both convert through ``decimal.Decimal``, which the
limit does not cover (and which ``fractions`` already loads), instead of
raising the limit.  That route costs O(digits^2) and is taken only when
the plain conversion raises.  ``parse_int`` keeps the limit: the counts,
ids, literals and options it reads are far shorter, and one past it is
refused as malformed, before any size check or message can meet it.

The DIMACS-style text formats (``p cnf n m`` formulas, ``p is n m``
graphs) share one line protocol, written by ``_write_dimacs`` and read by
``_read_dimacs``: blank lines and lines starting with "c" are skipped, and
exactly one header ``p <kind> n m`` with integer counts >= 0 comes before
any data line.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import DomainError


def _is_int(value) -> bool:
    """The package's rule for an integer argument: any int but a bool.
    bool is an int subclass, so True would pass as 1 (and JSON true/false
    load as bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, what: str, low: int = 0, error=DomainError):
    """Raise ``error`` unless ``value`` is an integer (``_is_int``) >= ``low``."""
    if not _is_int(value) or value < low:
        raise error(f"{what} must be an integer >= {low}, got {value!r}")


def _integer_text(text: str) -> str:
    """``text`` when it is an optional sign and ASCII digits ([+-]?[0-9]+);
    ValueError for anything else.  ``int()`` alone also takes "1_0",
    surrounding spaces and non-ASCII digits such as "３"."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return text


def parse_int(text: str) -> int:
    """The integer written as ``_integer_text`` takes it, within the int/str
    digit limit (module docstring); ValueError for anything else."""
    return int(_integer_text(text))


def _parse_exact_int(text: str) -> int:
    """``parse_int`` at any length, for the parts of an exact rational."""
    try:
        return parse_int(text)
    except ValueError:  # malformed, or past the int/str digit limit
        return int(Decimal(_integer_text(text)))


def _write_dimacs(kind: str, n: int, lines: list) -> str:
    """The text with header "p <kind> n m" and the m data ``lines``."""
    return "\n".join([f"p {kind} {n} {len(lines)}", *lines]) + "\n"


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
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (q > 0) or the integer shorthand "p", of any length
    (module docstring)."""
    num, slash, den = text.strip().partition("/")
    try:
        if slash and not den[:1].isdigit():  # the denominator has no sign
            raise ValueError(den)
        p, q = _parse_exact_int(num), _parse_exact_int(den) if slash else 1
    except ValueError:
        raise DomainError(f"malformed rational {text!r}: expected \"p/q\" or \"p\"") from None
    if q == 0:
        raise DomainError(f"malformed rational {text!r}: zero denominator")
    return Fraction(p, q)


def format_rational(value) -> str:
    """Serialize a rational as "p/q" in lowest terms, q > 0, at any length
    (module docstring)."""
    q = as_rational(value)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # past the int/str digit limit
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
