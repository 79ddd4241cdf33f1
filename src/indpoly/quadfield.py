"""Exact rationals and arithmetic in a real quadratic field Q(sqrt(d)).

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always in lowest terms, positive denominator).  The wire format is the
string "p/q"; a bare integer "p" is accepted on input.

``QuadExt`` represents a + b*sqrt(d) for a shared nonnegative rational
discriminant d.  Values with a perfect-square d are kept in this form
rather than collapsed to rationals, but equality and sign agree with the
collapsed rational value.  All comparisons are decided exactly by case
analysis on signs and cross-multiplied squares; no floating point.
"""

from __future__ import annotations

import math
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


def rational_sqrt(value) -> Fraction | None:
    """Exact nonnegative square root of a rational square, else None."""
    q = as_rational(value)
    if q < 0:
        return None
    num_root = math.isqrt(q.numerator)
    den_root = math.isqrt(q.denominator)
    if num_root * num_root == q.numerator and den_root * den_root == q.denominator:
        return Fraction(num_root, den_root)
    return None


class QuadExt:
    """Element a + b*sqrt(d) of Q(sqrt(d)) with d >= 0 fixed per value.

    Arithmetic requires both operands to carry the same discriminant;
    rationals and ints are promoted automatically.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        d = as_rational(d)
        if d < 0:
            raise DomainError(f"negative discriminant {d}: value would not be real")
        object.__setattr__(self, "a", as_rational(a))
        object.__setattr__(self, "b", as_rational(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise DomainError(
                    f"mismatched discriminants: {self.d} vs {other.d}"
                )
            return other
        return QuadExt(as_rational(other), 0, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.sign() == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        norm = o.a * o.a - o.b * o.b * o.d
        if norm != 0:
            inv_a = o.a / norm
            inv_b = -o.b / norm
            return self * QuadExt(inv_a, inv_b, self.d)
        # Zero norm with a nonzero value forces sqrt(d) rational; collapse.
        root = rational_sqrt(o.d)
        assert root is not None
        return self * QuadExt(1 / (o.a + o.b * root), 0, self.d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise DomainError("only integer exponents are supported")
        if exponent < 0:
            return QuadExt(1, 0, self.d) / (self ** (-exponent))
        result = QuadExt(1, 0, self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (self - self._coerce(other)).sign() == 0

    __hash__ = None  # equal values can have distinct (a, b) when d is square

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(d): -1, 0, or +1."""
        a, b, d = self.a, self.b, self.d
        if b == 0 or d == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if b < 0:
            return -QuadExt(-a, -b, d).sign()
        # b > 0, d > 0
        if a >= 0:
            return 1
        # a < 0: compare b*sqrt(d) against -a via squares
        lhs = b * b * d
        rhs = a * a
        return -1 if lhs < rhs else (0 if lhs == rhs else 1)

    def is_rational(self) -> bool:
        """Whether the value collapses to a rational number."""
        return self.b == 0 or rational_sqrt(self.d) is not None

    def rational_value(self) -> Fraction:
        """The exact rational value; raises if the value is irrational."""
        if self.b == 0:
            return self.a
        root = rational_sqrt(self.d)
        if root is None:
            raise DomainError(f"{self!r} is irrational")
        return self.a + self.b * root

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

