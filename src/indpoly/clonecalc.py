"""The algebra of S-clones: pendant-path weights, the shifted evaluation
point and correction factor of an S-clone, and the evaluation-point
normalizer.

A pendant path of length k hanging off a vertex contracts into a pair of
exact rationals (B_k, C_k) via the transfer recurrence

    (B_0, C_0) = (x, 1),   B_{i+1} = x * C_i,   C_{i+1} = B_i + C_i,

i.e. repeated application of the matrix [[0, x], [1, 1]].  The recurrence
is the primary computation path (exact over Q for every rational x); the
eigenvalue closed form, summed over Q by its binomial expansion, exists
as a cross-check.  The eigenvalues t1, t2 = (1 +- sqrt(1+4x))/2 are the
roots of t^2 - t - x.  For nondegenerate x they are real with
t1 + t2 = 1 and t2 != 0, so |t1| > |t2| > 0 and
C_k = (t1^(k+2) - t2^(k+2)) / (t1 - t2) never vanishes; in particular
neither C_s nor B_s + C_s = C_(s+1) does.

An S-clone shifts the evaluation point x to the rational x(S) defined by
1 + x(S) = prod over s in S of (1 + B_s/C_s), and multiplies the
polynomial value by (prod C_s)^|V|; ``clone_shift`` returns the pair
(x(S), prod C_s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePointError, DomainError
from .graphs import Graph, _clone_multiset, comb, k_clone
from .rationals import _require_int, as_rational, format_rational


def is_nondegenerate(x) -> bool:
    """Whether x admits the path reduction: x > -1/4 and x != 0."""
    x = as_rational(x)
    return x > Fraction(-1, 4) and x != 0


def _require_nondegenerate(x: Fraction):
    if x == 0:
        raise DegeneratePointError("x = 0 is degenerate for path reduction")
    if x <= Fraction(-1, 4):
        raise DegeneratePointError(
            f"x = {x} violates x > -1/4, degenerate for path reduction"
        )


def path_weights(x, k: int) -> tuple:
    """(B_k, C_k) for a pendant path of length k, by the transfer
    recurrence: exact for every rational x, including degenerate ones."""
    _require_int(k, "path length")
    x = as_rational(x)
    b, c = x, Fraction(1)
    for _ in range(k):
        b, c = x * c, b + c
    return b, c


def _lucas_u(d: Fraction, m: int) -> Fraction:
    """U_m = (t1^m - t2^m) / (t1 - t2) for t1, t2 = (1 +- sqrt(d))/2, m >= 1.
    By the binomial theorem only the odd powers sqrt(d)^j survive:
    U_m = 2^(1-m) * sum over odd j <= m of C(m, j) * d^((j-1)/2)."""
    total = sum(math.comb(m, j) * d ** ((j - 1) // 2) for j in range(1, m + 1, 2))
    return total / 2 ** (m - 1)


def path_weights_closed_form(x, k: int) -> tuple:
    """Eigenvalue closed forms for (B_k, C_k), as exact rationals:

        B_k = x * U_(k+1),   C_k = U_(k+2)

    with U_m the Lucas sum of the eigenvalues of [[0, x], [1, 1]], summed
    term by term without iterating the recurrence.  Requires
    nondegenerate x; agrees exactly with path_weights."""
    _require_int(k, "path length")
    x = as_rational(x)
    _require_nondegenerate(x)
    d = 1 + 4 * x
    return x * _lucas_u(d, k + 1), _lucas_u(d, k + 2)


def clone_shift(x, spec) -> tuple:
    """(x(S), prod over s in S of C_s) for the clone multiset S = ``spec``:
    the point an S-clone shifts x to, 1 + x(S) = prod of (1 + B_s/C_s), and
    the base of its correction factor.  An S-clone G' of an n-vertex G has
    I(G'; x) = (prod C_s)^n * I(G; x(S))."""
    x = as_rational(x)
    _require_nondegenerate(x)
    shifted = factor = Fraction(1)
    for s in _clone_multiset(spec):
        b, c = path_weights(x, s)
        shifted *= 1 + b / c
        factor *= c
    return shifted - 1, factor


@dataclass(frozen=True)
class TransformPlan:
    """Recipe reducing evaluation at ``target_point`` to evaluation at the
    original point.

    ``steps`` are listed in point-shift order: the order in which the
    original point travels to the target (a comb step sends x to
    x/(1+x)^k; a two_clone step sends y to (1+y)^2 - 1).  ``apply``
    therefore composes the graph transformations in reverse order.  For a
    graph G with n vertices,

        isp_eval(apply(G), original_point) ==
            factor(n) * isp_eval(G, target_point)

    with factor(n) = (1 + original_point)^(factor_exponent_per_vertex * n).
    """

    original_point: Fraction
    steps: tuple
    target_point: Fraction
    factor_exponent_per_vertex: int

    def apply(self, g: Graph) -> Graph:
        for step in reversed(self.steps):
            if step[0] == "comb":
                g = comb(g, step[1])
            elif step[0] == "two_clone":
                g = k_clone(g, 2)
            else:
                raise DomainError(f"unknown plan step {step!r}")
        return g

    def factor(self, n: int) -> Fraction:
        _require_int(n, "vertex count")
        base = 1 + self.original_point
        return base ** (self.factor_exponent_per_vertex * n)

    def to_json_dict(self) -> dict:
        return {
            "original_point": format_rational(self.original_point),
            "steps": [
                {"op": "comb", "k": step[1]} if step[0] == "comb" else {"op": "two_clone"}
                for step in self.steps
            ],
            "target_point": format_rational(self.target_point),
            "factor_base": format_rational(1 + self.original_point),
            "factor_exponent_per_vertex": self.factor_exponent_per_vertex,
        }


def normalize_point(x) -> TransformPlan:
    """Reduce evaluation at an arbitrary rational x (other than the
    unsupported cycle-gadget points 0, -1, -2) to evaluation at a point
    that is nondegenerate for path reduction.

    Nondegenerate x need no steps.  For x < -2 a single 2-clone lands on
    (1+x)^2 - 1 > 0.  For degenerate x in (-2, 0) a comb step with the
    smallest even k >= 2 satisfying x/(1+x)^k < -2 (found by an exact
    search over the integers) is followed by a 2-clone."""
    x = as_rational(x)
    if x in (0, -1, -2):
        raise DegeneratePointError(
            f"x = {x} unsupported: the cycle-addition gadgets for these points "
            "are not implemented"
        )
    if is_nondegenerate(x):
        return TransformPlan(x, (), x, 0)
    if x < -2:
        target = (1 + x) ** 2 - 1
        return TransformPlan(x, (("two_clone",),), target, 0)
    # Remaining range: -2 < x <= -1/4, x != -1, so 0 < |1+x| < 1 and the shifted
    # point x/(1+x)^k = p q^(k-1) / (p+q)^k diverges to -infinity along even k.
    p, q, k = x.numerator, x.denominator, 2
    while p * q ** (k - 1) >= -2 * (p + q) ** k:
        k += 2
    y = Fraction(p * q ** (k - 1), (p + q) ** k)
    target = (1 + y) ** 2 - 1
    return TransformPlan(x, (("comb", k), ("two_clone",)), target, 2 * k)
