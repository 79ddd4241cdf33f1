"""The algebra of S-clones: pendant-path weights, shifted evaluation
points, correction factors, and the evaluation-point normalizer.

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
polynomial value by (prod C_s)^|V|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePointError, DomainError
from .graphs import CloneSpec, Graph, _is_int, comb, k_clone
from .quadfield import as_rational, format_rational


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


@dataclass(frozen=True)
class PathWeights:
    """Exact (B_k, C_k) for a pendant path of length k at weight x."""

    b: Fraction
    c: Fraction
    k: int


def path_weights(x, k: int) -> PathWeights:
    """Transfer recurrence for a pendant path of length k: exact for every
    rational x, including degenerate ones."""
    if not _is_int(k) or k < 0:
        raise DomainError(f"path length must be an integer >= 0, got {k!r}")
    x = as_rational(x)
    b, c = x, Fraction(1)
    for _ in range(k):
        b, c = x * c, b + c
    return PathWeights(b, c, k)


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
    if not _is_int(k) or k < 0:
        raise DomainError(f"path length must be an integer >= 0, got {k!r}")
    x = as_rational(x)
    _require_nondegenerate(x)
    d = 1 + 4 * x
    return x * _lucas_u(d, k + 1), _lucas_u(d, k + 2)


def clone_shifted_point(x, spec) -> Fraction:
    """The rational x(S) that an S-clone shifts the evaluation point to:
    1 + x(S) = prod over s in S of (1 + B_s/C_s)."""
    x = as_rational(x)
    _require_nondegenerate(x)
    if not isinstance(spec, CloneSpec):
        spec = CloneSpec(spec)
    product = Fraction(1)
    for s in spec.entries:
        w = path_weights(x, s)
        product *= 1 + Fraction(w.b, w.c)
    return product - 1


def clone_correction_factor(x, spec, n: int) -> Fraction:
    """(prod over s in S of C_s)^n: the exact factor relating the S-clone's
    polynomial value to the original graph's value at x(S)."""
    x = as_rational(x)
    _require_nondegenerate(x)
    if not isinstance(spec, CloneSpec):
        spec = CloneSpec(spec)
    if not _is_int(n) or n < 0:
        raise DomainError(f"vertex count must be an integer >= 0, got {n!r}")
    product = Fraction(1)
    for s in spec.entries:
        product *= path_weights(x, s).c
    return product ** n


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
        if not _is_int(n) or n < 0:
            raise DomainError(f"vertex count must be an integer >= 0, got {n!r}")
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
    smallest even k >= 2 satisfying x/(1+x)^k < -2 (found by exact
    rational search) is followed by a 2-clone."""
    x = as_rational(x)
    if x in (0, -1, -2):
        raise DomainError(
            f"x = {x} unsupported: the cycle-addition gadgets for these points "
            "are not implemented"
        )
    if is_nondegenerate(x):
        return TransformPlan(x, (), x, 0)
    if x < -2:
        target = (1 + x) ** 2 - 1
        return TransformPlan(x, (("two_clone",),), target, 0)
    # Remaining range: -2 < x <= -1/4, x != -1, so 0 < |1+x| < 1 and the
    # shifted point x/(1+x)^k diverges to -infinity along even k.
    k = 2
    while x / (1 + x) ** k >= -2:
        k += 2
    y = x / (1 + x) ** k
    target = (1 + y) ** 2 - 1
    return TransformPlan(x, (("comb", k), ("two_clone",)), target, 2 * k)
