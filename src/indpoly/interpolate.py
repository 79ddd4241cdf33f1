"""Coefficient recovery for the independent set polynomial.

I(G; X) has degree alpha(G), the largest independent set size.  A
partition of V into d cliques proves alpha(G) <= d, since an independent
set meets each clique at most once, so evaluating I at d+1 pairwise
distinct points determines it.  ``graphs.clique_cover`` builds such a
partition greedily; ``interpolate_family`` is handed the partition and
checks it exactly before trusting its size.

The clone family supplies the d+1 points.  Member k is the comb
``graphs.comb(g, k)``: G with k pendant leaves on every vertex.  An
independent set S of G extends to the comb by any set of leaves of the
vertices outside S, so

    I(G o comb_k; x) = (1 + x)^(kn) * I(G; x / (1 + x)^k).

Each comb is evaluated at the single fixed point x by an oracle, the
correction factor s_k^n with scale s_k = (1 + x)^k is divided out to
recover I(G; r_k) at r_k = x / (1 + x)^k, and exact Lagrange
interpolation returns the coefficient vector.  The member loop steps
the point and the scale by one division and one multiplication by 1 + x.

The points are pairwise distinct for every rational x outside
{0, -1, -2}: there x != 0 and |1 + x| is neither 0 nor 1, so
|r_k| = |x| / |1 + x|^k is strictly monotone in k.  Those three points
raise ``DegeneratePointError``; every other x is used as it is, with no
change of point.  ``lagrange_interpolate`` rejects repeated points
exactly in any case.

Member k has n(k+1) vertices, and its 2-core is that of G, since the
leaves peel away.  Every added vertex is a leaf on an original vertex,
so a host leaf, which the kernel's component search skips and never
branches on (unless k = 1 and the original vertex is isolated in G).

Interpolation runs over the integers.  With each point in lowest terms,
r_i = b_i/c_i, the node polynomial M(X) = prod_j (c_j X - b_j) has
integer coefficients, and exact synthetic division by (c_i X - b_i)
gives the integer basis polynomial P_i = prod_(j != i) (c_j X - b_j).  It
takes the value h_i / c_i^d at r_i, where
h_i = prod_(j != i) (c_j b_i - b_j c_i) is a nonzero integer, so the
interpolant is sum_i w_i P_i with w_i = y_i c_i^d / h_i.  Over one common
denominator L of the weights that sum is a sum of integer products, and
each coefficient costs a single division by L.

Every graph takes this one path.  For d = 0, the bound of the empty
graph, the only member is comb 0: the graph itself, at point x with
correction factor 1.

The paper's family has only polylog(n) blow-up per vertex, which its
hardness reduction needs; exact answers do not.  Its largest clone has
n*L(L+2) vertices, with L = floor(log2 d) + 1, and L clones of every
vertex in its 2-core; the largest comb has n(d+1) vertices and G's own
2-core, and it is no larger for every d <= 47.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from fractions import Fraction

from .errors import CapacityError, DegeneratePointError, DomainError, OracleError
from .graphs import Graph, clique_cover, comb, graph_to_json_dict, is_clique_cover
from .isp import Polynomial, isp_eval
from .quadfield import as_rational, format_rational

# Wall-clock limit on one external oracle query; a query that runs longer
# is killed and reported as an OracleError.
ORACLE_TIMEOUT_S = 600.0


def lagrange_interpolate(samples) -> Polynomial:
    """Unique polynomial of degree < len(samples) through the given
    (point, value) pairs, with exact rational coefficients."""
    pairs = [(as_rational(p), as_rational(v)) for p, v in samples]
    if not pairs:
        raise DomainError("interpolation needs at least one sample")
    points = [p for p, _ in pairs]
    if len(set(points)) != len(points):
        raise DomainError("interpolation points must be pairwise distinct")

    # Node polynomial M(X) = prod (c_j X - b_j) over the points b_j/c_j.
    nodes = [(p.numerator, p.denominator) for p in points]
    master = [1]
    for b, c in nodes:
        shifted = [0] + [c * m for m in master]
        for k, m in enumerate(master):
            shifted[k] -= b * m
        master = shifted

    d = len(pairs) - 1
    bases = []
    weights = []
    for (b, c), (_, value) in zip(nodes, pairs):
        # P = M / (cX - b) by synthetic division from the top; every
        # quotient is exact since P = prod over j != i of (c_j X - b_j).
        basis = [0] * (d + 1)
        carry = 0
        for k in range(d + 1, 0, -1):
            basis[k - 1], rest = divmod(master[k] + carry, c)
            if rest:
                raise AssertionError(f"node polynomial is not divisible by {c}X - {b}")
            carry = b * basis[k - 1]
        if master[0] + carry:
            raise AssertionError(f"node polynomial does not vanish at {b}/{c}")
        # P(b/c) = h / c^d with h = prod over j != i of (c_j b - b_j c) != 0.
        h = 1
        for bj, cj in nodes:
            if (bj, cj) != (b, c):
                h *= cj * b - bj * c
        bases.append(basis)
        weights.append(value * c**d / h)

    common = math.lcm(*(w.denominator for w in weights))
    acc = [0] * (d + 1)
    for basis, w in zip(bases, weights):
        scale = w.numerator * (common // w.denominator)
        for k, coeff in enumerate(basis):
            acc[k] += scale * coeff
    return Polynomial(Fraction(a, common) for a in acc)


class InternalOracle:
    """The definitional branching evaluator of this package, behind the
    oracle interface.  Never uses the clone, path or comb identities, so the
    pipeline genuinely exercises them."""

    kind = "internal_definitional"

    def evaluate(self, g: Graph, x) -> Fraction:
        return isp_eval(g, x)


class ExternalOracle:
    """Evaluation oracle behind a one-request-per-process line protocol.

    Per query the command is spawned, one request line is written to its
    stdin and exactly one non-empty response line is read back:

        request:  {"graph": {"n": ..., "edges": [[u, v], ...]}, "point": "p/q"}
        response: {"value": "p/q"}

    Anything that is not a conforming response is an error, never coerced.
    A query that has not exited after ``ORACLE_TIMEOUT_S`` seconds is killed
    and raises ``OracleError``.
    """

    kind = "external_command"

    def __init__(self, command: str):
        self.command = command
        self.argv = shlex.split(command)
        if not self.argv:
            raise DomainError("empty oracle command")

    def evaluate(self, g: Graph, x) -> Fraction:
        request = json.dumps(
            {"graph": graph_to_json_dict(g), "point": format_rational(as_rational(x))}
        )
        try:
            proc = subprocess.run(
                self.argv,
                input=request + "\n",
                capture_output=True,
                text=True,
                timeout=ORACLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise OracleError(
                f"oracle {self.command!r} did not answer within {ORACLE_TIMEOUT_S} s"
            ) from exc
        except OSError as exc:
            raise OracleError(f"failed to spawn oracle {self.command!r}: {exc}") from exc
        if proc.returncode != 0:
            raise OracleError(
                f"oracle exited with status {proc.returncode}: {proc.stderr.strip()!r}"
            )
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        if not lines:
            raise OracleError("oracle produced no response line")
        if len(lines) > 1:
            raise OracleError(f"oracle produced {len(lines)} response lines, expected one")
        line = lines[0]
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise OracleError(f"non-JSON oracle response: {line!r}") from exc
        if not isinstance(obj, dict) or "value" not in obj or not isinstance(obj["value"], str):
            raise OracleError(f"oracle response missing string \"value\": {line!r}")
        try:
            return as_rational(obj["value"])
        except DomainError as exc:
            raise OracleError(f"non-rational oracle value in {line!r}: {exc}") from exc


def interpolate_coeffs(g: Graph, x, oracle=None) -> Polynomial:
    """All coefficients of I(G; X) from oracle evaluations at the single
    point x, for every rational x outside {0, -1, -2}: run
    interpolate_family on the degree bound d = the size of
    ``clique_cover(g)``."""
    if oracle is None:
        oracle = InternalOracle()
    return interpolate_family(g, clique_cover(g), x, oracle)


def interpolate_family(g: Graph, cover, x, oracle) -> Polynomial:
    """All coefficients of I(G; X) from the comb family at x, sized by a
    certified degree bound: evaluate comb k = 0..d at x with the oracle,
    divide out its correction factor, and interpolate at the shifted
    points r_k = x/(1 + x)^k.

    The certificate is ``cover``, a partition of G's vertices into d
    cliques, checked exactly.  The points x = 0, -1 and -2 raise
    ``DegeneratePointError``.  Oracle failures and capacity errors are
    re-raised with the failing clone index.  Answers that interpolate to
    anything but a count of independent sets (integers a_k with a_0 = 1
    and 0 <= a_k <= C(n, k)) raise ``OracleError`` naming the first bad
    coefficient."""
    x = as_rational(x)
    if x in (0, -1, -2):
        raise DegeneratePointError(
            f"x = {x} is degenerate for the comb family: its points x/(1 + x)^k "
            f"are pairwise distinct only for x outside {{0, -1, -2}}"
        )
    if not is_clique_cover(g, cover):
        raise DomainError(f"degree certificate failed its check: {cover} is not a clique cover")
    samples = []
    step = 1 + x
    point, scale = x, Fraction(1)
    for i in range(len(cover) + 1):
        try:
            raw = oracle.evaluate(comb(g, i), x)
        except (OracleError, CapacityError) as exc:
            raise type(exc)(f"clone {i} ({i} leaves per vertex): {exc}") from exc
        samples.append((point, raw / scale**g.n))
        point /= step
        scale *= step
    poly = lagrange_interpolate(samples)
    for k, a in enumerate(poly.coeffs):
        low, high = int(k == 0), math.comb(g.n, k)
        if a.denominator != 1 or not low <= a <= high:
            raise OracleError(
                f"oracle answers are inconsistent: they interpolate to coefficient "
                f"a_{k} = {format_rational(a)}, not an integer in [{low}, {high}] "
                f"for this {g.n}-vertex graph"
            )
    return poly
