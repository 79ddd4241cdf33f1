"""Coefficient recovery for the independent set polynomial.

I(G; X) has degree alpha(G), the largest independent set size.  A
partition of V into d cliques proves alpha(G) <= d, since an independent
set meets each clique at most once, so evaluating I at d+1 pairwise
distinct points determines it.  ``graphs.clique_cover`` builds such a
partition greedily; ``interpolate_family`` is handed the partition and
checks it exactly before trusting its size.

The definition states the first h = min(4, d) coefficients: a_0 = 1,
a_1 = n, a_2 = C(n, 2) - |E|, the vertex pairs that are not edges, and
a_3, the vertex triples that hold no edge.  By inclusion-exclusion over
the edges a triple holds,

    a_3 = C(n, 3) - |E|(n - 2) + sum_v C(deg v, 2) - T,

with T the number of triangles: each edge lies in n - 2 triples, two
edges lie in one triple exactly when they share a vertex, and three
only in a triangle.  Summing |N(u) & N(v)| over the edges uv counts
every triangle once per edge, 3T, so a_3 costs one pass over the
neighbour masks, O(n + |E|) popcounts.  (a_4 would need the count of
every 4-vertex subgraph type, so the definition stops at a_3.)
The clone family supplies the other d + 1 - h = max(d - 3, 1)
evaluations at the one point x, from members k = 0 .. d - h.  Member k
is the comb ``graphs.comb(g, k)``: G with k pendant leaves on every
vertex.  An independent set S of G extends to the comb by any set of
leaves of the vertices outside S, so

    I(G o comb_k; x) = (1 + x)^(kn) * I(G; x / (1 + x)^k).

Member k thus answers a linear form in the coefficients a_j of I(G; X):

    raw_k = sum_j a_j x^j (1 + x)^(k(n - j)).

Member k has n(k+1) vertices, and its 2-core is that of G, since the
leaves peel away.  Every added vertex is a leaf on an original vertex,
so a host leaf, which the kernel's component search skips and never
branches on (unless k = 1 and the original vertex is isolated in G).

The answers are solved over the integers.  Write x = p/q in lowest
terms and s = p + q, so 1 + x = s/q.  Scaling member k's answer to

    F_k = q^(d + kn) * raw_k / s^(k(n - d))

turns it into F_k = sum_j b_j W_j^k, with integer nodes
W_j = q^j * s^(d - j) and b_j = a_j * p^j * q^(d - j).  Over one common
denominator L the F_k are integers.  Taking the stated terms b_j W_j^k,
j < h, off each F_k leaves a square transposed Vandermonde system in
the unknowns b_h .. b_d.  Its node polynomial M(t) = prod_(m >= h)
(t - W_m) is monic, so synthetic division gives each P_j = M / (t - W_j)
exactly, over the integers.  P_j vanishes at every unknown node but
W_j, so sum_k [t^k]P_j * F_k = b_j * P_j(W_j) over what is left of the
F_k, and a_j is an integer divided by L * P_j(W_j) * p^j * q^(d - j):
one division per coefficient.

Consecutive nodes have ratio W_(j+1) / W_j = q/s = 1 / (1 + x).  So the
nodes are pairwise distinct, s != 0 and p != 0 exactly when x is outside
{0, -1, -2}: there x != 0 and 1 + x is neither 0, 1 nor -1.  Those three
points raise ``DegeneratePointError``; every other x is used as it is,
with no change of point.

Every graph takes this one path, and every call queries the oracle at
least once.  For d = 0, the bound of the empty graph, the only member is
comb 0: the graph itself, with F_0 = raw_0 and the single node W_0 = 1.
For d = 1, 2 and 3 the only member, comb 0, answers for a_d.  The
answers are checked through a_h .. a_d; a_0 .. a_(h-1) come from the
definition and cannot be wrong.

The paper's family has only polylog(n) blow-up per vertex, which its
hardness reduction needs; exact answers do not.  Its largest clone has
n*L(L+2) vertices, with L = floor(log2 d) + 1, and L clones of every
vertex in its 2-core; the largest comb queried has n(d - 3) vertices
for d >= 4 (n for d < 4) and G's own 2-core, and it is no larger for
every d <= 51.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import CapacityError, DegeneratePointError, DomainError, OracleError
from .graphs import Graph, clique_cover, comb, graph_to_json_dict, is_clique_cover
from .isp import Polynomial, isp_eval
from .rationals import as_rational, format_rational

# Wall-clock limit on one external oracle query; a query that runs longer
# is killed and reported as an OracleError.
ORACLE_TIMEOUT_S = 600.0


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
    and raises ``OracleError``.  ``shlex`` and ``subprocess`` are imported
    here, not with the package, since only this oracle uses them.
    """

    kind = "external_command"

    def __init__(self, command: str):
        import shlex

        self.command = command
        try:
            self.argv = shlex.split(command)
        except ValueError as exc:  # e.g. an unterminated quote
            raise DomainError(f"malformed oracle command {command!r}: {exc}") from None
        if not self.argv:
            raise DomainError("empty oracle command")

    def evaluate(self, g: Graph, x) -> Fraction:
        import subprocess

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
        except ValueError as exc:  # JSONDecodeError, or an int past the int/str digit limit
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


def _independent_triples(g: Graph) -> int:
    """a_3, the vertex triples that hold no edge, as the module docstring
    derives: one pass over the neighbour masks adds C(deg v, 2) for each
    vertex v and |N(u) & N(v)| for each edge uv, u < v, which sums to 3T
    for T triangles."""
    masks = g.neighbor_masks()
    degrees = wedges = triangles3 = 0
    for v, nbrs in enumerate(masks):
        deg = nbrs.bit_count()
        degrees += deg
        wedges += deg * (deg - 1) // 2
        below = nbrs & ((1 << v) - 1)
        while below:
            b = below & -below
            below ^= b
            triangles3 += (masks[b.bit_length() - 1] & nbrs).bit_count()
    return math.comb(g.n, 3) - degrees // 2 * (g.n - 2) + wedges - triangles3 // 3


def interpolate_family(g: Graph, cover, x, oracle) -> Polynomial:
    """All coefficients of I(G; X) from the comb family at x, sized by a
    certified degree bound d: take a_0 = 1, a_1 = n, a_2 = C(n, 2) - |E|
    and a_3, the independent triples, from the graph (the first
    h = min(4, d) of them), evaluate comb k = 0 .. d - h at x with the
    oracle, which is max(d - 3, 1) queries, and solve the answers for
    a_h .. a_d exactly, over the integers, as the module docstring
    derives.

    The certificate is ``cover``, a partition of G's vertices into d
    cliques, checked exactly.  The points x = 0, -1 and -2 raise
    ``DegeneratePointError``.  Oracle failures and capacity errors are
    re-raised with the failing clone index; so is a ``DomainError`` from
    the query, such as an answer that is not an exact rational (2.5 or
    True), as an ``OracleError``.  Answers that interpolate to anything
    but a count of independent sets (integers a_k, k >= h, with a_0 = 1
    and 0 <= a_k <= C(n, k)) raise ``OracleError`` naming the first bad
    coefficient; the stated a_0 .. a_(h-1) are never checked, since they
    cannot be wrong."""
    x = as_rational(x)
    if x in (0, -1, -2):
        raise DegeneratePointError(
            f"x = {x} is degenerate for the comb family: its points x/(1 + x)^k "
            f"are pairwise distinct only for x outside {{0, -1, -2}}"
        )
    if not is_clique_cover(g, cover):
        raise DomainError(f"degree certificate failed its check: {cover} is not a clique cover")
    p, q = x.numerator, x.denominator
    s = p + q
    n, d = g.n, len(cover)
    coeffs = [1, n, math.comb(n, 2) - g.edge_count][:d]  # the stated a_0 .. a_(h-1)
    if d >= 4:
        coeffs.append(_independent_triples(g))
    h = len(coeffs)
    # s^(d(n-d)) * F_k = nums[k] / dens[k], with F_k as in the module docstring.
    nums, dens = [], []
    for k in range(d - h + 1):
        try:
            raw = as_rational(oracle.evaluate(comb(g, k), x))
        except (OracleError, CapacityError) as exc:
            raise type(exc)(f"clone {k} ({k} leaves per vertex): {exc}") from exc
        except DomainError as exc:  # e.g. as_rational refusing the answer
            raise OracleError(f"clone {k} ({k} leaves per vertex): {exc}") from exc
        nums.append(raw.numerator * q ** (d + k * n) * s ** ((d - k) * (n - d)))
        dens.append(raw.denominator)
    lcm = math.lcm(*dens)
    common = lcm * s ** (d * (n - d))  # L, so that L * F_k = values[k]
    values = [num * (lcm // den) for num, den in zip(nums, dens)]
    nodes = [q**j * s ** (d - j) for j in range(d + 1)]
    for j, a in enumerate(coeffs):  # take L * b_j * W_j^k off each value
        b = common * a * p**j * q ** (d - j)
        values = [v - b * nodes[j] ** k for k, v in enumerate(values)]
    unknown = nodes[h:]
    master = [1]  # M(t) = prod_m (t - W_m) over the unknown nodes, lowest degree first
    for w in unknown:
        master = [0] + master
        for i in range(len(master) - 1):
            master[i] -= w * master[i + 1]
    for j, w in enumerate(unknown, start=h):
        # b_j * P_j(W_j) * L = sum_k [t^k]P_j * L * F_k, taking the
        # coefficients of P_j = M / (t - W_j) from the top.
        top = acc = 0
        for i in range(len(unknown), 0, -1):
            top = master[i] + w * top
            acc += top * values[i - 1]
        den = common * math.prod(w - v for v in unknown if v != w) * p**j * q ** (d - j)
        a, rest = divmod(acc, den)
        low, high = int(j == 0), math.comb(n, j)
        if rest or not low <= a <= high:
            raise OracleError(
                f"oracle answers are inconsistent: they interpolate to coefficient "
                f"a_{j} = {format_rational(Fraction(acc, den))}, not an integer in "
                f"[{low}, {high}] for this {n}-vertex graph"
            )
        coeffs.append(a)
    return Polynomial(coeffs)
