"""Coefficient recovery for the independent set polynomial.

I(G; X) has degree alpha(G), the largest independent set size.  A
partition of V into d cliques proves alpha(G) <= d, since an independent
set meets each clique at most once, so evaluating I at d+1 pairwise
distinct points determines it.  ``graphs.clique_cover`` builds such a
partition greedily; ``interpolate_family`` is handed the partition
with the family and checks it exactly before trusting its size.

The clone family supplies the d+1 points.  Member i is the singleton
S_i = {i}: its clone is G itself with one pendant path of length i on
each vertex, so it has n(i+1) vertices and its 2-core is that of G.
Each clone is evaluated at the single fixed point x by an oracle, the
correction factor C_i^n is divided out to recover I(G; r_i), and exact
Lagrange interpolation returns the coefficient vector.

The shifted points r_i = B_i/C_i follow the path recurrence:

    r_0 = x,   r_(i+1) = x / (1 + r_i),

and 1 + r_i = C_(i+1)/C_i never vanishes for nondegenerate x (see the
clonecalc module).  The map r -> x/(1 + r) is the Moebius map of the
matrix [[0, x], [1, 1]], whose eigenvalues t1, t2 are real with
|t1| > |t2| > 0 for nondegenerate x.  It is therefore conjugate to
z -> (t2/t1) z with 0 < |t2/t1| < 1: its two fixed points are its only
periodic points.  If r_i = r_j for some i < j, then r_i would be
periodic, hence fixed, and so would r_0 = x, since the map is a
bijection; but x is fixed only when x^2 = 0.  So the d+1 points are
pairwise distinct and no search is needed.  The construction still
checks distinctness exactly and raises if it ever fails.

Every graph takes this one path.  For d = 0, the bound of the empty
graph, the only member is S_0 = {0}: its clone is the graph itself, its
shifted point is x and its correction factor is 1.

The paper's family has only polylog(n) blow-up per vertex, which its
hardness reduction needs; exact answers do not.  Its largest clone has
n*L(L+2) vertices, with L = floor(log2 d) + 1, and L clones of every
vertex in its 2-core; the singleton clone has n(d+1) vertices and G's own
2-core, and it is no larger for every d <= 47.
"""

from __future__ import annotations

import json
import shlex
import subprocess
from dataclasses import dataclass
from fractions import Fraction

from .clonecalc import clone_correction_factor, clone_shifted_point
from .errors import CapacityError, DomainError, OracleError
from .graphs import CloneSpec, Graph, clique_cover, graph_to_json_dict, is_clique_cover, s_clone
from .isp import Polynomial, isp_eval
from .quadfield import as_rational, format_rational

# Wall-clock limit on one external oracle query; a query that runs longer
# is killed and reported as an OracleError.
ORACLE_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class CloneFamily:
    """The d+1 singleton clone multisets S_i = {i} and their shifted points
    for one interpolation run, where d = ``degree`` bounds the degree of
    I(G; X)."""

    x: Fraction
    degree: int
    sets: tuple
    points: tuple

    def dump_records(self, n: int) -> list:
        """One record per member, for use on an n-vertex graph."""
        return [
            {
                "i": i,
                "s_set": list(self.sets[i].entries),
                "point": format_rational(self.points[i]),
                "clone_vertices": n * self.sets[i].block,
            }
            for i in range(len(self.sets))
        ]


def build_clone_family(x, d: int) -> CloneFamily:
    """Construct the family S_i = {i} for i = 0..d and its shifted points,
    checked to be pairwise distinct exactly."""
    x = as_rational(x)
    if d < 0:
        raise DomainError(f"family size needs degree bound d >= 0, got {d}")
    sets = tuple(CloneSpec([i]) for i in range(d + 1))
    points = tuple(clone_shifted_point(x, spec) for spec in sets)
    if len(set(points)) != d + 1:
        raise AssertionError(f"shifted points of the singleton family collide at x = {x}")
    return CloneFamily(x, d, sets, points)


def lagrange_interpolate(samples) -> Polynomial:
    """Unique polynomial of degree < len(samples) through the given
    (point, value) pairs, with exact rational coefficients."""
    pairs = [(as_rational(p), as_rational(v)) for p, v in samples]
    if not pairs:
        raise DomainError("interpolation needs at least one sample")
    points = [p for p, _ in pairs]
    if len(set(points)) != len(points):
        raise DomainError("interpolation points must be pairwise distinct")

    # Master polynomial prod (X - p_i), then one synthetic division per
    # sample yields the numerator basis polynomials.
    master = [Fraction(1)]
    for p in points:
        master = [Fraction(0)] + master
        for j in range(len(master) - 1):
            master[j] -= master[j + 1] * p

    count = len(pairs)
    acc = [Fraction(0)] * count
    for p, value in pairs:
        basis = [Fraction(0)] * count
        basis[count - 1] = master[count]
        for j in range(count - 1, 0, -1):
            basis[j - 1] = master[j] + basis[j] * p
        denom = Fraction(0)
        power = Fraction(1)
        for c in basis:
            denom += c * power
            power *= p
        scale = value / denom
        for j in range(count):
            acc[j] += scale * basis[j]
    return Polynomial(acc)


class InternalOracle:
    """The definitional branching evaluator of this package, behind the
    oracle interface.  Never uses the clone/path shift identities, so the
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
    point x: build the clone family for the degree bound d = the size of
    ``clique_cover(g)`` and run interpolate_family on it.

    Requires nondegenerate x (compose with normalize_point otherwise)."""
    if oracle is None:
        oracle = InternalOracle()
    cover = clique_cover(g)
    return interpolate_family(g, cover, build_clone_family(x, len(cover)), oracle)


def interpolate_family(g: Graph, cover, family: CloneFamily, oracle) -> Polynomial:
    """All coefficients of I(G; X) from a clone family whose degree bound
    is certified for G: evaluate each S-clone at family.x with the oracle,
    divide out the clone correction factor, and interpolate at the shifted
    points.

    The certificate is ``cover``, a partition of G's vertices into cliques,
    checked exactly; the family needs at least one point more than it has
    parts.  Oracle failures and capacity errors are re-raised with the
    failing clone index."""
    if not is_clique_cover(g, cover):
        raise DomainError(f"degree certificate failed its check: {cover} is not a clique cover")
    if len(family.points) < len(cover) + 1:
        raise DomainError(
            f"clone family for degree {family.degree} has {len(family.points)} points; "
            f"the {len(cover)}-clique cover of this {g.n}-vertex graph needs {len(cover) + 1}"
        )
    samples = []
    for i, spec in enumerate(family.sets):
        try:
            raw = oracle.evaluate(s_clone(g, spec), family.x)
        except (OracleError, CapacityError) as exc:
            raise type(exc)(f"clone {i} (S = {list(spec.entries)}): {exc}") from exc
        samples.append((family.points[i], raw / clone_correction_factor(family.x, spec, g.n)))
    return lagrange_interpolate(samples)
