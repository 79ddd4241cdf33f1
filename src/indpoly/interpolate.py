"""Coefficient recovery for the independent set polynomial.

Evaluating a graph polynomial of degree <= n at n+1 pairwise distinct
points determines it.  The clone family built here supplies those points:
member i is the multiset S_i = {1 + spacing*(2j + bit_j(i))} over the
bit positions j of i, so distinct indices differ in at least one element
and the shifted points x(S_i) separate.  Each S-clone of the input graph
is evaluated at the single fixed point x by an oracle, the clone
correction factor is divided out to recover I(G; x(S_i)), and exact
Lagrange interpolation returns the coefficient vector.

The offset 1 needs no search.  A path length s is unusable only if C_s
or B_s + C_s = C_(s+1) vanishes, i.e. if (t1/t2)^s equals (t2/t1)^2 or
(t2/t1)^3.  For nondegenerate x those targets are below 1 in magnitude,
while |t1/t2|^s > 1 for every s >= 1.

Two spacing modes exist.  ``verified_minimal`` (the default) starts at
spacing 1 and doubles until the n+1 points are exactly pairwise distinct;
the exactness check is part of construction, not an afterthought.
``paper_formula`` evaluates the published worst-case bound (base-2 logs in
floating point with a relative safety margin of 1e-9, constants compared
exactly in the quadratic field); it produces much larger clones and exists
for inspection.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from dataclasses import dataclass
from fractions import Fraction

from .clonecalc import clone_correction_factor, clone_shifted_point, transfer_eigenvalues
from .errors import CapacityError, DomainError, OracleError
from .graphs import CloneSpec, Graph, graph_to_json_dict, s_clone
from .isp import Polynomial, isp_eval
from .quadfield import QuadExt, as_rational, format_rational, quad_abs, quad_max, quad_min

# Wall-clock limit on one external oracle query; a query that runs longer
# is killed and reported as an OracleError.
ORACLE_TIMEOUT_S = 600.0

_SPACING_MARGIN = 1e-9
_MAX_DOUBLINGS = 64
_FAMILY_OFFSET = 1


def family_spacing(x, n: int, mode: str = "verified_minimal") -> int:
    """Element spacing for the clone family.

    ``verified_minimal`` returns 1 (distinctness is verified exactly and
    escalated during construction).  ``paper_formula`` evaluates the
    worst-case bound 7*((log n + 1) log(C2/C1) + 2 log n + 1) / log(t1/|t2|)
    with base-2 logs, where C1 = min{1, |t1|, |t2|, |x+t1|, |x|, |t1-t2|}
    and C2 = 2 max{1, |t1|, |t2|, |x+t1|, |x+t2|} are selected by exact
    field comparison; the float bound is inflated by a relative 1e-9
    before taking the next integer above it."""
    x = as_rational(x)
    if n < 1:
        raise DomainError(f"family size needs n >= 1, got {n}")
    if mode == "verified_minimal":
        transfer_eigenvalues(x)  # enforce nondegeneracy
        return 1
    if mode != "paper_formula":
        raise DomainError(f"unknown spacing mode {mode!r}")
    t1, t2 = transfer_eigenvalues(x)
    one = QuadExt(1, 0, t1.d)
    xq = QuadExt(x, 0, t1.d)
    c1 = quad_min(
        [one, quad_abs(t1), quad_abs(t2), quad_abs(xq + t1), quad_abs(xq), quad_abs(t1 - t2)]
    )
    c2 = 2 * quad_max(
        [one, quad_abs(t1), quad_abs(t2), quad_abs(xq + t1), quad_abs(xq + t2)]
    )
    log_n = math.log2(n)
    log_ratio = math.log2(t1.to_float() / quad_abs(t2).to_float())
    log_c = math.log2(c2.to_float() / c1.to_float())
    bound = 7 * ((log_n + 1) * log_c + 2 * log_n + 1) / log_ratio
    return max(1, math.floor(bound * (1 + _SPACING_MARGIN)) + 1)


@dataclass(frozen=True)
class CloneFamily:
    """The n+1 clone multisets S_0..S_n and their shifted points for one
    interpolation run."""

    x: Fraction
    n: int
    offset: int
    spacing: int
    sets: tuple
    points: tuple

    def clone_vertex_count(self, i: int) -> int:
        return self.n * self.sets[i].block

    def dump_records(self) -> list:
        return [
            {
                "i": i,
                "s_set": list(self.sets[i].entries),
                "point": format_rational(self.points[i]),
                "clone_vertices": self.clone_vertex_count(i),
            }
            for i in range(len(self.sets))
        ]


def _family_sets(n: int, spacing: int) -> tuple:
    bits = n.bit_length() - 1  # floor(log2 n) for n >= 1
    sets = []
    for i in range(n + 1):
        entries = [_FAMILY_OFFSET + spacing * (2 * j + ((i >> j) & 1)) for j in range(bits + 1)]
        sets.append(CloneSpec(entries))
    return tuple(sets)


def build_clone_family(x, n: int, mode: str = "verified_minimal") -> CloneFamily:
    """Construct the family S_0..S_n with exactly pairwise distinct shifted
    points.  In verified_minimal mode the spacing doubles on any exact
    collision; in paper_formula mode a collision is a hard error since the
    bound is supposed to preclude it."""
    x = as_rational(x)
    if n < 1:
        raise DomainError(f"family size needs n >= 1, got {n}")
    spacing = family_spacing(x, n, mode)
    for _ in range(_MAX_DOUBLINGS):
        sets = _family_sets(n, spacing)
        points = tuple(clone_shifted_point(x, spec) for spec in sets)
        if len(set(points)) == n + 1:
            return CloneFamily(x, n, _FAMILY_OFFSET, spacing, sets, points)
        if mode == "paper_formula":
            raise AssertionError(
                f"paper_formula spacing {spacing} produced colliding points"
            )
        spacing *= 2
    raise AssertionError("spacing escalation failed to separate the points")


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

    def __init__(self, max_vertices: int | None = None):
        self.max_vertices = max_vertices

    def evaluate(self, g: Graph, x) -> Fraction:
        if self.max_vertices is not None and g.n > self.max_vertices:
            raise CapacityError(
                f"oracle bound {self.max_vertices} exceeded by {g.n}-vertex graph"
            )
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


def external_oracle(command: str) -> ExternalOracle:
    """Wrap a command template as an evaluation oracle."""
    return ExternalOracle(command)


def interpolate_coeffs(
    g: Graph, x, oracle=None, mode: str = "verified_minimal"
) -> Polynomial:
    """All coefficients of I(G; X) from oracle evaluations at the single
    point x: build the clone family for n = |V(G)| and run
    interpolate_family on it.

    Requires nondegenerate x (compose with normalize_point otherwise)."""
    x = as_rational(x)
    transfer_eigenvalues(x)  # enforce nondegeneracy up front
    if oracle is None:
        oracle = InternalOracle()
    if g.n == 0:
        return Polynomial([1])
    return interpolate_family(g, build_clone_family(x, g.n, mode), oracle)


def interpolate_family(g: Graph, family: CloneFamily, oracle) -> Polynomial:
    """All coefficients of I(G; X) from a clone family built for
    n = |V(G)|: evaluate each S-clone at family.x with the oracle, divide
    out the clone correction factor, and interpolate at the shifted
    points.  Oracle failures and capacity errors are re-raised with the
    failing clone index."""
    if family.n != g.n:
        raise DomainError(f"clone family for n = {family.n} used on a {g.n}-vertex graph")
    samples = []
    for i, spec in enumerate(family.sets):
        try:
            raw = oracle.evaluate(s_clone(g, spec), family.x)
        except (OracleError, CapacityError) as exc:
            raise type(exc)(f"clone {i} (S = {list(spec.entries)}): {exc}") from exc
        samples.append((family.points[i], raw / clone_correction_factor(family.x, spec, g.n)))
    return lagrange_interpolate(samples)
