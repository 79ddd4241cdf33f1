"""Definitional evaluators for the independent set polynomial.

Every function here computes straight from the definition: a sum of
x^|A| over independent sets A.  Two independent routes are implemented
and tested against each other:

* one branching recursion I(G) = I(G - v) + X * I(G - N[v]) with
  connected-component factorization and per-call memoization on the
  induced vertex subset (as a bitmask of the fixed host graph), run at a
  rational point by ``isp_eval``.  Isolated vertices are counted, not
  branched on: k of them contribute the factor (1 + X)^k.  The branch
  vertex of a larger component has maximum induced degree, ties going to
  the smallest id.
  The split runs inside the recursion: each component is multiplied in
  as soon as the search closes it, and the search that closes it has
  already taken the induced degree of each vertex it expanded, so it
  picks the branch vertex too.  The search skips host leaves
  (vertices of degree 1 in the host graph whose neighbour has degree at
  least 2): a leaf is added to its neighbour's component by bit
  operations and never searched from, and the leaves whose neighbour is
  gone are counted as isolated in one step.  This changes only how the
  components are found, never which they are, so it is not the leaf
  identity: no leaf is contracted, and each is still counted as an
  isolated vertex or a vertex of its component.  A search from a vertex
  c whose live neighbours are all leaves has found a star, c and t >= 1
  of its leaves, and finishes it with the branch on c that the recursion
  would take: at x = p/q, q^(t+1) I = q (q + p)^t + p q^t, the first term
  with c deleted and the t leaves isolated, the second with N[c] deleted
  (computed once per t in a call).  That is the recursion's own step,
  not the leaf identity: no weight changes and no leaf is contracted;
  only the branch-vertex choice, two splits and a memo entry are skipped.
  Every other component has two non-leaf vertices, where no leaf has the
  maximum induced degree (a leaf's neighbour has another neighbour in the
  component), so the search, which never expands a leaf, sees every
  candidate.  The host-leaf mask (``_host_leaves``) is the only per-call
  setup.
  ``isp_coeffs`` and ``count_is_of_size`` read all coefficients off one
  evaluation at X = 2^(n+1) (Kronecker substitution: every coefficient
  is a non-negative integer below 2^(n+1), so the value's base-2^(n+1)
  digits are the coefficients), and
* plain enumeration of subsets, bounded by ``max_vertices``.

A third route, ``count_transversal_is``, counts only the independent sets
that meet every part of a given clique partition exactly once (these are
the independent sets of size t for a partition into t cliques, the count
the #X3SAT -> #IS reduction asks for).  It branches on a part, not a
vertex: the part with the most live vertices next to it, so that
components split early, as in component-caching #SAT counters.  It needs
no big integers.  A pick can leave another part with
one live vertex; that vertex is forced and is taken in the same loop,
with no branch, memo entry or component split of its own.  It splits
inline, as ``isp_eval`` does: each component is looked up in the memo and
multiplied in as the search closes it, and the first component that
counts 0 ends the split.

The branching routes have no hard vertex bound (cost is exponential only
in the 2-core, so pendant-heavy graphs stay cheap); the enumeration
route fails loudly with ``CapacityError`` beyond its bound.  No route
ever uses the clone/path shift identities, so those identities can be
tested against these evaluators without circularity.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import compress

from .errors import CapacityError, DomainError
from .graphs import Graph, _is_int, is_clique_cover
from .quadfield import as_rational, format_rational

DEFAULT_ENUMERATION_BOUND = 20


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients,
    lowest degree first.  Trailing zero coefficients are trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients):
        coeffs = [as_rational(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise DomainError(f"negative degree {k}")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def evaluate(self, x) -> Fraction:
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json_dict(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"


@contextmanager
def _recursion_depth(n: int):
    """Raise the interpreter's recursion limit for an n-vertex recursion,
    restoring the previous limit on exit."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, 4 * n + 200))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # flag bytes as binary digits


def _host_leaves(masks) -> int:
    """Mask of host leaves: vertices of degree 1 whose neighbour has degree
    at least 2.  Neither end of a K2 component is a leaf, so every
    component has a non-leaf vertex to start a search.

    A vertex of degree 1 fails the test exactly when its neighbour has
    degree 1 too, that is when it is a neighbour of a degree-1 vertex.  So
    the mask is the degree-1 vertices minus their neighbourhoods, built
    from one flag per vertex with no per-vertex bit operation."""
    single = bytes([m.bit_count() == 1 for m in masks])
    ones = int(b"0" + single[::-1].translate(_DIGITS), 2)
    return ones & ~reduce(int.__or__, compress(masks, single), 0)


def isp_eval(g: Graph, x) -> Fraction:
    """Evaluate the independent set polynomial of g at a rational point
    by the branching recursion (homogenized to pure integer arithmetic)."""
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    masks = g.neighbor_masks()
    full = (1 << g.n) - 1
    non_leaves = full ^ _host_leaves(masks)
    memo = {}
    stars = {}  # J of a star on t leaves, by t

    # J(mask) = q^|mask| * I(mask; p/q) keeps the recursion over integers;
    # an isolated vertex contributes J = q + p.
    def component_value(comp, v, nbrs, degree):  # branch on v; nbrs = masks[v] & comp
        without = comp ^ (1 << v)
        val = q * subgraph_value(without) + p * q ** degree * subgraph_value(without & ~nbrs)
        memo[comp] = val
        return val

    def subgraph_value(mask):
        # The split, each component multiplied in as the search closes it.
        # The search also picks the branch vertex among the vertices it
        # expands, low (the component's smallest non-leaf id) first: maximum
        # live degree, ties to the smallest id.
        result = 1
        covered = 0
        rest = mask & non_leaves
        while rest:
            low = rest & -rest
            frontier = masks[low.bit_length() - 1] & mask
            if not frontier & non_leaves:
                rest ^= low
                if frontier:
                    # low and t of its leaves: the branch on low, the
                    # leaves isolated
                    t = frontier.bit_count()
                    val = stars.get(t)
                    if val is None:
                        val = stars[t] = q * (q + p) ** t + p * q ** t
                    result *= val
                    covered |= low | frontier
                continue
            comp = low
            best = low.bit_length() - 1
            best_nbrs = frontier
            best_deg = frontier.bit_count()
            while frontier:
                comp |= frontier
                nxt = 0
                f = frontier & non_leaves
                while f:
                    b = f & -f
                    f ^= b
                    v = b.bit_length() - 1
                    nbrs = masks[v] & mask
                    nxt |= nbrs
                    deg = nbrs.bit_count()
                    if deg > best_deg or (deg == best_deg and v < best):
                        best, best_nbrs, best_deg = v, nbrs, deg
                frontier = nxt & ~comp
            val = memo.get(comp)
            if val is None:
                val = component_value(comp, best, best_nbrs, best_deg)
            result *= val
            covered |= comp
            rest &= ~comp
        return result * (q + p) ** (mask ^ covered).bit_count()

    with _recursion_depth(g.n):
        return Fraction(subgraph_value(full), q ** g.n)


def isp_coeffs(g: Graph) -> Polynomial:
    """All coefficients of I(G; X): coefficient k counts the independent
    sets of size k.  Each is a non-negative integer below 2^(n+1), so they
    are the base-2^(n+1) digits of the integer I(G; 2^(n+1)).  The digits
    are sliced from one binary string, lowest first: shifting the
    n(n+1)-bit value once per digit would cost O(n^3) bit operations."""
    width = g.n + 1
    bits = format(isp_eval(g, 1 << width).numerator, "b").zfill(width * width)
    return Polynomial([int(bits[end - width:end], 2) for end in range(width * width, 0, -width)])


def count_transversal_is(g: Graph, parts) -> int:
    """Number of independent sets of g that meet every part of the clique
    partition ``parts`` exactly once: the independent sets of size
    len(parts), since no independent set meets a clique twice.

    The recursion branches on the live part with the most live vertices
    outside it next to one of its vertices (the part's neighbour union is
    built once a call), ties going to the fewest live vertices, then to the
    lowest vertex, so that components split early.
    Choosing v removes v's part and v's neighbours, and a choice dies as
    soon as another part has no live vertex left.  A part that loses all
    but one live vertex forces that vertex, which is chosen in turn in the
    same loop; the remaining live vertices are split into components only
    once nothing more is forced.  A component of the live
    vertices is a union of whole live parts and is counted on its own,
    memoised on its vertex mask and looked up as the split closes it; an
    isolated live vertex is a whole part and contributes the factor 1."""
    if not is_clique_cover(g, parts):
        raise DomainError("parts are not a partition of the vertices into cliques")
    masks = g.neighbor_masks()
    part_of = [0] * g.n  # each vertex's whole part, as a bitmask
    around = [0] * g.n  # the neighbours of each vertex's part outside it
    for part in parts:
        part_mask = sum(1 << v for v in part)
        near = reduce(int.__or__, [masks[v] for v in part], 0) & ~part_mask
        for v in part:
            part_of[v] = part_mask
            around[v] = near
    memo = {}

    def component_count(comp):
        branch = 0
        best = size = -1
        rest = comp
        while rest:
            v = (rest & -rest).bit_length() - 1
            live = part_of[v] & comp
            rest ^= live
            score = (around[v] & comp).bit_count()
            if score > best or (score == best and live.bit_count() < size):
                branch = live
                best = score
                size = live.bit_count()
        val = 0
        others = comp & ~branch
        choices = branch
        while choices:
            b = choices & -choices
            choices ^= b
            left = others
            take = b
            while take:
                t = take & -take
                take ^= t
                hit = masks[t.bit_length() - 1] & left
                left &= ~(hit | t)
                # Only parts that lost a neighbour of t can empty or be
                # left with one live vertex, which is then forced.
                while hit:
                    part = part_of[(hit & -hit).bit_length() - 1]
                    live = part & left
                    if not live:
                        break
                    if not live & (live - 1):
                        take |= live
                    hit &= ~part
                if hit:  # a part emptied: the choice dies
                    break
            else:
                val += subgraph_count(left)
        memo[comp] = val
        return val

    def subgraph_count(mask):
        # The split, lowest vertex first, each component looked up and
        # multiplied in as the search closes it; the first that counts 0
        # ends it.  An isolated vertex is a whole part: factor 1.
        result = 1
        rest = mask
        while rest:
            low = rest & -rest
            frontier = masks[low.bit_length() - 1] & mask
            if not frontier:
                rest ^= low
                continue
            comp = low
            while frontier:
                comp |= frontier
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    nxt |= masks[b.bit_length() - 1]
                frontier = nxt & mask & ~comp
            val = memo.get(comp)
            if val is None:
                val = component_count(comp)
            if not val:
                return 0
            result *= val
            rest &= ~comp
        return result

    with _recursion_depth(len(parts)):
        return subgraph_count((1 << g.n) - 1)


def _check_enumeration_bound(g: Graph, max_vertices: int):
    if g.n > max_vertices:
        raise CapacityError(
            f"enumeration over {g.n} vertices exceeds the bound {max_vertices}"
        )


def _check_set_size(k):
    if not _is_int(k) or k < 0:
        raise DomainError(f"set size must be an integer >= 0, got {k!r}")


def _independent_subsets(g: Graph):
    """Every independent vertex subset of g as a bitmask, the empty set
    first, from one scan over all 2^n subsets: a subset is independent
    when it is its lowest vertex plus an independent rest that avoids the
    vertex's neighbours."""
    masks = g.neighbor_masks()
    independent = bytearray(1 << g.n)
    independent[0] = 1
    yield 0
    for sub in range(1, 1 << g.n):
        low = sub & -sub
        rest = sub ^ low
        if independent[rest] and not masks[low.bit_length() - 1] & rest:
            independent[sub] = 1
            yield sub


def isp_coeffs_by_enumeration(
    g: Graph, *, max_vertices: int = DEFAULT_ENUMERATION_BOUND
) -> Polynomial:
    """Coefficient vector by enumeration of all vertex subsets."""
    _check_enumeration_bound(g, max_vertices)
    counts = [0] * (g.n + 1)
    for sub in _independent_subsets(g):
        counts[sub.bit_count()] += 1
    return Polynomial(counts)


def isp_multivariate(
    g: Graph, weights, *, max_vertices: int = DEFAULT_ENUMERATION_BOUND
) -> Fraction:
    """Sum over independent sets A of the product of per-vertex weights,
    by direct enumeration.  ``weights`` must cover every vertex."""
    _check_enumeration_bound(g, max_vertices)
    w = {}
    for v in range(g.n):
        if v not in weights:
            raise DomainError(f"missing weight for vertex {v}")
        w[v] = as_rational(weights[v])
    total = Fraction(0)
    for sub in _independent_subsets(g):
        prod = Fraction(1)
        m = sub
        while m:
            b = m & -m
            m ^= b
            prod *= w[b.bit_length() - 1]
        total += prod
    return total


def count_is_of_size(g: Graph, k: int) -> int:
    """Number of independent sets of size exactly k (branching route)."""
    _check_set_size(k)
    if k > g.n:
        return 0
    return isp_coeffs(g).coefficient(k).numerator


def count_is_of_size_by_enumeration(
    g: Graph, k: int, *, max_vertices: int = DEFAULT_ENUMERATION_BOUND
) -> int:
    """Number of independent sets of size exactly k, counted among the
    enumerated independent subsets.  Must agree with count_is_of_size."""
    _check_set_size(k)
    _check_enumeration_bound(g, max_vertices)
    if k > g.n:
        return 0
    return sum(sub.bit_count() == k for sub in _independent_subsets(g))
