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
  candidate.  The only per-call setup, ``_search_set``, marks the vertices
  neither leaves nor isolated; each branch node removes one, bounding depth.
  ``isp_coeffs`` and ``count_is_of_size`` read all coefficients off one
  evaluation at X = 2^(n+1) (Kronecker substitution: every coefficient
  is a non-negative integer below 2^(n+1), so the value's base-2^(n+1)
  digits are the coefficients; ``MAX_COEFF_BITS`` bounds that value's
  size), and
* plain enumeration of subsets, bounded by ``DEFAULT_ENUMERATION_BOUND``.

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
in the 2-core, so pendant-heavy graphs stay cheap), except that
``isp_coeffs`` refuses a value of more than ``MAX_COEFF_BITS`` bits; that
and the enumeration route fail loudly with ``CapacityError`` beyond their
bounds.  No route ever uses the clone/path shift identities, so those
identities can be tested against these evaluators without circularity.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, DomainError
from .graphs import Graph, _clique_partition
from .rationals import _require_int, as_rational, format_rational

DEFAULT_ENUMERATION_BOUND = 20
# The most bits isp_coeffs packs into its one value, (n + 1)^2 for n
# vertices, so n <= 4095.  Its cost grows as n^3 even with no edges: an
# edgeless graph took 0.04, 0.32, 1.1 and 3.0 s at n = 1000 .. 4000
# (Python 3.11.7, 2-vCPU Xeon).
MAX_COEFF_BITS = 1 << 24


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with exact rational coefficients,
    lowest degree first.  Trailing zero coefficients are trimmed."""

    __slots__ = ("coeffs",)
    coeffs: tuple

    def __post_init__(self):
        coeffs = [as_rational(c) for c in self.coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs) or (Fraction(0),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        _require_int(k, "degree")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def evaluate(self, x) -> Fraction:
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json_dict(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    def __reduce__(self):
        return (Polynomial, (self.coeffs,))

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"


@contextmanager
def _recursion_depth(frames: int):
    """Make room for a recursion ``frames`` deep, plus a margin of 200, on
    top of the frames already on the stack.  The interpreter's recursion
    limit is raised, and restored on exit, only when it is too low for that."""
    previous = sys.getrecursionlimit()
    try:
        sys._getframe(previous - frames - 200)  # a frame that deep: too little room under the limit
        sys.setrecursionlimit(previous + frames + 200)
    except ValueError:  # no frame that deep: the recursion fits
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            sys.setrecursionlimit(previous)


def _search_set(masks) -> int:
    """Mask of the vertices a search may start from, expand and branch on:
    those of degree at least 2 and both ends of each K2.  The rest are host
    leaves (degree 1, next to degree at least 2) and isolated vertices."""
    search = 0
    for v, nbrs in enumerate(masks):
        if nbrs.bit_count() > 1 or nbrs and masks[nbrs.bit_length() - 1].bit_count() == 1:
            search |= 1 << v
    return search


def isp_eval(g: Graph, x) -> Fraction:
    """Evaluate the independent set polynomial of g at a rational point
    by the branching recursion (homogenized to pure integer arithmetic)."""
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    masks = g.neighbor_masks()
    search = _search_set(masks)
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
        # expands, low (the component's smallest search id) first: maximum
        # live degree, ties to the smallest id.
        result = 1
        covered = 0
        rest = mask & search
        while rest:
            low = rest & -rest
            frontier = masks[low.bit_length() - 1] & mask
            if not frontier & search:
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
                f = frontier & search
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

    with _recursion_depth(2 * search.bit_count() + 1):  # 2 frames a branch node, each removes a search vertex
        return Fraction(subgraph_value((1 << g.n) - 1), q ** g.n)


def isp_coeffs(g: Graph) -> Polynomial:
    """All coefficients of I(G; X): coefficient k counts the independent
    sets of size k.  Each is a non-negative integer below 2^(n+1), so they
    are the base-2^(n+1) digits of the integer I(G; 2^(n+1)).  The digits
    are sliced from one binary string, lowest first: shifting the
    n(n+1)-bit value once per digit would cost O(n^3) bit operations.
    Raises ``CapacityError``, before evaluating, when the value would have
    more than ``MAX_COEFF_BITS`` bits."""
    width = g.n + 1
    if width * width > MAX_COEFF_BITS:
        raise CapacityError(
            f"the coefficients of a {g.n}-vertex graph pack into {width * width} bits, "
            f"more than the bound MAX_COEFF_BITS = {MAX_COEFF_BITS}"
        )
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
    found = _clique_partition(g, parts)
    if found is None:
        raise DomainError("parts are not a partition of the vertices into cliques")
    part_of, around = found
    masks = g.neighbor_masks()
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

    with _recursion_depth(2 * len(parts) + 1):  # 2 frames a branch node, each removes a part
        return subgraph_count((1 << g.n) - 1)


def _check_enumeration_bound(g: Graph):
    if g.n > DEFAULT_ENUMERATION_BOUND:
        raise CapacityError(
            f"enumeration over {g.n} vertices exceeds the bound {DEFAULT_ENUMERATION_BOUND}"
        )


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


def isp_coeffs_by_enumeration(g: Graph) -> Polynomial:
    """Coefficient vector by enumeration of all vertex subsets."""
    _check_enumeration_bound(g)
    counts = [0] * (g.n + 1)
    for sub in _independent_subsets(g):
        counts[sub.bit_count()] += 1
    return Polynomial(counts)


def isp_multivariate(g: Graph, weights) -> Fraction:
    """Sum over independent sets A of the product of per-vertex weights,
    by direct enumeration.  ``weights`` must cover every vertex."""
    _check_enumeration_bound(g)
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
    _require_int(k, "set size")
    if k > g.n:
        return 0
    return isp_coeffs(g).coefficient(k).numerator


def count_is_of_size_by_enumeration(g: Graph, k: int) -> int:
    """Number of independent sets of size exactly k, counted among the
    enumerated independent subsets.  Must agree with count_is_of_size."""
    _require_int(k, "set size")
    _check_enumeration_bound(g)
    if k > g.n:
        return 0
    return sum(sub.bit_count() == k for sub in _independent_subsets(g))
