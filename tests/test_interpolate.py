import itertools
import json
import math
import random
import re
import shlex
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import indpoly.graphs
import indpoly.interpolate
import indpoly.isp
from indpoly import (
    CapacityError,
    DegeneratePointError,
    DomainError,
    ExternalOracle,
    Graph,
    InternalOracle,
    OracleError,
    Polynomial,
    clique_cover,
    comb,
    complete_graph,
    edgeless_graph,
    interpolate_coeffs,
    interpolate_family,
    isp_coeffs,
    isp_coeffs_by_enumeration,
    isp_eval,
    normalize_point,
    path_graph,
    s_clone,
)
from indpoly.verify import random_graph


def grid_graph(rows: int, cols: int) -> Graph:
    def vertex(r, c):
        return r * cols + c

    edges = [(vertex(r, c), vertex(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(vertex(r, c), vertex(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


class RecordingOracle:
    """The internal evaluator, keeping every (graph, point) query and
    every answer."""

    def __init__(self):
        self.queries = []
        self.answers = []

    def evaluate(self, g, x):
        self.queries.append((g, x))
        self.answers.append(isp_eval(g, x))
        return self.answers[-1]


def family_members(g, x, cover=None):
    """The queries interpolate_family makes for a cover of d cliques (the
    greedy ``clique_cover(g)`` by default), in order: comb(g, k) at x for
    k = 0 .. max(d - 3, 1) - 1.  The graph states a_0 .. a_3, so the
    oracle answers for the rest."""
    d = len(clique_cover(g) if cover is None else cover)
    return [(comb(g, k), x) for k in range(max(d - 3, 1))]


def independent_triples(g):
    """a_3 by brute force: the vertex triples with no edge among them."""
    return sum(
        not (g.has_edge(u, v) or g.has_edge(u, w) or g.has_edge(v, w))
        for u, v, w in itertools.combinations(range(g.n), 3)
    )


def stated_prefix(g, d):
    """The coefficients a_0 .. a_(h-1), h = min(4, d), that
    interpolate_family takes from the graph: 1, n, C(n, 2) - |E| and the
    independent triples, counted here over every triple."""
    return [1, g.n, math.comb(g.n, 2) - g.edge_count, independent_triples(g)][: min(4, d)]


def family_run(g, x, cover=None):
    """Interpolate I(G; X) at x with a RecordingOracle, on the greedy
    cover unless ``cover`` is given: the result, the oracle's (graph,
    point) queries and its answers."""
    oracle = RecordingOracle()
    poly = interpolate_family(g, clique_cover(g) if cover is None else cover, x, oracle)
    return poly, oracle.queries, oracle.answers


class PolynomialOracle:
    """Answers consistent with the polynomial ``poly`` in place of I(G; X)
    on every comb of G: member k (n(k + 1) vertices) gets
    (1 + x)^(kn) * poly(x/(1 + x)^k)."""

    def __init__(self, g, poly):
        self.n = g.n
        self.poly = poly

    def evaluate(self, member, x):
        k = member.n // self.n - 1 if self.n else 0
        return (1 + x) ** (k * self.n) * self.poly.evaluate(x / (1 + x) ** k)


def comb_answers(g, queries):
    """The answers the comb identity gives to the queries, with I(G; X)
    enumerated on G, so no comb is evaluated."""
    identity = PolynomialOracle(g, isp_coeffs_by_enumeration(g))
    return [identity.evaluate(member, x) for member, x in queries]


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


POINTS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)).filter(lambda x: x not in (0, -1, -2))


@st.composite
def covered_graphs(draw, max_n=7):
    """A graph on at most ``max_n`` vertices and a clique cover of it: the
    greedy one with some vertices split off as singletons."""
    g = draw(small_graphs(max_n=max_n))
    split = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    cover = [(v,) for v in range(g.n) if split[v]]
    for part in clique_cover(g):
        rest = tuple(v for v in part if not split[v])
        if rest:
            cover.append(rest)
    return g, tuple(cover)


class TestBuildCloneFamily:
    """The comb family interpolate_family builds, read off the oracle's
    queries and answers: member k is comb(g, k) at x, and its answer is
    (1 + x)^(kn) * I(G; x/(1 + x)^k) by the comb identity."""

    def test_n_1_structure(self):
        g = complete_graph(2)  # one clique, so d = 1
        _, queries, answers = family_run(g, 2)
        # a_0 = 1 is stated; comb 0, K2 itself, answers for a_1:
        # I(K2; 2) = 5.
        assert queries == family_members(g, 2) == [(g, 2)]
        assert answers == comb_answers(g, queries) == [5]

    def test_size_law(self):
        # Member k has n(k + 1) vertices, sized by the graph, not by d.
        for g in (path_graph(3), path_graph(5), complete_graph(4), edgeless_graph(6)):
            _, queries, _ = family_run(g, 2)
            assert queries == family_members(g, 2)
            for k, (clone, x) in enumerate(queries):
                assert x == 2
                assert clone == comb(g, k)
                assert clone.n == g.n * (k + 1)

    def test_dump_records(self):
        # The members of the singleton (d = 5) family of P5 at x = 2:
        # member i answers 3^(5i) * I(P5; 2/3^i), with
        # I(P5; y) = 1 + 5y + 6y^2 + y^3.
        g = path_graph(5)
        singletons = tuple((v,) for v in range(5))
        _, queries, answers = family_run(g, 2, singletons)
        assert queries == family_members(g, 2, singletons)
        assert len(queries) == len(answers) == 2
        for i, ((clone, x), answer) in enumerate(zip(queries, answers)):
            y = Fraction(2, 3**i)
            assert x == 2
            assert clone == comb(g, i)
            assert answer == 3 ** (5 * i) * (1 + 5 * y + 6 * y**2 + y**3)
            assert clone.n == 5 * (i + 1)

    def test_dump_records_count_the_graph_not_the_degree(self):
        # The family has max(d - 3, 1) members, but each member's size
        # follows n.
        g = path_graph(5)  # cover of 3 cliques, so d = 3 < n = 5
        assert len(clique_cover(g)) == 3
        singletons = tuple((v,) for v in range(5))
        for cover, members in ((clique_cover(g), 1), (singletons, 2)):
            _, queries, _ = family_run(g, 2, cover)
            assert queries == family_members(g, 2, cover)
            assert len(queries) == members
            for k, (clone, _) in enumerate(queries):
                assert clone.n == comb(g, k).n == g.n * (k + 1)

    def test_points_pairwise_distinct(self):
        # The edgeless graph has d = n, the widest family for its size, so
        # its exact recovery needs all max(n - 3, 1) members to be
        # independent.
        for x in (Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-3)):
            for n in range(1, 8):
                poly, queries, _ = family_run(edgeless_graph(n), x)
                assert len(queries) == max(n - 3, 1)
                assert poly == Polynomial([math.comb(n, k) for k in range(n + 1)])

    def test_offset_is_one_at_integer_eigenvalue_points(self):
        # Member k has one leaf per vertex more than member k-1, starting
        # from G itself; no search moves the family.  On the edgeless graph
        # member k is n stars K_(1,k), so it answers ((1 + x)^k + x)^n.
        for x in (Fraction(2), Fraction(6)):
            g = edgeless_graph(4)
            _, queries, answers = family_run(g, x)
            assert queries == family_members(g, x)
            assert answers == [((1 + x) ** k + x) ** 4 for k in range(len(queries))]

    def test_offset_is_one_at_fractional_point(self):
        for x in (Fraction(1, 2), Fraction(-1, 5), Fraction(-1, 2), Fraction(-7, 4)):
            g = edgeless_graph(4)
            _, queries, answers = family_run(g, x)
            assert queries == family_members(g, x)
            assert answers == [((1 + x) ** k + x) ** 4 for k in range(len(queries))]

    @settings(max_examples=150, deadline=None)
    @given(
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)).filter(lambda x: x not in (0, -1, -2)),
        st.integers(0, 7),
    )
    @example(Fraction(2), 7)
    @example(Fraction(48), 7)
    @example(Fraction(-6, 25), 7)  # 1 + x < 1: the points grow with k
    @example(Fraction(-1, 5), 7)
    @example(Fraction(-1, 2), 7)
    @example(Fraction(-3, 2), 7)  # 1 + x < 0: the points alternate in sign
    @example(Fraction(-3), 7)
    def test_points_and_scales_follow_the_comb_identity(self, x, n):
        # I(comb(G, k); x) = (1 + x)^(kn) * I(G; x/(1 + x)^k), with the
        # right side enumerated on G, so the kernel never runs on the comb
        # there.
        rng = random.Random(f"{x} {n}")
        g = random_graph(rng, n)
        result, queries, answers = family_run(g, x)
        assert result == isp_coeffs_by_enumeration(g)
        assert queries == family_members(g, x)
        assert answers == comb_answers(g, queries)

    @settings(max_examples=200, deadline=None)
    @given(covered_graphs(max_n=8), POINTS)
    @example((Graph(0), ()), Fraction(2))  # d = 0
    @example((complete_graph(3), ((0, 1, 2),)), Fraction(-1, 2))  # d = 1
    @example((path_graph(3), ((0, 1), (2,))), Fraction(1, 3))  # d = 2
    @example((path_graph(4), ((0,), (1,), (2, 3))), Fraction(-3))  # d = 3
    @example((edgeless_graph(8), tuple((v,) for v in range(8))), Fraction(-3, 2))  # d = n
    def test_family_law_on_any_cover(self, family, x):
        # max(d - 3, 1) queries, comb 0, comb 1, ... in order, answered as
        # the comb identity says, and I(G; X) exactly.
        g, cover = family
        result, queries, answers = family_run(g, x, cover)
        assert queries == family_members(g, x, cover)
        assert len(queries) == max(len(cover) - 3, 1)
        assert answers == comb_answers(g, queries)
        assert result == isp_coeffs_by_enumeration(g)

    def test_degenerate_rejected(self):
        # x = 0 gives r_k = 0 for every k, x = -2 alternates between two
        # points, and x = -1 has no comb points at all.
        for x in (0, Fraction(-1), Fraction(-2)):
            for n in (1, 4):
                with pytest.raises(DegeneratePointError, match="comb family"):
                    interpolate_coeffs(edgeless_graph(n), x)

    def test_minus_half_and_below_accepted(self):
        # The comb points are distinct at every x outside {0, -1, -2}, also
        # at and below -1/4, where the path reduction is degenerate.
        for x in (Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 2), Fraction(-999, 1000), Fraction(-100)):
            for g in (path_graph(1), path_graph(3), complete_graph(3)):
                poly, queries, answers = family_run(g, x)
                assert poly == isp_coeffs_by_enumeration(g)
                assert queries == family_members(g, x)
                assert answers == comb_answers(g, queries)


@st.composite
def polynomial_families(draw):
    """A covered graph on at most 7 vertices, a point outside {0, -1, -2}
    and a polynomial of degree at most the cover's size.  Its first
    min(4, d) coefficients are the graph's (``stated_prefix``) or, in a
    tampered family, drawn like the rest: counts in range or arbitrary
    rationals."""
    g, cover = draw(covered_graphs())
    rational = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7))
    coeffs = [] if draw(st.booleans()) else stated_prefix(g, len(cover))
    for k in range(len(coeffs), draw(st.integers(max(len(coeffs), 1), len(cover) + 1))):
        count = st.integers(int(k == 0), math.comb(g.n, k))
        coeffs.append(draw(st.one_of(count, rational)))
    return g, cover, draw(POINTS), Polynomial(coeffs)


class TestStatedTriples:
    """a_3, the coefficient interpolate_family states by inclusion-exclusion
    over the edges a triple holds, against subset enumeration and against
    a count over every triple."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_n=10))
    @example(Graph(1))
    @example(complete_graph(3))  # one triangle
    @example(complete_graph(4))  # four triangles
    @example(edgeless_graph(10))
    @example(Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3)]))  # a triangle, a pendant, two isolated vertices
    @example(Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4)]))  # a star: wedges, no triangle
    def test_matches_enumeration(self, g):
        stated = indpoly.interpolate._independent_triples(g)
        assert stated == isp_coeffs_by_enumeration(g).coefficient(3) == independent_triples(g)


class TestLagrange:
    """The Lagrange solve inside interpolate_family (the basis P_j =
    M / (t - W_j) at the integer nodes W_j, j >= h), fed answers
    consistent with an arbitrary polynomial.  When the polynomial has the
    graph's stated a_0 .. a_(h-1), it is returned if it is a count of
    independent sets, and otherwise its first coefficient that is not is
    named.  A polynomial with another prefix is never returned."""

    def test_random_round_trips(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 8), 0.4)
            cover = clique_cover(g)
            coeffs = stated_prefix(g, len(cover))
            for k in range(len(coeffs), rng.randint(max(len(coeffs), 1), len(cover) + 1)):
                coeffs.append(rng.randint(int(k == 0), math.comb(g.n, k)))
            poly = Polynomial(coeffs)
            x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
            if x in (0, -1, -2):
                x = Fraction(1, 3)
            assert interpolate_family(g, cover, x, PolynomialOracle(g, poly)) == poly

    @settings(max_examples=300, deadline=None)
    @given(polynomial_families())
    @example((Graph(0), (), Fraction(1, 2), Polynomial([1])))
    @example((Graph(0), (), Fraction(-3), Polynomial([Fraction(1, 3)])))
    @example((edgeless_graph(7), tuple((v,) for v in range(7)), Fraction(-1, 30), Polynomial([1, 7, 21, 35, 35, 21, 7, 1])))
    @example((edgeless_graph(7), tuple((v,) for v in range(7)), Fraction(29, 30), Polynomial([1, 7, 21, 35, 35, 21, 7, 2])))
    @example((path_graph(4), ((0, 1), (2, 3)), Fraction(2), Polynomial([1, 4, Fraction(-7, 2)])))
    # Prefixes that differ from the graph's: a_3 = 1/2 is rejected, and
    # a_3 = 1 gives back the graph's own polynomial.
    @example((path_graph(4), ((0,), (1,), (2, 3)), Fraction(2), Polynomial([1, 4, 2, 1])))
    @example((edgeless_graph(3), ((0,), (1,), (2,)), Fraction(1), Polynomial([1, 3, 2, 2])))
    def test_property_exact_through_every_sample(self, family):
        g, cover, x, poly = family
        prefix = stated_prefix(g, len(cover))
        oracle = PolynomialOracle(g, poly)
        if [poly.coefficient(k) for k in range(len(prefix))] != prefix:
            try:
                result = interpolate_family(g, cover, x, oracle)
            except OracleError:
                return
            assert result != poly
            assert [result.coefficient(k) for k in range(len(prefix))] == prefix
            return
        bad = [
            (k, a, int(k == 0), math.comb(g.n, k))
            for k, a in enumerate(poly.coeffs)
            if a.denominator != 1 or not int(k == 0) <= a <= math.comb(g.n, k)
        ]
        if not bad:
            assert interpolate_family(g, cover, x, oracle) == poly
            return
        k, a, low, high = bad[0]
        with pytest.raises(OracleError) as info:
            interpolate_family(g, cover, x, oracle)
        assert f"coefficient a_{k} = {a.numerator}/{a.denominator}, not an integer in [{low}, {high}] " in str(info.value)


class TestInterpolatePipeline:
    def test_k2_worked(self):
        assert interpolate_coeffs(complete_graph(2), 2) == Polynomial([1, 2])

    def test_single_vertex(self):
        assert interpolate_coeffs(Graph(1), 2) == Polynomial([1, 1])

    def test_k3_degree_collapse(self):
        assert interpolate_coeffs(complete_graph(3), 2) == Polynomial([1, 3])

    def test_empty_graph(self):
        assert interpolate_coeffs(Graph(0), 2) == Polynomial([1])

    def test_empty_graph_is_a_one_member_family(self):
        for x in (Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 2), Fraction(-3)):
            oracle = RecordingOracle()
            assert interpolate_family(Graph(0), (), x, oracle) == Polynomial([1])
            assert oracle.queries == [(Graph(0), x)]

    def test_members_hang_only_leaves_on_original_vertices(self):
        # Member k is G with k leaves on every vertex: each vertex past n
        # has one neighbour, an original vertex, so no pendant paths.
        g = random_graph(random.Random(45), 9, 0.3)
        cover = clique_cover(g)
        oracle = RecordingOracle()
        assert interpolate_family(g, cover, 2, oracle) == isp_coeffs(g)
        assert oracle.queries == family_members(g, 2, cover)
        assert len(oracle.queries) > 1
        for k, (clone, _) in enumerate(oracle.queries):
            assert clone.n == g.n * (k + 1)
            assert [(u, v) for u, v in clone.edges if v < g.n] == list(g.edges)
            for v in range(g.n, clone.n):
                (u,) = clone.neighbors(v)
                assert u < g.n
            for u in range(g.n):
                assert clone.degree(u) == g.degree(u) + k

    def test_six_by_six_grid(self):
        grid = grid_graph(6, 6)
        assert interpolate_coeffs(grid, 2) == isp_coeffs(grid)

    def test_matches_direct_coefficients(self):
        rng = random.Random(42)
        for _ in range(8):
            g = random_graph(rng, rng.randint(1, 5))
            for x in (Fraction(2), Fraction(1, 2)):
                assert interpolate_coeffs(g, x) == isp_coeffs(g)

    def test_degenerate_point_rejected(self):
        # The comb family's points coincide only at x = 0, -1 and -2.
        for x in (0, -1, -2, "-2/1"):
            with pytest.raises(DegeneratePointError, match="comb family"):
                interpolate_coeffs(complete_graph(2), x)
        assert interpolate_coeffs(complete_graph(2), Fraction(-1, 2)) == Polynomial([1, 2])

    @pytest.mark.parametrize("x", [0, Fraction(-1), Fraction(-2)])
    def test_degenerate_point_rejected_on_empty_graph(self, x):
        # The empty graph's family has the one member comb 0, the graph
        # itself at shifted point x; the point is still checked, so these
        # points fail.
        with pytest.raises(DegeneratePointError):
            interpolate_coeffs(Graph(0), x)

    def test_family_route_matches(self):
        # The singleton partition certifies d = n, so n - 3 members: the
        # graph states a_0 .. a_3, and the oracle answers for the rest.
        g = path_graph(5)
        oracle = RecordingOracle()
        singletons = tuple((v,) for v in range(g.n))
        assert interpolate_family(g, singletons, Fraction(1, 2), oracle) == isp_coeffs_by_enumeration(g)
        assert oracle.queries == family_members(g, Fraction(1, 2), singletons)
        assert len(oracle.queries) == g.n - 3

    def test_every_degree_bound_from_cover_to_n_agrees(self):
        # Splitting parts of the greedy cover into singletons gives a finer
        # cover for every d from the greedy size up to n.
        for g in (path_graph(4), path_graph(6), complete_graph(3), random_graph(random.Random(44), 7)):
            expected = isp_coeffs_by_enumeration(g)
            cover = clique_cover(g)
            covers = [cover]
            while len(cover) < g.n:
                i = next(i for i, part in enumerate(cover) if len(part) > 1)
                cover = cover[:i] + ((cover[i][0],), cover[i][1:]) + cover[i + 1:]
                covers.append(cover)
            assert [len(c) for c in covers] == list(range(len(clique_cover(g)), g.n + 1))
            for x in (Fraction(2), Fraction(1, 2), Fraction(-1, 2)):
                for cover in covers:
                    oracle = RecordingOracle()
                    assert interpolate_family(g, cover, x, oracle) == expected
                    assert oracle.queries == family_members(g, x, cover)

    @pytest.mark.parametrize("bad_cover", [((0, 1, 2, 3),), ((0, 1), (2,)), ((0, 1), (1, 2), (3,))])
    def test_failed_certificate_never_feeds_interpolation(self, bad_cover):
        with pytest.raises(DomainError, match="certificate"):
            interpolate_family(path_graph(4), bad_cover, 2, InternalOracle())

    def test_off_by_one_oracle_rejected(self):
        class OffByOneOracle:
            def evaluate(self, g, x):
                return isp_eval(g, x) + 1

        # a_0 is stated, so the one answer, 6 for I(K2; 2) = 5, is solved
        # for a_1 = (6 - 1)/2.
        with pytest.raises(OracleError, match=r"coefficient a_1 = 5/2, not an integer in \[0, 2\]"):
            interpolate_coeffs(complete_graph(2), 2, oracle=OffByOneOracle())

    @pytest.mark.parametrize(
        "coeffs, bad",
        [
            ([2, 2], "a_1 = 4/1, not an integer in [0, 2]"),  # a_0 = 1 is stated
            ([1, Fraction(1, 2)], "a_1 = 1/2, not an integer in [0, 2]"),
            ([1, -1], "a_1 = -1/1, not an integer in [0, 2]"),
            ([1, 3], "a_1 = 3/1, not an integer in [0, 2]"),
        ],
    )
    def test_answers_that_are_not_counts_rejected(self, coeffs, bad):
        # Answers consistent with the polynomial `coeffs` on every comb of K2.
        oracle = PolynomialOracle(complete_graph(2), Polynomial(coeffs))
        with pytest.raises(OracleError, match=re.escape(bad)):
            interpolate_coeffs(complete_graph(2), Fraction(1, 2), oracle=oracle)

    def test_oracle_capacity_reported_per_clone(self):
        class BoundedOracle:
            def evaluate(self, g, x):
                raise CapacityError(f"{g.n}-vertex graph over the bound")

        with pytest.raises(CapacityError, match=re.escape("clone 0 (0 leaves per vertex): 3-vertex")):
            interpolate_coeffs(complete_graph(3), 2, oracle=BoundedOracle())

    @pytest.mark.parametrize("answer", [2.5, True])
    def test_inexact_answer_is_oracle_error_per_clone(self, answer):
        class InexactOracle:
            def evaluate(self, g, x):
                return answer

        shown = f"clone 0 (0 leaves per vertex): not an exact rational: {answer!r}"
        with pytest.raises(OracleError, match=re.escape(shown)):
            interpolate_coeffs(complete_graph(3), 2, oracle=InexactOracle())


class TestInterpolateAgainstEnumeration:
    # The points from -1/2 on are degenerate for the path reduction; the
    # comb family takes them with no change of point.
    @settings(max_examples=300, deadline=None)
    @given(
        small_graphs(),
        st.sampled_from(
            [Fraction(2), Fraction(1, 2), Fraction(-1, 5), Fraction(-1, 2), Fraction(-3, 2), Fraction(-5),
             Fraction(-1, 3), Fraction(-9, 10), Fraction(-11, 10)]
        ),
    )
    @example(complete_graph(1), Fraction(2))
    @example(complete_graph(6), Fraction(-1, 5))  # d = 1
    @example(complete_graph(9), Fraction(1, 2))
    @example(edgeless_graph(1), Fraction(1, 2))
    @example(edgeless_graph(6), Fraction(2))  # d = n
    @example(edgeless_graph(9), Fraction(-1, 5))
    @example(edgeless_graph(9), Fraction(-9, 10))  # 1 + x = 1/10
    @example(edgeless_graph(9), Fraction(-11, 10))  # 1 + x = -1/10
    @example(complete_graph(9), Fraction(-5))
    def test_interpolate_matches_enumeration(self, g, x):
        assert interpolate_coeffs(g, x) == isp_coeffs_by_enumeration(g)


class PlanOracle:
    """I(G; plan.target_point) through a normaliser plan: transform G,
    evaluate at the plan's original point, divide out the plan's factor."""

    def __init__(self, plan):
        self.plan = plan

    def evaluate(self, g, x):
        assert x == self.plan.target_point
        return isp_eval(self.plan.apply(g), self.plan.original_point) / self.plan.factor(g.n)


class TestCoefficientPin:
    """Seeded G(n, 0.3) graphs, n <= 10, against subset enumeration."""

    @pytest.mark.parametrize("x", [Fraction(2), Fraction(1, 2), Fraction(-1, 5), Fraction(48), Fraction(-1, 2)])
    def test_nondegenerate_points(self, x):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 10), 0.3)
            assert interpolate_coeffs(g, x) == isp_coeffs_by_enumeration(g)

    def test_hard_point_through_normalizer(self):
        plan = normalize_point(Fraction(-1, 2))
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 10), 0.3)
            assert interpolate_coeffs(g, plan.target_point, oracle=PlanOracle(plan)) == isp_coeffs_by_enumeration(g)


class TestMemberWork:
    """Clone members are built as neighbour masks and no member derives its
    edge tuple.  The kernel's work on seeded G(9, 0.3) graphs is pinned as
    branch nodes and component splits per graph.  A component with one
    search vertex (a star on its host leaves) is finished without a
    branch node, so every branch node has two search vertices.  When
    stars were branched on (and the family had d + 1 members), the branch
    nodes were x2 [68, 74, 63, 60, 60, 71] and hard [368, 379, 358, 450,
    450, 473], and the splits x2 [141, 153, 131, 126, 126, 148] and hard
    [741, 763, 721, 906, 906, 952].  When the graph stated only a_0, a_1
    and a_2 (max(d - 2, 1) members), the branch nodes were x2 [16, 20,
    13, 16, 15, 17] and hard [46, 52, 42, 54, 54, 64], and the splits x2
    [34, 42, 28, 35, 33, 37] and hard [94, 106, 86, 111, 111, 131]."""

    BRANCH_NODES = {
        "x2": [8, 10, 6, 11, 10, 11],
        "hard": [16, 20, 14, 32, 32, 38],
    }
    COMPONENT_SPLITS = {
        "x2": [17, 21, 13, 24, 22, 24],
        "hard": [33, 41, 29, 66, 66, 78],
    }

    def test_same_recursion_no_edge_derivation(self, monkeypatch, branch_nodes, component_splits):
        derivations = [0]
        hosts = []  # (index of the host's first branch node, its search set)
        edges_of = indpoly.graphs._edges_of
        search_set = indpoly.isp._search_set

        def counted_edges(masks):
            derivations[0] += 1
            return edges_of(masks)

        def recorded_search(masks):
            search = search_set(masks)
            hosts.append((len(branch_nodes), search))
            return search

        monkeypatch.setattr(indpoly.graphs, "_edges_of", counted_edges)
        monkeypatch.setattr(indpoly.isp, "_search_set", recorded_search)
        plan = normalize_point(Fraction(-1, 2))
        runs = {
            "x2": lambda g: interpolate_coeffs(g, 2),
            "hard": lambda g: interpolate_coeffs(g, plan.target_point, oracle=PlanOracle(plan)),
        }
        rng = random.Random(14)
        graphs = [random_graph(rng, 9, 0.3) for _ in range(6)]
        star_branches = []
        for name, run in runs.items():
            work = {"branch": [], "split": []}
            for g in graphs:
                branch_nodes.clear()
                component_splits.clear()
                hosts.clear()
                assert run(g) == isp_coeffs_by_enumeration(g)
                work["branch"].append(len(branch_nodes))
                work["split"].append(len(component_splits))
                assert hosts[0][0] == 0  # every branch node belongs to a host
                ends = [start for start, _ in hosts[1:]] + [len(branch_nodes)]
                for (start, search), end in zip(hosts, ends):
                    star_branches += [c for c in branch_nodes[start:end] if (c & search).bit_count() < 2]
            assert work["branch"] == self.BRANCH_NODES[name]
            assert work["split"] == self.COMPONENT_SPLITS[name]
        assert star_branches == []
        assert derivations[0] == 0
        assert comb(graphs[0], 1).edges and derivations[0] == 1  # the counter sees derivations

    def test_members_leave_the_recursion_limit_alone(self, limit_writes):
        # The depth bound of every member fits under the default limit, on
        # graphs shaped like the benchmark's: x = 2 on G(n, 0.3), n = 10..14,
        # and x = -1/2 through its normaliser plan on n = 3..7.
        plan = normalize_point(Fraction(-1, 2))
        rng = random.Random(31)
        for n in range(10, 15):
            for _ in range(4):
                g = random_graph(rng, n, 0.3)
                assert interpolate_coeffs(g, 2) == isp_coeffs(g)
        for n in range(3, 8):
            for _ in range(4):
                g = random_graph(rng, n, 0.3)
                assert interpolate_coeffs(g, plan.target_point, oracle=PlanOracle(plan)) == isp_coeffs(g)
        assert limit_writes == []


def _write_oracle_script(tmp_path, body: str) -> str:
    script = tmp_path / "oracle.py"
    script.write_text(body)
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


CONFORMING_ORACLE = """\
import json, sys
from indpoly import graph_from_json_dict, isp_eval, format_rational

request = json.loads(sys.stdin.readline())
graph = graph_from_json_dict(request["graph"])
value = isp_eval(graph, request["point"])
print(json.dumps({"value": format_rational(value)}))
"""

CONSTANT_ORACLE = """\
import sys
sys.stdin.readline()
print('{"value": "7/3"}')
"""

MALFORMED_ORACLE = """\
import sys
sys.stdin.readline()
print('{"value": "not-a-rational"}')
"""


class TestExternalOracle:
    def test_round_trip_constant(self, tmp_path):
        oracle = ExternalOracle(_write_oracle_script(tmp_path, CONSTANT_ORACLE))
        assert oracle.evaluate(complete_graph(2), 2) == Fraction(7, 3)

    def test_request_format(self, tmp_path):
        script = tmp_path / "echo_request.py"
        script.write_text(
            "import sys, json\n"
            "line = sys.stdin.readline()\n"
            "obj = json.loads(line)\n"
            "assert set(obj) == {'graph', 'point'}, obj\n"
            "assert obj['point'] == '2/1'\n"
            "assert obj['graph'] == {'n': 2, 'edges': [[0, 1]]}\n"
            "print(json.dumps({'value': '0/1'}))\n"
        )
        oracle = ExternalOracle(f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}")
        assert oracle.evaluate(complete_graph(2), 2) == 0

    def test_malformed_value_surfaced(self, tmp_path):
        oracle = ExternalOracle(_write_oracle_script(tmp_path, MALFORMED_ORACLE))
        with pytest.raises(OracleError, match="not-a-rational"):
            oracle.evaluate(complete_graph(2), 2)

    def test_non_json_response(self, tmp_path):
        oracle = ExternalOracle(_write_oracle_script(tmp_path, "print('garbage')"))
        with pytest.raises(OracleError, match="garbage"):
            oracle.evaluate(complete_graph(2), 2)

    def test_extra_response_line_rejected(self, tmp_path):
        body = CONSTANT_ORACLE + "print('{\"value\": \"1/1\"}')\n"
        oracle = ExternalOracle(_write_oracle_script(tmp_path, body))
        with pytest.raises(OracleError, match="2 response lines"):
            oracle.evaluate(complete_graph(2), 2)

    def test_empty_response(self, tmp_path):
        oracle = ExternalOracle(_write_oracle_script(tmp_path, "import sys\nsys.stdin.read()\n"))
        with pytest.raises(OracleError, match="no response"):
            oracle.evaluate(complete_graph(2), 2)

    def test_nonzero_exit_surfaced(self, tmp_path):
        oracle = ExternalOracle(_write_oracle_script(tmp_path, "import sys\nsys.exit(9)\n"))
        with pytest.raises(OracleError, match="status 9"):
            oracle.evaluate(complete_graph(2), 2)

    def test_spawn_failure(self):
        oracle = ExternalOracle("/nonexistent/binary-xyz")
        with pytest.raises(OracleError, match="spawn"):
            oracle.evaluate(complete_graph(2), 2)

    def test_stuck_oracle_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(indpoly.interpolate, "ORACLE_TIMEOUT_S", 0.5)
        body = "import time\ntime.sleep(60)\n"
        oracle = ExternalOracle(_write_oracle_script(tmp_path, body))
        with pytest.raises(OracleError, match="did not answer within 0.5 s"):
            oracle.evaluate(complete_graph(2), 2)

    def test_wrapped_internal_matches_internal(self, tmp_path):
        command = _write_oracle_script(tmp_path, CONFORMING_ORACLE)
        rng = random.Random(43)
        for _ in range(2):
            g = random_graph(rng, rng.randint(1, 3))
            via_external = interpolate_coeffs(g, 2, oracle=ExternalOracle(command))
            via_internal = interpolate_coeffs(g, 2, oracle=InternalOracle())
            assert via_external == via_internal == isp_coeffs(g)


class TestOracleIndependence:
    def test_internal_oracle_is_definitional(self):
        # the oracle is the branching evaluator itself: no shift identities
        oracle = InternalOracle()
        g = s_clone(complete_graph(2), [1])
        assert oracle.evaluate(g, 2) == isp_eval(g, 2) == 21
        assert oracle.kind == "internal_definitional"
