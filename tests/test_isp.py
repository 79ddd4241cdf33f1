import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import indpoly.isp
from indpoly import (
    CapacityError,
    CloneSpec,
    DomainError,
    Graph,
    Polynomial,
    clique_cover,
    comb,
    complete_graph,
    count_is_of_size,
    count_is_of_size_by_enumeration,
    count_transversal_is,
    cycle_graph,
    edgeless_graph,
    isp_coeffs,
    isp_coeffs_by_enumeration,
    isp_eval,
    isp_multivariate,
    k_clone,
    path_graph,
    s_clone,
    x3sat_to_graph,
)
from indpoly.verify import all_graphs, random_graph, random_x3sat


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Polynomial([0, 0]).coeffs == (Fraction(0),)

    def test_degree_and_coefficient(self):
        p = Polynomial([1, 4, 3])
        assert p.degree == 2
        assert p.coefficient(1) == 4
        assert p.coefficient(9) == 0
        with pytest.raises(DomainError):
            p.coefficient(-1)

    def test_evaluate_horner(self):
        p = Polynomial([1, 4, 3])
        assert p.evaluate(2) == 21
        assert p.evaluate(Fraction(-1, 2)) == Fraction(-1, 4)

    def test_json_shape(self):
        assert Polynomial([1, 3]).to_json_dict() == {"coeffs": ["1/1", "3/1"]}


class TestIspCoeffs:
    def test_triangle(self):
        assert isp_coeffs(complete_graph(3)) == Polynomial([1, 3])

    def test_edgeless_pair(self):
        assert isp_coeffs(edgeless_graph(2)) == Polynomial([1, 2, 1])

    def test_p4(self):
        assert isp_coeffs(path_graph(4)) == Polynomial([1, 4, 3])

    def test_empty_graph(self):
        assert isp_coeffs(Graph(0)) == Polynomial([1])

    def test_agrees_with_enumeration_exhaustively(self):
        for n in range(0, 5):
            for g in all_graphs(n):
                assert isp_coeffs(g) == isp_coeffs_by_enumeration(g)

    def test_agrees_with_enumeration_random(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randint(5, 9), rng.random())
            assert isp_coeffs(g) == isp_coeffs_by_enumeration(g)

    def test_coefficient_sanity_invariants(self):
        rng = random.Random(14)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            poly = isp_coeffs(g)
            assert poly.coefficient(0) == 1
            assert poly.coefficient(1) == g.n
            total = sum(poly.coeffs)
            assert total == isp_eval(g, 1)
            for c in poly.coeffs:
                assert c.denominator == 1 and c >= 0

    def test_large_graph_digits_do_not_carry(self):
        # n isolated vertices: coefficients C(n, k), the largest ~2^(n-4)
        for n in (64, 300):
            expected = Polynomial([math.comb(n, k) for k in range(n + 1)])
            assert isp_coeffs(edgeless_graph(n)) == expected

    def test_enumeration_capacity_error(self):
        with pytest.raises(CapacityError):
            isp_coeffs_by_enumeration(edgeless_graph(25), max_vertices=20)


class TestIspEval:
    def test_p4_at_2(self):
        assert isp_eval(path_graph(4), 2) == 21

    def test_any_graph_at_zero(self):
        rng = random.Random(15)
        for _ in range(10):
            assert isp_eval(random_graph(rng, rng.randint(0, 6)), 0) == 1

    def test_triangle_at_one_counts_sets(self):
        assert isp_eval(complete_graph(3), 1) == 4

    def test_matches_horner_on_coefficients(self):
        rng = random.Random(16)
        points = [Fraction(2), Fraction(1, 2), Fraction(-1, 5), Fraction(-3), Fraction(7, 3)]
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 7))
            poly = isp_coeffs_by_enumeration(g)
            for x in points:
                assert isp_eval(g, x) == poly.evaluate(x)

    def test_handles_large_pendant_structure(self):
        # 120 vertices, tiny 2-core: must stay fast and exact.  Reference:
        # I(P_n) = I(P_{n-1}) + x * I(P_{n-2}), I(P_0) = 1, I(P_1) = 1 + x.
        x = Fraction(1, 3)
        prev, cur = Fraction(1), 1 + x
        for _ in range(119):
            prev, cur = cur, cur + x * prev
        assert isp_eval(path_graph(120), x) == cur

    def test_restores_recursion_limit(self):
        before = sys.getrecursionlimit()
        isp_eval(path_graph(400), 2)
        assert sys.getrecursionlimit() == before

    def test_restores_recursion_limit_on_error(self, monkeypatch):
        _check_limit_restored_on_error(monkeypatch, lambda g, parts: isp_eval(g, 2))

    def test_grids_match_oeis(self, branch_nodes):
        # OEIS A006506: the independent sets of the k x k grid graph, an
        # independent count for 2-cores with no leaves.
        for k, want in enumerate([2, 7, 63, 1234, 55447, 5598861, 1280128950], 1):
            edges = [(v, v + 1) for v in range(k * k) if (v + 1) % k] + [(v, v + k) for v in range(k * k - k)]
            branch_nodes.clear()
            assert isp_eval(Graph(k * k, edges), 1) == want
        assert len(branch_nodes) == 1363


class TestIspMultivariate:
    def test_k2_weights(self):
        assert isp_multivariate(complete_graph(2), {0: 2, 1: 3}) == 6

    def test_single_vertex(self):
        assert isp_multivariate(Graph(1), {0: 5}) == 6

    def test_p3_unit_weights(self):
        assert isp_multivariate(path_graph(3), {0: 1, 1: 1, 2: 1}) == 5

    def test_uniform_matches_eval(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 6))
            x = Fraction(rng.randint(-3, 5), rng.randint(1, 4))
            weights = {v: x for v in range(g.n)}
            assert isp_multivariate(g, weights) == isp_eval(g, x)

    def test_requires_total_weights(self):
        with pytest.raises(DomainError):
            isp_multivariate(complete_graph(2), {0: 1})

    def test_capacity(self):
        with pytest.raises(CapacityError):
            isp_multivariate(edgeless_graph(21), {v: 1 for v in range(21)}, max_vertices=20)
        # The bound is checked before the weights.
        with pytest.raises(CapacityError):
            isp_multivariate(edgeless_graph(21), {}, max_vertices=20)


class TestCountIsOfSize:
    def test_p4_pairs(self):
        assert count_is_of_size(path_graph(4), 2) == 3

    def test_size_zero_is_one(self):
        rng = random.Random(18)
        for _ in range(10):
            assert count_is_of_size(random_graph(rng, rng.randint(0, 6)), 0) == 1

    def test_triangle_singletons(self):
        assert count_is_of_size(complete_graph(3), 1) == 3

    def test_oversized_is_zero(self):
        assert count_is_of_size(complete_graph(3), 4) == 0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            count_is_of_size(complete_graph(3), -1)

    @pytest.mark.parametrize("count", [count_is_of_size, count_is_of_size_by_enumeration])
    @pytest.mark.parametrize("k", [1.5, 1.0, True])
    def test_non_integer_size_rejected(self, count, k):
        with pytest.raises(DomainError):
            count(complete_graph(3), k)

    def test_both_routes_agree(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 8))
            k = rng.randint(0, g.n + 1) if g.n else 0
            assert count_is_of_size(g, k) == count_is_of_size_by_enumeration(g, k)


class TestDefinitionalIdentitySmoke:
    """Small smoke versions of the shift identities; the acceptance suite
    runs the full regimes."""

    def test_k_clone_identity(self):
        g = cycle_graph(4)
        for k in (1, 2, 3):
            for x in (Fraction(2), Fraction(-1, 5)):
                assert isp_eval(k_clone(g, k), x) == isp_eval(g, (1 + x) ** k - 1)

    def test_c4_known_polynomial(self):
        assert isp_coeffs(cycle_graph(4)) == Polynomial([1, 4, 2])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


class TestBranchingAgainstEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_coefficients_and_counts(self, g):
        assert isp_coeffs(g) == isp_coeffs_by_enumeration(g)
        for k in range(g.n + 2):
            assert count_is_of_size(g, k) == count_is_of_size_by_enumeration(g, k)


def _vertices(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _full_scan_branch_vertex(comp, masks):
    """Reference rule: maximum degree inside comp, then smallest id."""
    return max(_vertices(comp), key=lambda v: ((masks[v] & comp).bit_count(), -v))


@st.composite
def graphs_and_submasks(draw):
    g = draw(small_graphs())
    return g, draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))


@st.composite
def graphs_with_isolated_vertices(draw):
    """A small graph plus isolated vertices, under a random relabelling."""
    core = draw(small_graphs())
    n = core.n + draw(st.integers(min_value=1, max_value=8))
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for u, v in core.edges])


@st.composite
def graphs_with_leaves_and_submasks(draw):
    """A small graph with pendant leaves hung on its vertices (several may
    share a vertex) and some K2 components, under a random relabelling,
    plus a random sub-mask (which often leaves a leaf's neighbour out)."""
    core = draw(small_graphs())
    edges = list(core.edges)
    n = core.n
    if core.n:
        for anchor in draw(st.lists(st.integers(min_value=0, max_value=core.n - 1), max_size=8)):
            edges.append((anchor, n))
            n += 1
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        edges.append((n, n + 1))
        n += 2
    label = draw(st.permutations(range(n)))
    g = Graph(n, [(label[u], label[v]) for u, v in edges])
    return g, draw(st.integers(min_value=0, max_value=(1 << n) - 1))


@st.composite
def combs(draw):
    """comb(g, k) for a small g, at most 16 vertices."""
    g = draw(small_graphs().filter(lambda g: g.n <= 5))
    return comb(g, draw(st.integers(min_value=1, max_value=16 // max(g.n, 1) - 1)))


@st.composite
def stars(draw):
    """K_{1,t}, t = 1..12, under a random relabelling, so the centre's id
    may be above its leaves' (K_{1,1} is a K2: no leaf, branched on)."""
    t = draw(st.integers(min_value=1, max_value=12))
    label = draw(st.permutations(range(t + 1)))
    return Graph(t + 1, [(label[0], label[i]) for i in range(1, t + 1)])


@st.composite
def combs_with_isolated_vertices(draw):
    """comb(g, k), at most 14 vertices, for a g with isolated vertices: with
    k = 1 each isolated vertex of g becomes a K2, with k >= 2 a star."""
    n = draw(st.integers(min_value=1, max_value=7))
    core = draw(st.integers(min_value=0, max_value=n - 1))  # the rest stay isolated
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    label = draw(st.permutations(range(n)))
    g = Graph(n, [(label[u], label[v]) for (u, v), keep in zip(pairs, chosen) if keep])
    return comb(g, draw(st.integers(min_value=1, max_value=14 // n - 1)))


@st.composite
def star_unions(draw):
    """A disjoint union, in a random order, of stars K_{1,t} (t = 1..6, the
    centre's id above or below all of its leaves), K2s, isolated vertices
    and small graphs with leaves, at most 14 vertices in all."""
    edges = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(["star", "k2", "isolated", "graph"]), max_size=6)):
        if kind == "star":
            t = draw(st.integers(min_value=1, max_value=6))
            centre = n if draw(st.booleans()) else n + t
            piece = Graph(t + 1, [(centre - n, i) for i in range(t + 1) if i != centre - n])
        elif kind == "k2":
            piece = complete_graph(2)
        elif kind == "isolated":
            piece = Graph(1)
        else:
            piece = draw(graphs_with_leaves_and_submasks())[0]
        if n + piece.n > 14:
            break
        edges += [(n + u, n + v) for u, v in piece.edges]
        n += piece.n
    return Graph(n, edges)


def _host_leaf_mask(g):
    return sum(1 << v for v in range(g.n) if g.degree(v) == 1 and g.degree(g.neighbors(v)[0]) >= 2)


def _reference_split(mask, masks, leaves):
    """Plain split: a full search from every vertex, leaves included."""
    comps = []
    isolated = 0
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for v in _vertices(frontier):
                nxt |= masks[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        if comp.bit_count() == 1:
            isolated += 1
        else:
            comps.append(comp)
        rest &= ~comp
    return comps, isolated


def _reference_eval(g, x):
    """The recursion of ``isp_eval`` from plain parts: a full search split
    (``_reference_split``) and a full-scan branch vertex, branching on every
    component, stars included.  Returns the value and the branch nodes on
    components with two or more non-leaf vertices (the ones ``isp_eval``
    branches on) and on stars."""
    masks = g.neighbor_masks()
    leaves = _host_leaf_mask(g)
    memo = {}
    nodes = {"branched": 0, "star": 0}

    def value(mask):
        comps, isolated = _reference_split(mask, masks, leaves)
        result = (1 + x) ** isolated
        for comp in comps:
            result *= component(comp)
        return result

    def component(comp):
        if comp not in memo:
            nodes["branched" if (comp & ~leaves).bit_count() >= 2 else "star"] += 1
            v = _full_scan_branch_vertex(comp, masks)
            without = comp & ~(1 << v)
            memo[comp] = value(without) + x * value(without & ~masks[v])
        return memo[comp]

    return value((1 << g.n) - 1), nodes


class TestKernelHelpers:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(graphs_and_submasks(), graphs_with_leaves_and_submasks()))
    def test_branch_vertex_matches_full_scan(self, case):
        # The branch vertex of each branched component, read off the frame
        # as component_value is called (only a memo miss reaches it), on
        # the graph's edges inside the sub-mask: the vertices outside it
        # stay as isolated vertices.
        g, sub = case
        g = Graph(g.n, [(u, v) for u, v in g.edges if sub >> u & 1 and sub >> v & 1])
        masks = g.neighbor_masks()
        leaves = indpoly.isp._host_leaves(masks)
        inner = [c for c in isp_eval.__code__.co_consts if getattr(c, "co_name", None) == "component_value"]
        chosen = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is inner[0]:
                chosen.append(tuple(frame.f_locals[name] for name in ("comp", "v", "nbrs", "degree")))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            isp_eval(g, Fraction(3, 7))
        finally:
            sys.setprofile(previous)
        for comp, v, nbrs, degree in chosen:
            assert (comp & ~leaves).bit_count() >= 2
            assert v == _full_scan_branch_vertex(comp, masks)
            assert nbrs == masks[v] & comp and degree == nbrs.bit_count()
        assert len(chosen) == len(set(comp for comp, *_ in chosen))

    def test_host_leaves(self):
        # star K_{1,3} plus a K2 (4-5) plus an isolated vertex 6
        masks = Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5)]).neighbor_masks()
        assert indpoly.isp._host_leaves(masks) == 0b1110

    @pytest.mark.parametrize(
        "g, classes, leaves",
        [
            (Graph(0), [], 0),
            (edgeless_graph(3), [(0, 0b111)], 0),
            (Graph(4, [(0, 1), (2, 3)]), [(1, 0b1111)], 0),  # two K2 components
            (path_graph(3), [(2, 0b010)], 0b101),
            (Graph(3, [(0, 2), (1, 2)]), [(2, 0b100)], 0b011),  # leaves below their centre's id
        ],
    )
    def test_host_structure_small_cases(self, g, classes, leaves):
        # The host structure the kernel sets up: the leaf mask, and the
        # vertices it may search from and branch on (the rest), here grouped
        # by host degree, highest first.
        masks = g.neighbor_masks()
        found = indpoly.isp._host_leaves(masks)
        by_degree = {}
        for v in _vertices(((1 << g.n) - 1) ^ found):
            by_degree[masks[v].bit_count()] = by_degree.get(masks[v].bit_count(), 0) | 1 << v
        assert found == leaves
        assert sorted(by_degree.items(), reverse=True) == classes

    @settings(max_examples=200, deadline=None)
    @given(graphs_with_leaves_and_submasks())
    def test_host_leaves_matches_definition(self, case):
        g = case[0]
        assert indpoly.isp._host_leaves(g.neighbor_masks()) == _host_leaf_mask(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolated_vertices(), st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(3, 7)]))
    def test_eval_with_isolated_vertices_matches_enumeration(self, g, x):
        assert isp_eval(g, x) == isp_multivariate(g, {v: x for v in range(g.n)})

    @settings(max_examples=100, deadline=None)
    @given(combs(), st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(3, 7)]))
    def test_eval_on_combs_matches_enumeration(self, g, x):
        # At x = -1, q + p = 0: a leaf counted as isolated by mistake zeroes the value.
        assert isp_eval(g, x) == isp_multivariate(g, {v: x for v in range(g.n)})

    @settings(max_examples=250, deadline=None)
    @given(
        st.one_of(
            stars(),
            star_unions(),
            combs_with_isolated_vertices(),
            graphs_with_leaves_and_submasks().map(lambda case: case[0]).filter(lambda g: g.n <= 14),
        ),
        st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(3, 7), Fraction(2)]),
    )
    @example(Graph(7, [(0, 1), (0, 2), (5, 3), (5, 4)]), Fraction(-1))  # centres below and above
    def test_star_step_matches_enumeration(self, g, x):
        # At x = -1, q + p = 0: a star's first term vanishes, the second is
        # -1, and a leaf counted as isolated by mistake zeroes the value.
        assert isp_eval(g, x) == isp_multivariate(g, {v: x for v in range(g.n)})

    @pytest.mark.parametrize("t", range(2, 9))
    def test_stars_are_not_branched_on(self, branch_nodes, component_splits, t):
        star = Graph(t + 1, [(i, t) for i in range(t)])  # centre t, leaves 0..t-1
        assert isp_eval(star, Fraction(3, 7)) == Fraction(10, 7) ** t + Fraction(3, 7)
        assert branch_nodes == [] and len(component_splits) == 1
        # comb(edgeless, 1) is t K2s: neither end is a leaf, so each is branched on
        assert isp_eval(comb(edgeless_graph(t), 1), Fraction(3, 7)) == Fraction(13, 7) ** t
        assert len(branch_nodes) == t

    def test_leaf_split_keeps_the_recursion(self, branch_nodes):
        """Same value and branch nodes as a plain recursion with a full
        search split and a full-scan branch vertex, on pendant-heavy clone
        graphs: the inline leaf split only searches less, and a star is
        finished with the branch the plain recursion takes on it."""
        rng = random.Random(27)
        stars = 0
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 5))
            spec = CloneSpec(rng.sample(range(1, 5), rng.randint(1, 2)))
            h = comb(k_clone(s_clone(g, spec), 2), 4)
            x = rng.choice([Fraction(-1, 2), Fraction(3, 7), Fraction(2)])
            branch_nodes.clear()
            value = isp_eval(h, x)
            want, nodes = _reference_eval(h, x)
            assert (value, len(branch_nodes)) == (want, nodes["branched"])
            assert branch_nodes
            stars += nodes["star"]
        assert stars > 0


@st.composite
def partitioned_graphs(draw):
    """A random partition of 0..n-1 into cliques, plus random edges between
    parts, under a random relabelling: (graph, parts)."""
    n = draw(st.integers(min_value=0, max_value=10))
    label = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=n)))
    bounds = [0] + [c for c in cuts if c < n] + [n]
    parts = [tuple(label[v] for v in range(a, b)) for a, b in zip(bounds, bounds[1:]) if a < b]
    edges = {(min(u, v), max(u, v)) for part in parts for u in part for v in part if u != v}
    cross = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    chosen = draw(st.lists(st.booleans(), min_size=len(cross), max_size=len(cross)))
    edges |= {e for e, keep in zip(cross, chosen) if keep}
    return Graph(n, edges), tuple(parts)


def _ladder(parts: int):
    """P_(2k) split into its k consecutive edges: the picks are some left
    ends then only right ends, so there are k + 1 transversals.  A right
    end removes the next part's left end, so every later pick is forced
    and taken without recursing; only the chain of left-end picks, each
    leaving one connected remainder, recurses (depth k)."""
    return path_graph(2 * parts), tuple((2 * i, 2 * i + 1) for i in range(parts))


class FailingMasks(tuple):
    """Neighbour masks that raise once read by index more than 3000 times.
    Iterating does not count.  On the 600-part ladder both kernels are then
    inside their recursion: ``isp_eval``'s setup only iterates, and
    ``count_transversal_is``'s reads each of the 1200 vertices twice."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        if self.reads > 3000:
            raise RuntimeError("interrupted")
        return tuple.__getitem__(self, v)


def _check_limit_restored_on_error(monkeypatch, count):
    """``count(g, parts)`` on the 600-part ladder, interrupted by
    ``FailingMasks``, leaves the recursion limit as it found it."""
    g, parts = _ladder(600)
    masks = FailingMasks(g.neighbor_masks())
    monkeypatch.setattr(Graph, "neighbor_masks", lambda self: masks)
    before = sys.getrecursionlimit()
    with pytest.raises(RuntimeError, match="interrupted"):
        count(g, parts)
    assert masks.reads > 3000
    assert sys.getrecursionlimit() == before


def _reference_branch_part(comp, g, parts):
    """Reference rule: the live part with the most live vertices outside it
    next to one of its vertices, then the fewest live vertices, then the
    lowest live vertex."""
    candidates = []
    for part in parts:
        live = sum(1 << v for v in part) & comp
        if live:
            near = {w for v in part for w in g.neighbors(v) if w not in part and comp >> w & 1}
            candidates.append((-len(near), live.bit_count(), _vertices(live)[0], live))
    return min(candidates)[3]


class TestTransversalCount:
    @settings(max_examples=200, deadline=None)
    @given(partitioned_graphs())
    def test_equals_independent_sets_of_size_t(self, case):
        g, parts = case
        assert count_transversal_is(g, parts) == count_is_of_size_by_enumeration(g, len(parts))

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_on_greedy_clique_cover(self, g):
        cover = clique_cover(g)
        assert count_transversal_is(g, cover) == count_is_of_size(g, len(cover))

    def test_on_reduction_graphs(self, component_splits):
        rng = random.Random(26)
        cases = []
        for _ in range(40):
            f = random_x3sat(rng, max_total_width=15)
            g, target, _ = x3sat_to_graph(f)
            widths = [len(c) for c in f.clauses]
            starts = [sum(widths[:i]) for i in range(len(widths))]
            parts = tuple(tuple(range(s, s + w)) for s, w in zip(starts, widths))
            cases.append((g, parts, count_is_of_size(g, target)))
        component_splits.clear()
        for g, parts, want in cases:
            assert count_transversal_is(g, parts) == want
        # Forced picks are taken without a component split; branching on
        # each forced pick as on any other part takes 156 splits, and
        # branching on the part with the fewest live vertices 111.
        assert len(component_splits) == 107

    @settings(max_examples=150, deadline=None)
    @given(partitioned_graphs())
    def test_branches_on_the_most_connected_part(self, case):
        # The part each branched component chose, read off the frame as
        # component_count returns.
        g, parts = case
        inner = [c for c in count_transversal_is.__code__.co_consts if getattr(c, "co_name", None) == "component_count"]
        chosen = []

        def profile(frame, event, arg):
            if event == "return" and frame.f_code is inner[0]:
                chosen.append((frame.f_locals["comp"], frame.f_locals["branch"]))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            count_transversal_is(g, parts)
        finally:
            sys.setprofile(previous)
        for comp, branch in chosen:
            assert branch == _reference_branch_part(comp, g, parts)

    def test_adjacent_forced_singletons(self):
        # Either pick in (0, 1) removes 2 and 4, which forces 3 and 5;
        # they are adjacent, so taking 3 empties (4, 5).
        edges = [(0, 1), (2, 3), (4, 5), (0, 2), (0, 4), (1, 2), (1, 4), (3, 5)]
        g, parts = Graph(6, edges), ((0, 1), (2, 3), (4, 5))
        assert count_transversal_is(g, parts) == 0 == count_is_of_size_by_enumeration(g, 3)

    def test_forced_pick_empties_third_part(self):
        # Either pick in (0, 1) removes 2, which forces 3; 3 is adjacent
        # to all of (4, 5).
        edges = [(0, 1), (2, 3), (4, 5), (0, 2), (1, 2), (3, 4), (3, 5)]
        g, parts = Graph(6, edges), ((0, 1), (2, 3), (4, 5))
        assert count_transversal_is(g, parts) == 0 == count_is_of_size_by_enumeration(g, 3)
        # Freeing 1 from 2 leaves (2, 4) and (2, 5) after picking 1.
        g = Graph(6, [e for e in edges if e != (1, 2)])
        assert count_transversal_is(g, parts) == 2 == count_is_of_size_by_enumeration(g, 3)

    @pytest.mark.parametrize("k", [2, 3, 50])
    def test_forced_chain_runs_to_the_end(self, component_splits, k):
        # Parts (0, 1), (2, 3), ..., (2k - 2, 2k - 1).  Both 0 and 1 remove
        # 2, and each forced right end 2i + 1 removes the next left end
        # 2i + 2: 2 transversals.  (2, 3) has the most live neighbours and
        # is branched on first: 2 empties (0, 1), 3 forces the rest of the
        # chain and leaves (0, 1), whose two picks leave nothing.  So the
        # splits are the first one, the one of (0, 1), and one of the empty
        # remainder per pick (3 when (0, 1), the smallest part, came first).
        edges = [(0, 1), (1, 2)] + [(i, i + 1) for i in range(2, 2 * k - 1)] + [(0, 2)]
        g, parts = Graph(2 * k, edges), tuple((2 * i, 2 * i + 1) for i in range(k))
        assert count_transversal_is(g, parts) == 2
        assert len(component_splits) == 4

    def test_small_cases(self):
        assert count_transversal_is(Graph(0), ()) == 1
        assert count_transversal_is(complete_graph(3), ((0, 1, 2),)) == 3
        assert count_transversal_is(edgeless_graph(4), tuple((v,) for v in range(4))) == 1
        assert count_transversal_is(complete_graph(4), ((0, 1), (2, 3))) == 0
        assert count_transversal_is(*_ladder(5)) == 6

    @pytest.mark.parametrize(
        "parts",
        [
            ((0, 1, 2), (3,)),  # 0 and 2 not adjacent
            ((0, 1), (2,)),  # misses vertex 3
            ((0, 1), (1, 2), (3,)),  # overlap
            ((0, 1), (2, 3), ()),  # empty part
            ((0, 1), (2, 3), (4,)),  # unknown vertex
        ],
    )
    def test_rejects_non_partition(self, parts):
        with pytest.raises(DomainError, match="partition"):
            count_transversal_is(path_graph(4), parts)

    def test_deep_recursion_restores_limit(self):
        before = sys.getrecursionlimit()
        assert count_transversal_is(*_ladder(600)) == 601
        assert sys.getrecursionlimit() == before

    def test_restores_recursion_limit_on_error(self, monkeypatch):
        _check_limit_restored_on_error(monkeypatch, count_transversal_is)
