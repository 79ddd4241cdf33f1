import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indpoly import (
    CloneSpec,
    DomainError,
    Graph,
    GraphFormatError,
    attach_path,
    clique_cover,
    comb,
    complete_graph,
    delete_vertex,
    edgeless_graph,
    graph_from_json_dict,
    graph_to_json_dict,
    graph_to_text,
    is_clique_cover,
    isp_coeffs_by_enumeration,
    k_clone,
    parse_graph,
    parse_graph_text,
    path_graph,
    s_clone,
    s_clone_origin,
)
from indpoly.verify import random_clone_spec, random_graph


def reference_s_clone(g: Graph, spec: CloneSpec) -> Graph:
    """s_clone as an edge list through the checking constructor: the
    independent reference for the mask construction."""
    block = spec.block
    size = spec.size
    edges = []
    path_start = []
    offset = size
    for s in spec.entries:
        path_start.append(offset)
        offset += s
    for a in range(g.n):
        base = a * block
        for i, s in enumerate(spec.entries):
            prev = base + i
            for j in range(s):
                nxt = base + path_start[i] + j
                edges.append((prev, nxt))
                prev = nxt
    for u, v in g.edges:
        for i in range(size):
            for j in range(size):
                edges.append((u * block + i, v * block + j))
    return Graph(g.n * block, edges)


def reference_comb(g: Graph, k: int) -> Graph:
    """comb as an edge list through the checking constructor."""
    edges = list(g.edges)
    for v in range(g.n):
        for j in range(k):
            edges.append((v, g.n + v * k + j))
    return Graph(g.n + g.n * k, edges)


class TestGraphBasics:
    def test_construction_normalizes_edges(self):
        g = Graph(3, [(2, 0), (0, 1)])
        assert g.edges == ((0, 1), (0, 2))
        assert g.degree(0) == 2
        assert g.neighbors(0) == (1, 2)
        assert g.has_edge(1, 0)
        assert not g.has_edge(1, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize(
        "n, edges, shown",
        [
            (3, [(1.0, 2)], "(1.0, 2)"),
            (3, [("a", 2)], "('a', 2)"),
            (3, [(0, None)], "(0, None)"),
            (True, [], "True"),
            (2.0, [], "2.0"),
        ],
    )
    def test_rejects_non_integers(self, n, edges, shown):
        with pytest.raises(DomainError, match=re.escape(shown)):
            Graph(n, edges)

    def test_accepts_int_subclasses(self):
        # The rule is graphs._is_int: any int but a bool.
        class Vertex(int):
            pass

        assert Graph(Vertex(3), [(Vertex(0), 2)]).edges == ((0, 2),)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: comb(g, 1.5),
            lambda g: comb(g, True),
            lambda g: attach_path(g, 0, 1.5),
            lambda g: attach_path(g, 0, True),
            lambda g: attach_path(g, True, 1),
            lambda g: k_clone(g, True),
            lambda g: k_clone(g, 2.0),
            lambda g: delete_vertex(g, True),
            lambda g: delete_vertex(g, 1.0),
            lambda g: g.neighbors(True),
            lambda g: g.degree(1.0),
            lambda g: g.has_edge(0, True),
            lambda g: s_clone_origin([1], 1.5),
        ],
    )
    def test_integer_arguments_reject_floats_and_bools(self, call):
        # One rule, graphs._is_int: True is not vertex or count 1.
        with pytest.raises(DomainError):
            call(path_graph(2))

    def test_clique_cover_check_rejects_bool_vertex(self):
        g = path_graph(2)
        assert is_clique_cover(g, ((0, 1),))
        assert not is_clique_cover(g, ((0, True),))

    def test_immutable(self):
        g = Graph(1)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_merges_reversed_and_repeated_edges(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.edge_count == 2

    def test_builders(self):
        assert complete_graph(3).edge_count == 3
        assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
        assert edgeless_graph(5).edge_count == 0


class TestCloneSpec:
    def test_sorted_on_construction(self):
        spec = CloneSpec([3, 0, 2])
        assert spec.entries == (0, 2, 3)
        assert spec.size == 3
        assert spec.total == 5
        assert spec.block == 8

    def test_multiset_keeps_repeats(self):
        spec = CloneSpec([0, 0, 0])
        assert spec.entries == (0, 0, 0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            CloneSpec([1, -1])

    def test_rejects_bool(self):
        with pytest.raises(DomainError, match="True"):
            CloneSpec([True, 2])


class TestSClone:
    def test_single_vertex_023(self):
        # one bare clone, one with a 2-path, one with a 3-path: 8 vertices
        g = s_clone(Graph(1), CloneSpec([0, 2, 3]))
        assert g.n == 8
        assert g.edges == ((1, 3), (2, 5), (3, 4), (5, 6), (6, 7))
        # the three clones are mutually non-adjacent
        for u in range(3):
            for v in range(u + 1, 3):
                assert not g.has_edge(u, v)

    def test_k2_with_single_path_is_p4(self):
        g = s_clone(complete_graph(2), CloneSpec([1]))
        assert g.n == 4
        # numbering: clone0=0, leaf0=1, clone1=2, leaf1=3 -> path 1-0-2-3
        assert g.edges == ((0, 1), (0, 2), (2, 3))

    def test_zero_spec_is_identity(self):
        g = random_graph(random.Random(1), 5)
        assert s_clone(g, CloneSpec([0])) == Graph(g.n, g.edges)

    def test_size_law(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 7))
            spec = random_clone_spec(rng, max_size=4, max_element=5)
            assert s_clone(g, spec).n == g.n * (spec.total + spec.size)

    def test_clone_classes_independent_and_paths_thin(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 5))
            spec = random_clone_spec(rng)
            cloned = s_clone(g, spec)
            for v in range(cloned.n):
                orig, clone_idx, path_pos = s_clone_origin(spec, v)
                if path_pos == 0:
                    # clones of one vertex are mutually non-adjacent
                    for u in range(v + 1, cloned.n):
                        o2, _, p2 = s_clone_origin(spec, u)
                        if o2 == orig and p2 == 0:
                            assert not cloned.has_edge(v, u)
                else:
                    assert cloned.degree(v) <= 2

    def test_adjacency_matches_original(self):
        g = Graph(3, [(0, 1)])
        spec = CloneSpec([0, 1])
        cloned = s_clone(g, spec)
        block = spec.block
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                for i in range(spec.size):
                    for j in range(spec.size):
                        assert cloned.has_edge(a * block + i, b * block + j) == g.has_edge(a, b)

    def test_origin_mapping_inverts_numbering(self):
        spec = CloneSpec([0, 2, 3])
        seen = set()
        for v in range(8):
            orig, clone_idx, path_pos = s_clone_origin(spec, v)
            assert orig == 0
            seen.add((clone_idx, path_pos))
        assert seen == {
            (0, 0),
            (1, 0),
            (2, 0),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
            (2, 3),
        }

    def test_matches_k_clone_on_zero_multiset(self):
        rng = random.Random(4)
        for k in (1, 2, 3):
            g = random_graph(rng, 4)
            assert s_clone(g, CloneSpec([0] * k)) == k_clone(g, k)


class TestKClone:
    def test_2_clone_of_k2_is_c4(self):
        g = k_clone(complete_graph(2), 2)
        assert g.n == 4
        assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_1_clone_is_identity(self):
        g = random_graph(random.Random(5), 5)
        assert k_clone(g, 1) == Graph(g.n, g.edges)

    def test_3_clone_of_vertex_is_independent(self):
        g = k_clone(Graph(1), 3)
        assert g.n == 3
        assert g.edge_count == 0

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            k_clone(Graph(1), 0)


class TestAttachPath:
    def test_zero_length_unchanged(self):
        g = complete_graph(3)
        assert attach_path(g, 0, 0) == g

    def test_single_vertex_path_2(self):
        g = attach_path(Graph(1), 0, 2)
        assert g == path_graph(3)

    def test_triangle_plus_leaf(self):
        g = attach_path(complete_graph(3), 0, 1)
        assert g.n == 4
        assert g.edge_count == 4

    def test_invalid_vertex(self):
        with pytest.raises(DomainError):
            attach_path(Graph(2), 2, 1)


class TestComb:
    def test_single_vertex_two_leaves(self):
        g = comb(Graph(1), 2)
        assert g.n == 3
        assert g.edges == ((0, 1), (0, 2))

    def test_k2_one_leaf_is_p4_shape(self):
        g = comb(complete_graph(2), 1)
        assert g.n == 4
        assert g.edges == ((0, 1), (0, 2), (1, 3))

    def test_zero_unchanged(self):
        g = random_graph(random.Random(6), 4)
        assert comb(g, 0) == Graph(g.n, g.edges)

    def test_equals_iterated_attach_path(self):
        # Vertex-major iteration appends leaf j of vertex v at id n + v*k + j,
        # which is exactly comb's numbering, so the graphs match outright.
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 5))
            k = rng.randint(1, 3)
            expected = Graph(g.n, g.edges)
            for v in range(g.n):
                for _ in range(k):
                    expected = attach_path(expected, v, 1)
            assert comb(g, k) == expected

    def test_size_law(self):
        g = random_graph(random.Random(8), 6)
        assert comb(g, 3).n == 6 * 4


class TestDeleteVertex:
    def test_triangle_minus_vertex(self):
        assert delete_vertex(complete_graph(3), 0) == complete_graph(2)

    def test_single_vertex_to_empty(self):
        assert delete_vertex(Graph(1), 0) == Graph(0)

    def test_path_minus_end(self):
        assert delete_vertex(path_graph(4), 3) == path_graph(3)
        assert delete_vertex(path_graph(4), 0) == path_graph(3)

    def test_renumbering(self):
        g = Graph(4, [(0, 2), (1, 3), (2, 3)])
        got = delete_vertex(g, 1)
        assert got == Graph(3, [(0, 1), (1, 2)])

    def test_invalid_vertex(self):
        with pytest.raises(DomainError):
            delete_vertex(Graph(1), 1)

    def test_zero_length_path_is_the_graph(self):
        g = path_graph(3)
        assert attach_path(g, 1, 0) is g


class TestGraphFormats:
    def test_text_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 7))
            assert parse_graph_text(graph_to_text(g)) == g

    def test_text_format_shape(self):
        text = graph_to_text(path_graph(3))
        assert text == "p is 3 2\ne 1 2\ne 2 3\n"

    def test_text_accepts_comments(self):
        g = parse_graph_text("c a triangle\np is 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == complete_graph(3)

    @pytest.mark.parametrize(
        "bad",
        [
            "e 1 2\n",  # edge before header
            "p is 2\n",  # malformed header
            "p is 2 1\ne 1 1\n",  # self-loop
            "p is 2 2\ne 1 2\ne 2 1\n",  # duplicate edge
            "p is 2 1\ne 1 3\n",  # out of range
            "p is 2 2\ne 1 2\n",  # count mismatch
            "p is 2 0\nz 1 2\n",  # unknown line
            "p is 2 0\np is 2 0\n",  # duplicate header
        ],
    )
    def test_text_rejects(self, bad):
        with pytest.raises(GraphFormatError):
            parse_graph_text(bad)

    def test_json_round_trip(self):
        rng = random.Random(10)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 7))
            assert graph_from_json_dict(graph_to_json_dict(g)) == g

    def test_bool_endpoint_rejected_like_json_true(self):
        # The constructor and the strict JSON reader share one rule, so a
        # bool endpoint is refused by both, and every graph's JSON form
        # holds plain ints that the reader accepts.
        with pytest.raises(DomainError, match=re.escape("(True, 2)")):
            Graph(3, [(True, 2)])
        with pytest.raises(GraphFormatError, match="non-integer"):
            graph_from_json_dict(json.loads('{"n": 3, "edges": [[true, 2]]}'))
        g = Graph(3, [(1, 2)])
        assert json.dumps(graph_to_json_dict(g)) == '{"n": 3, "edges": [[1, 2]]}'
        assert graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g)))) == g

    @pytest.mark.parametrize(
        "bad",
        [
            {"n": 2},
            {"edges": []},
            {"n": 2, "edges": [[0, 0]]},
            {"n": 2, "edges": [[0, 2]]},
            {"n": 2, "edges": [[0, 1], [1, 0]]},
            {"n": "2", "edges": []},
            {"n": 2, "edges": [[0]]},
            {"n": 2, "edges": 5},
            {"n": 2, "edges": None},
            {"n": True, "edges": []},
            {"n": 2, "edges": [[0, True]]},
            {"n": 2, "edges": [[False, 1]]},
            {"n": -1, "edges": []},
        ],
    )
    def test_json_rejects(self, bad):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(bad)

    def test_parse_graph_sniffs_format(self):
        g = path_graph(3)
        assert parse_graph(graph_to_text(g)) == g
        assert parse_graph('{"n": 3, "edges": [[0, 1], [1, 2]]}') == g
        with pytest.raises(GraphFormatError):
            parse_graph('{"n": 3,')


@st.composite
def simple_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


class TestFormatRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(simple_graphs())
    def test_text_round_trip(self, g):
        assert parse_graph(graph_to_text(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs())
    def test_json_round_trip(self, g):
        assert graph_from_json_dict(graph_to_json_dict(g)) == g


def _same_graph(got: Graph, want: Graph):
    assert got.n == want.n
    assert got.edges == want.edges
    assert got.neighbor_masks() == want.neighbor_masks()
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert graph_to_text(got) == graph_to_text(want)
    assert graph_to_json_dict(got) == graph_to_json_dict(want)


class TestMaskBuiltTransformations:
    """The transformations build neighbour masks; the references build the
    same graphs from edge lists through the checking constructor."""

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs(max_n=8), st.integers(min_value=0, max_value=4))
    def test_comb_equals_edge_list_construction(self, g, k):
        _same_graph(comb(g, k), reference_comb(g, k))

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs(max_n=8), st.lists(st.integers(min_value=0, max_value=4), max_size=4))
    def test_s_clone_equals_edge_list_construction(self, g, entries):
        spec = CloneSpec(entries)
        cloned = s_clone(g, spec)
        _same_graph(cloned, reference_s_clone(g, spec))
        # the numbering contract: s_clone_origin is a bijection onto
        # (vertex, clone, position) and every edge joins clones of adjacent
        # vertices or consecutive positions on one clone's path
        origins = [s_clone_origin(spec, v) for v in range(cloned.n)]
        assert len(set(origins)) == cloned.n
        for u, v in cloned.edges:
            (a, i, p), (b, j, q) = origins[u], origins[v]
            if p == q == 0:
                assert g.has_edge(a, b)
            else:
                assert (a, i) == (b, j) and abs(p - q) == 1


class TestGraphForms:
    """A graph built from masks and one built from the same edges agree on
    everything a caller can ask."""

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs(max_n=8))
    def test_mask_built_agrees_with_edge_built(self, g):
        from_masks = Graph._from_masks(g.neighbor_masks())
        from_edges = Graph(g.n, g.edges)
        assert from_masks == from_edges and hash(from_masks) == hash(from_edges)
        assert from_masks.edges == from_edges.edges
        assert from_masks.edge_count == from_edges.edge_count
        for u in range(g.n):
            assert from_masks.degree(u) == from_edges.degree(u)
            assert from_masks.neighbors(u) == from_edges.neighbors(u)
            for v in range(g.n):
                assert from_masks.has_edge(u, v) == from_edges.has_edge(u, v)
        if g.n >= 2:
            toggled = Graph(g.n, set(g.edges) ^ {(0, 1)})
            assert from_masks != toggled and toggled != from_masks
            assert comb(from_masks, 1) != comb(toggled, 1)

    def test_mask_built_edges_are_derived_once(self):
        g = comb(path_graph(3), 2)
        assert g.edges is g.edges

    def test_mask_built_is_immutable(self):
        g = comb(complete_graph(3), 1)
        for name in ("n", "edges", "_masks", "_edges"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)


class TestCliqueCover:
    def test_path_cover(self):
        assert clique_cover(path_graph(4)) == ((0, 1), (2, 3))

    def test_empty_graph(self):
        assert clique_cover(Graph(0)) == ()

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_complete_graph_is_one_part(self, k):
        assert clique_cover(complete_graph(k)) == (tuple(range(k)),)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_edgeless_graph_is_n_parts(self, n):
        assert clique_cover(edgeless_graph(n)) == tuple((v,) for v in range(n))

    def test_check_rejects_non_covers(self):
        g = path_graph(4)
        assert is_clique_cover(g, ((0, 1), (2, 3)))
        assert not is_clique_cover(g, ((0, 1, 2), (3,)))  # 0 and 2 not adjacent
        assert not is_clique_cover(g, ((0, 1), (2,)))  # misses vertex 3
        assert not is_clique_cover(g, ((0, 1), (1, 2), (3,)))  # overlap
        assert not is_clique_cover(g, ((0, 1), (2, 3), ()))  # empty part
        assert not is_clique_cover(g, ((0, 1), (2, 3), (4,)))  # unknown vertex

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs())
    def test_partitions_into_cliques_bounding_alpha(self, g):
        cover = clique_cover(g)
        assert is_clique_cover(g, cover)
        assert len(cover) >= isp_coeffs_by_enumeration(g).degree
