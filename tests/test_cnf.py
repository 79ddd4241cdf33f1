import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indpoly.cnf
from indpoly import (
    CapacityError,
    CnfFormula,
    DomainError,
    FormulaError,
    Graph,
    count_is_of_size,
    count_sat,
    count_sat_via_independent_sets,
    count_transversal_is,
    count_x3sat,
    graph_to_text,
    parse_dimacs,
    reduce_to_graph,
    reduce_to_x3sat,
    x3sat_to_graph,
)
from indpoly.verify import (
    all_3cnf_formulas,
    gadget_extension_count,
    random_3cnf,
    random_x3sat,
)


def reference_x3sat_to_graph(f: CnfFormula):
    """x3sat_to_graph as a pairwise conflict test over all vertex pairs,
    built through the checking constructor: the independent reference for
    the per-literal mask construction."""
    sets_true = []
    sets_false = []
    for idx, clause in enumerate(f.clauses, start=1):
        width = len(clause)
        if width not in (2, 3):
            raise FormulaError(
                f"clause {idx} has width {width}; X3SAT needs width 2 or 3"
            )
        if len({abs(lit) for lit in clause}) != width:
            raise FormulaError(
                f"clause {idx} uses a variable twice (complementary pair)"
            )
        for chosen in clause:
            true = false = 0
            for lit in clause:
                if (lit > 0) == (lit == chosen):
                    true |= 1 << abs(lit)
                else:
                    false |= 1 << abs(lit)
            sets_true.append(true)
            sets_false.append(false)

    total = len(sets_true)
    edges = [
        (u, v)
        for u in range(total)
        for v in range(u + 1, total)
        if sets_true[u] & sets_false[v] or sets_false[u] & sets_true[v]
    ]
    multiplier = 2 ** f.unused_variable_count()
    return Graph(total, edges), len(f.clauses), multiplier


@st.composite
def x3sat_instances(draw, faulty=False):
    """Formulas x3sat_to_graph accepts: n = 0..10 declared variables (some
    possibly unused) and up to 10 clauses of 2 or 3 distinct variables.
    With ``faulty``, a clause has 1 to 4 variables, not always distinct, so
    it may have the wrong width or hold a complementary pair."""
    n = draw(st.integers(min_value=0, max_value=10))
    if n < 2:
        return CnfFormula(n, [])
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        width = (1, 4) if faulty else (2, 3)
        variables = draw(st.lists(st.integers(1, n), min_size=width[0], max_size=width[1], unique=not faulty))
        signs = draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
        clauses.append([v if positive else -v for v, positive in zip(variables, signs)])
    return CnfFormula(n, clauses)


class TestCnfFormula:
    def test_basic_construction(self):
        f = CnfFormula(3, [[1, 2, 3]])
        assert f.variable_count == 3
        assert f.clauses == ((1, 2, 3),)

    def test_drops_duplicate_literals(self):
        f = CnfFormula(2, [[1, 1, 2]])
        assert f.clauses == ((1, 2),)

    def test_keeps_complementary_pair(self):
        f = CnfFormula(2, [[1, -1, 2]])
        assert f.clauses == ((1, -1, 2),)

    def test_rejects_empty_clause(self):
        with pytest.raises(FormulaError):
            CnfFormula(2, [[]])

    def test_rejects_out_of_range(self):
        with pytest.raises(FormulaError):
            CnfFormula(2, [[1, 3]])

    def test_rejects_zero_literal(self):
        with pytest.raises(FormulaError):
            CnfFormula(2, [[1, 0]])

    def test_rejects_bool_literal(self):
        # True would pass as literal 1 and be written out as "True 0".
        with pytest.raises(FormulaError, match="True"):
            CnfFormula(1, [[True]])

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_variable_count(self, n):
        # Such a count used to be written out as "p cnf 2.5 1".
        with pytest.raises(FormulaError):
            CnfFormula(n, [[1]])

    def test_unused_variable_count(self):
        f = CnfFormula(5, [[1, 2]])
        assert f.unused_variable_count() == 3

    def test_dimacs_round_trip(self):
        f = CnfFormula(4, [[1, -2], [3, 4, -1]])
        assert parse_dimacs(f.to_dimacs()) == f


@st.composite
def cnf_formulas(draw):
    """Formulas of any clause width, repeated and complementary literals
    included; n = 0 admits only the empty formula."""
    n = draw(st.integers(min_value=0, max_value=8))
    if n == 0:
        return CnfFormula(0, [])
    literal = st.integers(min_value=1, max_value=n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5), max_size=8))
    return CnfFormula(n, clauses)


class TestParseDimacs:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert f.variable_count == 3
        assert f.clauses == ((1, 2, 3),)

    def test_two_clauses(self):
        f = parse_dimacs("p cnf 4 2\n1 -2 0\n3 4 0\n")
        assert f.clauses == ((1, -2), (3, 4))

    def test_comments_and_multiline_clause(self):
        f = parse_dimacs("c header comment\np cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_literal_out_of_range_names_line(self):
        with pytest.raises(FormulaError, match="line 2"):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_missing_terminator_names_line(self):
        with pytest.raises(FormulaError, match="terminating 0"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    @pytest.mark.parametrize(
        "bad",
        [
            "p cnf 2\n1 0\n",
            "1 2 0\n",
            "p cnf 2 1\nx y 0\n",
            "p cnf 2 2\n1 0\n",
            "p cnf 2 1\n0\n",
            "p cnf 1 1\np cnf 1 1\n1 0\n",
            "p cnf -1 0\n",  # negative variable count
            "p cnf 1 -1\n",  # negative clause count
            "",  # missing header
            "c only a comment\n",  # missing header
            "p is 2 0\n",  # a graph's header
            "pcnf 1 1\n1 0\n",  # no "p" token
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormulaError):
            parse_dimacs(bad)

    @settings(max_examples=200, deadline=None)
    @given(cnf_formulas())
    def test_round_trip_property(self, f):
        assert parse_dimacs(f.to_dimacs()) == f


class TestCountSat:
    def test_single_wide_clause(self):
        assert count_sat(parse_dimacs("p cnf 3 1\n1 2 3 0\n")) == 7

    def test_empty_formula_counts_all(self):
        assert count_sat(CnfFormula(2, [])) == 4

    def test_contradiction(self):
        assert count_sat(CnfFormula(1, [[1], [-1]])) == 0

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            count_sat(CnfFormula(30, [[1]]), max_variables=24)

    def test_against_python_enumeration(self):
        rng = random.Random(21)
        for _ in range(30):
            f = random_3cnf(rng, rng.randint(1, 6), rng.randint(0, 4))
            brute = 0
            for bits in range(1 << f.variable_count):
                assignment = [bool(bits >> (v - 1) & 1) for v in range(1, f.variable_count + 1)]
                if all(
                    any(assignment[abs(l) - 1] == (l > 0) for l in clause)
                    for clause in f.clauses
                ):
                    brute += 1
            assert count_sat(f) == brute


class TestCountX3Sat:
    def test_exactly_one_of_three(self):
        assert count_x3sat(parse_dimacs("p cnf 3 1\n1 2 3 0\n")) == 3

    def test_two_clause_contradiction(self):
        assert count_x3sat(parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")) == 0

    def test_shared_variable(self):
        assert count_x3sat(parse_dimacs("p cnf 3 2\n1 2 0\n1 3 0\n")) == 2

    def test_rejects_bad_width(self):
        with pytest.raises(FormulaError):
            count_x3sat(CnfFormula(3, [[1]]))
        with pytest.raises(FormulaError):
            count_x3sat(CnfFormula(4, [[1, 2, 3, 4]]))

    def test_against_python_enumeration(self):
        rng = random.Random(22)
        for _ in range(30):
            f = random_x3sat(rng, max_total_width=10)
            brute = 0
            for bits in range(1 << f.variable_count):
                assignment = [bool(bits >> (v - 1) & 1) for v in range(1, f.variable_count + 1)]
                if all(
                    sum(assignment[abs(l) - 1] == (l > 0) for l in clause) == 1
                    for clause in f.clauses
                ):
                    brute += 1
            assert count_x3sat(f) == brute


class TestGadget:
    def test_all_corners(self):
        for a in (False, True):
            for b in (False, True):
                for c in (False, True):
                    expected = 1 if (a or b or c) else 0
                    assert gadget_extension_count(a, b, c) == expected

    def test_degenerate_pluggings(self):
        for a in (False, True):
            for b in (False, True):
                assert gadget_extension_count(a, b, b) == (1 if a or b else 0)
            assert gadget_extension_count(a, a, a) == (1 if a else 0)


class TestReduceToX3Sat:
    def test_size_laws(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        r = reduce_to_x3sat(f)
        assert len(r.clauses) == 5
        assert r.variable_count == 9
        assert all(len(c) in (2, 3) for c in r.clauses)

    def test_single_clause_count(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert count_x3sat(reduce_to_x3sat(f)) == 7

    def test_empty_formula(self):
        f = CnfFormula(2, [])
        r = reduce_to_x3sat(f)
        assert r == CnfFormula(2, [])
        assert count_x3sat(r) == count_sat(f) == 4

    def test_rejects_wide_clause(self):
        with pytest.raises(FormulaError):
            reduce_to_x3sat(CnfFormula(4, [[1, 2, 3, 4]]))

    def test_parsimony_exhaustive_small(self):
        for f in all_3cnf_formulas(2, 1):
            assert count_sat(f) == count_x3sat(reduce_to_x3sat(f))

    def test_parsimony_with_complementary_pair(self):
        f = CnfFormula(2, [[1, -1, 2]])
        assert count_sat(f) == 4
        assert count_x3sat(reduce_to_x3sat(f)) == 4

    def test_parsimony_width_one_and_two(self):
        for clauses, n in [([[1]], 1), ([[1, -2]], 2), ([[-1], [1, 2]], 2)]:
            f = CnfFormula(n, clauses)
            assert count_sat(f) == count_x3sat(reduce_to_x3sat(f))


class TestX3SatToGraph:
    def test_single_triangle(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        g, target, multiplier = x3sat_to_graph(f)
        assert (g.n, target, multiplier) == (3, 1, 1)
        assert g.edge_count == 3
        assert count_is_of_size(g, target) == 3

    def test_k4_instance(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
        g, target, multiplier = x3sat_to_graph(f)
        assert (g.n, target, multiplier) == (4, 2, 1)
        assert g.edge_count == 6
        assert count_is_of_size(g, target) == 0

    def test_shared_positive_literal(self):
        f = parse_dimacs("p cnf 3 2\n1 2 0\n1 3 0\n")
        g, target, multiplier = x3sat_to_graph(f)
        assert (g.n, target) == (4, 2)
        assert set(g.edges) == {(0, 1), (2, 3), (0, 3), (1, 2)}
        assert count_is_of_size(g, target) == 2

    def test_multiplier_counts_unused_variables(self):
        f = CnfFormula(5, [[1, 2]])
        _, _, multiplier = x3sat_to_graph(f)
        assert multiplier == 8

    def test_cliques_vertex_disjoint_and_cover(self):
        rng = random.Random(23)
        for _ in range(20):
            f = random_x3sat(rng, max_total_width=12)
            g, target, _ = x3sat_to_graph(f)
            assert g.n == sum(len(c) for c in f.clauses)
            assert target == len(f.clauses)
            offset = 0
            for clause in f.clauses:
                members = list(range(offset, offset + len(clause)))
                for i in members:
                    for j in members:
                        if i < j:
                            assert g.has_edge(i, j)
                offset += len(clause)

    def test_bijection_random(self):
        rng = random.Random(24)
        for _ in range(40):
            f = random_x3sat(rng, max_total_width=12)
            g, target, multiplier = x3sat_to_graph(f)
            assert count_x3sat(f) == multiplier * count_is_of_size(g, target)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cross_clique_edges_are_conflicts(self, data):
        # Independent definition: u and v in different cliques are
        # non-adjacent iff some assignment of their clauses' variables makes
        # each one's literal the only true literal of its clause.
        n = data.draw(st.integers(min_value=3, max_value=8))
        clauses = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            variables = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=3, unique=True))
            signs = data.draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
            clauses.append([v if positive else -v for v, positive in zip(variables, signs)])
        f = CnfFormula(n, clauses)
        g, _, _ = x3sat_to_graph(f)
        owner = [(index, lit) for index, clause in enumerate(f.clauses) for lit in clause]

        def only_true(clause, chosen, values):
            return all((values[abs(lit)] == (lit > 0)) == (lit == chosen) for lit in clause)

        for u, v in itertools.combinations(range(g.n), 2):
            (cu, lu), (cv, lv) = owner[u], owner[v]
            if cu == cv:
                continue
            variables = sorted({abs(lit) for lit in f.clauses[cu] + f.clauses[cv]})
            compatible = any(
                only_true(f.clauses[cu], lu, values) and only_true(f.clauses[cv], lv, values)
                for values in (
                    dict(zip(variables, bits))
                    for bits in itertools.product((False, True), repeat=len(variables))
                )
            )
            assert g.has_edge(u, v) != compatible

    @settings(max_examples=200, deadline=None)
    @given(x3sat_instances())
    def test_equals_pairwise_construction(self, f):
        g, target, multiplier = x3sat_to_graph(f)
        want, want_target, want_multiplier = reference_x3sat_to_graph(f)
        assert g.n == want.n
        assert g.edges == want.edges
        assert g.neighbor_masks() == want.neighbor_masks()
        assert g == want and want == g
        assert hash(g) == hash(want)
        assert graph_to_text(g) == graph_to_text(want)
        assert (target, multiplier) == (want_target, want_multiplier)

    @settings(max_examples=200, deadline=None)
    @given(x3sat_instances(faulty=True))
    def test_errors_match_pairwise_construction(self, f):
        # The reference checks each clause's width, then its variables, in
        # clause order: the same message for the same first faulty clause.
        def outcome(build):
            try:
                return build(f)
            except FormulaError as exc:
                return str(exc)

        assert outcome(x3sat_to_graph) == outcome(reference_x3sat_to_graph)

    @pytest.mark.parametrize(
        "build,vertices",
        [(lambda f: x3sat_to_graph(f)[0], 2), (lambda f: reduce_to_graph(f).graph, 14)],
        ids=["x3sat_to_graph", "reduce_to_graph"],
    )
    def test_memory_follows_used_variables_not_declared_count(self, build, vertices):
        # The formula declares 10^6 variables and uses two, so no allocation
        # may be sized by the declared count.
        tracemalloc.start()
        try:
            graph = build(CnfFormula(10**6, [[1, 2]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert graph.n == vertices

    def test_rejects_complementary_pair_in_clause(self):
        with pytest.raises(FormulaError):
            x3sat_to_graph(CnfFormula(2, [[1, -1]]))

    def test_rejects_bad_width(self):
        with pytest.raises(FormulaError):
            x3sat_to_graph(CnfFormula(3, [[1]]))


class TestEndToEnd:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert count_sat_via_independent_sets(f) == 7

    def test_empty_formula_multiplier(self):
        assert count_sat_via_independent_sets(CnfFormula(2, [])) == 4

    def test_contradiction(self):
        assert count_sat_via_independent_sets(CnfFormula(1, [[1], [-1]])) == 0

    def test_report_record(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        report = reduce_to_graph(f).report()
        assert report == {
            "clauses_in": 1,
            "clauses_out": 5,
            "vars_in": 3,
            "vars_out": 9,
            "vertices": 14,
            "target_size": 5,
            "multiplier": 1,
        }

    def test_reduction_parts(self):
        f = parse_dimacs("p cnf 4 1\n1 2 3 0\n")
        reduction = reduce_to_graph(f)
        assert reduction.formula is f
        graph, target, multiplier = x3sat_to_graph(reduce_to_x3sat(f))
        report = reduction.report()
        assert (report["clauses_in"], report["vars_in"]) == (len(f.clauses), f.variable_count)
        assert (report["vertices"], report["target_size"], report["multiplier"]) == (graph.n, target, multiplier)
        assert reduction.graph == graph
        assert (reduction.target, reduction.multiplier) == (target, multiplier) == (5, 2)
        assert reduction.count() == count_sat(f) == 14

    def test_random_formulas(self):
        rng = random.Random(25)
        for _ in range(25):
            f = random_3cnf(rng, rng.randint(1, 4), rng.randint(0, 2))
            assert count_sat_via_independent_sets(f) == count_sat(f)


def _product_count(f: CnfFormula, holds) -> int:
    """Assignments, by itertools.product, under which every clause's number
    of true literals satisfies ``holds``."""
    return sum(
        all(holds(sum(values[abs(lit) - 1] == (lit > 0) for lit in clause)) for clause in f.clauses)
        for values in itertools.product((False, True), repeat=f.variable_count)
    )


@st.composite
def wide_cnf_formulas(draw):
    """n = 0..12 with up to 10 clauses of width 1..4 given with repeated
    literals and complementary pairs (tautological clauses) allowed."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n == 0:
        return CnfFormula(0, [])
    literal = st.integers(min_value=1, max_value=n).flatmap(lambda v: st.sampled_from([v, -v]))
    return CnfFormula(n, draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=10)))


@st.composite
def x3sat_formulas(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    literal = st.integers(min_value=1, max_value=n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=2, max_size=3).filter(lambda c: len(set(c)) == len(c))
    return CnfFormula(n, draw(st.lists(clause, max_size=8)))


class TestBitslicedCounters:
    @settings(max_examples=150, deadline=None)
    @given(wide_cnf_formulas())
    def test_count_sat_matches_product(self, f):
        assert count_sat(f) == _product_count(f, lambda k: k >= 1)

    @settings(max_examples=150, deadline=None)
    @given(x3sat_formulas())
    def test_count_x3sat_matches_product(self, f):
        assert count_x3sat(f) == _product_count(f, lambda k: k == 1)

    @pytest.mark.parametrize("block_bits", [0, 1, 3])
    def test_multi_block_path(self, monkeypatch, block_bits):
        monkeypatch.setattr(indpoly.cnf, "_BLOCK_BITS", block_bits)
        rng = random.Random(27)
        for n in range(0, 13):
            clauses = [
                [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), min(n, rng.randint(1, 3)))]
                for _ in range(rng.randint(0, 2 * n))
            ] if n else []
            f = CnfFormula(n, clauses)
            assert count_sat(f) == _product_count(f, lambda k: k >= 1)
            x3 = CnfFormula(n, [c for c in clauses if len(c) in (2, 3)])
            assert count_x3sat(x3) == _product_count(x3, lambda k: k == 1)

    def test_duplicate_and_tautological_literals(self):
        f = CnfFormula(3, [[1, 1, -1], [2, -3, 2], [-2, 3, -2]])
        assert count_sat(f) == _product_count(f, lambda k: k >= 1) == 4
        g = CnfFormula(3, [[1, -1], [1, 2, 2]])
        assert count_x3sat(g) == _product_count(g, lambda k: k == 1) == 4

    def test_error_messages_unchanged(self):
        with pytest.raises(CapacityError, match=r"^exhaustive enumeration over 30 variables exceeds the bound 24$"):
            count_sat(CnfFormula(30, [[1]]))
        with pytest.raises(CapacityError, match=r"^exhaustive enumeration over 13 variables exceeds the bound 12$"):
            count_x3sat(CnfFormula(13, [[1, 2]]), max_variables=12)
        with pytest.raises(FormulaError, match=r"^clause 2 has width 1; X3SAT needs width 2 or 3$"):
            count_x3sat(CnfFormula(3, [[1, 2], [3]]))
        with pytest.raises(FormulaError, match=r"^clause 1 has width 4; X3SAT needs width 2 or 3$"):
            count_x3sat(CnfFormula(4, [[1, 2, 3, 4]]))


class TestReductionCountsTransversals:
    """GraphReduction.count counts the independent sets that take one
    vertex from each clause clique; it must equal count_sat."""

    def test_cliques_are_the_clause_blocks(self):
        reduction = reduce_to_graph(CnfFormula(4, [[1, -2, 3], [2, 4]]))
        assert len(reduction.cliques) == reduction.target == 10
        assert [len(c) for c in reduction.cliques] == [len(c) for c in reduction.reduced.clauses]
        assert sum(reduction.cliques, ()) == tuple(range(reduction.graph.n))

    def test_matches_kronecker_route(self):
        rng = random.Random(28)
        for _ in range(15):
            f = random_3cnf(rng, rng.randint(1, 5), rng.randint(0, 3))
            reduction = reduce_to_graph(f)
            assert reduction.count() == reduction.multiplier * count_is_of_size(reduction.graph, reduction.target)

    @settings(max_examples=60, deadline=None)
    @given(cnf_formulas().filter(lambda f: all(len(c) <= 3 for c in f.clauses)))
    def test_matches_count_sat(self, f):
        assert count_sat_via_independent_sets(f) == count_sat(f)

    @pytest.mark.parametrize(
        "n, clauses, expected",
        [
            (0, [], 1),  # empty formula, t = 0
            (3, [], 8),  # empty formula, 2^n
            (2, [[1], [-1]], 0),  # unsatisfiable, width 1
            (3, [[1, 2], [-1, -2], [1, -2]], 2),  # width 2, variable 3 unused
            (2, [[1, -1, 2]], 4),  # clause with x and not x
            (5, [[1, 2, 3], [-1, -2, -3], [1], [-2, 3]], 8),  # mixed widths, 4 and 5 unused
        ],
    )
    def test_worked_formulas(self, n, clauses, expected):
        f = CnfFormula(n, clauses)
        assert count_sat(f) == expected
        assert count_sat_via_independent_sets(f) == expected

    def test_unsatisfiable_random(self):
        rng = random.Random(29)
        seen = 0
        for _ in range(40):
            f = random_3cnf(rng, 3, 8)
            if count_sat(f) == 0:
                seen += 1
                assert count_sat_via_independent_sets(f) == 0
        assert seen >= 5

    def test_partition_is_checked_for_outside_parts_only(self, partition_checks):
        # The reduction's cliques are its own runs, so its count skips the
        # check; count_transversal_is checks every call's parts.
        reduction = reduce_to_graph(CnfFormula(4, [[1, -2, 3], [2, 4]]))
        assert reduction.count() == count_sat(reduction.formula) == 10
        assert partition_checks == []
        transversals = count_transversal_is(reduction.graph, reduction.cliques)
        assert transversals * reduction.multiplier == 10
        assert partition_checks == [reduction.graph]
        with pytest.raises(DomainError, match=r"^parts are not a partition of the vertices into cliques$"):
            count_transversal_is(reduction.graph, reduction.cliques[1:])
        assert len(partition_checks) == 2

    def test_counts_leave_the_recursion_limit_alone(self, limit_writes):
        # Balanced 6-variable, 5-clause formulas (each variable fills two or
        # three of the 15 literal slots): 25 cliques, a bound of 51 frames.
        rng = random.Random(30)
        formulas = []
        while len(formulas) < 50:
            slots = [v for v in range(1, 7) for _ in range(2)] + rng.sample(range(1, 7), 3)
            rng.shuffle(slots)
            clauses = [slots[i:i + 3] for i in range(0, 15, 3)]
            if all(len(set(c)) == 3 for c in clauses):
                formulas.append(CnfFormula(6, [[v if rng.random() < 0.5 else -v for v in c] for c in clauses]))
        for f in formulas:
            assert reduce_to_graph(f).count() == count_sat(f)
        assert limit_writes == []

    def test_pinned_fifty_clauses(self):
        rng = random.Random(50)
        f = CnfFormula(20, [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 21), 3)] for _ in range(50)])
        reduction = reduce_to_graph(f)
        assert reduction.graph.n == 700
        assert reduction.count() == count_sat(f) == 2329
