"""Acceptance gate: one test per criterion, every check exact (zero
tolerance), each printing a pass line with its elapsed time.

Exhaustive regimes run exactly as stated where the per-case cost allows;
the transform-identity sweeps (criterion 6) are exhaustive over all
labeled graphs up to 5 vertices and extend to 6-7 vertices by seeded
sampling, which keeps the whole criterion inside its stated 5-minute
budget in pure Python.  Stated time budgets are asserted.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from indpoly import (
    clone_shift,
    complete_graph,
    count_is_of_size,
    count_sat,
    count_sat_via_independent_sets,
    count_x3sat,
    interpolate_coeffs,
    isp_coeffs,
    isp_eval,
    normalize_point,
    parse_dimacs,
    path_weights,
    path_weights_closed_form,
    reduce_to_x3sat,
    s_clone,
    x3sat_to_graph,
)
from indpoly.verify import (
    STANDARD_WEIGHTS,
    all_graphs,
    all_3cnf_formulas,
    comb_identity_holds,
    gadget_extension_count,
    k_clone_identity_holds,
    leaf_identity_holds,
    master_identity_holds,
    path_identity_holds,
    plan_identity_holds,
    random_3cnf,
    random_clone_spec,
    random_graph,
    random_x3sat,
    twin_identity_holds,
)


def _report(number: int, name: str, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_gadget_parsimony():
    started = time.perf_counter()
    for a in (False, True):
        for b in (False, True):
            for c in (False, True):
                assert gadget_extension_count(a, b, c) == (1 if a or b or c else 0)
            assert gadget_extension_count(a, b, b) == (1 if a or b else 0)
        assert gadget_extension_count(a, a, a) == (1 if a else 0)
    _report(1, "gadget-parsimony", started, 1.0)


def test_criterion_2_end_to_end_3sat():
    started = time.perf_counter()
    # Every formula of up to 2 clauses over 3 variables.
    formulas = all_3cnf_formulas(3, 2)
    assert len(formulas) == 903
    for f in formulas:
        direct = count_sat(f)
        assert direct == count_x3sat(reduce_to_x3sat(f))
        assert direct == count_sat_via_independent_sets(f)
    # 200 random formulas with n <= 5, m <= 2.
    rng = random.Random(2026)
    for _ in range(200):
        f = random_3cnf(rng, rng.randint(1, 5), rng.randint(0, 2))
        direct = count_sat(f)
        assert direct == count_x3sat(reduce_to_x3sat(f))
        assert direct == count_sat_via_independent_sets(f)
    _report(2, "end-to-end-count-3sat", started, 60.0)


def test_criterion_3_graph_reduction_bijection():
    started = time.perf_counter()
    # Worked instances.
    f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    g, target, multiplier = x3sat_to_graph(f)
    assert g.n == 3 and g.edge_count == 3 and target == 1 and multiplier == 1
    assert count_is_of_size(g, 1) == 3 == count_x3sat(f)

    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    g, target, multiplier = x3sat_to_graph(f)
    assert g.n == 4 and g.edge_count == 6 and target == 2
    assert count_is_of_size(g, 2) == 0 == count_x3sat(f)

    # 200 random valid instances with total width <= 15.
    rng = random.Random(2027)
    for _ in range(200):
        f = random_x3sat(rng, max_total_width=15)
        g, target, multiplier = x3sat_to_graph(f)
        assert count_x3sat(f) == multiplier * count_is_of_size(g, target)
    _report(3, "graph-reduction-bijection", started, 60.0)


def test_criterion_4_size_laws():
    started = time.perf_counter()
    rng = random.Random(2028)
    for f in all_3cnf_formulas(3, 2):
        reduced = reduce_to_x3sat(f)
        assert len(reduced.clauses) == 5 * len(f.clauses)
        assert reduced.variable_count == f.variable_count + 6 * len(f.clauses)
        g, target, _ = x3sat_to_graph(reduced)
        assert g.n == sum(len(c) for c in reduced.clauses)
        assert target == len(reduced.clauses)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 7))
        spec = random_clone_spec(rng, max_size=4, max_element=5)
        assert s_clone(g, spec).n == g.n * (sum(spec) + len(spec))
    _report(4, "size-laws", started, 60.0)


def test_criterion_5_master_clone_identity():
    started = time.perf_counter()
    # Worked case: G = K2, S = {1}, x = 2: 21 == 3^2 * I(K2; 2/3).
    k2 = complete_graph(2)
    assert clone_shift(2, [1]) == (Fraction(2, 3), 3)
    assert isp_eval(s_clone(k2, [1]), 2) == 21
    assert 3 ** 2 * isp_eval(k2, Fraction(2, 3)) == 21

    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(16):
            g = random_graph(rng, rng.randint(1, 6))
            for _ in range(2):
                spec = random_clone_spec(rng, max_size=3, max_element=4)
                for x in STANDARD_WEIGHTS:
                    assert master_identity_holds(g, spec, x)
    _report(5, "master-clone-identity", started, 300.0)


def test_criterion_6_transform_identities():
    started = time.perf_counter()
    rng = random.Random(2029)

    # Leaf and same-neighborhood contraction: exhaustive over all labeled
    # graphs up to 6 vertices carrying the relevant structure (the
    # predicates return None on graphs without it).
    for n in range(2, 7):
        for g in all_graphs(n):
            assert leaf_identity_holds(g, rng) is not False
            assert twin_identity_holds(g, rng) is not False

    # k-clone and comb identities: exhaustive up to 5 vertices, seeded
    # samples on 6 and 7 vertices.
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += [random_graph(rng, n) for n in (6, 7) for _ in range(12)]
    for g in graphs:
        for k in (1, 2, 3):
            for x in STANDARD_WEIGHTS:
                assert k_clone_identity_holds(g, k, x)
                assert comb_identity_holds(g, k, x)

    # Pendant path identity: path lengths 1..4 at every vertex, exhaustive
    # up to 4 vertices, seeded samples on 5 and 6 vertices.
    for n in range(1, 5):
        for g in all_graphs(n):
            for v in range(n):
                for k in (1, 2, 3, 4):
                    for x in STANDARD_WEIGHTS:
                        assert path_identity_holds(g, v, k, x)
    for n in (5, 6):
        for _ in range(20):
            g = random_graph(rng, n)
            v = rng.randrange(n)
            k = rng.randint(1, 4)
            for x in STANDARD_WEIGHTS:
                assert path_identity_holds(g, v, k, x)
    _report(6, "transform-identities", started, 300.0)


def test_criterion_7_path_weight_closed_forms():
    started = time.perf_counter()
    for x in STANDARD_WEIGHTS:
        for k in range(0, 51):
            assert path_weights_closed_form(x, k) == path_weights(x, k)
    for k, expected in [(0, (2, 1)), (1, (2, 3)), (2, (6, 5))]:
        assert path_weights(2, k) == expected
    _report(7, "path-weight-closed-forms", started, 60.0)


def test_criterion_8_interpolation_pipeline():
    started = time.perf_counter()
    rng = random.Random(2030)
    for _ in range(50):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        expected = isp_coeffs(g)
        for x in (Fraction(2), Fraction(1, 2), Fraction(-1, 2)):
            assert interpolate_coeffs(g, x) == expected
    _report(8, "interpolation-pipeline", started, 600.0)


def test_criterion_9_point_normalizer():
    started = time.perf_counter()
    # Worked plan shapes.
    plan = normalize_point(-3)
    assert plan.steps == (("two_clone",),) and plan.target_point == 3
    plan = normalize_point(Fraction(-1, 2))
    assert plan.steps == (("comb", 4), ("two_clone",))
    assert Fraction(-1, 2) / (1 + Fraction(-1, 2)) ** 4 == -8
    assert plan.target_point == 48

    rng = random.Random(2031)
    for x in (Fraction(-3), Fraction(-1, 2), Fraction(-5, 4)):
        plan = normalize_point(x)
        for _ in range(6):
            g = random_graph(rng, rng.randint(1, 5))
            assert plan_identity_holds(plan, g)
    _report(9, "point-normalizer", started, 300.0)


def test_criterion_10_verify_determinism():
    started = time.perf_counter()

    def run_verify():
        proc = subprocess.run(
            [sys.executable, "-m", "indpoly", "verify", "--suite", "all", "--seed", "7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        stripped = []
        for line in proc.stdout.splitlines():
            record = json.loads(line)
            record.pop("timing_ms", None)
            stripped.append(json.dumps(record, sort_keys=True))
        return "\n".join(stripped)

    assert run_verify() == run_verify()
    _report(10, "verify-determinism", started, 300.0)
