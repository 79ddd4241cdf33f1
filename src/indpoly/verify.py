"""Seeded property suites behind the ``verify`` CLI subcommand.

Each suite checks one family of exact identities or reduction properties
and yields one record per case, built by ``_record``, the one place that
sets a record's status.  A sweep over many instances is one ``_sweep``
record carrying the number of instances checked; it stops at the first
failure.  A failing record carries a self-contained counterexample: the
inputs as DIMACS or graph-format file contents, re-runnable without this
module.  ``run_suites`` writes the counterexamples of failing records and
returns ``(passed, failed)``, the number of records of each status.

The transform identities are public predicates, each checking one
instance against the definitional evaluators (``isp_eval``,
``isp_multivariate``): ``leaf_identity_holds``, ``twin_identity_holds``,
``master_identity_holds``, ``k_clone_identity_holds``,
``comb_identity_holds``, ``path_identity_holds`` and
``plan_identity_holds``.  The suites here and the acceptance gate in
``tests/test_acceptance.py`` both import them, so each identity is
written once.

All randomness flows from the explicit seed; two runs with the same seed
produce identical records.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .clonecalc import clone_shift, normalize_point, path_weights, path_weights_closed_form
from .cnf import (
    CnfFormula,
    count_sat,
    count_sat_via_independent_sets,
    count_x3sat,
    parse_dimacs,
    reduce_to_x3sat,
    x3sat_to_graph,
)
from .errors import DomainError
from .graphs import (
    Graph,
    _clone_multiset,
    attach_path,
    comb,
    complete_graph,
    delete_vertex,
    graph_to_text,
    k_clone,
    s_clone,
)
from .interpolate import interpolate_coeffs
from .isp import (
    count_is_of_size,
    isp_coeffs,
    isp_coeffs_by_enumeration,
    isp_eval,
    isp_multivariate,
)
from .rationals import format_rational

STANDARD_WEIGHTS = (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(-1, 5))

_WEIGHT_POOL = [
    Fraction(n, d)
    for n in range(-4, 7)
    for d in (1, 2, 3, 5)
    if Fraction(n, d) not in (-1,)
]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return Graph(n, edges)


def all_graphs(n: int):
    """Every labeled graph on n vertices, by edge subset."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def all_3cnf_formulas(num_vars: int, max_clauses: int) -> list:
    """Every formula with up to max_clauses clauses over num_vars variables,
    as a multiset of clauses.  A clause is a set of 1..3 distinct literals
    (complementary pairs included: they are legal 3-CNF)."""
    literals = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    shapes = [sorted(c) for width in (1, 2, 3) for c in combinations(literals, width)]
    return [
        CnfFormula(num_vars, list(clauses))
        for m in range(max_clauses + 1)
        for clauses in combinations_with_replacement(shapes, m)
    ]


def random_clone_spec(rng: random.Random, max_size: int = 3, max_element: int = 4) -> tuple:
    """A random clone multiset, as the sorted tuple ``s_clone`` takes."""
    size = rng.randint(1, max_size)
    return _clone_multiset([rng.randint(0, max_element) for _ in range(size)])


def random_weight(rng: random.Random) -> Fraction:
    return rng.choice(_WEIGHT_POOL)


def random_3cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    """Random 3-CNF with clause widths 1..3; occasionally includes a
    complementary pair inside a clause (legal input)."""
    clauses = []
    for _ in range(m):
        if n >= 2 and rng.random() < 0.1:
            v = rng.randint(1, n)
            other = rng.choice([w for w in range(1, n + 1) if w != v])
            clause = [v, -v, rng.choice([other, -other])][: rng.choice([2, 3])]
        else:
            width = rng.randint(1, 3)
            variables = rng.sample(range(1, n + 1), min(width, n))
            clause = [v if rng.random() < 0.5 else -v for v in variables]
        clauses.append(clause)
    return CnfFormula(n, clauses)


def random_x3sat(rng: random.Random, max_total_width: int = 15) -> CnfFormula:
    """Random valid X3SAT instance: widths in {2, 3}, no repeated variable
    inside a clause, sometimes with declared-but-unused variables."""
    n = rng.randint(3, 8)
    clauses = []
    budget = rng.randint(2, max_total_width)
    while budget >= 2:
        width = rng.choice([2, 3]) if budget >= 3 else 2
        variables = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        budget -= width
    extra_unused = rng.choice([0, 0, 1, 2])
    return CnfFormula(n + extra_unused, clauses)


def gadget_extension_count(a: bool, b: bool, c: bool) -> int:
    """Number of X3SAT extensions of the clause gadget over its six fresh
    variables when the hosted literals evaluate to (a, b, c).  Independent
    of the production reduction: plain enumeration of 2^6 assignments."""
    clauses = [
        (a, "u1", "u4"),
        (b, "u2", "u4"),
        ("u1", "u2", "u5"),
        ("u3", "u4", "u6"),
        (c, "u3"),
    ]
    count = 0
    for bits in range(64):
        u = {f"u{i + 1}": bool(bits >> i & 1) for i in range(6)}
        if all(sum(u.get(lit, lit) for lit in cl) == 1 for cl in clauses):  # a, b, c stand for themselves
            count += 1
    return count


# ---------------------------------------------------------------------------
# Identity predicates (shared with the acceptance gate)
# ---------------------------------------------------------------------------

def _contracted_value(g: Graph, weights, removed: int, kept: int, kept_weight) -> Fraction:
    """Weighted I(G - removed), with ``kept`` carrying ``kept_weight``."""
    reduced_weights = {
        (v if v < removed else v - 1): weights[v] for v in range(g.n) if v != removed
    }
    reduced_weights[kept if kept < removed else kept - 1] = kept_weight
    return isp_multivariate(delete_vertex(g, removed), reduced_weights)


def leaf_identity_holds(g: Graph, rng: random.Random):
    """Leaf contraction at the first leaf under random weights drawn from
    ``rng``: I(G; w) == (1 + w_leaf) * I(G - leaf; w') with the neighbour's
    weight divided by 1 + w_leaf.  None when g has no leaf (and then no
    weights are drawn)."""
    masks = g.neighbor_masks()
    leaf = next((v for v in range(g.n) if masks[v].bit_count() == 1), None)
    if leaf is None:
        return None
    neighbor = masks[leaf].bit_length() - 1
    weights = {v: random_weight(rng) for v in range(g.n)}
    rhs = (1 + weights[leaf]) * _contracted_value(
        g, weights, leaf, neighbor, weights[neighbor] / (1 + weights[leaf])
    )
    return isp_multivariate(g, weights) == rhs


def twin_identity_holds(g: Graph, rng: random.Random):
    """Same-neighbourhood contraction of the first pair (a, b) with equal
    neighbourhoods under random weights drawn from ``rng``: deleting b and
    giving a the weight (1 + w_a)(1 + w_b) - 1 keeps I(G; w).  None when g
    has no such pair (and then no weights are drawn)."""
    masks = g.neighbor_masks()
    pair = next(
        ((u, v) for u in range(g.n) for v in range(u + 1, g.n) if masks[u] == masks[v]),
        None,
    )
    if pair is None:
        return None
    a, b = pair
    weights = {v: random_weight(rng) for v in range(g.n)}
    rhs = _contracted_value(g, weights, b, a, (1 + weights[a]) * (1 + weights[b]) - 1)
    return isp_multivariate(g, weights) == rhs


def master_identity_holds(g: Graph, spec, x) -> bool:
    """I(G_S; x) == (prod C_s)^n * I(G; x(S)), with (x(S), prod C_s) from
    clone_shift."""
    shifted, factor = clone_shift(x, spec)
    return isp_eval(s_clone(g, spec), x) == factor ** g.n * isp_eval(g, shifted)


def k_clone_identity_holds(g: Graph, k: int, x) -> bool:
    """I(clone_k(G); x) == I(G; (1 + x)^k - 1)."""
    return isp_eval(k_clone(g, k), x) == isp_eval(g, (1 + x) ** k - 1)


def comb_identity_holds(g: Graph, k: int, x) -> bool:
    """I(comb_k(G); x) == (1 + x)^(k n) * I(G; x / (1 + x)^k)."""
    return isp_eval(comb(g, k), x) == (1 + x) ** (k * g.n) * isp_eval(g, x / (1 + x) ** k)


def path_identity_holds(g: Graph, v: int, k: int, x) -> bool:
    """A k-vertex pendant path at v contracts to the weight b/c on v: the
    value at x is c times the weighted I(G) at uniform weight x."""
    b, c = path_weights(x, k)
    weights = {u: x for u in range(g.n)}
    weights[v] = b / c
    return isp_eval(attach_path(g, v, k), x) == c * isp_multivariate(g, weights)


def plan_identity_holds(plan, g: Graph) -> bool:
    """A transform plan recovers I(G; target) from the transformed graph
    evaluated at the original point."""
    recovered = isp_eval(plan.apply(g), plan.original_point) / plan.factor(g.n)
    return recovered == isp_eval(g, plan.target_point)


# ---------------------------------------------------------------------------
# Counterexample payloads
# ---------------------------------------------------------------------------

def _cnf_dump(f: CnfFormula) -> dict:
    return {"formula.cnf": f.to_dimacs()}


def _graph_dump(g: Graph) -> dict:
    return {"graph.txt": graph_to_text(g)}


def _record(case: str, ok: bool, counterexample=None, **shown) -> dict:
    """The record of one case: its name, the ``shown`` fields and its
    status, with the counterexample ``run_suites`` writes out if it failed."""
    return {"case": case, **shown, "status": "pass" if ok else "fail", "counterexample": counterexample}


def _sweep(case: str, trials) -> dict:
    """One record for a sweep.  ``trials`` yields (ok, counterexample) per
    instance; the sweep stops at the first failure, which counts as
    checked and supplies the record's counterexample."""
    checked = 0
    for ok, counterexample in trials:
        checked += 1
        if not ok:
            return _record(case, False, counterexample, checked=checked)
    return _record(case, True, checked=checked)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_gadget(seed: int):
    bits = (False, True)
    cases = [
        (f"corner a={int(a)} b={int(b)} c={int(c)}", a, b, c)
        for a in bits
        for b in bits
        for c in bits
    ]
    cases += [(f"plug c:=b a={int(a)} b={int(b)}", a, b, b) for a in bits for b in bits]
    cases += [(f"plug c:=b:=a a={int(a)}", a, a, a) for a in bits]
    for case, a, b, c in cases:
        expected = 1 if (a or b or c) else 0
        got = gadget_extension_count(a, b, c)
        yield _record(case, got == expected, expected=expected, got=got)


def suite_reduction(seed: int):
    rng = random.Random(seed)

    worked = [
        ("p cnf 3 1\n1 2 3 0\n", 1, 3),
        ("p cnf 2 2\n1 2 0\n-1 2 0\n", 2, 0),
        ("p cnf 3 2\n1 2 0\n1 3 0\n", 2, 2),
    ]
    for text, target, expected in worked:
        f = parse_dimacs(text)
        graph, size, multiplier = x3sat_to_graph(f)
        got = multiplier * count_is_of_size(graph, size)
        ok = size == target and got == expected and got == count_x3sat(f)
        yield _record(f"worked instance m={len(f.clauses)}", ok, _cnf_dump(f), expected=expected, got=got)

    def parsimony():
        for _ in range(30):
            f = random_3cnf(rng, rng.randint(1, 4), rng.randint(0, 2))
            lhs = count_sat(f)
            rhs = count_x3sat(reduce_to_x3sat(f))
            yield lhs == rhs == count_sat_via_independent_sets(f), _cnf_dump(f)

    yield _sweep("parsimony count_sat == count_x3sat(reduced) == via_is", parsimony())

    def bijection():
        for _ in range(30):
            f = random_x3sat(rng, max_total_width=12)
            graph, size, multiplier = x3sat_to_graph(f)
            yield count_x3sat(f) == multiplier * count_is_of_size(graph, size), _cnf_dump(f)

    yield _sweep("bijection count_x3sat == multiplier * count_is_of_size", bijection())

    def size_laws():
        for _ in range(20):
            f = random_3cnf(rng, rng.randint(1, 4), rng.randint(0, 2))
            reduced = reduce_to_x3sat(f)
            graph, size, _ = x3sat_to_graph(reduced)
            ok = (
                len(reduced.clauses) == 5 * len(f.clauses)
                and reduced.variable_count == f.variable_count + 6 * len(f.clauses)
                and graph.n == sum(len(c) for c in reduced.clauses)
                and size == len(reduced.clauses)
            )
            yield ok, _cnf_dump(f)

    yield _sweep("size laws 5m clauses, n+6m variables, sum-of-widths vertices", size_laws())

    def clone_sizes():
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 6))
            spec = random_clone_spec(rng)
            yield s_clone(g, spec).n == g.n * (sum(spec) + len(spec)), _graph_dump(g)

    yield _sweep("s_clone size law |V| * (sum(S) + |S|)", clone_sizes())


def suite_clone_identity(seed: int):
    rng = random.Random(seed)

    k2, spec = complete_graph(2), (1,)
    lhs = isp_eval(s_clone(k2, spec), 2)
    ok = lhs == 21 and master_identity_holds(k2, spec, 2)
    yield _record("worked master identity K2, S={1}, x=2", ok, expected="21/1", got=format_rational(lhs))

    def master():
        for _ in range(18):
            g = random_graph(rng, rng.randint(1, 5))
            spec = random_clone_spec(rng)
            for x in STANDARD_WEIGHTS:
                params = f'{{"s_set": {list(spec)}, "x": "{format_rational(x)}"}}\n'
                yield master_identity_holds(g, spec, x), {**_graph_dump(g), "params.json": params}

    yield _sweep("master identity on sampled (g, S, x)", master())

    def k_clones():
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 5))
            for k in (1, 2, 3):
                for x in STANDARD_WEIGHTS:
                    yield k_clone_identity_holds(g, k, x), _graph_dump(g)

    yield _sweep("k-clone identity I(clone_k(G); x) == I(G; (1+x)^k - 1)", k_clones())


def _structured_trials(holds, rng: random.Random):
    """Run ``holds(g, rng)`` on every labeled graph on 2..4 vertices,
    skipping those without the structure it needs."""
    for n in range(2, 5):
        for g in all_graphs(n):
            ok = holds(g, rng)
            if ok is not None:
                yield ok, _graph_dump(g)


def suite_path_identity(seed: int):
    rng = random.Random(seed)
    yield _sweep(
        "leaf contraction identity, exhaustive n <= 4",
        _structured_trials(leaf_identity_holds, rng),
    )
    yield _sweep(
        "same-neighborhood contraction identity, exhaustive n <= 4",
        _structured_trials(twin_identity_holds, rng),
    )

    def pendant_paths():
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 5))
            v = rng.randrange(g.n)
            k = rng.randint(1, 4)
            for x in STANDARD_WEIGHTS:
                yield path_identity_holds(g, v, k, x), _graph_dump(g)

    yield _sweep("pendant path identity on sampled (g, v, k, x)", pendant_paths())

    def closed_forms():
        for x in STANDARD_WEIGHTS:
            for k in range(0, 21):
                yield path_weights_closed_form(x, k) == path_weights(x, k), None

    yield _sweep("closed-form path weights equal the recurrence, k <= 20", closed_forms())


def suite_comb_identity(seed: int):
    rng = random.Random(seed)

    def exhaustive():
        for n in range(1, 4):
            for g in all_graphs(n):
                for k in (1, 2):
                    for x in STANDARD_WEIGHTS:
                        yield comb_identity_holds(g, k, x), _graph_dump(g)

    yield _sweep("comb identity, exhaustive n <= 3, k <= 2", exhaustive())

    def sampled():
        for _ in range(16):
            g = random_graph(rng, rng.randint(1, 5))
            k = rng.randint(1, 3)
            for x in STANDARD_WEIGHTS:
                yield comb_identity_holds(g, k, x), _graph_dump(g)

    yield _sweep("comb identity on sampled (g, k, x)", sampled())


def suite_pipeline(seed: int):
    rng = random.Random(seed)
    for index in range(6):
        n = rng.randint(1, 5)
        g = random_graph(rng, n)
        for x in (Fraction(2), Fraction(1, 2)):
            case = f"interpolation graph {index} (n={n}) at x={format_rational(x)}"
            yield _record(case, interpolate_coeffs(g, x) == isp_coeffs(g), _graph_dump(g))

    # Cross-check the definitional evaluators against each other.
    def evaluators():
        for _ in range(10):
            g = random_graph(rng, rng.randint(0, 6))
            yield isp_coeffs(g) == isp_coeffs_by_enumeration(g), _graph_dump(g)

    yield _sweep("branching coefficients equal enumeration", evaluators())


def suite_normalizer(seed: int):
    rng = random.Random(seed)
    expectations = {
        Fraction(-3): Fraction(3),
        Fraction(-1, 2): Fraction(48),
        Fraction(-5, 4): Fraction(360),
    }
    for x, target in expectations.items():
        got = normalize_point(x).target_point
        yield _record(
            f"plan target at x={format_rational(x)}",
            got == target,
            expected=format_rational(target),
            got=format_rational(got),
        )

    def plans():
        for x in expectations:
            plan = normalize_point(x)
            for _ in range(5):
                g = random_graph(rng, rng.randint(1, 4))
                yield plan_identity_holds(plan, g), _graph_dump(g)

    yield _sweep("plan soundness on sampled graphs", plans())


SUITES = {
    "gadget": suite_gadget,
    "reduction": suite_reduction,
    "clone-identity": suite_clone_identity,
    "path-identity": suite_path_identity,
    "comb-identity": suite_comb_identity,
    "pipeline": suite_pipeline,
    "normalizer": suite_normalizer,
}

DEFAULT_SEED = 7


def run_suites(names, seed: int, emit, dump_dir=None) -> tuple:
    """Run the named suites, emitting one record dict per case through
    ``emit``.  Failing cases get their counterexample inputs written under
    ``dump_dir`` (if given) and the record lists the file paths.  Returns
    (passed, failed): how many records had status "pass" and how many
    had any other."""
    passed = failed = 0
    for name in names:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}")
        for record in SUITES[name](seed):
            record = dict(record)
            record["suite"] = name
            counterexample = record.pop("counterexample", None)
            if record["status"] == "pass":
                passed += 1
            else:
                if counterexample and dump_dir:
                    # numbered by the case's position in the run
                    case_dir = os.path.join(dump_dir, f"case-{passed + failed:03d}")
                    os.makedirs(case_dir, exist_ok=True)
                    paths = []
                    for filename, content in counterexample.items():
                        path = os.path.join(case_dir, filename)
                        with open(path, "w") as handle:
                            handle.write(content)
                        paths.append(path)
                    record["counterexample_files"] = paths
                failed += 1
            emit(record)
    return passed, failed
