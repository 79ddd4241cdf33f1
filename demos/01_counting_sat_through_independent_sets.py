"""Counting SAT solutions by counting independent sets.

Walks the full reduction chain on a small formula: exact brute-force
counting, the parsimonious 3-CNF -> X3SAT gadget rewrite, and the
X3SAT -> graph construction whose size-m independent sets are in
bijection with the solutions.  Those sets take one vertex from each
clause clique, and the composed pipeline counts them that way.
"""

from indpoly import (
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

print("=" * 64)
print("A 3-CNF formula and its exact solution count")
print("=" * 64)

dimacs = """\
p cnf 4 3
1 2 3 0
-1 2 0
-2 -3 4 0
"""
formula = parse_dimacs(dimacs)
print(dimacs)
solutions = count_sat(formula)
print(f"count_sat: {solutions} of {2 ** formula.variable_count} assignments satisfy it")

print()
print("=" * 64)
print("Step 1: rewrite every clause into an exactly-one-true block")
print("=" * 64)

reduced = reduce_to_x3sat(formula)
print(f"input:  {formula.clause_count} clauses over {formula.variable_count} variables")
print(f"output: {reduced.clause_count} clauses over {reduced.variable_count} variables")
print("        (5 clauses and 6 fresh variables per input clause)")
print()
print("The rewrite is parsimonious: under X3SAT semantics (exactly one")
print("true literal per clause) the solution count is unchanged:")
print(f"count_x3sat(reduced) = {count_x3sat(reduced)}")

print()
print("=" * 64)
print("Step 2: one clique per clause, edges encode consistency")
print("=" * 64)

graph, target, multiplier = x3sat_to_graph(reduced)
print(f"graph: {graph.n} vertices (= total literal occurrences), {graph.edge_count} edges")
print(f"independent sets of size exactly {target}: pick one true literal per clause")
print(f"multiplier for declared-but-unused variables: {multiplier}")
count = multiplier * count_is_of_size(graph, target)
print(f"multiplier * count_is_of_size(graph, {target}) = {count}")
cliques = reduce_to_graph(formula).cliques
transversals = multiplier * count_transversal_is(graph, cliques)
print(f"{len(cliques)} clause cliques; one vertex from each, no two adjacent:")
print(f"multiplier * count_transversal_is(graph, cliques) = {transversals}")
assert transversals == count

print()
print("=" * 64)
print("The composed pipeline in one call")
print("=" * 64)
print(f"count_sat_via_independent_sets: {count_sat_via_independent_sets(formula)}")
assert count == solutions == count_sat_via_independent_sets(formula)

print()
print("A tiny worked instance: the clause (x1 v x2 v x3) alone becomes a")
print("triangle whose three 1-element independent sets match the three")
print("exactly-one-true assignments:")
tiny = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
tiny_graph, tiny_target, _ = x3sat_to_graph(tiny)
print()
print(graph_to_text(tiny_graph))
print(f"count_x3sat = {count_x3sat(tiny)}")
print(f"independent sets of size {tiny_target} = {count_is_of_size(tiny_graph, tiny_target)}")
