"""Recovering every coefficient of I(G; X) from one evaluation point.

I(G; X) has degree alpha(G).  A partition of V into d cliques proves
alpha(G) <= d, so d+1 coefficients describe it, and the graph itself
states the first h = min(4, d): a_0 = 1, a_1 = n, a_2 = C(n, 2) - |E| and
a_3 = C(n, 3) - |E|(n - 2) + sum_v C(deg v, 2) - T for T triangles, by
inclusion-exclusion over the edges a vertex triple holds.  The other
max(d - 3, 1) need as many distinct sample points.  Instead
of moving the point, the clone family moves the graph: member k is the
comb that hangs k leaves on every vertex, and evaluating it at the
single fixed point x yields (1 + x)^(kn) * I(G; r_k) at the shifted
point r_k = x/(1 + x)^k.  With x = p/q and s = p + q, the answers scale
to a transposed Vandermonde system over the integer nodes
q^j * s^(d - j), j >= h, which are pairwise distinct for every x
outside {0, -1, -2}.  An exact integer solve recovers the remaining
coefficients, at x = 2 as at x = -1/2."""

import itertools
import math
from fractions import Fraction

from indpoly import (
    DegeneratePointError,
    Graph,
    clique_cover,
    comb,
    cycle_graph,
    format_rational,
    interpolate_coeffs,
    isp_coeffs,
)

g = cycle_graph(9)
x = Fraction(2)

print("=" * 64)
print("The clone family at x = 2 for the 9-cycle")
print("=" * 64)
cover = clique_cover(g)
d = len(cover)
members = max(d - 3, 1)
print(f"clique cover {[list(part) for part in cover]} certifies degree <= d = {d}")
wedges = sum(math.comb(g.degree(v), 2) for v in range(g.n))
triangles = sum(
    g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    for u, v, w in itertools.combinations(range(g.n), 3)
)
triples = math.comb(g.n, 3) - g.edge_count * (g.n - 2) + wedges - triangles
stated = [1, g.n, math.comb(g.n, 2) - g.edge_count, triples][: min(4, d)]
print(f"the graph states a_0 .. a_{len(stated) - 1} = {stated} (1, n, C(n, 2) - |E| and the independent triples)")
assert stated == list(isp_coeffs(g).coeffs[: len(stated)])
print(f"{'k':>2}  {'leaves':<8} {'r_k':<12} clone vertices")
for k in range(members):
    print(f"{k:>2}  {k:<8} {format_rational(x / (1 + x) ** k):<12} {comb(g, k).n}")

print()
print("=" * 64)
print("Interpolation against the definitional evaluator")
print("=" * 64)
recovered = interpolate_coeffs(g, x)
direct = isp_coeffs(g)
print(f"max(d-3, 1) = {members} oracle calls at the single point x = 2 recover:")
print(f"  interpolated: {[format_rational(c) for c in recovered.coeffs]}")
print(f"  enumerated:   {[format_rational(c) for c in direct.coeffs]}")
assert recovered == direct

print()
print("=" * 64)
print("The clones grow linearly: k leaves per vertex")
print("=" * 64)
for k in range(members):
    cloned = comb(g, k)
    print(f"  comb {k}: {cloned.n} vertices ({cloned.n // g.n} per original)")

print()
print("=" * 64)
print("The empty graph takes the same path")
print("=" * 64)
empty = Graph(0)
print(f"no cliques, so d = {len(clique_cover(empty))}: one member, comb 0 = the graph itself")
print(f"one oracle call recovers {[format_rational(c) for c in interpolate_coeffs(empty, x).coeffs]}")
assert interpolate_coeffs(empty, x) == isp_coeffs(empty)

print()
print("=" * 64)
print("Hard points take the same path")
print("=" * 64)
for hard in (Fraction(-1, 2), Fraction(-3)):
    recovered = interpolate_coeffs(g, hard)
    assert recovered == direct
    points = ", ".join(format_rational(hard / (1 + hard) ** k) for k in range(members))
    print(f"x = {format_rational(hard)}: points {points} recover {[format_rational(c) for c in recovered.coeffs]}")
for bad in (0, -1, -2):
    try:
        interpolate_coeffs(g, bad)
    except DegeneratePointError as exc:
        reason = exc
        print(f"x = {bad}: DegeneratePointError")
print(f"  ({reason})")

print()
print("The same pipeline accepts any oracle speaking the line protocol")
print('  request:  {"graph": {"n": ..., "edges": [...]}, "point": "p/q"}')
print('  response: {"value": "p/q"}')
print("via interpolate_coeffs(g, x, oracle=ExternalOracle(command)).")
