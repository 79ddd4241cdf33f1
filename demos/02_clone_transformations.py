"""S-clones and the exact algebra of pendant paths.

An S-clone replaces every vertex by |S| mutually non-adjacent copies
(copies of adjacent vertices are fully joined) and hangs a pendant path
of length s on the copy indexed by each s in S.  Its effect on the
independent set polynomial is an exact change of evaluation point plus a
known correction factor, driven by the path-weight recurrence.
"""

from fractions import Fraction

from indpoly import (
    Graph,
    clone_shift,
    complete_graph,
    graph_to_text,
    isp_coeffs,
    isp_eval,
    k_clone,
    path_weights,
    path_weights_closed_form,
    s_clone,
    s_clone_origin,
)

print("=" * 64)
print("Anatomy of an S-clone: one vertex, S = {0, 2, 3}")
print("=" * 64)

cloned = s_clone(Graph(1), [0, 2, 3])
print(graph_to_text(cloned))
print("vertex -> (original, clone index, path position):")
for v in range(cloned.n):
    print(f"  {v} -> {s_clone_origin([0, 2, 3], v)}")
print(f"size law: 1 * (sum(S) + |S|) = {cloned.n}")

print()
print("=" * 64)
print("Pendant paths contract to exact weight pairs (B_k, C_k)")
print("=" * 64)
print("recurrence (B, C) <- (x*C, B + C) starting from (x, 1), at x = 2:")
for k in range(5):
    b, c = path_weights(2, k)
    print(f"  k={k}:  B={b}  C={c}")
b, c = path_weights_closed_form(2, 2)
print("eigenvalue closed forms, summed over Q, agree, e.g. k=2:", f"B={b}, C={c}")

print()
print("=" * 64)
print("The master identity: clone, evaluate, divide, land elsewhere")
print("=" * 64)

g = complete_graph(2)
spec = [1]
shifted, base = clone_shift(2, spec)
factor = base ** g.n
lhs = isp_eval(s_clone(g, spec), 2)
print(f"G = K2, S = {{1}}: the {{1}}-clone of K2 is the 4-vertex path")
print(f"I(clone; 2)          = {lhs}")
print(f"shifted point x(S)   = {shifted}")
print(f"correction factor    = {base}^{g.n} = {factor}")
print(f"factor * I(G; x(S))  = {factor * isp_eval(g, shifted)}")
assert lhs == factor * isp_eval(g, shifted)

print()
print("=" * 64)
print("k-clones shift x to (1+x)^k - 1")
print("=" * 64)
c4 = k_clone(complete_graph(2), 2)
print(f"2-clone of K2 is the 4-cycle: I = {isp_coeffs(c4)}")
x = Fraction(1, 2)
print(f"I(2-clone(K2); 1/2) = {isp_eval(c4, x)}")
print(f"I(K2; (1+1/2)^2-1)  = {isp_eval(complete_graph(2), (1 + x) ** 2 - 1)}")
assert isp_eval(c4, x) == isp_eval(complete_graph(2), (1 + x) ** 2 - 1)
