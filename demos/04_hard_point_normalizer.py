"""Moving hard evaluation points into the tractable range.

The paper's path reduction needs points x > -1/4 (and x != 0).
Interpolation does not: the comb family serves every x outside
{0, -1, -2} directly (demo 03).  The normalizer is the paper's route:
every other rational except 0, -1, -2 reduces to that range with at
most two graph transformations: a 2-clone sends x below -2 to (1+x)^2 - 1 > 0,
and a comb (k pendant leaves per vertex, even k) first pushes points in
(-2, 0) below -2.  Each step's exact multiplicative factor is part of
the plan."""

from fractions import Fraction

from indpoly import isp_eval, normalize_point, path_graph

print("=" * 64)
print("Plans for three hard points")
print("=" * 64)
for x in (Fraction(-3), Fraction(-1, 2), Fraction(-5, 4)):
    plan = normalize_point(x)
    steps = ", ".join(
        f"comb k={s[1]}" if s[0] == "comb" else "2-clone" for s in plan.steps
    ) or "none"
    print(f"x = {str(x):>5}:  steps [{steps}]  target {plan.target_point}")

print()
print("=" * 64)
print("Why x = -1/2 needs comb k = 4")
print("=" * 64)
x = Fraction(-1, 2)
for k in (2, 4):
    print(f"  x/(1+x)^{k} = {x / (1 + x) ** k}   {'< -2: usable' if x / (1+x)**k < -2 else 'not < -2'}")
print("after the comb lands on -8, the 2-clone shifts it to (1-8)^2 - 1 = 48")

print()
print("=" * 64)
print("Exact verification on the 3-vertex path")
print("=" * 64)
g = path_graph(3)
plan = normalize_point(x)
transformed = plan.apply(g)
print(f"transformed graph: {transformed.n} vertices (from {g.n})")
value = isp_eval(transformed, x)
factor = plan.factor(g.n)
print(f"I(transformed; -1/2)     = {value}")
print(f"exact plan factor        = {factor}")
print(f"value / factor           = {value / factor}")
print(f"I(P3; 48) directly       = {isp_eval(g, plan.target_point)}")
assert value / factor == isp_eval(g, plan.target_point)

print()
print("The points 0, -1 and -2 stay out of scope: their reductions need")
print("cycle-addition gadgets that this package does not implement.")
try:
    normalize_point(-1)
except Exception as exc:
    print(f"normalize_point(-1) -> {type(exc).__name__}: {exc}")
