"""Workloads of the indpoly benchmark: seeded inputs, one job per input,
independent reference answers and the traced layers.

Every workload is a closed loop with one caller: the next job starts when
the previous one has returned.  Input sizes follow a fixed schedule that
cycles with the job index, so the seed only changes the random structure
inside each size class and every run sees the same mix of sizes.

The generators here are the benchmark's own (``random.Random(seed)``) and
do not use ``indpoly.verify``.  Reference answers come from routes that
share no code with the branching kernel: exhaustive assignment counting
for formulas, subset enumeration for graphs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import indpoly.cli
import indpoly.clonecalc
import indpoly.interpolate
import indpoly.isp
from indpoly.cnf import CnfFormula, count_sat
from indpoly.graphs import Graph
from indpoly.isp import isp_coeffs_by_enumeration

from tracer import Layer, rebind_everywhere

HARD_POINT = Fraction(-1, 2)
POOL = 400  # distinct inputs generated per run


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def balanced_3cnf(rng: random.Random, n: int, m: int) -> list:
    """m clauses of three distinct variables over 1..n, random signs.  Each
    variable fills floor(3m/n) or ceil(3m/n) of the 3m literal slots, which
    keeps the cost of one formula close to that of another of the same
    size (plain uniform clauses make it heavy-tailed)."""
    while True:
        slots = [v for v in range(1, n + 1) for _ in range(3 * m // n)]
        slots += rng.sample(range(1, n + 1), 3 * m - len(slots))
        rng.shuffle(slots)
        clauses = [slots[3 * i:3 * i + 3] for i in range(m)]
        if all(len(set(c)) == 3 for c in clauses):
            return [[v if rng.random() < 0.5 else -v for v in c] for c in clauses]


def gnp_edges(rng: random.Random, n: int, p: float) -> list:
    """Edges of an Erdos-Renyi G(n, p) graph on vertices 0..n-1."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def dimacs_text(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def graph_text(n: int, edges) -> str:
    lines = [f"p is {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def two_core_size(g: Graph) -> int:
    """Vertices left after repeatedly deleting vertices of degree < 2."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if degree[v] < 2]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if alive[w]:
                degree[w] -= 1
                if degree[w] < 2:
                    alive[w] = False
                    stack.append(w)
    return sum(alive)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    inputs: str
    sizes: tuple        # size schedule, cycled by job index
    trace_block: int    # inputs repeated in each pass of a traced run

    def generate(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make(rng, self.sizes[i % len(self.sizes)]) for i in range(POOL)]

    def digest(self, inputs) -> str:
        blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class CliWorkload(Workload):
    """Jobs are in-process CLI calls on input files written during set-up."""

    def prepare(self, inputs, workdir):
        jobs = []
        for i, inp in enumerate(inputs):
            path = os.path.join(workdir, f"input{i}")
            with open(path, "w") as handle:
                handle.write(self.text(inp))
            jobs.append(path)
        return jobs

    def run(self, path):
        out = io.StringIO()
        argv = self.argv(path)
        with contextlib.redirect_stdout(out):
            code = indpoly.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"indpoly {' '.join(argv)} exited with {code}")
        return json.loads(out.getvalue())


class SatViaIS(CliWorkload):
    def make(self, rng, m):
        return {"n": 6, "clauses": balanced_3cnf(rng, 6, m)}

    @staticmethod
    def text(inp):
        return dimacs_text(inp["n"], inp["clauses"])

    @staticmethod
    def argv(path):
        return ["count-via-is", path]

    @staticmethod
    def answer(output):
        return output["count"]

    @staticmethod
    def reference(inp):
        return count_sat(CnfFormula(inp["n"], inp["clauses"]))

    @staticmethod
    def corrupt():
        original = indpoly.isp.count_is_of_size
        return rebind_everywhere(original, lambda g, k: original(g, k) + 1)


class GraphInputs:
    """Inputs are G(n, 0.3) graphs; the reference is subset enumeration."""

    def make(self, rng, n):
        return {"n": n, "edges": gnp_edges(rng, n, 0.3)}

    @staticmethod
    def reference(inp):
        return list(isp_coeffs_by_enumeration(Graph(inp["n"], inp["edges"])).coeffs)


class InterpX2(GraphInputs, CliWorkload):
    @staticmethod
    def text(inp):
        return graph_text(inp["n"], inp["edges"])

    @staticmethod
    def argv(path):
        return ["interpolate", path, "--at", "2"]

    @staticmethod
    def answer(output):
        return [Fraction(c) for c in output["coeffs"]]

    @staticmethod
    def corrupt():
        cls = indpoly.interpolate.InternalOracle
        original = cls.evaluate
        cls.evaluate = lambda self, g, x: original(self, g, x) + 1
        return [(cls, "evaluate", original)]


class PlanOracle:
    """Evaluates I(G; target) for the point normaliser's plan: transform G,
    evaluate at the hard point with the branching kernel, divide out the
    plan's factor."""

    kind = "benchmark_plan"

    def __init__(self, plan, offset=0):
        self.plan = plan
        self.offset = offset

    def evaluate(self, g, x):
        value = indpoly.isp.isp_eval(self.plan.apply(g), self.plan.original_point)
        return value / self.plan.factor(g.n) + self.offset


class InterpHard(GraphInputs, Workload):
    oracle_offset = 0

    def prepare(self, inputs, workdir):
        return [(inp["n"], inp["edges"]) for inp in inputs]

    def run(self, job):
        n, edges = job
        plan = indpoly.clonecalc.normalize_point(HARD_POINT)
        oracle = PlanOracle(plan, self.oracle_offset)
        return indpoly.interpolate.interpolate_coeffs(Graph(n, edges), plan.target_point, oracle=oracle)

    @staticmethod
    def answer(output):
        return list(output.coeffs)

    def corrupt(self):
        self.oracle_offset = 1
        return [(self, "oracle_offset", 0)]


WORKLOADS = {
    w.name: w
    for w in (
        SatViaIS(
            name="sat_via_is",
            inputs="balanced random 3-CNF, 6 variables, 5 clauses (70-vertex reduction graphs)",
            sizes=(5,),
            trace_block=20,
        ),
        InterpX2(
            name="interp_x2",
            inputs="G(n, 0.3) with n = 10, 11, 12, 13, 14 in turn",
            sizes=(10, 11, 12, 13, 14),
            trace_block=10,
        ),
        InterpHard(
            name="interp_hard",
            inputs="G(n, 0.3) with n = 3, 4, 5, 6, 7 in turn",
            sizes=(3, 4, 5, 6, 7),
            trace_block=10,
        ),
    )
}


def _sizes_isp_eval(args, result):
    g = args[0]
    return {"vertices": g.n, "core_vertices": two_core_size(g)}


LAYERS = (
    Layer("cli.main", "indpoly.cli", "main"),
    Layer("cnf.parse_dimacs", "indpoly.cnf", "parse_dimacs"),
    Layer("cnf.reduce_to_x3sat", "indpoly.cnf", "reduce_to_x3sat"),
    Layer("cnf.x3sat_to_graph", "indpoly.cnf", "x3sat_to_graph",
          lambda args, result: {"vertices": result[0].n}),
    Layer("graphs.parse_graph", "indpoly.graphs", "parse_graph"),
    Layer("graphs.s_clone", "indpoly.graphs", "s_clone",
          lambda args, result: {"vertices_out": result.n}),
    Layer("graphs.comb", "indpoly.graphs", "comb"),
    Layer("graphs.k_clone", "indpoly.graphs", "k_clone"),
    Layer("clonecalc.is_compatible", "indpoly.clonecalc", "is_compatible"),
    Layer("clonecalc.clone_shifted_point", "indpoly.clonecalc", "clone_shifted_point"),
    Layer("clonecalc.clone_correction_factor", "indpoly.clonecalc", "clone_correction_factor"),
    Layer("clonecalc.normalize_point", "indpoly.clonecalc", "normalize_point"),
    Layer("clonecalc.TransformPlan.apply", "indpoly.clonecalc:TransformPlan", "apply"),
    Layer("interpolate.minimum_path_offset", "indpoly.interpolate", "minimum_path_offset"),
    Layer("interpolate.build_clone_family", "indpoly.interpolate", "build_clone_family"),
    Layer("interpolate.lagrange_interpolate", "indpoly.interpolate", "lagrange_interpolate"),
    Layer("interpolate.interpolate_coeffs", "indpoly.interpolate", "interpolate_coeffs"),
    Layer("interpolate.oracle", __name__ + ":PlanOracle", "evaluate"),
    Layer("isp.isp_coeffs", "indpoly.isp", "isp_coeffs"),
    Layer("isp.count_is_of_size", "indpoly.isp", "count_is_of_size"),
    Layer("isp.isp_eval", "indpoly.isp", "isp_eval", _sizes_isp_eval),
)
