"""CNF formulas, DIMACS parsing, exhaustive counters, and the reductions
from counting SAT to counting independent sets.

Literals follow the DIMACS convention: variable i is the positive literal
``i`` and its negation ``-i`` (i >= 1).  A formula stores its declared
variable count; declared-but-unused variables matter, because they turn
into an explicit power-of-two multiplier in the reductions.

``count_sat`` and ``count_x3sat`` check all 2^n assignments (no solver
shortcuts) and refuse to run beyond ``max_variables``.  The check is
bitsliced over Python integers: bit a of a variable's truth table is its
value under assignment a, so one bitwise operation evaluates a literal
connective on a whole block of 2^``_BLOCK_BITS`` assignments at once.

Each stage checks its input once: ``parse_dimacs`` checks each literal as it reads it, and
``GraphReduction.count`` gives the transversal counter its clause cliques, a partition, unchecked.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import CapacityError, FormulaError
from .graphs import Graph
from .isp import _count_transversals
from .rationals import _is_int, _read_dimacs, _require_int, _shown, _token_reader, _write_dimacs

DEFAULT_ASSIGNMENT_BOUND = 24
_BLOCK_BITS = 20  # assignments are checked in blocks of 2^_BLOCK_BITS


@dataclass(frozen=True)
class CnfFormula:
    """Clause list over signed DIMACS literals.

    Duplicate literals inside a clause are dropped on construction.  A
    clause containing both a literal and its negation is kept verbatim:
    it is legal 3-CNF input and the downstream gadget handles it
    pointwise.  Width constraints (<= 3 for 3-CNF, {2, 3} for X3SAT) are
    enforced by the operations that need them, not by the container.
    """

    __slots__ = ("variable_count", "clauses")
    variable_count: int
    clauses: tuple

    def __post_init__(self):
        variable_count = self.variable_count
        _require_int(variable_count, "variable count", error=FormulaError)
        normalized = []
        for idx, clause in enumerate(self.clauses, start=1):
            seen = []
            for lit in clause:
                if not _is_int(lit) or lit == 0:
                    raise FormulaError(f"clause {idx}: invalid literal {lit!r}")
                if abs(lit) > variable_count:
                    raise FormulaError(
                        f"clause {idx}: literal {_shown(lit)} out of range 1..{_shown(variable_count)}"
                    )
                if lit not in seen:
                    seen.append(lit)
            if not seen:
                raise FormulaError(f"clause {idx}: empty clause")
            normalized.append(tuple(seen))
        object.__setattr__(self, "clauses", tuple(normalized))

    @classmethod
    def _from_clauses(cls, variable_count: int, clauses) -> CnfFormula:
        """Formula with the given clause tuples, unchecked: the caller
        guarantees every literal is a nonzero int within the variable count
        and no clause is empty or repeats a literal; ``parse_dimacs`` and ``reduce_to_x3sat`` call it."""
        f = object.__new__(cls)
        object.__setattr__(f, "variable_count", variable_count)
        object.__setattr__(f, "clauses", tuple(clauses))
        return f

    def __reduce__(self):
        return (CnfFormula, (self.variable_count, self.clauses))

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def used_variables(self) -> set:
        return {abs(lit) for clause in self.clauses for lit in clause}

    def unused_variable_count(self) -> int:
        return self.variable_count - len(self.used_variables())

    def to_dimacs(self) -> str:
        lines = [" ".join(map(str, (*clause, 0))) for clause in self.clauses]
        return _write_dimacs("cnf", self.variable_count, lines)

    def __repr__(self):
        return f"CnfFormula(n={self.variable_count}, m={len(self.clauses)})"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: comments "c ...", header "p cnf n m", clauses as
    0-terminated literal sequences (clauses may span lines).  Literals are
    checked as they are read, and a clause's repeats dropped in order."""
    n, declared_m, body = _read_dimacs(text, "cnf", FormulaError)
    read = _token_reader(text)
    clauses = []
    current = []
    current_line = None
    for lineno, tokens in body:
        for token in tokens:
            try:
                lit = read(token)
            except ValueError:
                raise FormulaError(f"line {lineno}: non-integer token {token!r}")
            if abs(lit) > n:
                raise FormulaError(f"line {lineno}: literal {lit} out of range 1..{n}")
            if lit:
                current.append(lit)
                current_line = lineno
            elif current:
                clauses.append(tuple(dict.fromkeys(current)))
                current = []
            else:
                raise FormulaError(f"line {lineno}: empty clause")
    if current:
        raise FormulaError(f"line {current_line}: clause missing terminating 0")
    if len(clauses) != declared_m:
        raise FormulaError(f"header declares {declared_m} clauses but {len(clauses)} found")
    return CnfFormula._from_clauses(n, clauses)


def _truth_table(var: int, size: int) -> int:
    """Bit a is bit ``var`` of a, for a in range(size): runs of 2^var zeros
    then 2^var ones, doubled up to ``size`` bits (a power of two above
    2^var)."""
    run = 1 << var
    table = ((1 << run) - 1) << run
    span = 2 * run
    while span < size:
        table |= table << span
        span *= 2
    return table


def _count_assignments(f: CnfFormula, exactly_one: bool, max_variables: int) -> int:
    """Number of the 2^n assignments under which every clause has at least
    one true literal, or exactly one when ``exactly_one`` is set.

    Assignments run in blocks of 2^w, w = min(n, _BLOCK_BITS): within a
    block the low w variables take every value (their truth tables) and
    the others are constant (all ones or all zeros)."""
    n = f.variable_count
    if n > max_variables:
        raise CapacityError(
            f"exhaustive enumeration over {n} variables exceeds the bound {max_variables}"
        )
    width = min(n, _BLOCK_BITS)
    size = 1 << width
    ones = (1 << size) - 1
    tables = [_truth_table(var, size) for var in range(width)]
    total = 0
    for high in range(1 << (n - width)):
        value = tables + [ones if high >> k & 1 else 0 for k in range(n - width)]
        ok = ones
        for clause in f.clauses:
            seen = many = 0
            for lit in clause:
                true = value[lit - 1] if lit > 0 else value[-lit - 1] ^ ones
                if exactly_one:
                    many |= seen & true
                seen |= true
            ok &= seen ^ many  # many is a subset of seen
        total += ok.bit_count()
    return total


def count_sat(f: CnfFormula, *, max_variables: int = DEFAULT_ASSIGNMENT_BOUND) -> int:
    """Exact number of satisfying assignments, over all 2^n assignments."""
    return _count_assignments(f, False, max_variables)


def count_x3sat(f: CnfFormula, *, max_variables: int = DEFAULT_ASSIGNMENT_BOUND) -> int:
    """Exact number of assignments with exactly one true literal per clause.
    Clauses must have width 2 or 3."""
    for idx, clause in enumerate(f.clauses, start=1):
        if len(clause) not in (2, 3):
            raise FormulaError(
                f"clause {idx} has width {len(clause)}; X3SAT needs width 2 or 3"
            )
    return _count_assignments(f, True, max_variables)


def reduce_to_x3sat(f: CnfFormula) -> CnfFormula:
    """Parsimonious reduction from 3-CNF SAT counting to X3SAT counting.

    Each input clause (a v b v c) becomes five clauses over six fresh
    variables u1..u6:

        (a v u1 v u4)(b v u2 v u4)(u1 v u2 v u5)(u3 v u4 v u6)(c v u3)

    and for every truth assignment of (a, b, c) the block has exactly one
    X3SAT extension over u1..u6 when a v b v c holds and none otherwise.
    Width-2 clauses reuse b for c; width-1 clauses reuse a for both.  The
    output has exactly 5m clauses over n + 6m variables and the same
    solution count under X3SAT semantics.  The output is built unchecked:
    its fresh variables lie above n and each clause has one input literal.
    """
    clauses_out = []
    next_var = f.variable_count + 1
    for idx, clause in enumerate(f.clauses, start=1):
        width = len(clause)
        if width > 3:
            raise FormulaError(f"clause {idx} has width {width}; 3-CNF needs <= 3")
        a = clause[0]
        b = clause[1] if width > 1 else a
        c = clause[2] if width > 2 else b
        u1, u2, u3, u4, u5, u6 = range(next_var, next_var + 6)
        next_var += 6
        clauses_out.extend(
            [
                (a, u1, u4),
                (b, u2, u4),
                (u1, u2, u5),
                (u3, u4, u6),
                (c, u3),
            ]
        )
    return CnfFormula._from_clauses(next_var - 1, clauses_out)


def x3sat_to_graph(f: CnfFormula):
    """Parsimonious reduction from X3SAT counting to counting independent
    sets of a fixed size.

    One vertex per literal occurrence.  The numbering is a contract:
    vertex i is the i-th literal occurrence, clause by clause, so each
    clause is a run of consecutive vertices and vertex i stands for
    ``[lit for clause in f.clauses for lit in clause][i]``.  Choosing a
    vertex makes its literal the only true one in its clause, which sets
    some variables true and the others false.  Two vertices are adjacent
    exactly when one of them sets true a variable that the other sets
    false.  A clause's variables are distinct, so its vertices always
    conflict: each clause is a clique (a triangle for width 3, an edge for
    width 2).  Returns (graph, target_size, multiplier) with

        count_x3sat(f) == multiplier * count_is_of_size(graph, target_size)

    where target_size is the clause count and multiplier is 2^r for the r
    declared variables that appear in no clause.

    The graph is built from neighbour masks: one mask per literal holds
    the vertices that make it true.  A vertex makes its chosen literal l
    true and each partner m false (its negation true), so its neighbours
    are the vertices that make -l or some partner m true.
    """
    # Keyed by the literals that occur, each with its negation: the declared
    # variable count can far exceed the variables the clauses use.
    true_by = defaultdict(int)
    start = 0  # the clause's first vertex
    for idx, clause in enumerate(f.clauses, start=1):
        if len(clause) == 3:
            a, b, c = clause
            if not abs(a) != abs(b) != abs(c) != abs(a):
                raise FormulaError(f"clause {idx} uses a variable twice (complementary pair)")
            x, y, z = 1 << start, 2 << start, 4 << start
            # each literal's own vertex makes it true, its partners false
            true_by[a], true_by[-a] = true_by[a] | x, true_by[-a] | y | z
            true_by[b], true_by[-b] = true_by[b] | y, true_by[-b] | x | z
            true_by[c], true_by[-c] = true_by[c] | z, true_by[-c] | x | y
            start += 3
        elif len(clause) == 2:
            a, b = clause
            if abs(a) == abs(b):
                raise FormulaError(f"clause {idx} uses a variable twice (complementary pair)")
            x, y = 1 << start, 2 << start
            true_by[a], true_by[-a] = true_by[a] | x, true_by[-a] | y
            true_by[b], true_by[-b] = true_by[b] | y, true_by[-b] | x
            start += 2
        else:
            raise FormulaError(f"clause {idx} has width {len(clause)}; X3SAT needs width 2 or 3")

    masks = []
    for clause in f.clauses:
        if len(clause) == 3:
            a, b, c = clause
            ta, tb, tc = true_by[a], true_by[b], true_by[c]
            masks += (true_by[-a] | tb | tc, true_by[-b] | ta | tc, true_by[-c] | ta | tb)
        else:
            a, b = clause
            masks += (true_by[-a] | true_by[b], true_by[-b] | true_by[a])
    multiplier = 2 ** (f.variable_count - len(true_by) // 2)
    return Graph._from_masks(masks), len(f.clauses), multiplier


@dataclass(frozen=True)
class GraphReduction:
    """The composed reduction 3-CNF -> X3SAT -> independent sets: the
    formula has multiplier times as many satisfying assignments as
    ``graph`` has independent sets of size ``target``.  ``cliques`` holds
    the vertices of each reduced clause: ``target`` cliques that partition
    the graph, so those independent sets take one vertex from each."""

    formula: CnfFormula
    reduced: CnfFormula
    graph: Graph
    target: int
    multiplier: int
    cliques: tuple

    def count(self) -> int:
        """Satisfying assignments of the formula, counted on the graph; the
        cliques are a partition by construction, so they go unchecked."""
        return self.multiplier * _count_transversals(self.graph.neighbor_masks(), self.cliques)

    def report(self) -> dict:
        """Sizes of every stage, as the fields of a CLI record."""
        return {
            "clauses_in": len(self.formula.clauses),
            "clauses_out": len(self.reduced.clauses),
            "vars_in": self.formula.variable_count,
            "vars_out": self.reduced.variable_count,
            "vertices": self.graph.n,
            "target_size": self.target,
            "multiplier": self.multiplier,
        }


def reduce_to_graph(f: CnfFormula) -> GraphReduction:
    """Run both reductions on a 3-CNF formula."""
    reduced = reduce_to_x3sat(f)
    graph, target, multiplier = x3sat_to_graph(reduced)
    cliques, start = [], 0
    for clause in reduced.clauses:  # x3sat_to_graph's numbering contract
        cliques.append(tuple(range(start, start + len(clause))))
        start += len(clause)
    return GraphReduction(f, reduced, graph, target, multiplier, tuple(cliques))


def count_sat_via_independent_sets(f: CnfFormula) -> int:
    """Count satisfying assignments of a 3-CNF through the composed
    reduction: 3-CNF -> X3SAT -> independent sets of a fixed size."""
    return reduce_to_graph(f).count()
