"""Finite simple undirected graphs and the clone/path/comb transformations.

A graph is its vertex count n and one neighbour bitmask per vertex: bit u
of vertex v's mask is set when uv is an edge.  Vertices are the integers
0..n-1; the sorted edge list is derived from the masks on each read.
``Graph`` is a frozen dataclass, as every value type of the package is,
so a graph is immutable: transformations return new graphs.  ``Graph()``
and the text reader refuse more than ``MAX_VERTICES`` vertices before
they allocate.

Vertex numbering of ``s_clone`` (the back-mapping contract):
for each original vertex ``a`` there is a block of ``total + size`` result
vertices starting at ``a * (total + size)``, where the clone multiset S is
kept sorted ascending and ``size = |S|``, ``total = sum(S)``.  Within the
block the clones a_1..a_size come first (in sorted multiset order), followed
by the pendant-path vertices of clone 1 in path order, then those of clone
2, and so on.  ``s_clone_origin`` inverts this numbering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CapacityError, DomainError, GraphFormatError
from .rationals import _is_int, _read_dimacs, _require_int, _shown, _token_reader, _write_dimacs

MAX_VERTICES = 1 << 20  # the most vertices Graph() and the text reader take


@dataclass(frozen=True, init=False, repr=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1, stored as its neighbour
    masks.  The constructor checks every edge: integer endpoints in range,
    no self-loop.  A repeated edge is stored once.  Equality and hash
    cover ``n`` and the masks."""

    __slots__ = ("n", "_masks")
    n: int
    _masks: tuple

    def __init__(self, n: int, edges=()):
        _require_int(n, "vertex count")
        _check_capacity(n)
        masks = [0] * n
        for u, v in edges:
            # Plain ints pass on the type test; ``_is_int`` runs only for
            # other endpoint types.
            if not (type(u) is type(v) is int or _is_int(u) and _is_int(v)):
                raise DomainError(f"non-integer endpoints in edge ({u!r}, {v!r})")
            if u == v:
                raise DomainError(f"self-loop at vertex {_shown(u)}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({_shown(u)}, {_shown(v)}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._set(masks)

    @classmethod
    def _from_masks(cls, masks) -> Graph:
        """Graph with the given neighbour masks, unchecked: the caller
        guarantees the masks are symmetric, loop-free and below 1 << n.
        This module's text reader and transformations,
        ``cnf.x3sat_to_graph``, copy and pickle call it."""
        g = object.__new__(cls)
        g._set(masks)
        return g

    def _set(self, masks):
        object.__setattr__(self, "n", len(masks))
        object.__setattr__(self, "_masks", tuple(masks))

    @property
    def edges(self) -> tuple:
        """Ascending (u, v) pairs with u < v, derived from the neighbour
        masks on each read."""
        return _edges_of(self._masks)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def __reduce__(self):
        # copy and pickle rebuild the graph from its masks: the default
        # reduction restores slots by assignment, which a frozen class refuses.
        return (Graph._from_masks, (self._masks,))

    def neighbor_masks(self) -> tuple:
        """Per-vertex adjacency bitmasks, the graph's stored form."""
        return self._masks

    def neighbors(self, v: int) -> tuple:
        self._check_vertex(v)
        mask = self.neighbor_masks()[v]
        return tuple(i for i in range(self.n) if mask >> i & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.neighbor_masks()[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.neighbor_masks()[u] >> v & 1)

    def _check_vertex(self, v: int):
        if not _is_int(v) or not 0 <= v < self.n:
            raise DomainError(f"invalid vertex id {_shown(v, str)} for n={self.n}")

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def _check_capacity(n: int):
    if n > MAX_VERTICES:
        raise CapacityError(f"{_shown(n)} vertices exceed the bound MAX_VERTICES = {MAX_VERTICES}")


def _edges_of(masks) -> tuple:
    """The ascending (u, v), u < v, of the graph with these neighbour masks."""
    return tuple((u, v) for u, nbrs in enumerate(masks) for v in _vertices_of(nbrs & -(2 << u)))


def complete_graph(n: int) -> Graph:
    _require_int(n, "vertex count")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    _require_int(n, "vertex count")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _require_int(n, "cycle length", 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _clone_multiset(entries) -> tuple:
    """A clone multiset S as its entries sorted ascending: non-empty, as an
    S-clone keeps |S| >= 1 clones of each vertex (k_clone's k >= 1), and
    each entry checked to be an int >= 0 before the sort compares them."""
    entries = tuple(entries)
    if not entries:
        raise DomainError("empty clone multiset")
    for s in entries:
        _require_int(s, "clone multiset entry")
    return tuple(sorted(entries))


def s_clone(g: Graph, spec) -> Graph:
    """Replace each vertex by |S| mutually non-adjacent clones, join clones of
    adjacent vertices completely, and hang a pendant path of length s on the
    clone indexed by each s in the multiset ``spec`` (any iterable of ints
    >= 0).  See the module docstring for the numbering.
    """
    spec = _clone_multiset(spec)
    size = len(spec)
    block = size + sum(spec)
    # One block's own adjacency, relative to the block's first vertex: a
    # clone is joined to the first vertex of its path, and each path
    # vertex to its predecessor and successor.
    heads = []
    chains = []
    start = size
    for i, s in enumerate(spec):
        heads.append(1 << start if s else 0)
        prev = i
        for v in range(start, start + s):
            chains.append(1 << prev | (2 << v if v < start + s - 1 else 0))
            prev = v
        start += s
    clones = [((1 << size) - 1) << b * block for b in range(g.n)]  # the clones of b
    masks = []
    for a, nbrs in enumerate(g.neighbor_masks()):
        base = a * block
        spread = 0
        for b in _vertices_of(nbrs):
            spread |= clones[b]
        masks += [spread | head << base for head in heads]
        masks += [chain << base for chain in chains]
    return Graph._from_masks(masks)


def s_clone_origin(spec, vertex: int) -> tuple:
    """Map an s_clone result vertex back to (original vertex, clone index,
    path position).  Path position 0 is the clone itself; position j >= 1 is
    the j-th vertex along its pendant path."""
    spec = _clone_multiset(spec)
    _require_int(vertex, "vertex id")
    size = len(spec)
    orig, r = divmod(vertex, size + sum(spec))
    if r < size:
        return (orig, r, 0)
    r -= size
    for i, s in enumerate(spec):
        if r < s:
            return (orig, i, r + 1)
        r -= s
    raise AssertionError("unreachable: block arithmetic exhausted")


def k_clone(g: Graph, k: int) -> Graph:
    """S-clone with S = {0,...,0} (k zeros): k pairwise non-adjacent copies
    of every vertex, complete bipartite between copies of adjacent vertices."""
    _require_int(k, "clone count", 1)
    return s_clone(g, [0] * k)


def attach_path(g: Graph, v: int, k: int) -> Graph:
    """Append a pendant path of length k rooted at vertex v.  The k new
    vertices are numbered n, n+1, ..., n+k-1 outward from v."""
    g._check_vertex(v)
    _require_int(k, "path length")
    if k == 0:
        return g
    masks = list(g.neighbor_masks()) + [0] * k
    prev = v
    for u in range(g.n, g.n + k):
        masks[prev] |= 1 << u
        masks[u] = 1 << prev
        prev = u
    return Graph._from_masks(masks)


def comb(g: Graph, k: int) -> Graph:
    """Attach k pendant leaves to every original vertex.  Leaf j of vertex v
    is numbered n + v*k + j, matching k rounds of attach_path(., v, 1) taken
    vertex-major."""
    _require_int(k, "leaf count")
    n = g.n
    run = (1 << k) - 1
    masks = [nbrs | run << n + v * k for v, nbrs in enumerate(g.neighbor_masks())]
    for v in range(n):
        masks += [1 << v] * k
    return Graph._from_masks(masks)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v and incident edges; vertices above v shift down by one."""
    g._check_vertex(v)

    masks = g.neighbor_masks()
    below = (1 << v) - 1  # bits above v move down one place, as the vertices do
    return Graph._from_masks([m & below | m >> v + 1 << v for m in masks[:v] + masks[v + 1:]])


def _vertices_of(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def clique_cover(g: Graph) -> tuple:
    """Greedy partition of V into cliques, as ascending vertex tuples.

    Each part starts at the remaining vertex of least remaining degree and
    grows by the candidate with the most neighbours among the other
    candidates, where a candidate is adjacent to every member so far (ties
    go to the lowest vertex).  An independent set meets each clique at most
    once, so the number of parts bounds alpha(G) and with it the degree of
    I(G; X).  Greedy, so not always a minimum cover."""
    masks = g.neighbor_masks()
    remaining = (1 << g.n) - 1
    parts = []
    while remaining:
        start = min(_vertices_of(remaining), key=lambda v: (masks[v] & remaining).bit_count())
        part = 1 << start
        candidates = masks[start] & remaining
        while candidates:
            v = max(_vertices_of(candidates), key=lambda u: (masks[u] & candidates).bit_count())
            part |= 1 << v
            candidates &= masks[v]
        parts.append(tuple(_vertices_of(part)))
        remaining &= ~part
    return tuple(parts)


def _clique_partition(g: Graph, parts) -> bool:
    """Whether ``parts`` partition V(G) into nonempty cliques: disjoint
    parts of vertex ids that cover V, each member's closed neighbourhood
    holding its whole part."""
    masks = g.neighbor_masks()
    seen = 0
    for part in parts:
        whole = 0
        closed = -1  # the members' common closed neighbourhood
        for v in part:
            if not (_is_int(v) and 0 <= v < g.n) or seen >> v & 1:
                return False
            seen |= 1 << v
            whole |= 1 << v
            closed &= masks[v] | 1 << v
        if not whole or whole & ~closed:
            return False
    return seen == (1 << g.n) - 1


def is_clique_cover(g: Graph, parts) -> bool:
    """Exact O(n^2) check that ``parts`` partitions V(G) into nonempty
    cliques: the parts are disjoint, they cover V, and every two members of
    a part are adjacent."""
    return _clique_partition(g, parts)


# ---------------------------------------------------------------------------
# Serialization: canonical text format and structured (JSON) format.
# ---------------------------------------------------------------------------

def graph_to_text(g: Graph) -> str:
    """Canonical text format: header "p is n m", then "e u v" with 1-based ids."""
    return _write_dimacs("is", g.n, [f"e {u + 1} {v + 1}" for u, v in g.edges])


def parse_graph_text(text: str) -> Graph:
    """Parse the canonical text format; rejects duplicate edges and self-loops."""
    n, declared_m, body = _read_dimacs(text, "is", GraphFormatError)
    _check_capacity(n)
    read = _token_reader(text)
    masks = [0] * n
    for lineno, tokens in body:
        if tokens[0] != "e":
            raise GraphFormatError(f"line {lineno}: unrecognized line {' '.join(tokens)!r}")
        if len(tokens) != 3:
            raise GraphFormatError(f"line {lineno}: malformed edge {' '.join(tokens)!r}")
        try:
            u, v = read(tokens[1]), read(tokens[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoints")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range 1..{n}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at {u}")
        if masks[u - 1] >> v - 1 & 1:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
        masks[u - 1] |= 1 << v - 1
        masks[v - 1] |= 1 << u - 1
    if declared_m != len(body):
        raise GraphFormatError(f"header declares {declared_m} edges but {len(body)} found")
    return Graph._from_masks(masks)


def graph_to_json_dict(g: Graph) -> dict:
    """Structured exchange format: {"n": int, "edges": [[u, v], ...]}, 0-based."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json_dict(obj) -> Graph:
    """Inverse of ``graph_to_json_dict``.  Checks the shape here and every
    vertex count and edge in ``Graph()``; rejects duplicate edges."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphFormatError("structured graph must be {\"n\": ..., \"edges\": [...]}")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError(f"edges must be a list, got {edges!r}")
    for item in edges:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise GraphFormatError(f"malformed edge entry {item!r}")
    try:
        g = Graph(obj["n"], edges)
    except DomainError as exc:
        raise GraphFormatError(str(exc)) from exc
    if g.edge_count != len(edges):
        seen = set()
        for u, v in edges:
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add(key)
    return g


def parse_graph(text: str) -> Graph:
    """Parse either supported format, sniffing JSON by a leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except ValueError as exc:  # JSONDecodeError, or an int past the int/str digit limit
            raise GraphFormatError(f"invalid JSON graph: {exc}") from exc
        return graph_from_json_dict(obj)
    return parse_graph_text(text)
