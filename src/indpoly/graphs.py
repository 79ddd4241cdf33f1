"""Finite simple undirected graphs and the clone/path/comb transformations.

A graph is its vertex count n and one neighbour bitmask per vertex: bit u
of vertex v's mask is set when uv is an edge.  Vertices are the integers
0..n-1; the sorted edge list is derived from the masks when first read.
All graphs are immutable: transformations return new graphs.

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

from .errors import DomainError, GraphFormatError


class Graph:
    """Simple undirected graph on vertices 0..n-1, stored as its neighbour
    masks.  The constructor checks every edge: integer endpoints in range,
    no self-loop.  A repeated edge is stored once."""

    __slots__ = ("n", "_edges", "_masks")

    def __init__(self, n: int, edges=()):
        if not _is_int(n):
            raise DomainError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise DomainError(f"negative vertex count {n}")
        masks = [0] * n
        for u, v in edges:
            # Plain ints pass on the type test; ``_is_int`` runs only for
            # other endpoint types.
            if not (type(u) is type(v) is int or _is_int(u) and _is_int(v)):
                raise DomainError(f"non-integer endpoints in edge ({u!r}, {v!r})")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._set(masks)

    @classmethod
    def _from_masks(cls, masks) -> Graph:
        """Graph with the given neighbour masks, unchecked: the caller
        guarantees the masks are symmetric, loop-free and below 1 << n.
        This module's transformations and ``cnf.x3sat_to_graph`` call it."""
        g = object.__new__(cls)
        g._set(masks)
        return g

    def _set(self, masks):
        object.__setattr__(self, "n", len(masks))
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> tuple:
        """Ascending (u, v) pairs with u < v, derived from the neighbour
        masks on first use."""
        edges = self._edges
        if edges is None:
            edges = _edges_of(self._masks)
            object.__setattr__(self, "_edges", edges)
        return edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
            raise DomainError(f"invalid vertex id {v} for n={self.n}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.neighbor_masks() == other.neighbor_masks()

    def __hash__(self):
        return hash((self.n, self.neighbor_masks()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _edges_of(masks) -> tuple:
    """The ascending (u, v), u < v, of the graph with these neighbour masks."""
    return tuple((u, v) for u, nbrs in enumerate(masks) for v in _vertices_of(nbrs & -(2 << u)))


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _is_int(value) -> bool:
    """The package's rule for an integer argument: any int but a bool.
    bool is an int subclass, so True would pass as 1 (and JSON true/false
    load as bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


class CloneSpec:
    """Finite multiset of nonnegative integers, kept sorted ascending.

    ``size`` is the number of clones per original vertex; ``total`` is the
    summed pendant-path length per original vertex.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        items = tuple(sorted(entries))
        for s in items:
            if not _is_int(s) or s < 0:
                raise DomainError(f"clone multiset entries must be ints >= 0, got {s!r}")
        object.__setattr__(self, "entries", items)

    def __setattr__(self, name, value):
        raise AttributeError("CloneSpec is immutable")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)

    @property
    def block(self) -> int:
        """Result vertices per original vertex under s_clone."""
        return self.total + self.size

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, CloneSpec):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CloneSpec({list(self.entries)})"


def s_clone(g: Graph, spec: CloneSpec) -> Graph:
    """Replace each vertex by |S| mutually non-adjacent clones, join clones of
    adjacent vertices completely, and hang a pendant path of length s on the
    clone indexed by each s in S.  See the module docstring for the numbering.
    """
    if not isinstance(spec, CloneSpec):
        spec = CloneSpec(spec)
    block = spec.block
    size = spec.size
    # One block's own adjacency, relative to the block's first vertex: a
    # clone is joined to the first vertex of its path, and each path
    # vertex to its predecessor and successor.
    heads = []
    chains = []
    start = size
    for i, s in enumerate(spec.entries):
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


def s_clone_origin(spec: CloneSpec, vertex: int) -> tuple:
    """Map an s_clone result vertex back to (original vertex, clone index,
    path position).  Path position 0 is the clone itself; position j >= 1 is
    the j-th vertex along its pendant path."""
    if not isinstance(spec, CloneSpec):
        spec = CloneSpec(spec)
    if not _is_int(vertex) or vertex < 0:
        raise DomainError(f"invalid vertex id {vertex!r}")
    block = spec.block
    orig, r = divmod(vertex, block)
    if r < spec.size:
        return (orig, r, 0)
    r -= spec.size
    for i, s in enumerate(spec.entries):
        if r < s:
            return (orig, i, r + 1)
        r -= s
    raise AssertionError("unreachable: block arithmetic exhausted")


def k_clone(g: Graph, k: int) -> Graph:
    """S-clone with S = {0,...,0} (k zeros): k pairwise non-adjacent copies
    of every vertex, complete bipartite between copies of adjacent vertices."""
    if not _is_int(k) or k < 1:
        raise DomainError(f"clone count must be an integer >= 1, got {k!r}")
    return s_clone(g, CloneSpec([0] * k))


def attach_path(g: Graph, v: int, k: int) -> Graph:
    """Append a pendant path of length k rooted at vertex v.  The k new
    vertices are numbered n, n+1, ..., n+k-1 outward from v."""
    g._check_vertex(v)
    if not _is_int(k) or k < 0:
        raise DomainError(f"path length must be an integer >= 0, got {k!r}")
    if k == 0:
        return g
    edges = list(g.edges)
    prev = v
    for j in range(k):
        edges.append((prev, g.n + j))
        prev = g.n + j
    return Graph(g.n + k, edges)


def comb(g: Graph, k: int) -> Graph:
    """Attach k pendant leaves to every original vertex.  Leaf j of vertex v
    is numbered n + v*k + j, matching k rounds of attach_path(., v, 1) taken
    vertex-major."""
    if not _is_int(k) or k < 0:
        raise DomainError(f"leaf count must be an integer >= 0, got {k!r}")
    n = g.n
    run = (1 << k) - 1
    masks = [nbrs | run << n + v * k for v, nbrs in enumerate(g.neighbor_masks())]
    for v in range(n):
        masks += [1 << v] * k
    return Graph._from_masks(masks)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v and incident edges; vertices above v shift down by one."""
    g._check_vertex(v)

    def renum(u):
        return u if u < v else u - 1

    edges = [(renum(a), renum(b)) for a, b in g.edges if v not in (a, b)]
    return Graph(g.n - 1, edges)


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


def is_clique_cover(g: Graph, parts) -> bool:
    """Exact O(n^2) check that ``parts`` partitions V(G) into nonempty
    cliques: the parts are disjoint, they cover V, and every two members of
    a part are adjacent."""
    masks = g.neighbor_masks()
    seen = 0
    for part in parts:
        if not part:
            return False
        whole = 0
        for v in part:
            if not (_is_int(v) and 0 <= v < g.n) or seen >> v & 1:
                return False
            seen |= 1 << v
            whole |= 1 << v
        for v in part:  # v is adjacent to every other member
            if whole & ~masks[v] != 1 << v:
                return False
    return seen == (1 << g.n) - 1


# ---------------------------------------------------------------------------
# Serialization: canonical text format and structured (JSON) format.
# ---------------------------------------------------------------------------

def graph_to_text(g: Graph) -> str:
    """Canonical text format: header "p is n m", then "e u v" with 1-based ids."""
    lines = [f"p is {g.n} {len(g.edges)}"]
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    """Parse the canonical text format; rejects duplicate edges and self-loops."""
    n = None
    declared_m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "is":
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header fields")
            if n < 0 or declared_m < 0:
                raise GraphFormatError(f"line {lineno}: negative header counts")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer endpoints")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: endpoint out of range 1..{n}")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add(key)
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError("missing header line \"p is n m\"")
    if declared_m != len(edges):
        raise GraphFormatError(
            f"header declares {declared_m} edges but {len(edges)} found"
        )
    return Graph(n, edges)


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
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON graph: {exc}") from exc
        return graph_from_json_dict(obj)
    return parse_graph_text(text)
