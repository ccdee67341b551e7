"""Defining graphs of Coxeter systems.

A graph is simplicial with integer edge labels m >= 2.  An *absent* edge means
the two generators have no relation (m = infinity), so a pair joined by an
edge labeled 2 commutes and a non-adjacent pair generates an infinite dihedral
group.  Vertex order is fixed at parse time (declaration order) and is used for
every lexicographic tie-break downstream, so two files with the same vertices
in a different order are different objects even when isomorphic.

Subsets of vertices are handled internally as bitmasks over the vertex order;
the public API speaks vertex names.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from .errors import GraphFormatError


class CoxeterGraph:
    """Immutable labeled defining graph.

    >>> g = parse_graph("v a; v b; v c; e a b 2; e b c 3")
    >>> g.vertices
    ('a', 'b', 'c')
    >>> g.label('a', 'b'), g.label('a', 'c')
    (2, None)
    """

    __slots__ = ("vertices", "_index", "n", "_m", "_adj", "_comm", "_hash",
                 "_subsets", "_engines")

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str, int]]):
        vertices = tuple(vertices)
        seen = set()
        for name in vertices:
            if name.split() != [name]:
                raise GraphFormatError(f"bad vertex name {name!r}")
            if name in seen:
                raise GraphFormatError(f"duplicate vertex {name!r}")
            seen.add(name)
        self.vertices = vertices
        self._index = {name: i for i, name in enumerate(vertices)}
        n = len(vertices)
        self.n = n
        m = [[None] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 1
        # adjacency masks: adj[i] = neighbours of i (any label);
        # comm[i] = vertices commuting with i (label exactly 2).
        adj = [0] * n
        comm = [0] * n
        for u, v, lab in edges:
            if u not in self._index or v not in self._index:
                missing = u if u not in self._index else v
                raise GraphFormatError(f"edge uses undeclared vertex {missing!r}")
            if u == v:
                raise GraphFormatError(f"self-loop at {u!r}")
            if not isinstance(lab, int) or lab < 2:
                raise GraphFormatError(f"edge label must be an integer >= 2, got {lab!r}")
            i, j = self._index[u], self._index[v]
            if m[i][j] is not None and m[i][j] != lab:
                raise GraphFormatError(
                    f"conflicting labels {m[i][j]} and {lab} for edge {u!r}-{v!r}")
            m[i][j] = m[j][i] = lab
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            if lab == 2:
                comm[i] |= 1 << j
                comm[j] |= 1 << i
        self._m = tuple(tuple(row) for row in m)
        self._adj = tuple(adj)
        self._comm = tuple(comm)
        self._hash = hash((self.vertices, self._m))
        # the coxwide.classification.SubsetTable, built on first use
        self._subsets = None
        # orbit cap -> coxwide.words.WordEngine, each built on first use
        self._engines = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, CoxeterGraph)
                and self.vertices == other.vertices and self._m == other._m)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CoxeterGraph({len(self.vertices)} vertices, {len(self.edge_list())} edges)"

    # -- basic queries ----------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphFormatError(f"unknown vertex {name!r}") from None

    def label(self, u: str, v: str) -> int | None:
        """Edge label, or None when the pair is non-adjacent (m = infinity)."""
        i, j = self.index(u), self.index(v)
        if i == j:
            raise GraphFormatError(f"label of a vertex with itself is undefined ({u!r})")
        return self._m[i][j]

    def m(self, i: int, j: int) -> int | None:
        """Index-space label lookup (None = infinity)."""
        return self._m[i][j]

    def edge_list(self) -> list[tuple[str, str, int]]:
        """Edges as (u, v, m) with u before v in vertex order, sorted."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self._m[i][j] is not None:
                    out.append((self.vertices[i], self.vertices[j], self._m[i][j]))
        return out

    def neighbors_mask(self, i: int) -> int:
        return self._adj[i]

    def commuting_mask(self, i: int) -> int:
        return self._comm[i]

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in bits(mask))

    def is_racg(self) -> bool:
        """True when every edge is labeled 2 (right-angled system): each
        vertex commutes with all of its neighbours."""
        return self._adj == self._comm

    def max_label(self) -> int:
        """Largest edge label; 2 for an edgeless graph by convention."""
        if self.is_racg():
            return 2
        return max((2, *(lab for row in self._m for lab in row if lab)))

    # -- derived graphs ---------------------------------------------------

    def induced(self, names: Iterable[str]) -> "CoxeterGraph":
        """Induced subgraph on the given vertices, preserving vertex order."""
        keep = set(names)
        unknown = keep - set(self.vertices)
        if unknown:
            raise GraphFormatError(f"unknown vertices {sorted(unknown)!r}")
        verts = [v for v in self.vertices if v in keep]
        edges = [(u, v, lab) for u, v, lab in self.edge_list() if u in keep and v in keep]
        return CoxeterGraph(verts, edges)

    # -- irreducible components -------------------------------------------

    def noncommuting_mask(self, i: int) -> int:
        """Vertices j != i that do not commute with i (non-adjacent or label != 2)."""
        return self.full_mask() & ~self._comm[i] & ~(1 << i)

    def irreducible_components_mask(self, mask: int | None = None) -> list[int]:
        """Connected components of the non-commuting relation inside ``mask``.

        Two generators are linked when they are non-adjacent or joined by an
        edge labeled >= 3.  Components are returned sorted by least vertex.
        """
        world = self.full_mask() if mask is None else mask
        comm = self._comm
        comps = []
        todo = world
        while todo:
            comp = frontier = todo & -todo
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= ~comm[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & world & ~comp
                comp |= frontier
            comps.append(comp)
            todo &= ~comp
        return comps

    def irreducible_components(self, names: Iterable[str] | None = None
                               ) -> list[tuple[str, ...]]:
        mask = None if names is None else self.mask_of(names)
        return [self.names_of(c) for c in self.irreducible_components_mask(mask)]

    # -- plain-graph connectivity (edges = adjacency, any label) -----------

    def connected_within(self, mask: int) -> bool:
        """Is the induced subgraph on ``mask`` connected (empty = connected)?"""
        return mask == 0 or self.component_of(lowest_bit(mask), mask) == mask

    def component_of(self, start: int, mask: int) -> int:
        """Connected component (ordinary adjacency) of ``start`` inside ``mask``."""
        adj = self._adj
        seen = frontier = 1 << start
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & mask & ~seen
            seen |= frontier
        return seen

    def components_within(self, mask: int) -> list[int]:
        comps = []
        todo = mask
        while todo:
            c = self.component_of(lowest_bit(todo), mask)
            comps.append(c)
            todo &= ~c
        return comps

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text serialization: vertices in order, then sorted edges."""
        lines = [f"v {name}" for name in self.vertices]
        lines += [f"e {u} {v} {m}" for u, v, m in self.edge_list()]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json_obj(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [[u, v, m] for u, v, m in self.edge_list()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


# ---------------------------------------------------------------------------
# bit helpers


def bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def popcount(mask: int) -> int:
    return mask.bit_count()


def submasks(mask: int):
    """All submasks of ``mask`` including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# parsing


def parse_graph(text: str) -> CoxeterGraph:
    """Parse a graph from text or JSON.

    Text format: statements separated by newlines or ';'.  ``v <name>``
    declares a vertex, ``e <u> <v> <m>`` an edge with integer label m >= 2,
    ``#`` starts a comment.  The JSON alternative is
    ``{"vertices": [...], "edges": [[u, v, m], ...]}``.

    >>> parse_graph('{"vertices": ["a", "b"], "edges": [["a", "b", 4]]}').label('a', 'b')
    4
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    vertices: list[str] = []
    edges: list[tuple[str, str, int]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        for stmt in raw_line.split(";"):
            stmt = stmt.split("#", 1)[0].strip()
            if not stmt:
                continue
            parts = stmt.split()
            if parts[0] == "v":
                if len(parts) != 2:
                    raise GraphFormatError(f"line {lineno}: bad vertex statement {stmt!r}")
                vertices.append(parts[1])
            elif parts[0] == "e":
                if len(parts) != 4:
                    raise GraphFormatError(f"line {lineno}: bad edge statement {stmt!r}")
                try:
                    lab = int(parts[3])
                except ValueError:
                    raise GraphFormatError(
                        f"line {lineno}: edge label {parts[3]!r} is not an integer") from None
                edges.append((parts[1], parts[2], lab))
            else:
                raise GraphFormatError(f"line {lineno}: unknown statement {stmt!r}")
    return CoxeterGraph(vertices, edges)


def _parse_json(text: str) -> CoxeterGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"bad JSON graph: {exc}") from None
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise GraphFormatError("JSON graph must be an object with a 'vertices' key")
    vertices = obj["vertices"]
    edges_raw = obj.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphFormatError("'vertices' must be a list of strings")
    if not isinstance(edges_raw, list):
        raise GraphFormatError("'edges' must be a list of [u, v, m] entries")
    edges = []
    for item in edges_raw:
        if not (isinstance(item, list) and len(item) == 3):
            raise GraphFormatError(f"bad edge entry {item!r}")
        u, v, lab = item
        if not (isinstance(u, str) and isinstance(v, str)):
            raise GraphFormatError(f"edge endpoints must be vertex names, got {item!r}")
        if not isinstance(lab, int):
            raise GraphFormatError(f"edge label {lab!r} is not an integer")
        edges.append((u, v, lab))
    return CoxeterGraph(vertices, edges)
