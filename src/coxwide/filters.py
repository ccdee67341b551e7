"""Filters: unbounded van-Kampen diagrams spanning two geodesic rays, built
level by level out of fans, plus the multi-tail variant gluing filters along
a connecting geodesic.

Shape of the construction.  Round 1 builds a fan at the basepoint between the
first edges of the two rays.  Every fan lays down dihedral polygon cells
between consecutive fan edges; each cell has a left side (lambda, starting
with the left bounding fan edge) and a right side (rho, starting with the
right one), meeting at the cell's top vertex.  New edges fill "outgoing
slots":  an alpha edge fills the left slot of its source, a beta edge the
right slot, a non-first lambda edge the right slot, a non-first rho edge the
left slot.  A vertex with both slots filled is an apex-in-waiting: the next
round builds the fan at it, with the slot edges as left and right fan edges
and the spanning-tree path from the basepoint as base word.  Top vertices of
cells collect their two slots from the two fans marching up their sides, so
they are seeded exactly once even though two fans touch them.

The spanning tree is everything except the top-left edges (last edge of each
lambda); it is an out-tree rooted at the basepoint, and every vertex except
cell tops has exactly one incoming edge.  An edge's class --- L, R or I ---
is its role in the fan at its startpoint, assigned when that fan is built;
edges whose startpoint never got its fan (the truncation frontier) stay
unclassified and their startpoints are marked open.

Work per distinct element.  A truncated filter repeats a few group elements
over thousands of vertices, so building and checking do their expensive
work once per distinct word.  The fan at a vertex depends only on its tree
word and its two slot letters, so ``build_filter`` keeps one memo per call
from (tree word, left letter, right letter) to the fan: a pure cache,
dropped when the build returns.  ``check_filter`` encodes and normalizes
each distinct vertex element once, checks each distinct (base, labels,
case) fan record once, and tests an edge u -> v with letter a as
``step(canon[u], a) == canon[v]`` when u's word is geodesic, where
``step(c, a)`` is the canonical form of c times a if that is longer than c,
kept in a (canonical form, letter) memo.  This agrees with normalizing u's
word plus a from scratch on every edge: when the word is geodesic, both
compute the canonical form of u's element times a; when it is not, both
fail the length test.  The rooted paths, enumerated and sampled, are tested
the same way, one ``step`` per letter through the shared memo: each letter
changes the length by one, so a word is geodesic exactly when every step
lengthens it.  The checker takes nothing from the builder.

Columns.  A filter's vertices and edges stay in columns, one tuple per
record field, from the builder to the JSON: ``FilterDiagram.vertices`` and
``.edges`` of a built filter are read-only sequences that build a
``FilterVertex`` or ``FilterEdge`` when an item is read and keep none, and
that compare, hash, print, concatenate, slice and pickle as the tuple of
those records would.  Every vertex with the same tree word shares one
decoded word.  ``to_json_obj``, ``to_dot`` and ``check_filter`` read the
columns; a diagram built by hand from tuples of records is first zipped
into columns, so both kinds take one path after that.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .classification import compute_constants, subset_table
from .errors import ConstructionError, Record, SizeCapError, verify
from .fans import _build_fan, _fan_failures
from .graphs import CoxeterGraph
from .words import (Word, engine_for, extend_geodesic, _encode_geodesic,
                    _wide_suffix, DEFAULT_ORBIT_CAP)

VERTEX_CAP = 500_000  # ``build_filter`` starts no fan past this many vertices
SAMPLE_LEN = 40  # letters in each of ``check_filter``'s sampled walks


class FilterVertex(Record):
    __slots__ = ("element",  # Word: geodesic tree-path word from the basepoint
                 "level",    # int: construction round that created it (0 = boundary)
                 "is_top",   # bool: top vertex of a polygon
                 "open")     # bool: outgoing structure incomplete (no fan built here)

    def to_json_obj(self) -> dict:
        return {"element": " ".join(self.element), "level": self.level,
                "is_top": self.is_top, "open": self.open}


class FilterEdge(Record):
    __slots__ = ("src",       # int
                 "tgt",       # int
                 "label",     # str
                 "cls",       # 'L' | 'R' | 'I' | None (frontier)
                 "top_left",  # bool: removed from the spanning tree
                 "boundary")  # 'alpha' | 'beta' | None

    def to_json_obj(self) -> dict:
        return {"src": self.src, "tgt": self.tgt, "label": self.label,
                "class": self.cls, "top_left": self.top_left,
                "boundary": self.boundary}


class FilterCell(Record):
    __slots__ = ("fan",    # int: owning fan index
                 "lam",    # tuple[int, ...]: left-side edge ids, fan edge first
                 "rho",    # tuple[int, ...]: right-side edge ids, fan edge first
                 "cycle")  # tuple[int, ...]: polygon vertices: apex, up lambda, down rho

    def to_json_obj(self) -> dict:
        return {"fan": self.fan, "lambda": list(self.lam),
                "rho": list(self.rho), "cycle": list(self.cycle)}


class FilterFan(Record):
    __slots__ = ("level",     # int
                 "apex",      # int
                 "base",      # Word
                 "labels",    # tuple[str, ...]
                 "edge_ids",  # tuple[int, ...]
                 "cell_ids",  # tuple[int, ...]
                 "case")      # str

    def to_json_obj(self) -> dict:
        return {"level": self.level, "apex": self.apex,
                "base": " ".join(self.base), "labels": list(self.labels),
                "edges": list(self.edge_ids), "cells": list(self.cell_ids),
                "case": self.case}


class _Rows(Sequence):
    """A read-only sequence of ``kind`` records kept as ``cols``, one tuple
    per field of ``kind`` in slot order.  Reading an item builds its record
    and keeps none.  Equality, hash, repr, ``+``, slicing, ``index``,
    pickling and copying behave as on the tuple of the records."""
    __slots__ = ("kind", "cols")

    def __init__(self, kind, cols: tuple):
        self.kind = kind
        self.cols = cols

    def __len__(self) -> int:
        return len(self.cols[0])

    def __getitem__(self, i):
        if i.__class__ is slice:
            return tuple(map(self.kind, *[c[i] for c in self.cols]))
        return self.kind(*[c[i] for c in self.cols])

    def __iter__(self):
        return map(self.kind, *self.cols)

    def __eq__(self, other):
        if other.__class__ is _Rows and other.kind is self.kind:
            return other.cols == self.cols
        if other.__class__ is _Rows or other.__class__ is tuple:
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        # a record hashes as the tuple of its field values
        return hash(tuple(zip(*self.cols)))

    def __repr__(self):
        return repr(tuple(self))

    def __add__(self, other):
        if other.__class__ is _Rows or other.__class__ is tuple:
            return tuple(self) + tuple(other)
        return NotImplemented

    def __radd__(self, other):
        if other.__class__ is tuple:
            return other + tuple(self)
        return NotImplemented

    def __reduce__(self):
        return _Rows, (self.kind, self.cols)


def _columns(rows, kind) -> tuple:
    """The field columns of ``rows``, a sequence of ``kind`` records: a
    view's own, else the records' fields zipped into tuples."""
    if rows.__class__ is _Rows:
        return rows.cols
    return tuple([tuple([getattr(r, name) for r in rows])
                  for name in kind.__slots__])


class FilterDiagram(Record):
    """Field order in JSON output is fixed: alpha, beta, depth, vertices,
    edges, cells, fans.  Vertex 0 is the basepoint.  The constructor takes
    tuples of records; a built filter's ``vertices`` and ``edges`` are
    read-only views of columns (see the module docstring)."""
    __slots__ = ("alpha",     # Word
                 "beta",      # Word
                 "depth",     # int
                 "vertices",  # Sequence[FilterVertex]
                 "edges",     # Sequence[FilterEdge]
                 "cells",     # tuple[FilterCell, ...]
                 "fans")      # tuple[FilterFan, ...]

    def to_json_obj(self) -> dict:
        elem, level, is_top, open_ = _columns(self.vertices, FilterVertex)
        return {"alpha": " ".join(self.alpha), "beta": " ".join(self.beta),
                "depth": self.depth,
                "vertices": [{"element": " ".join(w), "level": lv,
                              "is_top": t, "open": o}
                             for w, lv, t, o in zip(elem, level, is_top,
                                                    open_)],
                "edges": [{"src": s, "tgt": t, "label": a, "class": c,
                           "top_left": tl, "boundary": b}
                          for s, t, a, c, tl, b in zip(
                              *_columns(self.edges, FilterEdge))],
                "cells": [c.to_json_obj() for c in self.cells],
                "fans": [f.to_json_obj() for f in self.fans]}

    def to_dot(self) -> str:
        colors = {"L": "blue", "R": "red", "I": "forestgreen", None: "gray"}
        lines = ["digraph filter {", "  rankdir=BT;",
                 "  node [shape=point, width=0.06];"]
        elem, _, is_top, open_ = _columns(self.vertices, FilterVertex)
        for i, w, t, o in zip(range(len(elem)), elem, is_top, open_):
            shape = "circle" if t else "point"
            extra = ', color="orange"' if o else ""
            lines.append(f'  n{i} [shape={shape}, width=0.06{extra}, '
                         f'tooltip="{" ".join(w)}"];')
        for s, t, a, c, tl, b in zip(*_columns(self.edges, FilterEdge)):
            style = "dashed" if tl else "solid"
            pen = ", penwidth=2.0" if b else ""
            lines.append(f'  n{s} -> n{t} [label="{a}", style={style}, '
                         f'color="{colors[c]}"{pen}];')
        lines.append("}")
        return "\n".join(lines)


class _Builder:
    """The state of one ``build_filter`` call, kept in columns.  Vertex i
    has its encoded tree word ``elem[i]``, ``level[i]``, ``is_top[i]`` and
    the ids of the edges filling its slots, ``left[i]`` and ``right[i]``
    (None while unfilled).  Edge i is ``src[i]``, ``tgt[i]``, ``lab[i]``,
    ``cls[i]``, ``top_left[i]`` and ``boundary[i]``.  ``fan_memo`` maps
    (tree word, left letter, right letter) to what ``_build_fan`` returned
    for them; it lives as long as the build."""

    def __init__(self, g: CoxeterGraph, orbit_cap: int):
        self.g = g
        self.eng = engine_for(g, orbit_cap)
        self.elem: list[tuple[int, ...]] = [()]     # vertex 0, the basepoint
        self.level = [0]
        self.is_top = [False]
        self.left: list[int | None] = [None]
        self.right: list[int | None] = [None]
        self.src: list[int] = []
        self.tgt: list[int] = []
        self.lab: list[int] = []
        self.cls: list[str | None] = []
        self.top_left: list[bool] = []
        self.boundary: list[str | None] = []
        self.pending_next: list[int] = []
        self.built: set[int] = set()
        self.cells: list[FilterCell] = []
        self.fans: list[FilterFan] = []
        self.fan_memo: dict = {}

    def add_vertex(self, tree_word: tuple[int, ...], level: int,
                   is_top: bool = False) -> int:
        self.elem.append(tree_word)
        self.level.append(level)
        self.is_top.append(is_top)
        self.left.append(None)
        self.right.append(None)
        return len(self.elem) - 1

    def add_edge(self, src: int, tgt: int, lab: int, cls: str | None = None,
                 top_left: bool = False, boundary: str | None = None) -> int:
        if not top_left:
            # tree edge: the target's tree word runs through it
            verify(self.elem[tgt] == self.elem[src] + (lab,),
                   "tree edge does not extend its source's tree word")
        self.src.append(src)
        self.tgt.append(tgt)
        self.lab.append(lab)
        self.cls.append(cls)
        self.top_left.append(top_left)
        self.boundary.append(boundary)
        return len(self.src) - 1

    def lay_path(self, cur: int, letters, level: int, slot: list,
                 other: list, top: int | None = None,
                 boundary: str | None = None) -> list[int]:
        """Edges spelling ``letters`` up from vertex ``cur``, each to a new
        vertex and filling the ``slot`` column (``left`` or ``right``) at
        its source, which is complete once its ``other`` slot is filled
        too.  Returns the edge ids.  The last step of a cell side ends at
        the cell's ``top``: the left side makes it, through a top-left
        edge, and the right side reaches it again, so that its tree word
        runs through the right side."""
        elem = self.elem
        pend = self.pending_next.append
        last = len(letters) - 1
        ids = []
        for j, x in enumerate(letters):
            if j == last and top is not None and top < len(elem):
                elem[top] = elem[cur] + (x,)
                v, top_left = top, False
            else:
                top_left = j == last and top is not None
                v = self.add_vertex(elem[cur] + (x,), level, top_left)
            e = self.add_edge(cur, v, x, None, top_left, boundary)
            verify(slot[cur] is None, "slot filled twice")
            slot[cur] = e
            if other[cur] is not None:
                pend(cur)
            ids.append(e)
            cur = v
        return ids

    def lay_boundary(self, word: Word, which: str) -> None:
        slot, other = ((self.left, self.right) if which == "alpha"
                       else (self.right, self.left))
        self.lay_path(0, self.eng.encode(word), 0, slot, other,
                      boundary=which)

    def lay_cell(self, fan_idx: int, e_left: int, e_right: int, level: int):
        """Polygon between consecutive fan edges; returns the cell id."""
        tgt, lab = self.tgt, self.lab
        s, t = lab[e_left], lab[e_right]
        m = self.g.m(s, t)
        verify(m is not None, "fan letters of a cell must be adjacent")
        top = len(self.elem) + m - 2        # the left side's last new vertex
        lam = [e_left] + self.lay_path(
            tgt[e_left], [(t, s)[j % 2] for j in range(m - 1)], level,
            self.right, self.left, top)
        rho = [e_right] + self.lay_path(
            tgt[e_right], [(s, t)[j % 2] for j in range(m - 1)], level,
            self.left, self.right, top)
        cycle = ((self.src[e_left],) + tuple([tgt[e] for e in lam])
                 + tuple([tgt[e] for e in reversed(rho[:-1])]))
        self.cells.append(FilterCell(fan_idx, tuple(lam), tuple(rho), cycle))
        return len(self.cells) - 1

    def build_fan_at(self, v: int, level: int) -> None:
        x, y = self.left[v], self.right[v]
        elem = self.elem
        s, t = self.lab[x], self.lab[y]
        key = (elem[v], s, t)
        hit = self.fan_memo.get(key)
        if hit is None:
            hit = self.fan_memo[key] = _build_fan(self.g, self.eng, elem[v],
                                                  s, t)
        fan, labels = hit
        verify(labels[0] == s and labels[-1] == t,
               "fan does not run from the slot letters")
        edge_ids = [x]
        for a in labels[1:-1]:
            u = self.add_vertex(elem[v] + (a,), level)
            edge_ids.append(self.add_edge(v, u, a, "I"))
        edge_ids.append(y)
        self.cls[x] = "L"
        self.cls[y] = "R"
        fan_idx = len(self.fans)
        cell_ids = tuple([
            self.lay_cell(fan_idx, edge_ids[i], edge_ids[i + 1], level)
            for i in range(len(edge_ids) - 1)])
        self.fans.append(FilterFan(level, v, fan.base, fan.labels,
                                   tuple(edge_ids), cell_ids, fan.case))
        self.built.add(v)

    def finish(self, alpha: Word, beta: Word, depth: int) -> FilterDiagram:
        """The diagram, its vertices and edges in columns; vertices with
        the same tree word share one decoded word."""
        decode = self.eng.decode
        words = dict.fromkeys(self.elem)
        for w in words:
            words[w] = decode(w)
        built = self.built
        vertices = _Rows(FilterVertex, (
            tuple(map(words.__getitem__, self.elem)), tuple(self.level),
            tuple(self.is_top),
            tuple([i not in built for i in range(len(self.elem))])))
        edges = _Rows(FilterEdge, (
            tuple(self.src), tuple(self.tgt),
            tuple(map(self.g.vertices.__getitem__, self.lab)),
            tuple(self.cls), tuple(self.top_left), tuple(self.boundary)))
        return FilterDiagram(alpha, beta, depth, vertices, edges,
                             tuple(self.cells), tuple(self.fans))


def build_filter(g: CoxeterGraph, alpha: Word, beta: Word, depth: int,
                 orbit_cap: int = DEFAULT_ORBIT_CAP) -> FilterDiagram:
    """Truncated filter spanning the geodesic words alpha and beta.

    ``depth`` is the number of fan rounds.  The words must be geodesic,
    non-empty, and diverge immediately (distinct first letters); a shared
    first edge would collapse the two boundary rays.
    """
    if not alpha or not beta:
        raise ConstructionError("boundary rays must be non-empty",
                                blocking_set=frozenset())
    if alpha[0] == beta[0]:
        raise ConstructionError(
            "boundary rays share their first edge; the diagram degenerates",
            blocking_set=frozenset({alpha[0]}))
    _encode_geodesic(g, alpha, orbit_cap)
    _encode_geodesic(g, beta, orbit_cap)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    b = _Builder(g, orbit_cap)
    b.lay_boundary(alpha, "alpha")
    b.lay_boundary(beta, "beta")
    for level in range(1, depth + 1):
        todo, b.pending_next = sorted(b.pending_next), []
        for v in todo:
            if len(b.elem) > VERTEX_CAP:
                raise SizeCapError(VERTEX_CAP,
                                   f"filter exceeds {VERTEX_CAP} vertices")
            b.build_fan_at(v, level)
    return b.finish(alpha, beta, depth)


# ---------------------------------------------------------------------------
# verification


class FilterCheck(Record):
    __slots__ = ("ok",        # bool
                 "failures",  # tuple[str, ...]
                 "stats")     # dict


def itinerary_bounds(g: CoxeterGraph) -> tuple[int, int, int, int]:
    """The itinerary bounds (Q, L, N, R) that ``check_filter`` applies to
    the wide windows of directed spanning-tree paths.

    Q = M + V + 1 bounds the I-edges and the LR-subpaths of a window; an
    L-run inside an off-boundary window must stay shorter than
    L = R(M + V + 2); an off-boundary window may be at most N long (see
    ``itinerary_cap``); an off-boundary R-run at most R long.
    """
    c = compute_constants(g)
    q = c.m_gamma + c.v_gamma + 1
    l_cap = c.r_gamma * (c.m_gamma + c.v_gamma + 2)
    return q, l_cap, 2 * q * (l_cap + c.r_gamma) + 3 * q, c.r_gamma


def itinerary_cap(g: CoxeterGraph) -> int:
    """Largest possible length of a directed spanning-tree path, off the
    boundary rays, whose label set sits inside a wide subgraph.

    With Q = M + V + 1 (the I-edge and LR-subpath bound) and the run bounds
    R(M + V + 2) for L and R for R, splitting such a path at its I-edges and
    LR-subpaths leaves a run of length at least (len - 3Q) / 2Q - R, which is
    capped by the L-run bound; solving gives 2Q(R(M+V+2) + R) + 3Q.
    """
    return itinerary_bounds(g)[2]


def _id_failures(n: int, src: tuple[int, ...], tgt: tuple[int, ...],
                 cells: tuple[FilterCell, ...], fans: tuple[FilterFan, ...]
                 ) -> list[str]:
    """A failure for each vertex id and edge id, among the edges ``src``
    -> ``tgt`` and the ``cells`` and ``fans`` of a filter with ``n``
    vertices, that names no vertex or edge, and for a filter with no
    basepoint or a fan with no edges: every later check indexes by them."""
    m = len(src)
    fails = [] if n else ["filter has no basepoint"]
    for end, ids in (("source", src), ("target", tgt)):
        fails += [f"edge {i}: {end} {v} is not a vertex"
                  for i, v in enumerate(ids) if not 0 <= v < n]
    fails += [f"cell {ci}: edge {i} is not an edge"
              for ci, cell in enumerate(cells)
              for i in cell.lam + cell.rho if not 0 <= i < m]
    for fi, f in enumerate(fans):
        if not 0 <= f.apex < n:
            fails.append(f"fan {fi}: apex {f.apex} is not a vertex")
        if not f.edge_ids:
            fails.append(f"fan {fi}: no edges")
        fails += [f"fan {fi}: edge {i} is not an edge"
                  for i in f.edge_ids if not 0 <= i < m]
    return fails


def _tree_shape(src: list[int], tgt: list[int], top_left: list[bool],
                is_top: list[bool]) -> tuple[list, list, dict, list, list]:
    """The tree edge into each vertex (the last one, -1 for none), its tree
    out-edges, every source's out-edges, the vertices reached from the
    basepoint (parents first), and the tree-shape and incoming failures,
    of the edges ``src``, ``tgt``, ``top_left`` on the vertices ``is_top``."""
    n = len(is_top)
    parent = [-1] * n
    parents = [0] * n
    incoming = [0] * n
    tree_out: list[list[int]] = [[] for _ in range(n)]
    out: dict[int, list[int]] = {}
    for i, v in enumerate(tgt):
        incoming[v] += 1
        out.setdefault(src[i], []).append(i)
        if not top_left[i]:
            parents[v] += 1
            parent[v] = i
            tree_out[src[i]].append(i)
    fails = []
    if incoming[0]:
        fails.append("basepoint has incoming edges")
    for v in range(1, n):
        if parents[v] != 1:
            fails.append(f"vertex {v} has {parents[v]} tree parents")
        want = 2 if is_top[v] else 1
        if incoming[v] != want:
            fails.append(f"vertex {v} has {incoming[v]} incoming, "
                         f"expected {want}")
    order = [0]
    reached = [False] * n
    reached[0] = True
    for v in order:
        for i in tree_out[v]:
            u = tgt[i]
            if not reached[u]:
                reached[u] = True
                order.append(u)
    if len(order) != n:
        fails.append(f"spanning tree reaches {len(order)} of {n} vertices")
    return parent, tree_out, out, order, fails


def _window_walker(g: CoxeterGraph, lab, cls: list, on_boundary: list[bool],
                   bounds: tuple[int, int, int, int]):
    """``walk(ends, prev)``, the one check of the itinerary ``bounds``
    (Q, L, N, R) on the edges with encoded labels ``lab``, classes ``cls``
    and boundary marks ``on_boundary``.  For each edge of ``ends`` it walks
    the wide windows that end there, back through ``prev`` (edge -> the
    edge before it, -1 at the root), with running counts as a window grows
    by a prepended edge, and carries the off-boundary R-run along ``prev``
    (so each edge's ``prev`` comes first in ``ends``).  It returns the
    windows per end and the faults as (first edge of the window, or None
    for an R-run; end; message).  The bounds are positive, so a too long
    L-run first reaches exactly L.
    """
    q, l_cap, n_cap, r_cap = bounds
    bit = [1 << a for a in lab]
    cover = subset_table(g).wide_cover

    def walk(ends, prev) -> tuple[list[int], list]:
        counts, faults = [], []
        fault = faults.append
        r_run = {-1: 0}
        for end in ends:
            run = r_run[end] = r_run[prev[end]] + 1 if (
                cls[end] == "R" and not on_boundary[end]) else 0
            if run > r_cap:
                fault((None, end, f"off-boundary R-run of length {run}"))
            windows = mask = i_count = lr = lead = longest = length = 0
            off = True
            after = None                # class of the window's first edge
            i = end
            while i >= 0:
                if mask | bit[i] != mask:
                    mask |= bit[i]
                    if cover(mask) is None:
                        break
                windows += 1
                length += 1
                c = cls[i]
                if c == "L":
                    lead += 1
                    if lead > longest:
                        longest = lead
                    if after == "R":
                        lr += 1
                else:
                    lead = 0
                    if c == "I":
                        i_count += 1
                after = c
                off = off and not on_boundary[i]
                if i_count > q:
                    fault((i, end, f"wide window with {i_count} I-edges"))
                if lr > q:
                    fault((i, end, f"wide window with {lr} LR-subpaths"))
                if off and longest >= l_cap:
                    fault((i, end, "wide window with an L-run of length "
                           f"{l_cap}"))
                if off and length > n_cap:
                    fault((i, end, "off-boundary wide window of length "
                           f"{length} exceeds cap {n_cap}"))
                i = prev[i]
            counts.append(windows)
        return counts, faults

    return walk


def _weighted_pass(walk, src: list[int], tgt: list[int], parent: list[int],
                   tree_out: list[list[int]], order: list[int]
                   ) -> tuple[int, bool]:
    """The number of windows on a valid spanning tree, and whether none is
    faulty.  Each tree edge is walked once; a window lies on one maximal
    root path per leaf below its last edge, so it counts that many times."""
    leaves = [1] * len(order)
    for v in reversed(order):
        if tree_out[v]:
            leaves[v] = sum([leaves[tgt[i]] for i in tree_out[v]])
    ends = [parent[v] for v in order[1:]]
    # the basepoint has no tree parent, so its edges start a root path
    counts, faults = walk(ends, [parent[v] for v in src])
    windows = sum([c * leaves[tgt[i]] for c, i in zip(counts, ends)])
    return windows, not faults


def _path_route(walk, tgt: list[int], tree_out: list[list[int]]
                ) -> tuple[int, list[str]]:
    """The number of windows and the failure messages, root path by root
    path, on any tree: the maximal directed tree paths from the basepoint
    that repeat no vertex, depth first.  A path reports its faulty windows
    by (start, end), then its first too long R-run."""
    windows = 0
    fails: list[str] = []
    stack: list[tuple[int, list[int]]] = [(0, [])]
    while stack:
        v, path = stack.pop()
        on_path = {0, *(tgt[i] for i in path)}
        kids = [i for i in tree_out[v] if tgt[i] not in on_path]
        if kids or not path:
            stack.extend((tgt[i], path + [i]) for i in kids)
            continue
        counts, faults = walk(path, dict(zip(path, [-1] + path[:-1])))
        windows += sum(counts)
        pos = {i: z for z, i in enumerate(path)}
        found = sorted((f for f in faults if f[0] is not None),
                       key=lambda f: (pos[f[0]], pos[f[1]]))
        found += [f for f in faults if f[0] is None][:1]
        fails += [msg for _, _, msg in found]
    return windows, fails


def check_filter(g: CoxeterGraph, filt: FilterDiagram,
                 orbit_cap: int = DEFAULT_ORBIT_CAP,
                 enum_len: int = 14, enum_cap: int = 200_000,
                 samples: int = 64, seed: int = 0) -> FilterCheck:
    """Verify the filter axioms on a truncated diagram.

    First every recorded vertex and edge id must name a vertex or edge;
    if one does not, the check reports each such id and stops there.
    Then it checks, in order: spanning-tree shape (out-tree rooted at the
    basepoint, exactly the non-top-left edges); the incoming-edge law (two
    incoming exactly at cell tops, none at the basepoint, one elsewhere);
    per-edge geodesy (each edge extends its source's element by one
    letter, which makes every rooted directed path geodesic); literal
    geodesy of all rooted directed paths up to ``enum_len`` plus seeded
    random longer walks; cell shape (equal alternating sides, top-left
    marking, side classes); fan axioms per recorded fan; and the itinerary
    bounds on wide-labelled windows of directed tree paths
    (``itinerary_bounds``: I-edge and LR counts at most Q = M+V+1, L-runs
    inside off-boundary windows shorter than R(M+V+2), off-boundary R-runs
    at most R, off-boundary wide windows no longer than the closed-form
    cap).  The root paths are the maximal directed tree paths from the
    basepoint that repeat no vertex; a faulty window is reported once per
    root path through it, and a too long R-run once per root path, and
    ``wide_windows_checked`` counts a window once per root path through it.
    """
    eng = engine_for(g, orbit_cap)
    stats: dict[str, int] = {}
    elem, _, is_top, _ = _columns(filt.vertices, FilterVertex)
    src, tgt, label, cls, top_left, boundary = _columns(filt.edges,
                                                        FilterEdge)
    # each distinct element is encoded and normalized once: its canonical
    # form, and whether the recorded word is geodesic
    forms = dict.fromkeys(elem)
    for w in forms:
        code = eng.encode(w)
        c = eng.normalize(code)
        forms[w] = c, len(c) == len(code)
    lab = eng.encode(label)
    on_boundary = [b is not None for b in boundary]
    fails = _id_failures(len(elem), src, tgt, filt.cells, filt.fans)
    if fails:
        return FilterCheck(False, tuple(fails), stats)
    parent, tree_out, out_edges, order, fails = _tree_shape(
        src, tgt, top_left, is_top)
    tree_ok = not fails

    # A path is geodesic iff its prefix is and the last letter lengthens
    # the prefix's canonical form ``c``: ``step(c, a)`` is c times a when
    # that lengthens c, else None.  The per-edge check and the enumeration
    # share its memo.
    right_mult = eng.right_mult
    steps: dict = {}

    def step(c, a):
        try:
            return steps[c, a]
        except KeyError:
            p = right_mult(c, a)
            p = steps[c, a] = p if len(p) > len(c) else None
            return p

    # per-vertex and per-edge geodesy (this alone makes every rooted
    # directed path geodesic); the edge test is the step from its source's
    # canonical form (see the module docstring)
    canon, geodesic = [], []
    for v, w in enumerate(elem):
        c, ok = forms[w]
        canon.append(c)
        geodesic.append(ok)
        if not ok:
            fails.append(f"vertex {v} element word not geodesic")
    for i, a in enumerate(lab):
        v = src[i]
        if not geodesic[v] or step(canon[v], a) != canon[tgt[i]]:
            fails.append(f"edge {i} does not extend its source geodesically")
    stats["edges_checked"] = len(lab)

    # literal path enumeration + sampled walks.  Both carry ``c`` along
    # each path, None once a prefix is not geodesic.
    count = 0
    stack = [(0, (), ())]
    capped = False
    while stack:
        v, word, c = stack.pop()
        if word:
            count += 1
            if count > enum_cap:
                capped = True
                break
            if c is not None:
                c = step(c, word[-1])
            if c is None:
                fails.append(f"rooted path {eng.decode(word)} not geodesic")
        if len(word) < enum_len:
            for i in out_edges.get(v, []):
                stack.append((tgt[i], word + (lab[i],), c))
    stats["paths_enumerated"] = count
    stats["path_enum_capped"] = int(capped)
    rng = random.Random(seed)
    for _ in range(samples):
        v, word, c = 0, (), ()
        while len(word) < SAMPLE_LEN and out_edges.get(v):
            i = rng.choice(out_edges[v])
            word += (lab[i],)
            v = tgt[i]
            if c is not None:
                c = step(c, lab[i])
        if c is None:
            fails.append(f"sampled path {eng.decode(word)} not geodesic")
    stats["paths_sampled"] = samples

    # cells
    for ci, cell in enumerate(filt.cells):
        lam, rho = cell.lam, cell.rho
        if len(lam) != len(rho):
            fails.append(f"cell {ci}: unequal sides")
            continue
        if not lam:
            fails.append(f"cell {ci}: empty sides")
            continue
        s, t = lab[lam[0]], lab[rho[0]]
        m = g.m(s, t)
        if m is None or len(lam) != m:
            fails.append(f"cell {ci}: sides have length {len(lam)}, "
                         f"expected m({g.vertices[s]},{g.vertices[t]})")
            continue
        for j, i in enumerate(lam):
            if lab[i] != (s if j % 2 == 0 else t):
                fails.append(f"cell {ci}: left side not alternating")
        for j, i in enumerate(rho):
            if lab[i] != (t if j % 2 == 0 else s):
                fails.append(f"cell {ci}: right side not alternating")
        if not top_left[lam[-1]]:
            fails.append(f"cell {ci}: last left edge not marked top-left")
        # rho[0] may be the top-left edge of an earlier cell (the fan at
        # that cell's side vertex picks it up as its right fan edge)
        if any(top_left[i] for i in lam[:-1] + rho[1:]):
            fails.append(f"cell {ci}: stray top-left marking")
        if tgt[lam[-1]] != tgt[rho[-1]]:
            fails.append(f"cell {ci}: sides do not meet at a top vertex")
        if not is_top[tgt[lam[-1]]]:
            fails.append(f"cell {ci}: meeting vertex not marked top")
        want_cycle = ((src[lam[0]],) + tuple(tgt[i] for i in lam)
                      + tuple(tgt[i] for i in reversed(rho[:-1])))
        if cell.cycle != want_cycle:
            fails.append(f"cell {ci}: stored vertex cycle mismatch")
        # side classes: non-first lambda edges are R, non-first rho edges L
        for i in lam[1:]:
            if cls[i] not in (None, "R"):
                fails.append(f"cell {ci}: left-side edge {i} classed "
                             f"{cls[i]}, expected R")
        for i in rho[1:]:
            if cls[i] not in (None, "L"):
                fails.append(f"cell {ci}: right-side edge {i} classed "
                             f"{cls[i]}, expected L")
        # base-corner law: a cell flanked by a bounding fan edge on one
        # side has an interior fan edge on the other (fans have >= 3 edges,
        # so no cell touches both the left and the right fan edge)
        if cls[rho[0]] == "R" and cls[lam[0]] not in (None, "I"):
            fails.append(f"cell {ci}: right-bounded cell with "
                         f"{cls[lam[0]]} first left edge")
        if cls[lam[0]] == "L" and cls[rho[0]] not in (None, "I"):
            fails.append(f"cell {ci}: left-bounded cell with "
                         f"{cls[rho[0]]} first right edge")

    # fans: the recorded tail is the wide tail of the base, so the check
    # is the one ``build_fan`` made (and remembered) when it laid the fan;
    # it reports a base that is not geodesic and letters that are not
    # adjacent (which have no cell, written 0 here).  Each distinct
    # (base, labels, case) record is checked, and its base normalized, once.
    records: dict = {}
    for fi, f in enumerate(filt.fans):
        key = tuple(f.base), tuple(f.labels), f.case
        if key not in records:
            cells = tuple(2 * (g.m(g.index(a), g.index(b)) or 0)
                          for a, b in zip(f.labels, f.labels[1:]))
            w = eng.encode(f.base)
            records[key] = eng.normalize(w), _fan_failures(
                g, eng, w, _wide_suffix(g, w)[0], key[1], cells, True,
                f.case)
        reached, failures = records[key]
        if failures:
            fails.append(f"fan {fi}: " + "; ".join(failures))
        if cls[f.edge_ids[0]] != "L":
            fails.append(f"fan {fi}: left fan edge not classed L")
        if cls[f.edge_ids[-1]] != "R":
            fails.append(f"fan {fi}: right fan edge not classed R")
        if any(cls[i] != "I" for i in f.edge_ids[1:-1]):
            fails.append(f"fan {fi}: interior fan edge not classed I")
        if reached != canon[f.apex]:
            fails.append(f"fan {fi}: base word does not reach its apex")

    # itineraries along directed tree paths: on a valid tree one walk per
    # edge decides, and the root paths spell out the failures if any
    bounds = itinerary_bounds(g)
    walk = _window_walker(g, lab, cls, on_boundary, bounds)
    clean = False
    if tree_ok:
        windows, clean = _weighted_pass(walk, src, tgt, parent, tree_out,
                                        order)
    if not clean:
        windows, found = _path_route(walk, tgt, tree_out)
        fails += found
    stats["wide_windows_checked"] = windows
    stats["itinerary_cap"] = bounds[2]
    return FilterCheck(not fails, tuple(fails), stats)


# ---------------------------------------------------------------------------
# multi-tail filters


class MultiTailFilter(Record):
    """Filters glued along a connecting geodesic at level n.

    sigma: canonical geodesic from the alpha-side endpoint to the beta-side
    endpoint at distance n.  cases[k-1] records how the ray at sigma(k) was
    obtained: 'prepend' (the wall of the k-th sigma edge crosses the previous
    tail, so the previous ray is reused across the edge) or 'fresh' (the wall
    crosses the current tail; a new greedy ray is grown).  Each constituent
    filter spans consecutive fresh rays; tails[i] is the geodesic from the
    basepoint to filter i's basepoint.
    """
    __slots__ = ("alpha",       # Word
                 "beta",        # Word
                 "n",           # int
                 "sigma",       # Word
                 "cases",       # tuple[str, ...]
                 "rays",        # tuple[Word, ...]: alpha_0 .. alpha_d
                 "tails",       # tuple[Word, ...]: one per filter
                 "boundaries",  # tuple[tuple[Word, Word], ...]
                 "filters")     # tuple[FilterDiagram, ...]

    def to_json_obj(self) -> dict:
        return {"alpha": " ".join(self.alpha), "beta": " ".join(self.beta),
                "n": self.n, "sigma": " ".join(self.sigma),
                "cases": list(self.cases),
                "rays": [" ".join(r) for r in self.rays],
                "tails": [" ".join(t) for t in self.tails],
                "boundaries": [[" ".join(a), " ".join(b)]
                               for a, b in self.boundaries],
                "filters": [f.to_json_obj() for f in self.filters]}


def _trace(eng, a: tuple[int, ...], b: tuple[int, ...], n: int,
           sigma: tuple[int, ...]) -> tuple[list, list[str], list[int]]:
    """The level points gamma_0 .. gamma_d (gamma_k = alpha(n) sigma(k),
    normalized, and gamma_d = beta(n)), the case of each sigma step and the
    anchors of a multi-tail filter, on encoded words.  A step down, toward
    the basepoint, means the wall of its edge crosses the previous tail:
    'prepend'; otherwise 'fresh'.  Each fresh step k closes a filter at
    level point k - 1, and one more sits at the beta end, d."""
    d = len(sigma)
    points = [a[:n]] + [eng.normalize(a[:n] + sigma[:k])
                        for k in range(1, d)] + ([b[:n]] if d else [])
    cases = ["prepend" if len(points[k]) < len(points[k - 1]) else "fresh"
             for k in range(1, d + 1)]
    anchors = [k for k in range(d) if cases[k] == "fresh"] + [d]
    return points, cases, anchors


def build_multitail_filter(g: CoxeterGraph, alpha: Word, beta: Word, n: int,
                           depth: int = 2, ray_len: int | None = None,
                           orbit_cap: int = DEFAULT_ORBIT_CAP
                           ) -> MultiTailFilter:
    """Multi-tail filter of level n between the geodesic words alpha, beta.

    Walks the connecting geodesic sigma between the two level-n points; at
    each sigma edge the dual wall crosses exactly one of the two adjacent
    tails (the step is toward the basepoint or away from it), which decides
    whether the previous ray is carried across the edge or a fresh greedy
    ray is grown.  A filter is laid between consecutive fresh rays.  A fresh
    ray has ``ray_len`` letters (at least 0; by default
    ``max(len(alpha), len(beta)) - n``).
    """
    eng = engine_for(g, orbit_cap)
    a, b = eng.encode(alpha), eng.encode(beta)
    eng.require_geodesic(a)
    eng.require_geodesic(b)
    if not 0 <= n <= min(len(a), len(b)):
        raise ValueError(f"level {n} out of range 0..{min(len(a), len(b))}")
    if ray_len is None:
        ray_len = max(len(a), len(b)) - n
    elif ray_len < 0:
        raise ValueError(f"ray_len must be at least 0, got {ray_len}")
    sigma = eng.mult(eng.inverse(a[:n]), b[:n])
    d = len(sigma)
    tails_all, cases, anchors = _trace(eng, a, b, n, sigma)

    # rays alpha_0 .. alpha_d
    rays: list[tuple[int, ...]] = [a[n:]]
    for k, case in enumerate(cases, start=1):
        if case == "prepend":
            # wall of e_k crosses the previous tail: carry the ray across
            rays.append((sigma[k - 1],) + rays[k - 1])
        else:
            grown = eng.encode(extend_geodesic(
                g, eng.decode(tails_all[k]), len(tails_all[k]) + ray_len,
                orbit_cap))
            rays.append(grown[len(tails_all[k]):])
        # by induction on k: a carried ray follows a step down, so tail k
        # times the edge is tail k - 1, and a fresh ray extends tail k
        verify(eng.is_geodesic(tails_all[k] + rays[k]),
               f"ray at sigma step {k} does not extend its tail")

    tails, bounds, filters = [], [], []
    for i in anchors:
        left_ray = rays[i]
        right_ray = b[n:] if i == d else (sigma[i],) + rays[i + 1]
        tails.append(eng.decode(tails_all[i]))
        bounds.append((eng.decode(left_ray), eng.decode(right_ray)))
        filters.append(build_filter(g, eng.decode(left_ray),
                                    eng.decode(right_ray), depth, orbit_cap))
    return MultiTailFilter(alpha, beta, n, eng.decode(sigma), tuple(cases),
                           tuple(eng.decode(r) for r in rays), tuple(tails),
                           tuple(bounds), tuple(filters))


def check_multitail_filter(g: CoxeterGraph, mtf: MultiTailFilter,
                           orbit_cap: int = DEFAULT_ORBIT_CAP) -> FilterCheck:
    """Re-derive the case trace and glue conditions, and check every
    constituent filter."""
    eng = engine_for(g, orbit_cap)
    fails: list[str] = []
    stats: dict[str, int] = {}
    a, b = eng.encode(mtf.alpha), eng.encode(mtf.beta)
    n = mtf.n
    sigma = eng.encode(mtf.sigma)
    if eng.mult(eng.inverse(a[:n]), b[:n]) != sigma:
        fails.append("sigma is not the canonical connecting geodesic")
    d = len(sigma)
    if len(mtf.rays) != d + 1 or len(mtf.cases) != d:
        fails.append(f"{len(mtf.rays)} rays / {len(mtf.cases)} cases "
                     f"recorded, expected {d + 1} / {d}")
        return FilterCheck(False, tuple(fails), stats)
    tails_all, derived, anchors = _trace(eng, a, b, n, sigma)
    for k in range(d + 1):
        ray = eng.encode(mtf.rays[k])
        if not eng.is_geodesic(tails_all[k] + ray):
            fails.append(f"tail {k} + ray {k} not geodesic")
    for k, want in enumerate(derived, start=1):
        if mtf.cases[k - 1] != want:
            fails.append(f"case at sigma step {k} recorded "
                         f"{mtf.cases[k - 1]}, derived {want}")
        ray_k = eng.encode(mtf.rays[k])
        ray_prev = eng.encode(mtf.rays[k - 1])
        if want == "prepend":
            if ray_k != (sigma[k - 1],) + ray_prev:
                fails.append(f"step {k}: carried ray is not the edge plus "
                             "the previous ray")
            if not eng.is_geodesic(tails_all[k] + (sigma[k - 1],) + ray_prev):
                fails.append(f"step {k}: tail + edge + previous ray "
                             "not geodesic")
        else:
            if not eng.is_geodesic(tails_all[k - 1] + (sigma[k - 1],) + ray_k):
                fails.append(f"step {k}: previous tail + edge + fresh ray "
                             "not geodesic")
    if len(mtf.filters) != len(anchors):
        fails.append(f"{len(mtf.filters)} filters recorded, expected "
                     f"{len(anchors)}")
    for field in ("tails", "boundaries"):
        count = len(getattr(mtf, field))
        if count != len(mtf.filters):
            fails.append(f"{count} {field} recorded for "
                         f"{len(mtf.filters)} filters")
    for t, fd in enumerate(mtf.filters):
        bound = mtf.boundaries[t] if t < len(mtf.boundaries) else None
        if bound is not None and (fd.alpha, fd.beta) != bound:
            fails.append(f"filter {t} boundary mismatch")
        if t < len(anchors):
            i = anchors[t]
            if bound is not None:
                la, ra = bound
                if la != mtf.rays[i]:
                    fails.append(f"filter {t} left ray is not ray {i}")
                want_right = eng.decode(
                    b[n:] if i == d
                    else (sigma[i],) + eng.encode(mtf.rays[i + 1]))
                if ra != want_right:
                    fails.append(f"filter {t} right ray mismatch")
            if t < len(mtf.tails) and \
                    eng.encode(mtf.tails[t]) != tails_all[i]:
                fails.append(f"filter {t} tail is not the level point {i}")
        sub = check_filter(g, fd, orbit_cap)
        stats[f"filter_{t}_windows"] = sub.stats.get("wide_windows_checked", 0)
        if not sub.ok:
            fails.append(f"filter {t}: " + "; ".join(sub.failures[:3]))
    stats["filters"] = len(mtf.filters)
    return FilterCheck(not fails, tuple(fails), stats)
