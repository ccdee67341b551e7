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
"""

from __future__ import annotations

import random

from .classification import (DEFAULT_SUBSET_CAP, check_cap,
                             compute_constants, subset_table)
from .errors import ConstructionError, Record, SizeCapError, verify
from .fans import _build_fan, _fan_failures
from .graphs import CoxeterGraph
from .words import (Word, engine_for, extend_geodesic, _wide_suffix,
                    DEFAULT_ORBIT_CAP)


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


class FilterDiagram(Record):
    """Field order in JSON output is fixed: alpha, beta, depth, vertices,
    edges, cells, fans.  Vertex 0 is the basepoint."""
    __slots__ = ("alpha",     # Word
                 "beta",      # Word
                 "depth",     # int
                 "vertices",  # tuple[FilterVertex, ...]
                 "edges",     # tuple[FilterEdge, ...]
                 "cells",     # tuple[FilterCell, ...]
                 "fans")      # tuple[FilterFan, ...]

    def to_json_obj(self) -> dict:
        return {"alpha": " ".join(self.alpha), "beta": " ".join(self.beta),
                "depth": self.depth,
                "vertices": [v.to_json_obj() for v in self.vertices],
                "edges": [e.to_json_obj() for e in self.edges],
                "cells": [c.to_json_obj() for c in self.cells],
                "fans": [f.to_json_obj() for f in self.fans]}

    def to_dot(self) -> str:
        colors = {"L": "blue", "R": "red", "I": "forestgreen", None: "gray"}
        lines = ["digraph filter {", "  rankdir=BT;",
                 "  node [shape=point, width=0.06];"]
        for i, v in enumerate(self.vertices):
            shape = "circle" if v.is_top else "point"
            extra = ', color="orange"' if v.open else ""
            lines.append(f'  n{i} [shape={shape}, width=0.06{extra}, '
                         f'tooltip="{" ".join(v.element)}"];')
        for e in self.edges:
            style = "dashed" if e.top_left else "solid"
            pen = ", penwidth=2.0" if e.boundary else ""
            lines.append(
                f'  n{e.src} -> n{e.tgt} [label="{e.label}", style={style}, '
                f'color="{colors[e.cls]}"{pen}];')
        lines.append("}")
        return "\n".join(lines)


class _Builder:
    def __init__(self, g: CoxeterGraph, orbit_cap: int):
        self.g = g
        self.eng = engine_for(g, orbit_cap)
        self.elem: list[tuple[int, ...]] = []       # tree word (encoded)
        self.level: list[int] = []
        self.is_top: list[bool] = []
        self.edges: list[list] = []                 # [src,tgt,lab,cls,tl,bdy]
        self.slots: dict[int, dict[str, int | None]] = {}
        self.pending_next: list[int] = []
        self.built: set[int] = set()
        self.cells: list[FilterCell] = []
        self.fans: list[FilterFan] = []

    def add_vertex(self, tree_word: tuple[int, ...], level: int,
                   is_top: bool = False) -> int:
        self.elem.append(tree_word)
        self.level.append(level)
        self.is_top.append(is_top)
        v = len(self.elem) - 1
        self.slots[v] = {"left": None, "right": None}
        return v

    def add_edge(self, src: int, tgt: int, lab: int, top_left: bool = False,
                 boundary: str | None = None) -> int:
        self.edges.append([src, tgt, lab, None, top_left, boundary])
        if not top_left:
            # tree edge: the target's tree word runs through it
            verify(self.elem[tgt] == self.elem[src] + (lab,),
                   "tree edge does not extend its source's tree word")
        return len(self.edges) - 1

    def set_slot(self, v: int, side: str, edge_id: int):
        verify(self.slots[v][side] is None, "slot filled twice")
        self.slots[v][side] = edge_id
        if (self.slots[v]["left"] is not None
                and self.slots[v]["right"] is not None
                and v not in self.built):
            self.pending_next.append(v)

    def lay_boundary(self, word: Word, which: str) -> None:
        side = "left" if which == "alpha" else "right"
        prev = 0
        for name in word:
            lab = self.g.index(name)
            v = self.add_vertex(self.elem[prev] + (lab,), 0)
            e = self.add_edge(prev, v, lab, boundary=which)
            self.set_slot(prev, side, e)
            prev = v

    def lay_cell(self, fan_idx: int, e_left: int, e_right: int, level: int):
        """Polygon between consecutive fan edges; returns the cell id."""
        g = self.g
        s = self.edges[e_left][2]
        t = self.edges[e_right][2]
        m = g.m(s, t)
        verify(m is not None, "fan letters of a cell must be adjacent")
        lam = [e_left]
        cur = self.edges[e_left][1]
        for j in range(1, m):
            lab = t if j % 2 == 1 else s
            last = j == m - 1
            v = self.add_vertex(self.elem[cur] + (lab,), level, is_top=last)
            e = self.add_edge(cur, v, lab, top_left=last)
            self.set_slot(cur, "right", e)
            lam.append(e)
            cur = v
        top = cur
        rho = [e_right]
        cur = self.edges[e_right][1]
        for j in range(1, m):
            lab = s if j % 2 == 1 else t
            last = j == m - 1
            v = top if last else self.add_vertex(self.elem[cur] + (lab,),
                                                 level)
            if last:
                # the top vertex's tree word runs through the rho side
                self.elem[top] = self.elem[cur] + (lab,)
            e = self.add_edge(cur, v, lab)
            self.set_slot(cur, "left", e)
            rho.append(e)
            cur = v
        cycle = ((self.edges[lam[0]][0],)
                 + tuple(self.edges[e][1] for e in lam)
                 + tuple(self.edges[e][1] for e in reversed(rho[:-1])))
        self.cells.append(FilterCell(fan_idx, tuple(lam), tuple(rho), cycle))
        return len(self.cells) - 1

    def build_fan_at(self, v: int, level: int) -> None:
        x = self.slots[v]["left"]
        y = self.slots[v]["right"]
        s, t = self.edges[x][2], self.edges[y][2]
        fan, labels = _build_fan(self.g, self.eng, self.elem[v], s, t)
        verify(labels[0] == s and labels[-1] == t,
               "fan does not run from the slot letters")
        edge_ids = [x]
        for lab in labels[1:-1]:
            u = self.add_vertex(self.elem[v] + (lab,), level)
            edge_ids.append(self.add_edge(v, u, lab))
        edge_ids.append(y)
        self.edges[x][3] = "L"
        self.edges[y][3] = "R"
        for e in edge_ids[1:-1]:
            self.edges[e][3] = "I"
        fan_idx = len(self.fans)
        cell_ids = tuple(
            self.lay_cell(fan_idx, edge_ids[i], edge_ids[i + 1], level)
            for i in range(len(edge_ids) - 1))
        self.fans.append(FilterFan(level, v, fan.base, fan.labels,
                                   tuple(edge_ids), cell_ids, fan.case))
        self.built.add(v)

    def finish(self, alpha: Word, beta: Word, depth: int) -> FilterDiagram:
        names = self.g.vertices
        vertices = tuple(
            FilterVertex(self.eng.decode(word), self.level[i], self.is_top[i],
                         i not in self.built)
            for i, word in enumerate(self.elem))
        edges = tuple(
            FilterEdge(s, t, names[lab], cls, tl, bdy)
            for s, t, lab, cls, tl, bdy in self.edges)
        return FilterDiagram(alpha, beta, depth, vertices, edges,
                             tuple(self.cells), tuple(self.fans))


def build_filter(g: CoxeterGraph, alpha: Word, beta: Word, depth: int,
                 orbit_cap: int = DEFAULT_ORBIT_CAP,
                 vertex_cap: int = 500_000) -> FilterDiagram:
    """Truncated filter spanning the geodesic words alpha and beta.

    ``depth`` is the number of fan rounds.  The words must be geodesic,
    non-empty, and diverge immediately (distinct first letters); a shared
    first edge would collapse the two boundary rays.
    """
    eng = engine_for(g, orbit_cap)
    if not alpha or not beta:
        raise ConstructionError("boundary rays must be non-empty",
                                blocking_set=frozenset())
    if alpha[0] == beta[0]:
        raise ConstructionError(
            "boundary rays share their first edge; the diagram degenerates",
            blocking_set=frozenset({alpha[0]}))
    eng.require_geodesic(eng.encode(alpha))
    eng.require_geodesic(eng.encode(beta))
    if depth < 0:
        raise ValueError("depth must be >= 0")
    b = _Builder(g, orbit_cap)
    b.add_vertex((), 0)
    b.lay_boundary(alpha, "alpha")
    b.lay_boundary(beta, "beta")
    for level in range(1, depth + 1):
        todo, b.pending_next = sorted(b.pending_next), []
        for v in todo:
            if len(b.elem) > vertex_cap:
                raise SizeCapError(vertex_cap,
                                   f"filter exceeds {vertex_cap} vertices")
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


def _tree_shape(filt: FilterDiagram) -> tuple[list, list, list, list]:
    """The tree edges into and out of each vertex, the vertices reached from
    the basepoint (parents first), and the tree-shape and incoming failures."""
    n = len(filt.vertices)
    tree_in: list[list[int]] = [[] for _ in range(n)]
    tree_out: list[list[int]] = [[] for _ in range(n)]
    incoming = [0] * n
    for i, e in enumerate(filt.edges):
        incoming[e.tgt] += 1
        if not e.top_left:
            tree_in[e.tgt].append(i)
            tree_out[e.src].append(i)
    fails = []
    if tree_in[0] or incoming[0]:
        fails.append("basepoint has incoming edges")
    for v in range(1, n):
        if len(tree_in[v]) != 1:
            fails.append(f"vertex {v} has {len(tree_in[v])} tree parents")
        want = 2 if filt.vertices[v].is_top else 1
        if incoming[v] != want:
            fails.append(f"vertex {v} has {incoming[v]} incoming, "
                         f"expected {want}")
    order = [0]
    reached = {0}
    for v in order:
        for i in tree_out[v]:
            u = filt.edges[i].tgt
            if u not in reached:
                reached.add(u)
                order.append(u)
    if len(order) != n:
        fails.append(f"spanning tree reaches {len(order)} of {n} vertices")
    return tree_in, tree_out, order, fails


def _window_walker(g: CoxeterGraph, filt: FilterDiagram,
                   bounds: tuple[int, int, int, int]):
    """``walk(ends, prev)``, the one check of the itinerary ``bounds``
    (Q, L, N, R) on ``filt``.  For each edge of ``ends`` it walks the wide
    windows that end there, back through ``prev`` (edge -> the edge before
    it, -1 at the root), with running counts as a window grows by a
    prepended edge, and carries the off-boundary R-run along ``prev`` (so
    each edge's ``prev`` comes first in ``ends``).  It returns the windows
    per end and the faults as (first edge of the window, or None for an
    R-run; end; message).  The bounds are positive, so a too long L-run
    first reaches exactly L.
    """
    q, l_cap, n_cap, r_cap = bounds
    cls = [e.cls for e in filt.edges]
    on_boundary = [e.boundary is not None for e in filt.edges]
    bit = [1 << g.index(e.label) for e in filt.edges]
    check_cap(g, DEFAULT_SUBSET_CAP, "enumeration")
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


def _weighted_pass(walk, filt: FilterDiagram, tree_in: list[list[int]],
                   tree_out: list[list[int]], order: list[int]
                   ) -> tuple[int, bool]:
    """The number of windows on a valid spanning tree, and whether none is
    faulty.  Each tree edge is walked once; a window lies on one maximal
    root path per leaf below its last edge, so it counts that many times."""
    edges = filt.edges
    leaves = [1] * len(order)
    for v in reversed(order):
        if tree_out[v]:
            leaves[v] = sum(leaves[edges[i].tgt] for i in tree_out[v])
    ends = [tree_in[v][0] for v in order[1:]]
    prev = [tree_in[e.src][0] if e.src else -1 for e in edges]
    counts, faults = walk(ends, prev)
    windows = sum(c * leaves[edges[i].tgt] for c, i in zip(counts, ends))
    return windows, not faults


def _path_route(walk, filt: FilterDiagram, tree_out: list[list[int]]
                ) -> tuple[int, list[str]]:
    """The number of windows and the failure messages, root path by root
    path, on any tree: the maximal directed tree paths from the basepoint
    that repeat no vertex, depth first.  A path reports its faulty windows
    by (start, end), then its first too long R-run."""
    tgt = [e.tgt for e in filt.edges]
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
                 samples: int = 64, sample_len: int = 40,
                 seed: int = 0) -> FilterCheck:
    """Verify the filter axioms on a truncated diagram.

    Checks, in order: spanning-tree shape (out-tree rooted at the basepoint,
    exactly the non-top-left edges); the incoming-edge law (two incoming
    exactly at cell tops, none at the basepoint, one elsewhere); per-edge
    geodesy (each edge extends its source's element by one letter, which
    makes every rooted directed path geodesic); literal geodesy of all rooted
    directed paths up to ``enum_len`` plus seeded random longer walks; cell
    shape (equal alternating sides, top-left marking, side classes); fan
    axioms per recorded fan; and the itinerary bounds on wide-labelled
    windows of directed tree paths (``itinerary_bounds``: I-edge and LR
    counts at most Q = M+V+1, L-runs inside off-boundary windows shorter
    than R(M+V+2), off-boundary R-runs at most R, off-boundary wide windows
    no longer than the closed-form cap).  The root paths are the maximal
    directed tree paths from the basepoint that repeat no vertex; a faulty
    window is reported once per root path through it, and a too long R-run
    once per root path, and ``wide_windows_checked`` counts a window once
    per root path through it.
    """
    eng = engine_for(g, orbit_cap)
    stats: dict[str, int] = {}
    n = len(filt.vertices)
    enc = [eng.encode(v.element) for v in filt.vertices]

    tree_in, tree_out, order, fails = _tree_shape(filt)
    tree_ok = not fails

    # per-edge geodesy (this alone makes every rooted directed path geodesic)
    canon = [eng.normalize(w) for w in enc]
    for v in range(n):
        if len(canon[v]) != len(enc[v]):
            fails.append(f"vertex {v} element word not geodesic")
    edges = filt.edges
    src = [e.src for e in edges]
    tgt = [e.tgt for e in edges]
    lab = eng.encode(e.label for e in edges)
    cls = [e.cls for e in edges]
    top_left = [e.top_left for e in edges]
    for i, a in enumerate(lab):
        got = eng.normalize(enc[src[i]] + (a,))
        if len(got) != len(enc[src[i]]) + 1 or got != canon[tgt[i]]:
            fails.append(f"edge {i} does not extend its source geodesically")
    stats["edges_checked"] = len(edges)

    # literal path enumeration + sampled walks.  A path is geodesic iff
    # its prefix is and the last letter lengthens the prefix's canonical
    # form ``c``; ``c`` is None below a prefix that is not geodesic.  The
    # enumeration carries ``c`` along each path, through a memo of the
    # steps; each sampled walk is tested once, as a whole word.
    out_edges: dict[int, list[int]] = {}
    for i, v in enumerate(src):
        out_edges.setdefault(v, []).append(i)
    right_mult = eng.right_mult
    steps: dict = {}

    def step(c, a):
        """c times a when that lengthens c, else None."""
        key = c, a
        if key not in steps:
            p = right_mult(c, a)
            steps[key] = p if len(p) > len(c) else None
        return steps[key]

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
        v, word = 0, ()
        while len(word) < sample_len and out_edges.get(v):
            i = rng.choice(out_edges[v])
            word += (lab[i],)
            v = tgt[i]
        if not eng.is_geodesic(word):
            fails.append(f"sampled path {eng.decode(word)} not geodesic")
    stats["paths_sampled"] = samples

    # cells
    for ci, cell in enumerate(filt.cells):
        lam, rho = cell.lam, cell.rho
        if len(lam) != len(rho):
            fails.append(f"cell {ci}: unequal sides")
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
        if not filt.vertices[tgt[lam[-1]]].is_top:
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
    # adjacent (which have no cell, written 0 here)
    for fi, f in enumerate(filt.fans):
        cells = tuple(2 * (g.m(g.index(a), g.index(b)) or 0)
                      for a, b in zip(f.labels, f.labels[1:]))
        w = eng.encode(f.base)
        failures = _fan_failures(g, eng, w, _wide_suffix(g, w)[0],
                                 tuple(f.labels), cells, True, f.case)
        if failures:
            fails.append(f"fan {fi}: " + "; ".join(failures))
        if cls[f.edge_ids[0]] != "L":
            fails.append(f"fan {fi}: left fan edge not classed L")
        if cls[f.edge_ids[-1]] != "R":
            fails.append(f"fan {fi}: right fan edge not classed R")
        if any(cls[i] != "I" for i in f.edge_ids[1:-1]):
            fails.append(f"fan {fi}: interior fan edge not classed I")
        if eng.normalize(w) != canon[f.apex]:
            fails.append(f"fan {fi}: base word does not reach its apex")

    # itineraries along directed tree paths: on a valid tree one walk per
    # edge decides, and the root paths spell out the failures if any
    bounds = itinerary_bounds(g)
    walk = _window_walker(g, filt, bounds)
    clean = False
    if tree_ok:
        windows, clean = _weighted_pass(walk, filt, tree_in, tree_out, order)
    if not clean:
        windows, found = _path_route(walk, filt, tree_out)
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

    # tails gamma_0 .. gamma_d and rays alpha_0 .. alpha_d
    tails_all = [a[:n]] + [eng.normalize(a[:n] + sigma[:k])
                           for k in range(1, d)] + ([b[:n]] if d else [])
    rays: list[tuple[int, ...]] = [a[n:]]
    cases: list[str] = []
    for k in range(1, d + 1):
        if len(tails_all[k]) < len(tails_all[k - 1]):
            # wall of e_k crosses the previous tail: carry the ray across
            cases.append("prepend")
            rays.append((sigma[k - 1],) + rays[k - 1])
        else:
            cases.append("fresh")
            grown = eng.encode(extend_geodesic(
                g, eng.decode(tails_all[k]), len(tails_all[k]) + ray_len,
                orbit_cap))
            rays.append(grown[len(tails_all[k]):])
        if not eng.is_geodesic(tails_all[k] + rays[k]):
            raise ConstructionError(
                f"ray at sigma step {k} does not extend its tail",
                blocking_set=frozenset())

    fresh = [k for k, c in enumerate(cases, start=1) if c == "fresh"]
    anchors = [j - 1 for j in fresh] + [d]
    tails, bounds, filters = [], [], []
    for t, i in enumerate(anchors):
        left_ray = rays[i]
        if i == d:
            right_ray = b[n:]
        else:
            j = fresh[t]
            right_ray = (sigma[j - 1],) + rays[j]
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
    tails_all = [a[:n]] + [eng.normalize(a[:n] + sigma[:k])
                           for k in range(1, d)] + ([b[:n]] if d else [])
    for k in range(d + 1):
        ray = eng.encode(mtf.rays[k])
        if not eng.is_geodesic(tails_all[k] + ray):
            fails.append(f"tail {k} + ray {k} not geodesic")
    derived: list[str] = []
    for k in range(1, d + 1):
        # descending step <=> wall crosses the previous tail <=> 'prepend'
        want = "prepend" if len(tails_all[k]) < len(tails_all[k - 1]) \
            else "fresh"
        derived.append(want)
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
    # re-derive the anchor points and expected boundaries from the case
    # trace: each fresh step j closes a filter at j - 1, and one more sits
    # at the beta end
    fresh = [k for k, c in enumerate(derived, start=1) if c == "fresh"]
    anchors = [j - 1 for j in fresh] + [d]
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
                want_left = mtf.rays[i] if i < len(mtf.rays) else None
                if la != want_left:
                    fails.append(f"filter {t} left ray is not ray {i}")
                if i == d:
                    want_right = eng.decode(b[n:])
                else:
                    j = fresh[t]
                    want_right = eng.decode((sigma[j - 1],)
                                            + eng.encode(mtf.rays[j]))
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
