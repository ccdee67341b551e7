"""The checks of fans and filters as they ran before ``check_filter``
moved to index space, kept as references for the faster code.

``itinerary`` is the path-by-path itinerary check that the window walk
of ``check_filter`` replaced.  It walks every maximal directed
spanning-tree path from the basepoint, looks up the wideness of every
window's label mask again, and re-scans each wide window's segment for
its counts.  ``test_filter_itinerary.py`` compares window counts and
whole failure lists with it.  It costs O(k^3) on a path of k edges: keep
filters small.

``tree_shape`` is the spanning-tree and incoming-edge check as it read
the records before ``check_filter`` read the edge fields into lists, and
``id_failures`` the range check of the recorded vertex and edge ids that
comes first.

``check_fan`` and ``check_filter`` work in vertex-name space through the
public word functions: every fan check runs in full (no memo of fan
verdicts), and every rooted path of the literal enumeration is
normalized whole instead of by extending its prefix's normal form.  The
itinerary phase is ``itinerary``.  The wide-tail condition scans the wide
sets of ``scan_oracle.wide_sets``.  ``test_check_oracles.py`` compares
whole ``FanCheck`` and ``FilterCheck`` objects with them.
"""

from __future__ import annotations

import random
from typing import Optional

from coxwide.classification import compute_constants, subset_table
from coxwide.fans import FanCheck, FanDiagram
from coxwide.filters import FilterCheck, FilterDiagram
from coxwide.graphs import CoxeterGraph
from coxwide.words import (DEFAULT_ORBIT_CAP, is_geodesic, normalize,
                           wide_tail)
from scan_oracle import memo_wide_sets


def default_bounds(g: CoxeterGraph) -> tuple[int, int, int, int]:
    """(Q, L-run cap, window cap, R-run cap) from the constants (V, M, R)."""
    c = compute_constants(g)
    q = c.m_gamma + c.v_gamma + 1
    l_cap = c.r_gamma * (c.m_gamma + c.v_gamma + 2)
    n_cap = 2 * q * (c.r_gamma * (c.m_gamma + c.v_gamma + 2)
                     + c.r_gamma) + 3 * q
    return q, l_cap, n_cap, c.r_gamma


def id_failures(filt: FilterDiagram) -> list[str]:
    """The ids of ``filt`` that name no vertex or edge: a missing
    basepoint, then edge sources, edge targets, the edge ids of each cell,
    and each fan's apex, emptiness and edge ids."""
    vertices, edges = range(len(filt.vertices)), range(len(filt.edges))
    fails = [] if vertices else ["filter has no basepoint"]
    for field, end in (("src", "source"), ("tgt", "target")):
        for i, e in enumerate(filt.edges):
            if getattr(e, field) not in vertices:
                fails.append(f"edge {i}: {end} {getattr(e, field)} is not "
                             "a vertex")
    for ci, c in enumerate(filt.cells):
        for i in (*c.lam, *c.rho):
            if i not in edges:
                fails.append(f"cell {ci}: edge {i} is not an edge")
    for fi, f in enumerate(filt.fans):
        if f.apex not in vertices:
            fails.append(f"fan {fi}: apex {f.apex} is not a vertex")
        if not f.edge_ids:
            fails.append(f"fan {fi}: no edges")
        for i in f.edge_ids:
            if i not in edges:
                fails.append(f"fan {fi}: edge {i} is not an edge")
    return fails


def tree_shape(filt: FilterDiagram) -> tuple[list, list, list, list]:
    """The tree edges into and out of each vertex, the vertices reached from
    the basepoint (parents first), and the tree-shape and incoming failures,
    read off the records."""
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


def root_paths(filt: FilterDiagram) -> list[list[int]]:
    children: dict[int, list[int]] = {}
    for i, e in enumerate(filt.edges):
        if not e.top_left:
            children.setdefault(e.src, []).append(i)
    out: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(0, [])]
    while stack:
        v, path = stack.pop()
        kids = children.get(v)
        if not kids:
            if path:
                out.append(path)
            continue
        for i in kids:
            stack.append((filt.edges[i].tgt, path + [i]))
    return out


def itinerary(g: CoxeterGraph, filt: FilterDiagram,
              bounds: Optional[tuple[int, int, int, int]] = None
              ) -> tuple[int, list[str]]:
    """(wide windows checked, failure messages) of the itinerary phase,
    under ``bounds`` or the graph's own."""
    q, l_cap, n_cap, r_gamma = bounds or default_bounds(g)
    fails: list[str] = []
    windows = 0
    for path in root_paths(filt):
        k = len(path)
        for a in range(k):
            mask = 0
            for z in range(a, k):
                e = filt.edges[path[z]]
                mask |= 1 << g.index(e.label)
                wide = subset_table(g).wide_cover(mask) is not None
                if not wide:
                    break
                windows += 1
                seg = [filt.edges[i] for i in path[a:z + 1]]
                off_boundary = all(ed.boundary is None for ed in seg)
                i_count = sum(1 for ed in seg if ed.cls == "I")
                if i_count > q:
                    fails.append(f"wide window with {i_count} I-edges")
                lr = sum(1 for j in range(len(seg) - 1)
                         if seg[j].cls == "L" and seg[j + 1].cls == "R")
                if lr > q:
                    fails.append(f"wide window with {lr} LR-subpaths")
                run = 0
                for ed in seg:
                    run = run + 1 if ed.cls == "L" else 0
                    if run >= l_cap and off_boundary:
                        fails.append("wide window with an L-run of length "
                                     f"{run}")
                        break
                if off_boundary and len(seg) > n_cap:
                    fails.append(f"off-boundary wide window of length "
                                 f"{len(seg)} exceeds cap {n_cap}")
        run = 0
        for i in path:
            e = filt.edges[i]
            run = run + 1 if (e.cls == "R" and e.boundary is None) else 0
            if run > r_gamma:
                fails.append(f"off-boundary R-run of length {run}")
                break
    return windows, fails


def check_fan(g: CoxeterGraph, fan: FanDiagram,
              orbit_cap: int = DEFAULT_ORBIT_CAP) -> FanCheck:
    """The fan axioms, checked in full on the names."""
    fails: list[str] = []
    labels = fan.labels
    if len(labels) < 3:
        fails.append(f"only {len(labels)} fan edges, need at least 3")
    if len(fan.cells) != len(labels) - 1:
        fails.append("cell count does not match fan edge count")
    base = tuple(fan.base)
    if not is_geodesic(g, base, orbit_cap):
        fails.append("base word is not geodesic")
        return FanCheck(False, tuple(fails))
    for i in range(len(labels) - 1):
        a, b = g.index(labels[i]), g.index(labels[i + 1])
        if a == b:
            fails.append(f"fan letters {i},{i + 1} coincide")
            continue
        m = g.m(a, b)
        if m is None:
            fails.append(f"fan letters {labels[i]},{labels[i + 1]} not adjacent")
        elif i < len(fan.cells) and fan.cells[i] != 2 * m:
            fails.append(f"cell {i} is a {fan.cells[i]}-gon, expected {2 * m}-gon")
    for i, lab in enumerate(labels):
        if not is_geodesic(g, base + (lab,), orbit_cap):
            fails.append(f"base + fan letter {lab} (position {i}) not geodesic")
    for i in range(min(len(fan.cells), len(labels) - 1)):
        lam, rho = fan.side_words(i)
        if not is_geodesic(g, base + lam, orbit_cap):
            fails.append(f"base + left side of cell {i} not geodesic")
        if not is_geodesic(g, base + rho, orbit_cap):
            fails.append(f"base + right side of cell {i} not geodesic")
    tail, _ = wide_tail(g, base, orbit_cap)
    if tail != fan.tail:
        fails.append("recorded tail differs from the wide tail of the base")
    long_tail = len(tail) > compute_constants(g).m_gamma
    want_case = "wide-tail" if long_tail else "short-tail"
    if fan.case != want_case:
        fails.append(f"recorded case {fan.case!r}, but the tail length "
                     f"dictates {want_case!r}")
    if long_tail:
        tail_mask = g.mask_of(tuple(set(tail)))
        interior = g.mask_of(tuple(set(labels[1:-1])))
        if not any(tail_mask & ~wm == 0 and interior & wm == 0
                   for wm in memo_wide_sets(g)):
            fails.append("no wide subgraph contains the tail label and "
                         "avoids all interior fan letters")
    return FanCheck(not fails, tuple(fails))


def literal_paths(g: CoxeterGraph, filt: FilterDiagram, orbit_cap: int,
                  enum_len: int, enum_cap: int) -> tuple[list[str], int, bool]:
    """The failures, the count and the cap flag of the literal enumeration
    of rooted directed paths (depth first), each path normalized whole."""
    out_edges: dict[int, list[int]] = {}
    for i, e in enumerate(filt.edges):
        out_edges.setdefault(e.src, []).append(i)
    fails: list[str] = []
    count = 0
    stack: list[tuple[int, tuple[str, ...]]] = [(0, ())]
    while stack:
        v, word = stack.pop()
        if word:
            count += 1
            if count > enum_cap:
                return fails, count, True
            if not is_geodesic(g, word, orbit_cap):
                fails.append(f"rooted path {word} not geodesic")
        if len(word) < enum_len:
            for i in out_edges.get(v, []):
                e = filt.edges[i]
                stack.append((e.tgt, word + (e.label,)))
    return fails, count, False


def check_filter(g: CoxeterGraph, filt: FilterDiagram,
                 orbit_cap: int = DEFAULT_ORBIT_CAP, enum_len: int = 14,
                 enum_cap: int = 200_000, samples: int = 64,
                 sample_len: int = 40, seed: int = 0) -> FilterCheck:
    """``check_filter`` phase by phase on the names, with the fan phase on
    ``check_fan``, the literal enumeration on ``literal_paths`` and the
    itinerary phase on ``itinerary``."""
    stats: dict[str, int] = {}
    edges, vertices = filt.edges, filt.vertices
    for v in vertices:
        for name in v.element:
            g.index(name)
    for e in edges:
        g.index(e.label)
    fails = id_failures(filt)
    if fails:
        return FilterCheck(False, tuple(fails), stats)
    _, _, _, fails = tree_shape(filt)

    canon = [normalize(g, v.element, orbit_cap) for v in vertices]
    for v, vert in enumerate(vertices):
        if len(canon[v]) != len(vert.element):
            fails.append(f"vertex {v} element word not geodesic")
    for i, e in enumerate(edges):
        word = tuple(vertices[e.src].element) + (e.label,)
        got = normalize(g, word, orbit_cap)
        if len(got) != len(word) or got != canon[e.tgt]:
            fails.append(f"edge {i} does not extend its source geodesically")
    stats["edges_checked"] = len(edges)

    found, count, capped = literal_paths(g, filt, orbit_cap, enum_len,
                                         enum_cap)
    fails += found
    stats["paths_enumerated"] = count
    stats["path_enum_capped"] = int(capped)
    out_edges: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        out_edges.setdefault(e.src, []).append(i)
    rng = random.Random(seed)
    for _ in range(samples):
        v, word = 0, ()
        while len(word) < sample_len and out_edges.get(v):
            e = edges[rng.choice(out_edges[v])]
            word += (e.label,)
            v = e.tgt
        if word and not is_geodesic(g, word, orbit_cap):
            fails.append(f"sampled path {word} not geodesic")
    stats["paths_sampled"] = samples

    for ci, c in enumerate(filt.cells):
        lam, rho = c.lam, c.rho
        if len(lam) != len(rho):
            fails.append(f"cell {ci}: unequal sides")
            continue
        if not lam:
            fails.append(f"cell {ci}: empty sides")
            continue
        s, t = edges[lam[0]].label, edges[rho[0]].label
        m = g.m(g.index(s), g.index(t))
        if m is None or len(lam) != m:
            fails.append(f"cell {ci}: sides have length {len(lam)}, "
                         f"expected m({s},{t})")
            continue
        for j, i in enumerate(lam):
            if edges[i].label != (s if j % 2 == 0 else t):
                fails.append(f"cell {ci}: left side not alternating")
        for j, i in enumerate(rho):
            if edges[i].label != (t if j % 2 == 0 else s):
                fails.append(f"cell {ci}: right side not alternating")
        if not edges[lam[-1]].top_left:
            fails.append(f"cell {ci}: last left edge not marked top-left")
        if any(edges[i].top_left for i in lam[:-1] + rho[1:]):
            fails.append(f"cell {ci}: stray top-left marking")
        if edges[lam[-1]].tgt != edges[rho[-1]].tgt:
            fails.append(f"cell {ci}: sides do not meet at a top vertex")
        if not vertices[edges[lam[-1]].tgt].is_top:
            fails.append(f"cell {ci}: meeting vertex not marked top")
        want_cycle = ((edges[lam[0]].src,)
                      + tuple(edges[i].tgt for i in lam)
                      + tuple(edges[i].tgt for i in reversed(rho[:-1])))
        if c.cycle != want_cycle:
            fails.append(f"cell {ci}: stored vertex cycle mismatch")
        for i in lam[1:]:
            if edges[i].cls not in (None, "R"):
                fails.append(f"cell {ci}: left-side edge {i} classed "
                             f"{edges[i].cls}, expected R")
        for i in rho[1:]:
            if edges[i].cls not in (None, "L"):
                fails.append(f"cell {ci}: right-side edge {i} classed "
                             f"{edges[i].cls}, expected L")
        if edges[rho[0]].cls == "R" and edges[lam[0]].cls not in (None, "I"):
            fails.append(f"cell {ci}: right-bounded cell with "
                         f"{edges[lam[0]].cls} first left edge")
        if edges[lam[0]].cls == "L" and edges[rho[0]].cls not in (None, "I"):
            fails.append(f"cell {ci}: left-bounded cell with "
                         f"{edges[rho[0]].cls} first right edge")

    for fi, f in enumerate(filt.fans):
        # a non-adjacent pair has no cell (0) and a base that is not
        # geodesic no wide tail: ``check_fan`` reports both before it
        # reads either
        cells = tuple(
            2 * (g.m(g.index(f.labels[i]), g.index(f.labels[i + 1])) or 0)
            for i in range(len(f.labels) - 1))
        tail = wide_tail(g, f.base, orbit_cap) \
            if is_geodesic(g, f.base, orbit_cap) else ((), None)
        fan = FanDiagram(f.base, f.labels, cells, *tail, f.case, ())
        sub = check_fan(g, fan, orbit_cap)
        if not sub.ok:
            fails.append(f"fan {fi}: " + "; ".join(sub.failures))
        if edges[f.edge_ids[0]].cls != "L":
            fails.append(f"fan {fi}: left fan edge not classed L")
        if edges[f.edge_ids[-1]].cls != "R":
            fails.append(f"fan {fi}: right fan edge not classed R")
        if any(edges[i].cls != "I" for i in f.edge_ids[1:-1]):
            fails.append(f"fan {fi}: interior fan edge not classed I")
        if normalize(g, f.base, orbit_cap) != canon[f.apex]:
            fails.append(f"fan {fi}: base word does not reach its apex")

    windows, found = itinerary(g, filt)
    fails += found
    stats["wide_windows_checked"] = windows
    stats["itinerary_cap"] = default_bounds(g)[2]
    return FilterCheck(not fails, tuple(fails), stats)
