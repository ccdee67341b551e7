"""The path-by-path itinerary check that the window walk of
``check_filter`` replaced.

It walks every maximal directed spanning-tree path from the basepoint,
looks up the wideness of every window's label mask again, and re-scans
each wide window's segment for its counts.  That is how ``check_filter``
checked the itinerary bounds before the one pass over the spanning tree,
so ``test_filter_itinerary.py`` compares window counts and whole failure
lists with it.  It costs O(k^3) on a path of k edges: keep filters small.
"""

from __future__ import annotations

from typing import Optional

from coxwide.avoidance import label_in_wide_subgraph
from coxwide.classification import compute_constants
from coxwide.filters import FilterDiagram
from coxwide.graphs import CoxeterGraph


def default_bounds(g: CoxeterGraph) -> tuple[int, int, int, int]:
    """(Q, L-run cap, window cap, R-run cap) from the constants (V, M, R)."""
    c = compute_constants(g)
    q = c.m_gamma + c.v_gamma + 1
    l_cap = c.r_gamma * (c.m_gamma + c.v_gamma + 2)
    n_cap = 2 * q * (c.r_gamma * (c.m_gamma + c.v_gamma + 2)
                     + c.r_gamma) + 3 * q
    return q, l_cap, n_cap, c.r_gamma


def root_paths(filt: FilterDiagram) -> list[list[int]]:
    children: dict[int, list[int]] = {}
    for i in filt.tree_edges():
        children.setdefault(filt.edges[i].src, []).append(i)
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
                wide = label_in_wide_subgraph(g, mask) is not None
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
