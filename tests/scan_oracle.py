"""The per-mask subset scans that ``classification.SubsetTable`` replaced,
and the pair-by-pair avoidance deciders that ``avoidance._blocked_pairs``
replaced, and the dynamic program over all 2^n masks that found the wide
sets before ``SubsetTable.wide`` enumerated them from irreducible
components, and the table's former clique builder with the edge-list
matchers it ran on every irreducible clique (and the tree walkers they
read, which ``_match_clique`` replaced by one shape table), and the former
maximal wide sets, filtered out of the full wide list before
``SubsetTable.maximal_wide`` took them from their cores.

Each scan walks every subset (or every subset of a ground set),
splits it into irreducible components and matches each component against
the finite and affine tables, with no clique shortcut and no memo.  That
is how the library answered before the table, so the differential tests
in ``test_subset_table.py`` compare the table with these scans.  They are
exponential in the vertex count: keep the graphs small.

The pair-by-pair deciders run one path search per pair and blocked set, in
the order that picks the library's witnesses, so ``test_avoidance.py``
compares whole reports with them.

``sorted_separator`` is the separator scan as it was before it started
at the common-neighbour floor: every spherical set in size-lex order.

The former clique builder recomputed each candidate's common neighbours
and components and matched every irreducible clique by its edge list;
``test_table_build.py`` compares the table's build with it.

``wide_spherical_avoidant_all_joins`` is the wide-spherical-avoidance
decider as it was before it tested only the core blocked sets: it reads
every wide set, every component bipartition of each and the maximal
spherical sets of every join's ground, filtered out of all spherical sets
by ``maximal_spherical``, as ``SubsetTable.maximal_spherical`` once did.

``lex_least_path`` is ``fans._lex_least_path`` as it was before it walked
mask layers: a breadth-first search with a distance dict.

``build_fan_attempts`` is ``fans._build_fan`` as it was when a long tail
had two blocked sets: the join set C1 | D2 | K' and, when it differs, the
whole containing wide set with the ending letters, Delta | K, tried in turn
under each round; ``test_fans.py`` compares the one-set builder with it.

``wide_holds_tail`` is the fans' wide-tail condition as ``fans._verify_fan``
decided it before it read the cores: a scan of the whole list of wide sets
for one that holds the tail and misses the interior fan letters;
``test_fan_tail_cores.py`` compares ``fans._wide_holds_tail`` with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from coxwide.avoidance import (AvoidanceReport, SpecialJoin, _blocked_pairs,
                               _join_grounds)
from coxwide.classification import (DEFAULT_SUBSET_CAP, GroupConstants,
                                    IrreducibleVerdict, _is_clique,
                                    compute_constants, subset_table)
from coxwide.errors import ConstructionError
from coxwide.fans import (FanDiagram, _blocked_for_tail, _fan_failures,
                          _lex_least_path, _mask)
from coxwide.graphs import CoxeterGraph, bits, popcount, submasks
from coxwide.words import _wide_suffix


# ---------------------------------------------------------------------------
# the edge-list matchers and the clique builder of the former subset table


def _diagram_edges(g: CoxeterGraph, mask: int) -> list[tuple[int, int, Optional[int]]]:
    """Conventional-diagram edges inside mask: pairs with m >= 3 or m = inf."""
    vs = list(bits(mask))
    out = []
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            i, j = vs[a], vs[b]
            m = g.m(i, j)
            if m is None or m >= 3:
                out.append((i, j, m))
    return out


def _path_label_sequence(edges) -> list[int]:
    """Label sequence along a path diagram, from one end to the other."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, j, m in edges:
        adj.setdefault(i, []).append((j, m))
        adj.setdefault(j, []).append((i, m))
    ends = [v for v, nb in adj.items() if len(nb) == 1]
    start = min(ends)
    seq = []
    prev, cur = None, start
    while True:
        nxt = [(w, m) for w, m in adj[cur] if w != prev]
        if not nxt:
            break
        w, m = nxt[0]
        seq.append(m)
        prev, cur = cur, w
    return seq


def _branch_arms(edges) -> list[list[tuple[int, int, int]]]:
    """Arms (edge lists, branch vertex outward) of the unique degree-3 vertex."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, j, m in edges:
        adj.setdefault(i, []).append((j, m))
        adj.setdefault(j, []).append((i, m))
    center = next(v for v, nb in adj.items() if len(nb) == 3)
    arms = []
    for w, m in sorted(adj[center]):
        arm = [(center, w, m)]
        prev, cur = center, w
        while len(adj[cur]) == 2:
            nxt = [(x, mm) for x, mm in adj[cur] if x != prev][0]
            arm.append((cur, nxt[0], nxt[1]))
            prev, cur = cur, nxt[0]
        arms.append(arm)
    return arms


def _double_branch_leaf_arms(edges) -> tuple[int, int]:
    """For a tree with exactly two degree-3 vertices: how many length-1 arms each has."""
    adj: dict[int, list[int]] = {}
    for i, j, _ in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    centers = [v for v, nb in adj.items() if len(nb) == 3]
    counts = []
    for c in centers:
        leaf_arms = sum(1 for w in adj[c] if len(adj[w]) == 1)
        counts.append(leaf_arms)
    return tuple(sorted(counts))


def _match_finite(rank: int, edges: list[tuple[int, int, Optional[int]]]
                  ) -> Optional[tuple[str, int]]:
    """Return (family, longest_length) when the diagram is a finite type."""
    if any(m is None for _, _, m in edges):
        return None
    if rank == 1:
        return ("A1", 1) if not edges else None
    if len(edges) != rank - 1:
        return None  # finite diagrams are trees
    deg = Counter(v for i, j, _ in edges for v in (i, j))
    if len(deg) != rank:
        return None  # disconnected (tree edge count but isolated vertex)
    degs = sorted(deg.values())
    labels = sorted(m for _, _, m in edges)
    if rank == 2:
        m = labels[0]
        if m == 3:
            return ("A2", 3)
        if m == 4:
            return ("B2", 4)
        return (f"I2({m})", m)
    if degs[-1] > 3 or degs.count(3) > 1:
        return None
    branched = degs[-1] == 3
    if not branched:
        # path: read off the label sequence
        seq = _path_label_sequence(edges)
        n = rank
        if all(m == 3 for m in seq):
            return (f"A{n}", n * (n + 1) // 2)
        if labels.count(4) == 1 and labels.count(3) == len(labels) - 1:
            if seq[0] == 4 or seq[-1] == 4:
                return (f"B{n}", n * n)
            if n == 4 and seq[1] == 4:
                return ("F4", 24)
            return None
        if labels.count(5) == 1 and labels.count(3) == len(labels) - 1:
            if n == 3 and (seq[0] == 5 or seq[-1] == 5):
                return ("H3", 15)
            if n == 4 and (seq[0] == 5 or seq[-1] == 5):
                return ("H4", 60)
            return None
        return None
    # one branch vertex of degree 3
    if any(m != 3 for m in labels):
        return None
    arms = sorted(len(a) for a in _branch_arms(edges))
    n = rank
    if arms == [1, 1, n - 3]:
        return (f"D{n}", n * (n - 1))
    if arms == [1, 2, 2] and n == 6:
        return ("E6", 36)
    if arms == [1, 2, 3] and n == 7:
        return ("E7", 63)
    if arms == [1, 2, 4] and n == 8:
        return ("E8", 120)
    return None


def _match_affine(rank: int, edges: list[tuple[int, int, Optional[int]]]
                  ) -> Optional[str]:
    """Return the affine family name for diagrams of rank >= 3, else None."""
    if rank < 3 or any(m is None for _, _, m in edges):
        return None
    deg = Counter(v for i, j, _ in edges for v in (i, j))
    if len(deg) != rank:
        return None  # disconnected
    labels = sorted(m for _, _, m in edges)
    degs = sorted(deg.values())
    n = rank - 1  # affine X~_n has n+1 vertices
    if len(edges) == rank:
        # the only affine diagram with a cycle is the (n+1)-cycle, all 3s
        if degs == [2] * rank and all(m == 3 for m in labels):
            return f"A~{n}"
        return None
    if len(edges) != rank - 1:
        return None
    branch_count = sum(1 for d in degs if d >= 3)
    if branch_count == 0:
        seq = _path_label_sequence(edges)
        if seq == [6, 3] or seq == [3, 6]:
            return "G~2"
        if seq[0] == 4 and seq[-1] == 4 and all(m == 3 for m in seq[1:-1]):
            return f"C~{n}"
        if rank == 5 and sorted(seq) == [3, 3, 3, 4] and seq[0] != 4 and seq[-1] != 4:
            return "F~4"
        return None
    if any(m not in (3, 4) for m in labels):
        return None
    if degs[-1] == 4 and degs.count(4) == 1 and rank == 5 and all(m == 3 for m in labels):
        return "D~4"
    if degs[-1] > 3:
        return None
    if degs.count(3) == 1:
        arms = _branch_arms(edges)
        arm_lens = sorted(len(a) for a in arms)
        if all(m == 3 for m in labels):
            if arm_lens == [2, 2, 2] and rank == 7:
                return "E~6"
            if arm_lens == [1, 3, 3] and rank == 8:
                return "E~7"
            if arm_lens == [1, 2, 5] and rank == 9:
                return "E~8"
            return None
        # B~_n: two label-3 leaf arms plus a tail whose far edge is labeled 4
        if labels.count(4) == 1:
            short = [a for a in arms if len(a) == 1]
            long = [a for a in arms if len(a) > 1]
            if len(short) >= 2 and len(short) + len(long) == 3:
                tail = long[0] if long else None
                if tail is None:
                    # rank 4 star: arms all length 1, one arm edge labeled 4
                    if rank == 4:
                        return "B~3"
                    return None
                # the 4 must sit on the far end of the tail arm
                if tail[-1][2] == 4 and all(e[2] == 3 for e in tail[:-1]) \
                        and all(e[2] == 3 for a in short for e in a):
                    return f"B~{n}"
            return None
        return None
    if degs.count(3) == 2 and all(m == 3 for m in labels):
        # D~_n: two branch vertices, each with two leaf arms, joined by a path
        arms_per = _double_branch_leaf_arms(edges)
        if arms_per == (2, 2):
            return f"D~{n}"
    return None


def _irreducible_verdict(g: CoxeterGraph, mask: int) -> IrreducibleVerdict:
    """Classify an irreducible mask.  A non-clique holds an infinite bond,
    which no finite or affine diagram has, so it skips the table matching."""
    rank = popcount(mask)
    if _is_clique(g, mask):
        edges = _diagram_edges(g, mask)
        fin = _match_finite(rank, edges)
        if fin is not None:
            family, longest = fin
            return IrreducibleVerdict("FiniteType", family, rank, longest)
        aff = _match_affine(rank, edges)
        if aff is not None:
            return IrreducibleVerdict("AffineType", aff, rank, None)
    elif rank == 2:
        return IrreducibleVerdict("InfiniteDihedral", "A~1", 2, None)
    return IrreducibleVerdict("OtherInfinite", None, rank, None)


def max_label(g: CoxeterGraph) -> int:
    """``CoxeterGraph.max_label`` as it was, read from ``edge_list``."""
    labs = [lab for _, _, lab in g.edge_list()]
    return max(labs) if labs else 2


def is_racg(g: CoxeterGraph) -> bool:
    """``CoxeterGraph.is_racg`` as it was, read from ``edge_list``."""
    return all(lab == 2 for _, _, lab in g.edge_list())


def clique_table(g: CoxeterGraph):
    """``SubsetTable.__init__`` as it was: (longest, spherical, affine,
    constants).  Each candidate recomputes the common neighbours of its
    clique and the components of the grown set, and every irreducible
    clique runs the edge-list matchers."""
    full = g.full_mask()
    longest = {0: 0}
    affine = []
    # Breadth-first by size: a clique grows by a vertex above its
    # highest one, and only spherical cliques grow.  That reaches every
    # spherical set and every irreducible affine set (their proper
    # subsets are spherical), and a set's smaller subsets are all
    # settled before it is reached.  The loop appends to ``queue``.
    queue = [0]
    for c in queue:
        common = full & ~((1 << c.bit_length()) - 1)
        for i in bits(c):
            common &= g.neighbors_mask(i)
        for v in bits(common):
            s = c | (1 << v)
            comp = g.irreducible_components_mask(s)[0]
            if comp != s:
                a, b = longest.get(comp), longest.get(s ^ comp)
                if a is None or b is None:
                    continue
                longest[s] = a + b
            else:
                verdict = _irreducible_verdict(g, s)
                if verdict.kind == "AffineType":
                    affine.append(s)
                if verdict.kind != "FiniteType":
                    continue
                longest[s] = verdict.longest_length
            queue.append(s)
    spherical = tuple(sorted(longest, reverse=True))
    constants = GroupConstants(g.n, max(longest.values()), max_label(g))
    return longest, spherical, frozenset(affine), constants


def size_lex(longest) -> list[int]:
    """The spherical masks by size, then by their ascending vertex lists:
    the order ``spherical_separator`` sorted them in."""
    return sorted(longest, key=lambda m: (popcount(m), tuple(bits(m))))


def sorted_separator(g: CoxeterGraph, longest) -> Optional[int]:
    """``spherical_separator`` as it was, on the given spherical sets:
    the first separating one in ``size_lex`` order."""
    full = g.full_mask()
    for mask in size_lex(longest):
        rest = full & ~mask
        if rest and len(g.components_within(rest)) > 1:
            return mask
    return None


# ---------------------------------------------------------------------------
# the per-mask scans


def classify_component(g: CoxeterGraph, mask: int) -> IrreducibleVerdict:
    rank = popcount(mask)
    edges = _diagram_edges(g, mask)
    fin = _match_finite(rank, edges)
    if fin is not None:
        return IrreducibleVerdict("FiniteType", fin[0], rank, fin[1])
    if rank == 2:
        return IrreducibleVerdict("InfiniteDihedral", "A~1", 2, None)
    aff = _match_affine(rank, edges)
    if aff is not None:
        return IrreducibleVerdict("AffineType", aff, rank, None)
    return IrreducibleVerdict("OtherInfinite", None, rank, None)


def longest_element_length_mask(g: CoxeterGraph, mask: int) -> Optional[int]:
    total = 0
    for c in g.irreducible_components_mask(mask):
        v = classify_component(g, c)
        if v.kind != "FiniteType":
            return None
        total += v.longest_length
    return total


def is_spherical_mask(g: CoxeterGraph, mask: int) -> bool:
    return longest_element_length_mask(g, mask) is not None


def m_gamma(g: CoxeterGraph) -> int:
    best = 0
    for mask in submasks(g.full_mask()):
        longest = longest_element_length_mask(g, mask)
        if longest is not None and longest > best:
            best = longest
    return best


def spherical_separator(g: CoxeterGraph) -> Optional[int]:
    full = g.full_mask()
    candidates = []
    for mask in submasks(full):
        rest = full & ~mask
        if rest and len(g.components_within(rest)) > 1 \
                and is_spherical_mask(g, mask):
            candidates.append(mask)
    if not candidates:
        return None
    return min(candidates, key=lambda m: (popcount(m), sorted(bits(m))))


def _affine_rank3(g: CoxeterGraph, comp: int) -> bool:
    v = classify_component(g, comp)
    return v.kind == "AffineType" and v.rank >= 3


def is_wide_mask(g: CoxeterGraph, mask: int) -> bool:
    if mask == 0:
        return False
    comps = g.irreducible_components_mask(mask)
    infinite = [c for c in comps
                if classify_component(g, c).kind != "FiniteType"]
    return len(infinite) >= 2 or any(_affine_rank3(g, c) for c in comps)


def wide_sets(g: CoxeterGraph) -> tuple[int, ...]:
    return tuple(m for m in sorted(submasks(g.full_mask()))
                 if is_wide_mask(g, m))


def wide_masks_dp(g: CoxeterGraph) -> tuple[int, ...]:
    """All wide masks, ascending, by the subset table's former dynamic
    program: every mask is split into its lowest irreducible component and
    the rest, whose code is already known."""
    table = subset_table(g)
    noncomm = tuple(g.noncommuting_mask(i) for i in range(g.n))
    size = 1 << len(noncomm)
    # reach[mask]: vertices not commuting with some vertex of mask
    reach = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | noncomm[low.bit_length() - 1]
    # code[mask]: infinite components (capped at 2), plus 4 when one
    # component is affine; recurrence on mask minus its lowest component
    code = bytearray(size)
    longest, affine = table.longest, table.affine
    wide = []
    for mask in range(1, size):
        comp = mask & -mask
        while True:
            grown = (reach[comp] & mask) | comp
            if grown == comp:
                break
            comp = grown
        c = code[mask ^ comp]
        if comp not in longest:
            if c & 3 < 2:
                c += 1
            if comp in affine:
                c |= 4
        code[mask] = c
        if c & 3 == 2 or c & 4:
            wide.append(mask)
    return tuple(wide)


def maximal_of_wide(wide) -> tuple[int, ...]:
    """``SubsetTable.maximal_wide`` as it was: the inclusion-maximal masks
    of the full wide list, ascending."""
    found: list[int] = []
    for m in sorted(wide, key=popcount, reverse=True):
        if not any(m & ~w == 0 for w in found):
            found.append(m)
    return tuple(sorted(found))


def maximal_wide_sets(g: CoxeterGraph) -> tuple[int, ...]:
    all_wide = wide_sets(g)
    return tuple(m for m in all_wide
                 if not any(m != w and m & ~w == 0 for w in all_wide))


def is_affine_free(g: CoxeterGraph) -> bool:
    return not any(_affine_rank3(g, c)
                   for mask in submasks(g.full_mask())
                   for c in g.irreducible_components_mask(mask))


def spherical_submasks(g: CoxeterGraph, ground: int) -> tuple[int, ...]:
    return tuple(m for m in submasks(ground) if is_spherical_mask(g, m))


def maximal_spherical_submasks(g: CoxeterGraph, ground: int) -> list[int]:
    sub = spherical_submasks(g, ground)
    return [m for m in sub if not any(m != s and m & ~s == 0 for s in sub)]


def _connected_pair(g: CoxeterGraph, s: int, t: int, allowed: int) -> bool:
    """Path from s to t all of whose vertices lie in ``allowed``."""
    if not (allowed >> s) & 1 or not (allowed >> t) & 1:
        return False
    return (g.component_of(s, allowed) >> t) & 1 == 1


def wide_avoidant_by_pairs(g: CoxeterGraph,
                           cap: int = DEFAULT_SUBSET_CAP) -> AvoidanceReport:
    full = g.full_mask()
    for wm in subset_table(g, cap).maximal_wide:
        for s in range(g.n):
            for t in range(s + 1, g.n):
                allowed = (full & ~wm) | (1 << s) | (1 << t)
                if not _connected_pair(g, s, t, allowed):
                    return AvoidanceReport(
                        False, blocking_set=g.names_of(wm),
                        pair=(g.vertices[s], g.vertices[t]))
    return AvoidanceReport(True)


def wide_spherical_avoidant_by_pairs(
        g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> AvoidanceReport:
    """Per pair, the maximal blocked sets among joins keeping the pair
    outside K."""
    table = subset_table(g, cap)
    decomps = list(_join_grounds(g, table))
    full = g.full_mask()
    for s in range(g.n):
        for t in range(s + 1, g.n):
            pair_mask = (1 << s) | (1 << t)
            for d, p, q, ground in decomps:
                for k in table.maximal_spherical(ground & ~pair_mask):
                    blocked = d | k
                    allowed = (full & ~blocked) | pair_mask
                    if not _connected_pair(g, s, t, allowed):
                        return AvoidanceReport(
                            False, blocking_set=g.names_of(blocked),
                            pair=(g.vertices[s], g.vertices[t]),
                            join=SpecialJoin(g.names_of(p), g.names_of(q),
                                             g.names_of(k)))
    return AvoidanceReport(True)


def maximal_spherical(table, ground: int) -> list[int]:
    """``SubsetTable.maximal_spherical`` as it was: every spherical set
    inside ``ground`` that no single vertex of ``ground`` extends,
    descending."""
    longest = table.longest
    return [m for m in sorted(longest, reverse=True) if m & ~ground == 0
            and not any(m | (1 << v) in longest for v in bits(ground & ~m))]


def wide_spherical_avoidant_all_joins(
        g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> AvoidanceReport:
    """``is_wide_spherical_avoidant`` as it was: the blocked sets D | K of
    every join, K maximal spherical in its ground; the least separated
    pair, the first join separating it and the first K of its ground
    minus the pair that does."""
    table = subset_table(g, cap)
    joins = list(_join_grounds(g, table))
    blocked = [[d | k for k in maximal_spherical(table, ground)]
               for d, _p, _q, ground in joins]
    separated = {b: _blocked_pairs(g, b) for b in set().union(*blocked)}
    firsts = [pairs[0] for pairs in separated.values() if pairs]
    if not firsts:
        return AvoidanceReport(True)
    pair = s, t = min(firsts)
    for (d, p, q, ground), sets in zip(joins, blocked):
        if any(pair in separated[b] for b in sets):
            outside = ground & ~(1 << s) & ~(1 << t)
            k = next(k for k in maximal_spherical(table, outside)
                     if pair in _blocked_pairs(g, d | k))
            return AvoidanceReport(
                False, blocking_set=g.names_of(d | k),
                pair=(g.vertices[s], g.vertices[t]),
                join=SpecialJoin(g.names_of(p), g.names_of(q), g.names_of(k)))


def lex_least_path(g: CoxeterGraph, s: int, t: int, allowed: int,
                   direct: bool = True) -> Optional[list[int]]:
    """Lexicographically least shortest path s -> t whose interior vertices
    lie in ``allowed`` (endpoints exempt), or None.  Without ``direct`` the
    edge s - t is left out, so the path found has length at least 2."""
    usable = allowed | (1 << s) | (1 << t)
    nbr = [g.neighbors_mask(u) & usable for u in range(g.n)]
    if not direct:
        nbr[s] &= ~(1 << t)
        nbr[t] &= ~(1 << s)
    dist = {t: 0}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for v in bits(nbr[u]):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if s not in dist:
        return None
    path = [s]
    cur = s
    while cur != t:
        step = min(v for v in bits(nbr[cur])
                   if dist.get(v, -1) == dist[cur] - 1)
        path.append(step)
        cur = step
    return path


def build_fan_attempts(g: CoxeterGraph, eng, w: tuple[int, ...], si: int,
                       ti: int) -> tuple[FanDiagram, list[int]]:
    """``fans._build_fan`` with its former attempt list: a short tail
    blocks K; a long one blocks the join set, then Delta | K when that
    differs.  Each round (direct, then the detour for adjacent letters)
    tries every blocked set in turn, and the error names the last one
    tried."""
    eng.require_geodesic(w + (si,))
    eng.require_geodesic(w + (ti,))
    k_mask = _mask(eng.ending_letters(w))
    start, delta = _wide_suffix(g, w)
    tail = eng.decode(w[start:])
    full = g.full_mask()

    attempts: list[tuple[str, int]] = []
    if len(tail) <= compute_constants(g).m_gamma:
        attempts.append(("short-tail", k_mask))
    else:
        joined = _blocked_for_tail(g, _mask(w[start:]), delta, k_mask)
        attempts.append(("wide-tail", joined))
        fallback = delta | k_mask
        if fallback != joined:
            attempts.append(("wide-tail", fallback))

    rounds = [True]
    if si != ti and g.m(si, ti) is not None:
        rounds.append(False)
    last_blocked = 0
    for direct in rounds:
        for case, blocked in attempts:
            last_blocked = blocked
            allowed = full & ~blocked
            if si == ti:
                zs = [z for z in bits(g.neighbors_mask(si) & allowed)]
                if not zs:
                    continue
                idx_path = [si, zs[0], si]
            else:
                path = _lex_least_path(g, si, ti, allowed, direct)
                if path is None:
                    continue
                idx_path = path if len(path) > 2 else [si, ti, si, ti]
            labels = eng.decode(idx_path)
            cells = tuple(2 * g.m(idx_path[i], idx_path[i + 1])
                          for i in range(len(idx_path) - 1))
            if not _fan_failures(g, eng, w, start, labels, cells, True, case):
                return FanDiagram(eng.decode(w), labels, cells, tail,
                                  g.names_of(delta) if delta else None, case,
                                  g.names_of(blocked)), idx_path
    raise ConstructionError(
        f"no fan from {g.vertices[si]} to {g.vertices[ti]}: every connecting "
        "path meets the blocked set",
        blocking_set=g.names_of(last_blocked))


def wide_holds_tail(g: CoxeterGraph, tail_mask: int, interior: int) -> bool:
    """Does some wide set hold ``tail_mask`` and miss ``interior``?  The
    former scan of ``fans._verify_fan`` over ``SubsetTable.wide``."""
    return any(tail_mask & ~wm == 0 and interior & wm == 0
               for wm in subset_table(g).wide)
