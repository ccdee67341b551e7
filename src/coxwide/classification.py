"""Recognition of finite and affine types, group constants, and ends.

A subset of generators is *spherical* when every irreducible component of its
induced system matches an entry of the classification table of finite Coxeter
groups.  Matching is done on the conventional diagram (edge iff m >= 3, with
non-adjacent pairs counting as edges labeled infinity), entirely by shape and
label analysis -- no numerics.

Hard-coded longest-element lengths (number of positive roots):
A_n: n(n+1)/2, B_n: n^2, D_n: n(n-1), E6: 36, E7: 63, E8: 120, F4: 24,
H3: 15, H4: 60, I2(m): m.

Subset questions (the constant M, spherical separators, wide subsets,
affine-freeness) are answered from one ``SubsetTable`` per graph, built on
first use and kept on the graph:

* Clique rule.  An absent edge is an infinite bond, and no finite or affine
  diagram has one, so every spherical set and every irreducible affine set
  is a clique of the defining graph.  Only irreducible cliques are matched
  against the tables; any other irreducible set is InfiniteDihedral at rank
  2 and OtherInfinite above.  The spherical sets are enumerated by growing
  spherical cliques one vertex at a time, which also reaches every
  irreducible affine set, since all its proper subsets are spherical.
* Recurrence.  The irreducible component of a set that holds its lowest
  vertex is split off, and the rest is looked up: the longest-element
  length of a spherical set is the component's plus the rest's.
* Wide sets from irreducible components.  Write Cm(P) for the vertices
  outside P that commute with every vertex of P.  A set D is wide exactly
  when it is P | Q with P irreducible and infinite, Q a subset of Cm(P), and
  either P affine or Q non-spherical.  Soundness: Q commutes with P, so P
  is an irreducible component of P | Q; it is infinite, and either it is an
  affine component or Q holds a second infinite component.  Completeness:
  D holds an affine component P, or two infinite components, one of them
  P; in both cases D - P lies in Cm(P), and in the second it is
  non-spherical.  So the affine sets each contribute every subset of their
  Cm, and the other P are grown from single vertices one non-commuting
  neighbour at a time (which reaches every irreducible set through
  irreducible sets).  Growth stops at a P whose Cm(P) is spherical: Cm
  only shrinks as P grows and subsets of spherical sets are spherical, so
  no P grown from it has a non-spherical Q.  A set P grown to is never cut
  off on the way, since its subsets P' have Cm(P') containing Cm(P).  The
  work is one step per irreducible set P with Cm(P) non-spherical (and
  per one-vertex extension of such a set), plus, for each such P that is
  infinite and for each affine P, one step per subset of Cm(P): each
  yields a wide set unless it is spherical.  A wide set arises once per
  infinite component that witnesses it, so the sets are gathered in a set
  and sorted.  No step visits all 2^n subsets.

Callers check their size caps before the table is built.  Queries on a
single subset (``is_spherical_mask``, ``classify_irreducible``) read the
table when the graph has one and otherwise classify the subset's
components directly, so they also answer on graphs beyond every cap.

The ends verdict rests on the standard theory of ends for Coxeter groups
(splittings over finite subgroups correspond to spherical separators of the
defining graph; D-infinity times finite is the only two-ended shape).  That
theory is classical background, not re-derived here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

from .errors import GraphFormatError, SizeCapError
from .graphs import CoxeterGraph, bits, popcount, submasks

DEFAULT_SUBSET_CAP = 20


@dataclass(frozen=True)
class IrreducibleVerdict:
    """Classification of one irreducible system.

    kind: 'FiniteType' | 'AffineType' | 'InfiniteDihedral' | 'OtherInfinite'
    family: e.g. 'A', 'B', 'D', 'E6', 'F4', 'H3', 'I2(7)', 'A~', 'C~', ...
            (None when kind gives no table name)
    rank: number of generators
    longest_length: length of the longest element for FiniteType, else None
    """
    kind: str
    family: Optional[str]
    rank: int
    longest_length: Optional[int]

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "family": self.family, "rank": self.rank,
                "longest_length": self.longest_length}


@dataclass(frozen=True)
class GroupConstants:
    """The three quantities every window/itinerary bound is phrased in.

    v_gamma: vertex count.
    m_gamma: maximum length of a geodesic word whose label set is spherical,
             i.e. the maximum longest-element length over spherical subsets
             (0 for the empty graph).
    r_gamma: maximum edge label, 2 for an edgeless graph by convention.
    """
    v_gamma: int
    m_gamma: int
    r_gamma: int

    def to_json_obj(self) -> dict:
        return {"V": self.v_gamma, "M": self.m_gamma, "R": self.r_gamma}


@dataclass(frozen=True)
class EndsVerdict:
    """kind: 'FiniteGroup' | 'TwoEnded' | 'MultiEnded' | 'OneEnded'.

    witness: for MultiEnded, a separating spherical vertex set (empty tuple
    when the graph itself is disconnected); for TwoEnded, the non-adjacent
    pair generating the infinite dihedral component; else None.
    """
    kind: str
    witness: Optional[tuple[str, ...]]

    def to_json_obj(self) -> dict:
        return {"kind": self.kind,
                "witness": None if self.witness is None else list(self.witness)}


# ---------------------------------------------------------------------------
# irreducible type matching


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


def _is_clique(g: CoxeterGraph, mask: int) -> bool:
    return all(mask & ~g.neighbors_mask(i) == 1 << i for i in bits(mask))


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


def classify_irreducible(g: CoxeterGraph, names) -> IrreducibleVerdict:
    """Classify one irreducible subset of generators.

    Raises GraphFormatError when the subset is empty or not irreducible.
    """
    mask = g.mask_of(names)
    if mask == 0:
        raise GraphFormatError("cannot classify the empty subset")
    comps = g.irreducible_components_mask(mask)
    if len(comps) != 1:
        raise GraphFormatError(
            f"subset {sorted(g.names_of(mask))} is reducible "
            f"({len(comps)} irreducible components)")
    return _irreducible_verdict(g, mask)


# ---------------------------------------------------------------------------
# the subset table


class SubsetTable:
    """Subset analysis of one graph; see the module docstring.

    longest: spherical mask -> length of its longest element (0 included).
    spherical: the spherical masks, descending (the order of ``submasks``).
    affine: the irreducible affine masks (all of rank >= 3).
    m_gamma: the constant M, the largest value in ``longest``.
    constants: (V, M, R) of the graph.
    The wide masks are filled on first use, from the commuting masks
    captured here (the table keeps no reference to the graph): D is wide
    exactly when D = P | Q with P irreducible and infinite, Q commuting
    with P, and P affine or Q non-spherical.  The affine P take every such
    Q; the other P are grown from single vertices, one non-commuting
    neighbour at a time, until the vertices commuting with P form a
    spherical set, past which no P grown further has a non-spherical Q.
    """

    def __init__(self, g: CoxeterGraph):
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
        self.longest = longest
        self.spherical = tuple(sorted(longest, reverse=True))
        self.affine = frozenset(affine)
        self.m_gamma = max(longest.values())
        self.constants = GroupConstants(g.n, self.m_gamma, g.max_label())
        self._comm = tuple(g.commuting_mask(i) for i in range(g.n))

    @cached_property
    def wide(self) -> tuple[int, ...]:
        """All wide masks, ascending; see the class docstring."""
        comm, longest = self._comm, self.longest
        full = (1 << len(comm)) - 1
        noncomm = [full & ~c for c in comm]
        found = set()
        for p in self.affine:
            cm = full
            for i in bits(p):
                cm &= comm[i]
            found.update(p | q for q in submasks(cm))
        # (P, Cm(P), P and its non-commuting neighbours); each P is pushed
        # once.  A vertex never commutes with itself here, so Cm(P) misses P.
        stack = [(1 << v, comm[v], noncomm[v]) for v in range(len(comm))]
        seen = {p for p, _, _ in stack}
        while stack:
            p, cm, reach = stack.pop()
            if cm in longest:
                continue
            if p not in longest:
                found.update(p | q for q in submasks(cm) if q not in longest)
            for u in bits(reach & ~p):
                grown = p | 1 << u
                if grown not in seen:
                    seen.add(grown)
                    stack.append((grown, cm & comm[u], reach | noncomm[u]))
        return tuple(sorted(found))

    @cached_property
    def maximal_wide(self) -> tuple[int, ...]:
        """Inclusion-maximal wide masks, ascending."""
        # a strict superset is larger, so it is seen first
        found: list[int] = []
        for m in sorted(self.wide, key=popcount, reverse=True):
            if not any(m & ~w == 0 for w in found):
                found.append(m)
        return tuple(sorted(found))

    @cached_property
    def wide_cover(self):
        """Label mask -> the first maximal wide mask containing it, or None."""
        found = self.maximal_wide
        return cache(lambda mask: next(
            (w for w in found if mask & ~w == 0), None))

    def maximal_spherical(self, ground: int) -> list[int]:
        """Inclusion-maximal spherical subsets of ``ground``, descending.
        Spherical sets are closed under subsets, so a maximal one cannot
        grow by a single vertex."""
        longest = self.longest
        return [m for m in self.spherical if m & ~ground == 0
                and not any(m | (1 << v) in longest for v in bits(ground & ~m))]


def subset_table(g: CoxeterGraph) -> SubsetTable:
    """The graph's subset table, built on first use and kept on the graph.
    Exponential in the worst case: callers check their caps first."""
    t = g._subsets
    if t is None:
        t = g._subsets = SubsetTable(g)
    return t


def irreducible_kind(g: CoxeterGraph, comp: int) -> str:
    """IrreducibleVerdict.kind of an irreducible mask, from the table when
    the graph has one."""
    t = g._subsets
    if t is None:
        return _irreducible_verdict(g, comp).kind
    if comp in t.longest:
        return "FiniteType"
    if comp in t.affine:
        return "AffineType"
    return "InfiniteDihedral" if popcount(comp) == 2 else "OtherInfinite"


# ---------------------------------------------------------------------------
# sphericity and constants


def is_spherical_mask(g: CoxeterGraph, mask: int) -> bool:
    """Does ``mask`` generate a finite group?  (Empty set: yes.)"""
    return longest_element_length_mask(g, mask) is not None


def is_spherical(g: CoxeterGraph, names) -> bool:
    return is_spherical_mask(g, g.mask_of(names))


def longest_element_length_mask(g: CoxeterGraph, mask: int) -> Optional[int]:
    """Length of the longest element of a spherical subset; None if not spherical."""
    t = g._subsets
    if t is not None:
        return t.longest.get(mask)
    total = 0
    for c in g.irreducible_components_mask(mask):
        verdict = _irreducible_verdict(g, c)
        if verdict.kind != "FiniteType":
            return None
        total += verdict.longest_length
    return total


def check_cap(g: CoxeterGraph, cap: int, layer: str) -> None:
    """SizeCapError naming ``layer`` when the graph has more than ``cap``
    vertices; every exponential subset query checks this first."""
    if g.n > cap:
        raise SizeCapError(cap, f"graph has {g.n} vertices, {layer} cap is {cap}")


def compute_constants(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> GroupConstants:
    """(V, M, R) of the graph, kept on its subset table; guarded by ``cap``."""
    check_cap(g, cap, "constants")
    return subset_table(g).constants


# ---------------------------------------------------------------------------
# ends


def ends_verdict(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> EndsVerdict:
    """Number-of-ends verdict with a witness where one exists.

    Order of tests matters: a finite group has zero ends; D-infinity times a
    finite group is two-ended even though, e.g., the middle vertex of P3 is a
    (degenerate) spherical separator; everything else with a spherical
    separator or a disconnected graph is multi-ended; the rest is one-ended.
    """
    check_cap(g, cap, "ends")
    full = g.full_mask()
    comps = g.irreducible_components_mask(full) if g.n else []
    infinite = [c for c in comps if irreducible_kind(g, c) != "FiniteType"]
    if not infinite:
        return EndsVerdict("FiniteGroup", None)
    if len(infinite) == 1 and \
            irreducible_kind(g, infinite[0]) == "InfiniteDihedral":
        return EndsVerdict("TwoEnded", g.names_of(infinite[0]))
    if len(g.components_within(full)) > 1:
        return EndsVerdict("MultiEnded", ())
    sep = spherical_separator(g)
    if sep is not None:
        return EndsVerdict("MultiEnded", g.names_of(sep))
    return EndsVerdict("OneEnded", None)


def spherical_separator(g: CoxeterGraph) -> Optional[int]:
    """Smallest (then lexicographically least) spherical separating set, as a mask.

    Returns None when no proper spherical subset disconnects the graph.
    """
    full = g.full_mask()
    for mask in sorted(subset_table(g).longest,
                       key=lambda m: (popcount(m), tuple(bits(m)))):
        rest = full & ~mask
        if rest and len(g.components_within(rest)) > 1:
            return mask
    return None
