"""Wide subgraphs, special joins, and the avoidance deciders.

A subset of vertices is *wide* when it splits as P (disjoint union) Q with
every cross pair joined by an edge labeled 2 and either both parts generate
infinite groups or P is irreducible affine of rank >= 3 (Q may then be
anything, even empty).  Because cross pairs must commute, every irreducible
component of the subset lies entirely in P or in Q, so decompositions are
component bipartitions and wideness is decidable from the component
classification alone -- that is what ``wide_decomposition`` does; the
exhaustive bipartition search survives only as a test oracle.

The wide masks, the maximal wide masks, the spherical subsets of a ground
set and affine-freeness are read from the graph's ``SubsetTable`` (see
``coxwide.classification``), which is built once per graph after the cap
check; a single vertex set is still decided from its own components.

Both deciders test only inclusion-maximal blocked sets B, as blocking is
monotone in B, and find every pair s, t that B separates in one pass over
the components of V - B: the pair is joined outside B exactly when s and t
are adjacent or one component contains or touches both (``_blocked_pairs``).
The pass grows each component frontier by frontier and gathers what it
touches on the way, and it stops at the first component that, with its
neighbours, covers V: every pair then lies in what that component touches,
so B separates none.  When V - B is connected and every vertex of B has a
neighbour outside B, that is the first component, and the pass ends after
one search.

Wide-spherical-avoidance tests only the core blocked sets P | Cm(P) | K,
over the cores (P, Cm(P)) of the subset table (P affine, or infinite and
irreducible with Cm(P) non-spherical), with K maximal spherical in the
core's ground: the vertices outside P | Cm(P) adjacent to all of P.  Every
special join (P', Q, K) with D = P' | Q is dominated by one.  Take an
infinite component P1 of P'.  It is a component of D, so D lies in P1 |
Cm(P1).  The common neighbours of P1 include those of P', so the part of K
outside P1 | Cm(P1) is a spherical subset of P1's ground, and D | K lies in
P1 | Cm(P1) | K1 for a maximal one, K1.  And P1 is a core: P' is P1 when it
is affine, and otherwise Q is infinite and lies in Cm(P1).  Conversely each
core blocked set is the blocked set of the join (P, Cm(P), K).  Blocking is
monotone, so the pairs some join separates are the pairs some core blocked
set separates: the verdict and the least separated pair come from the
cores, each ground's maximal spherical sets found once, and no list of wide
sets is built.  Only when a pair is separated are the joins walked, lazily
and in the order of the wide sets, up to the first one that separates it,
which names the witness.

Wide-spherical-avoidance implies wide-avoidance for any labels, since
(P, Q, empty) is a special join for every wide set.  On right-angled graphs
the converse holds too: K commutes with P, so (P, Q | K) is a wide
decomposition of D | K, which lies in a maximal wide set.  ``classify``
relies on both facts.
"""

from __future__ import annotations

from .classification import (DEFAULT_SUBSET_CAP, check_cap, irreducible_kind,
                             is_spherical_mask, subset_table)
from .errors import Record, set_slot
from .graphs import CoxeterGraph, bits, popcount


class WideDecomposition(Record):
    """Witness that a vertex set is wide.

    kind: 'TwoInfiniteFactors' (both parts infinite) or 'AffineRank3Plus'
    (P irreducible affine of rank >= 3, Q unconstrained).
    """
    __slots__ = ("p",     # tuple[str, ...]
                 "q",     # tuple[str, ...]
                 "kind")  # str

    def to_json_obj(self) -> dict:
        return {"P": list(self.p), "Q": list(self.q), "kind": self.kind}


class SpecialJoin(Record):
    """(P, Q, K): (P, Q) a wide decomposition of P union Q; K empty or
    spherical with every K-vertex adjacent (any label) to every P-vertex.
    K attaches to P only; the asymmetry is part of the definition."""
    __slots__ = ("p",  # tuple[str, ...]
                 "q",  # tuple[str, ...]
                 "k")  # tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {"P": list(self.p), "Q": list(self.q), "K": list(self.k)}


class AvoidanceReport(Record):
    """Outcome of an avoidance check; witness fields are set on failure."""
    __slots__ = ("holds", "blocking_set", "pair", "join")

    def __init__(self, holds: bool,
                 blocking_set: tuple[str, ...] | None = None,
                 pair: tuple[str, str] | None = None,
                 join: SpecialJoin | None = None):
        set_slot(self, "holds", holds)
        set_slot(self, "blocking_set", blocking_set)
        set_slot(self, "pair", pair)
        set_slot(self, "join", join)

    def to_json_obj(self) -> dict:
        if self.holds:
            return {"holds": True, "witness": None}
        witness = {"blocking_set": list(self.blocking_set), "pair": list(self.pair)}
        if self.join is not None:
            witness["join"] = self.join.to_json_obj()
        return {"holds": False, "witness": witness}


# ---------------------------------------------------------------------------
# wideness


def wide_decomposition_mask(g: CoxeterGraph, mask: int) -> tuple[int, int, str] | None:
    """(P mask, Q mask, kind) for the canonical witness, or None if not wide."""
    comps = g.irreducible_components_mask(mask)
    infinite = [c for c in comps if irreducible_kind(g, c) != "FiniteType"]
    if len(infinite) >= 2:
        p = infinite[0]  # components come sorted by least vertex
        return p, mask & ~p, "TwoInfiniteFactors"
    # affine diagrams of rank 2 (A~1) count as InfiniteDihedral
    affine = [c for c in comps if irreducible_kind(g, c) == "AffineType"]
    if affine:
        p = affine[0]
        return p, mask & ~p, "AffineRank3Plus"
    return None


def wide_decomposition(g: CoxeterGraph, names) -> WideDecomposition | None:
    """Canonical wide decomposition of a vertex set, or None.

    P is the least-vertex infinite component (two-infinite case) or the least
    affine rank >= 3 component; Q is everything else in the set.
    """
    res = wide_decomposition_mask(g, g.mask_of(names))
    if res is None:
        return None
    p, q, kind = res
    return WideDecomposition(g.names_of(p), g.names_of(q), kind)


def is_wide(g: CoxeterGraph) -> bool:
    return wide_decomposition_mask(g, g.full_mask()) is not None


def wide_masks(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> tuple[int, ...]:
    """All wide subsets of the graph, ascending as masks.  Exponential in |V|."""
    check_cap(g, cap, "enumeration")
    return subset_table(g).wide


def maximal_wide_masks(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> tuple[int, ...]:
    check_cap(g, cap, "enumeration")
    return subset_table(g).maximal_wide


def enumerate_wide_subgraphs(g: CoxeterGraph, maximal_only: bool = False,
                             cap: int = DEFAULT_SUBSET_CAP) -> list[tuple[str, ...]]:
    masks = maximal_wide_masks(g, cap) if maximal_only else wide_masks(g, cap)
    return [g.names_of(m) for m in masks]


def label_in_wide_subgraph(g: CoxeterGraph, label_mask: int) -> int | None:
    """The first maximal wide subgraph containing the label set, or None."""
    check_cap(g, DEFAULT_SUBSET_CAP, "enumeration")
    return subset_table(g).wide_cover(label_mask)


# ---------------------------------------------------------------------------
# affine-freeness


def is_affine_free(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """No subset of generators has an affine irreducible component of rank >= 3.

    Such a component is itself an irreducible affine subset, so this asks
    whether the subset table found one.  Right-angled graphs are always
    affine-free: their conventional diagrams carry only infinity labels,
    while affine diagrams have finite ones.
    """
    check_cap(g, cap, "enumeration")
    return g.is_racg() or not subset_table(g).affine


# ---------------------------------------------------------------------------
# special joins


def _component_bipartitions(g: CoxeterGraph, mask: int):
    """Ordered (P, Q) wide decompositions of ``mask`` (Q possibly empty).

    Components are disjoint and non-empty, so distinct picks give distinct P.
    """
    comps = g.irreducible_components_mask(mask)
    for pick in range(1, 1 << len(comps)):
        p = 0
        for idx in bits(pick):
            p |= comps[idx]
        q = mask & ~p
        p_infinite = not is_spherical_mask(g, p)
        q_infinite = not is_spherical_mask(g, q)
        if p_infinite and q_infinite:
            yield p, q
        elif popcount(pick) == 1 and irreducible_kind(g, p) == "AffineType":
            yield p, q


def _common_neighbors(g: CoxeterGraph, p_mask: int) -> int:
    """Vertices adjacent (any label) to every vertex of ``p_mask``."""
    acc = g.full_mask()
    for i in bits(p_mask):
        acc &= g.neighbors_mask(i)
    return acc & ~p_mask


def _spherical_submasks(g: CoxeterGraph, ground: int) -> tuple[int, ...]:
    """Spherical subsets of ``ground``, descending as masks."""
    return tuple(sorted((m for m in subset_table(g).longest
                         if m & ~ground == 0), reverse=True))


def _join_grounds(g: CoxeterGraph, cap: int):
    """Yield ``(D, P, Q, ground)`` for every wide set D (ascending), every
    wide decomposition (P, Q) of D, and the vertices outside D adjacent to
    all of P: the ground set from which a special join's K is drawn."""
    for d in wide_masks(g, cap):
        for p, q in _component_bipartitions(g, d):
            yield d, p, q, _common_neighbors(g, p) & ~d


def enumerate_special_joins(g: CoxeterGraph, maximal_only: bool = False,
                            cap: int = DEFAULT_SUBSET_CAP) -> list[SpecialJoin]:
    """All special joins (ordered triples), deterministically sorted.

    With ``maximal_only``, keep those whose blocked set P|Q|K is
    inclusion-maximal among all blocked sets.
    """
    triples = [(p, q, k) for _d, p, q, ground in _join_grounds(g, cap)
               for k in _spherical_submasks(g, ground)]
    if maximal_only:
        blocked = [p | q | k for p, q, k in triples]
        triples = [j for j, b in zip(triples, blocked)
                   if not any(b != b2 and b & ~b2 == 0 for b2 in blocked)]
    triples.sort()
    return [SpecialJoin(g.names_of(p), g.names_of(q), g.names_of(k))
            for p, q, k in triples]


# ---------------------------------------------------------------------------
# the deciders


def _blocked_pairs(g: CoxeterGraph, blocked: int) -> list[tuple[int, int]]:
    """Pairs s < t, ascending, such that every path from s to t meets
    ``blocked`` outside its endpoints: s and t are not adjacent and no
    component of the complement contains or touches both.  Each component
    is grown frontier by frontier, and the neighbours gathered on the way
    are what it touches; one that touches all of V joins every pair."""
    full = g.full_mask()
    adj = g._adj
    reach = list(adj)
    todo = full & ~blocked
    while todo:
        comp = frontier = todo & -todo
        touched = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            touched |= nxt
            frontier = nxt & todo & ~comp
            comp |= frontier
        touched |= comp
        if touched == full:
            return []
        todo ^= comp
        for v in bits(touched):
            reach[v] |= touched
    return [(s, t) for s in range(g.n)
            for t in bits(full & ~reach[s] & ~((2 << s) - 1))]


def is_wide_avoidant(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> AvoidanceReport:
    """For every wide subgraph Delta and every vertex pair, some path meets
    Delta only in the endpoints.  Checked against maximal wide subgraphs only
    (avoiding a superset is stronger).  Vacuously true without wide subgraphs.
    """
    for wm in maximal_wide_masks(g, cap):
        pairs = _blocked_pairs(g, wm)
        if pairs:
            s, t = pairs[0]
            return AvoidanceReport(False, blocking_set=g.names_of(wm),
                                   pair=(g.vertices[s], g.vertices[t]))
    return AvoidanceReport(True)


def is_wide_spherical_avoidant(g: CoxeterGraph,
                               cap: int = DEFAULT_SUBSET_CAP) -> AvoidanceReport:
    """For every special join (P, Q, K) and pair s, t outside K, some path
    meets K|P|Q only in the endpoints.

    Only the sets D | K with K maximal spherical in the join's ground need
    testing: for a pair s, t the maximal spherical subsets of the ground
    minus s, t are the sets K - {s, t}, and whether K holds s or t does not
    change what D | K separates.  Of those, only the core blocked sets are
    tested (see the module docstring).  The witness is the least separated
    pair, the first join separating it and the first K of its ground minus
    the pair that does.
    """
    check_cap(g, cap, "enumeration")
    table = subset_table(g)
    spheres = {}  # ground -> its maximal spherical subsets
    blocked = set()
    for p, cm, _affine in table.cores():
        core = p | cm
        ground = _common_neighbors(g, p) & ~core
        ks = spheres.get(ground)
        if ks is None:
            ks = spheres[ground] = table.maximal_spherical(ground)
        blocked.update(core | k for k in ks)
    firsts = [pairs[0] for pairs in (_blocked_pairs(g, b) for b in blocked)
              if pairs]
    if not firsts:
        return AvoidanceReport(True)
    pair = s, t = min(firsts)
    for d, p, q, ground in _join_grounds(g, cap):
        outside = ground & ~(1 << s) & ~(1 << t)
        k = next((k for k in table.maximal_spherical(outside)
                  if pair in _blocked_pairs(g, d | k)), None)
        if k is not None:
            return AvoidanceReport(
                False, blocking_set=g.names_of(d | k),
                pair=(g.vertices[s], g.vertices[t]),
                join=SpecialJoin(g.names_of(p), g.names_of(q), g.names_of(k)))
