"""Recognition of finite and affine types, group constants, and ends.

A subset of generators is *spherical* when every irreducible component of its
induced system matches an entry of the classification table of finite Coxeter
groups.  Matching is done on the conventional diagram (edge iff m >= 3, with
non-adjacent pairs counting as edges labeled infinity), entirely by shape and
label analysis -- no numerics.

Hard-coded longest-element lengths (number of positive roots):
A_n: n(n+1)/2, B_n: n^2, D_n: n(n-1), E6: 36, E7: 63, E8: 120, F4: 24,
H3: 15, H4: 60, I2(m): m.

Ranks 1 to 3 are read off the labels (``_match_clique``).  From rank 4
every finite or affine diagram but the cycle A~n is a tree (Humphreys,
*Reflection Groups and Coxeter Groups*, 2.4 and ch. 6).  A tree's *shape*
is its number of branch vertices (degree >= 3) and, for a path, its label
sequence read from the end giving the lexicographically smaller tuple,
else the label sequences of the arms of its first branch vertex, read
outwards, sorted by length and then labels, and ended by a 0 when they
stop at another branch vertex.  With n the rank of a finite type and
n + 1 that of an affine X~n, these are all the diagrams, by shape:

  A_n (n >= 4)   path 3 ... 3 (n - 1 labels)
  B_n (n >= 4)   path 3 ... 3 4 (n - 1 labels)
  D_n (n >= 4)   one branch vertex, arms (3), (3), (3 ... 3) (n - 3 labels)
  E6, E7, E8     one branch vertex, arms labeled 3 of lengths 1, 2, 2;
                 1, 2, 3; 1, 2, 4
  F4             path 3 4 3
  H4             path 3 3 5
  A~n (n >= 3)   not a tree: one cycle labeled 3 (the cycle rule below)
  B~n (n >= 3)   one branch vertex, arms (3), (3), (3 ... 3 4) (n - 2 labels)
  C~n (n >= 3)   path 4 3 ... 3 4 (n labels)
  D~4            one branch vertex, arms (3), (3), (3), (3)
  D~n (n >= 5)   two branch vertices, arms (3), (3), (3 ... 3 0) (n - 4
                 labels), and the other branch vertex holds just two leaves
  E~6, E~7, E~8  one branch vertex, arms labeled 3 of lengths 2, 2, 2;
                 1, 3, 3; 1, 2, 5
  F~4            path 3 3 4 3

The shapes are distinct, so a tree whose shape is in neither
``_free_length`` (at its rank) nor ``_FIXED`` is neither finite nor affine.

Subset questions (the constant M, spherical separators, wide subsets,
affine-freeness) are answered from one ``SubsetTable`` per graph, built on
first use and kept on the graph:

* Clique rule.  An absent edge is an infinite bond, and no finite or affine
  diagram has one, so every spherical set and every irreducible affine set
  is a clique of the defining graph.  Only irreducible cliques are matched
  against the tables; any other irreducible set is InfiniteDihedral at rank
  2 and OtherInfinite above.  The spherical sets are enumerated breadth-first
  by size, growing each spherical clique c by a vertex v above its highest
  one, which also reaches every irreducible affine set, since all its
  proper subsets are spherical.  Every set of a smaller size is settled
  before s = c | {v} is reached.  Each candidate s pays only for what is
  new in it:
  - Carried candidates.  With c the table keeps its candidates: the
    vertices above its highest one adjacent to all of it.  Those of s are
    the candidates of c above v that are adjacent to v, since a vertex is
    adjacent to all of s exactly when it is adjacent to all of c and to v.
  - Commuting step.  Let links be the vertices of c that do not commute
    with v.  When links is empty, {v} is an irreducible component of s and
    c is the rest, so the longest-element length of s is that of c plus 1.
    Otherwise a non-commuting path from v inside s leaves v through links
    and never returns to it, so the component K of s holding v is v and
    the closure of links inside c.  When K is not s, s is spherical exactly
    when K is, with length K's plus that of s - K, a subset of c: both are
    smaller than s, so both are settled.  Ranks 2 and 3 need no search.
    At rank 2, c = {x} and K = s is I2(m) with m = m(x, v), of length m.
    At rank 3, c = {i, j}, and K = s exactly when links = c or i and j do
    not commute, since then v, links and c are joined by non-commuting
    pairs; its verdict is read off the label triple.  Otherwise i and j
    commute and v links exactly one of them, x, so the other commutes with
    x and v: K = {x, v} and s - K is one vertex, and s has length
    m(x, v) + 1.
  - Prune.  From rank 4, a linked s is dropped before its search unless
    every s - {u} is settled spherical (below rank 4 those are vertices
    and pairs of a clique, always spherical).  That is exact whether s is
    reducible or not: a subset of a spherical set is spherical, and every
    proper subset of an irreducible affine set is spherical, so an s with
    a non-spherical s - {u} is neither.  When s is kept and reducible, K
    and s - K are proper subsets, so both are spherical.
  - Cycle rule.  When K is s, the diagram edges of s (its non-commuting
    pairs, all with finite labels) connect it, so their degrees sum to at
    least 2(rank - 1), with equality exactly for a tree.  Finite diagrams
    are trees, and the only affine diagram with a cycle is A~n: a single
    cycle, every degree 2 and every label 3; so a cycle is decided there,
    by the same matcher that classifies a single subset.  Only the
    remaining trees are matched, by their shape.
  - Size-lex order.  The build settles the spherical sets by size and,
    within a size, lexicographically by their ascending vertex lists.  By
    induction on the size: a set has one parent, itself less its highest
    vertex, which ends its vertex list; the parents come in this order,
    and each parent's children in ascending order of that last vertex.
    The build enters each spherical set in ``longest`` as it settles it,
    so ``longest`` keeps this order, and the first separating set in it
    is the smallest one, then the lexicographically least, which is what
    ``spherical_separator`` returns.
* Wide sets from irreducible components.  Write Cm(P) for the vertices
  outside P that commute with every vertex of P.  A set D is wide exactly
  when it is P | Q with P irreducible and infinite, Q a subset of Cm(P), and
  either P affine or Q non-spherical.  Soundness: Q commutes with P, so P
  is an irreducible component of P | Q; it is infinite, and either it is an
  affine component or Q holds a second infinite component.  Completeness:
  D holds an affine component P, or two infinite components, one of them
  P; in both cases D - P lies in Cm(P), and in the second it is
  non-spherical.  So every wide set is grown from a core (P, Cm(P)): P
  affine, or P infinite and irreducible with Cm(P) non-spherical.  The
  table keeps the cores, not the wide sets.  The affine P are the affine
  sets; the other P are grown from single vertices one non-commuting
  neighbour at a time (which reaches every irreducible set through
  irreducible sets).  Growth stops at a P whose Cm(P) is spherical: Cm
  only shrinks as P grows and subsets of spherical sets are spherical, so
  no P grown from it has a non-spherical Q.  A set P grown to is never cut
  off on the way, since its subsets P' have Cm(P') containing Cm(P).  The
  work is one step per irreducible set P with Cm(P) non-spherical (and
  per one-vertex extension of such a set); no step visits all 2^n
  subsets.  Only the witness walk of wide-spherical-avoidance grows wide
  sets from cores, and only from the cores that separate its pair (see
  ``coxwide.avoidance``).
* Maximal wide sets from closed commuting sets.  Call Y closed when it is
  an intersection of commuting masks, Y = Cm(S) for a non-empty S.  The
  candidates are the cores P | Cm(P) of the affine P, and X | Y for each
  non-spherical closed Y whose X = Cm(Y) is non-spherical too.  Every
  candidate is wide: an affine core holds the affine component P, and X
  and Y are disjoint (no vertex commutes with itself) and commute, so
  each holds an infinite component of X | Y.  Every maximal wide set D is
  a candidate: D = P | Q with P irreducible and infinite and Q in Cm(P),
  so D lies in P | Cm(P), which is wide (P is affine, or Cm(P) holds the
  non-spherical Q), hence is D.  If P is affine that is an affine core.
  Otherwise Y = Cm(P) is closed and non-spherical, X = Cm(Y) holds P, so
  it is infinite, and D = P | Y lies in the candidate X | Y, hence is it.
  So the maximal wide sets are the inclusion-maximal candidates.  The
  closed sets are found by intersecting one commuting mask at a time,
  starting from the single masks, and a spherical Y is dropped at once:
  every intersection below it is a subset, so spherical too, while every
  non-spherical closed set is reached through non-spherical ones, its
  supersets.  No irreducible P is grown.
* Separator floor.  A set S that separates the graph leaves two vertices
  a, b in different components of V - S; they are not adjacent, and S
  holds every common neighbour of a and b, else a path a, c, b would
  avoid S.  So no separator has fewer than k0 vertices, k0 being the
  least number of common neighbours of a non-adjacent pair, and a graph
  whose pairs are all adjacent has no separator.  The separator scan
  starts at size k0.  It tests each set S with one search inside R = V - S
  from R's lowest vertex, which S separates exactly when the search misses
  part of R.

Every reader reaches the table through ``subset_table``, which checks the
vertex cap on each call before it builds or returns the table; internal
helpers are handed the table.  Queries on a single subset
(``is_spherical_mask``, ``classify_irreducible``) read the table when the
graph has one and otherwise classify the subset's components directly, so
they also answer on graphs beyond every cap.

The ends verdict rests on the standard theory of ends for Coxeter groups
(splittings over finite subgroups correspond to spherical separators of the
defining graph; D-infinity times finite is the only two-ended shape).  That
theory is classical background, not re-derived here.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import permutations

from .errors import GraphFormatError, Record, SizeCapError
from .graphs import CoxeterGraph, bits, meet, popcount, reach

DEFAULT_SUBSET_CAP = 20


class IrreducibleVerdict(Record):
    """Classification of one irreducible system.

    kind: 'FiniteType' | 'AffineType' | 'InfiniteDihedral' | 'OtherInfinite'
    family: e.g. 'A', 'B', 'D', 'E6', 'F4', 'H3', 'I2(7)', 'A~', 'C~', ...
            (None when kind gives no table name)
    rank: number of generators
    longest_length: length of the longest element for FiniteType, else None
    """
    __slots__ = ("kind",            # str
                 "family",          # str | None
                 "rank",            # int
                 "longest_length")  # int | None


class GroupConstants(Record):
    """The three quantities every window/itinerary bound is phrased in.

    v_gamma: vertex count.
    m_gamma: maximum length of a geodesic word whose label set is spherical,
             i.e. the maximum longest-element length over spherical subsets
             (0 for the empty graph).
    r_gamma: maximum edge label, 2 for an edgeless graph by convention.
    """
    __slots__ = ("v_gamma",  # int
                 "m_gamma",  # int
                 "r_gamma")  # int

    def to_json_obj(self) -> dict:
        return {"V": self.v_gamma, "M": self.m_gamma, "R": self.r_gamma}


class EndsVerdict(Record):
    """kind: 'FiniteGroup' | 'TwoEnded' | 'MultiEnded' | 'OneEnded'.

    witness: for MultiEnded, a separating spherical vertex set (empty tuple
    when the graph itself is disconnected); for TwoEnded, the non-adjacent
    pair generating the infinite dihedral component; else None.
    """
    __slots__ = ("kind",     # str
                 "witness")  # tuple[str, ...] | None


# ---------------------------------------------------------------------------
# irreducible type matching


# The finite and affine irreducible systems of rank 3, by their ascending
# label triple (a commuting pair counts 2); ``_match_clique`` proves the
# list complete.
_RANK3 = {
    (2, 3, 3): IrreducibleVerdict("FiniteType", "A3", 3, 6),
    (2, 3, 4): IrreducibleVerdict("FiniteType", "B3", 3, 9),
    (2, 3, 5): IrreducibleVerdict("FiniteType", "H3", 3, 15),
    (2, 3, 6): IrreducibleVerdict("AffineType", "G~2", 3, None),
    (2, 4, 4): IrreducibleVerdict("AffineType", "C~2", 3, None),
    (3, 3, 3): IrreducibleVerdict("AffineType", "A~2", 3, None),
}
# ``_RANK3`` under every ordering of each triple, so a triple of labels is
# looked up as it is read, with no sort.
_RANK3_ANY_ORDER = {order: verdict for triple, verdict in _RANK3.items()
                    for order in permutations(triple)}


def _plain(*lengths: int) -> tuple[tuple[int, ...], ...]:
    """The arms of a tree labeled 3 throughout, by their lengths."""
    return tuple((3,) * k for k in lengths)


# The finite and affine trees of rank >= 4 of no free length, by shape: the
# number of branch vertices, then the arm label sequences (see
# ``_match_clique`` and the module docstring).
_FIXED = {
    (0, ((3, 4, 3),)): IrreducibleVerdict("FiniteType", "F4", 4, 24),
    (0, ((3, 3, 5),)): IrreducibleVerdict("FiniteType", "H4", 4, 60),
    (0, ((3, 3, 4, 3),)): IrreducibleVerdict("AffineType", "F~4", 5, None),
    (1, _plain(1, 2, 2)): IrreducibleVerdict("FiniteType", "E6", 6, 36),
    (1, _plain(1, 2, 3)): IrreducibleVerdict("FiniteType", "E7", 7, 63),
    (1, _plain(1, 2, 4)): IrreducibleVerdict("FiniteType", "E8", 8, 120),
    (1, _plain(2, 2, 2)): IrreducibleVerdict("AffineType", "E~6", 7, None),
    (1, _plain(1, 3, 3)): IrreducibleVerdict("AffineType", "E~7", 8, None),
    (1, _plain(1, 2, 5)): IrreducibleVerdict("AffineType", "E~8", 9, None),
    (1, _plain(1, 1, 1, 1)): IrreducibleVerdict("AffineType", "D~4", 5, None),
}


@cache
def _free_length(n: int) -> dict:
    """The trees of rank n >= 4 in the families with a free length, by
    shape (see ``_FIXED``), built once per rank.  The D~ shape reaches a
    branch vertex, two leaves and n - 5 vertices up to the other branch
    vertex, so only that one's two leaves lie beyond it."""
    return {
        (0, _plain(n - 1)):
            IrreducibleVerdict("FiniteType", f"A{n}", n, n * (n + 1) // 2),
        (0, ((3,) * (n - 2) + (4,),)):
            IrreducibleVerdict("FiniteType", f"B{n}", n, n * n),
        (0, ((4,) + (3,) * (n - 3) + (4,),)):
            IrreducibleVerdict("AffineType", f"C~{n - 1}", n, None),
        (1, _plain(1, 1, n - 3)):
            IrreducibleVerdict("FiniteType", f"D{n}", n, n * (n - 1)),
        (1, ((3,), (3,), (3,) * (n - 4) + (4,))):
            IrreducibleVerdict("AffineType", f"B~{n - 1}", n, None),
        (2, ((3,), (3,), (3,) * (n - 5) + (0,))):
            IrreducibleVerdict("AffineType", f"D~{n - 1}", n, None),
    }


def _match_clique(g: CoxeterGraph, mask: int) -> IrreducibleVerdict | None:
    """The finite or affine verdict of an irreducible clique, None when it
    is neither.

    Ranks 1 to 3 are read off the labels.  Rank 1 is A1.  An irreducible
    pair has a label m >= 3: I2(m) (named A2 at 3 and B2 at 4), finite of
    length m.  At rank 3 let p <= q <= r be the labels; irreducibility
    leaves at most one commuting pair, so q >= 3.  The group is finite
    exactly when 1/p + 1/q + 1/r > 1 and affine exactly when the sum is 1
    (Humphreys, *Reflection Groups and Coxeter Groups*, ch. 2 and 6), and
    ``_RANK3`` lists every such triple.  If p >= 3 the sum is at most 1,
    with equality only at (3, 3, 3).  If p = 2 the test is 1/q + 1/r
    against 1/2: at q = 3, 1/r > 1/6 gives r = 3, 4, 5 and 1/r = 1/6 gives
    r = 6; at q = 4, r >= 4 gives 1/r <= 1/4, equal only at r = 4; at
    q >= 5 the sum is at most 2/5 < 1/2.

    From rank 4 the diagram edges (the non-commuting pairs, all with finite
    labels) connect the clique, so their degrees sum to 2(rank - 1) for a
    tree and to more with a cycle, where only A~n is affine (see the
    module docstring).  A tree is read once into its shape, which
    ``_FIXED`` or ``_free_length`` decides.
    """
    label = g._m
    rank = popcount(mask)
    if rank <= 3:
        if rank == 1:
            return IrreducibleVerdict("FiniteType", "A1", 1, 1)
        if rank == 2:
            i, j = bits(mask)
            m = label[i][j]
            family = "A2" if m == 3 else "B2" if m == 4 else f"I2({m})"
            return IrreducibleVerdict("FiniteType", family, 2, m)
        i, j, k = bits(mask)
        return _RANK3_ANY_ORDER.get((label[i][j], label[i][k], label[j][k]))
    noncomm = g._noncomm
    near = {i: mask & noncomm[i] for i in bits(mask)}
    deg = {i: popcount(b) for i, b in near.items()}
    plain = all(label[i][j] == 3 for i, b in near.items() for j in bits(b))
    if sum(deg.values()) != 2 * (rank - 1):
        if plain and all(d == 2 for d in deg.values()):
            return IrreducibleVerdict("AffineType", f"A~{rank - 1}", rank, None)
        return None

    def arm(prev: int, cur: int) -> tuple[int, ...]:
        """The labels from ``prev`` through ``cur`` on to the next vertex
        whose degree is not 2, then a 0 when that is a branch vertex."""
        seq = [label[prev][cur]]
        while deg[cur] == 2:
            prev, cur = cur, (near[cur] ^ 1 << prev).bit_length() - 1
            seq.append(label[prev][cur])
        if deg[cur] > 2:
            seq.append(0)
        return tuple(seq)

    branches = sum(d > 2 for d in deg.values())
    if branches > 1 and not plain:
        return None  # only D~n has two branch vertices, and it is all 3
    if branches:
        hub = next(i for i, d in deg.items() if d > 2)
        arms = tuple(sorted((arm(hub, j) for j in bits(near[hub])),
                            key=lambda a: (len(a), a)))
    else:
        end = next(i for i, d in deg.items() if d == 1)
        seq = arm(end, near[end].bit_length() - 1)
        arms = (min(seq, seq[::-1]),)
    shape = branches, arms
    return _FIXED.get(shape) or _free_length(rank).get(shape)


def _is_clique(g: CoxeterGraph, mask: int) -> bool:
    return all(mask & ~g.neighbors_mask(i) == 1 << i for i in bits(mask))


def _irreducible_verdict(g: CoxeterGraph, mask: int) -> IrreducibleVerdict:
    """Classify an irreducible mask.  A non-clique holds an infinite bond,
    which no finite or affine diagram has, so it skips the table matching."""
    rank = popcount(mask)
    if _is_clique(g, mask):
        verdict = _match_clique(g, mask)
        if verdict is not None:
            return verdict
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
        Its keys come in the order the build finds them: by size, then
        lexicographically by their ascending vertex lists.
    affine: the irreducible affine masks (all of rank >= 3).
    constants: (V, M, R) of the graph, M being the largest value in
        ``longest``.
    The build grows spherical cliques breadth-first by size, one vertex
    above the highest at a time, and keeps each clique's candidates (the
    vertices above its highest adjacent to all of it) beside it, so a
    child's candidates are its parent's later ones adjacent to the new
    vertex.  A vertex commuting with all of the clique adds 1 to its
    length.  Otherwise a grown pair or triple is settled from its labels.
    From rank 4 a grown set with a non-spherical proper subset is dropped
    first, as it is neither finite nor affine; then one search inside the
    clique finds the new vertex's component, and only an irreducible grown
    set is matched: a diagram with a cycle is affine only as A~n.
    The cores are grown on first use, from the commuting and
    non-commuting rows captured here (the table keeps no reference to the
    graph): D is wide exactly when D = P | Q with P irreducible and
    infinite, Q commuting with P, and P affine or Q non-spherical, and the
    cores are the (P, Cm(P)) that have such a Q.  The affine P are cores;
    the other P are grown from single vertices, one non-commuting
    neighbour at a time, until the vertices commuting with P form a
    spherical set, past which no P grown further has a non-spherical Q.
    The table keeps no list of wide sets.
    The maximal wide masks are the inclusion-maximal candidates among the
    cores P | Cm(P) of the affine P and the sets Cm(Y) | Y over the
    non-spherical intersections Y of commuting masks with Cm(Y)
    non-spherical, so they are found without growing any P.
    """

    def __init__(self, g: CoxeterGraph):
        adj, noncomm, label = g._adj, g._noncomm, g._m
        full = g.full_mask()
        longest = {0: 0}
        affine = []
        # Breadth-first by size, one size per pass, ``rank`` being the size
        # of the sets grown in it; see the module docstring.  ``cands[k]``
        # holds the candidates of ``level[k]``: the vertices above its
        # highest one adjacent to all of it.  A set with no candidates
        # grows nothing, so it is not queued.
        level, cands = [0], [full]
        rank = 1
        while level:
            grown, grown_cands = [], []
            for c, rest in zip(level, cands):
                base = longest[c]
                mij = 0  # at rank 3, the label of c = {i, j} once read
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    s = c | low
                    links = noncomm[v] & c
                    if not links:
                        longest[s] = base + 1
                    elif rank == 2:
                        # an irreducible pair is I2(m), of length m; see
                        # ``_match_clique``
                        longest[s] = label[v][c.bit_length() - 1]
                    else:
                        if rank == 3:
                            if not mij:
                                j = c.bit_length() - 1
                                li = label[(c & -c).bit_length() - 1]
                                lj, mij = label[j], li[j]
                            # K is s when i and j do not commute, else
                            # links and v; see the Commuting step
                            comp = (c if mij != 2 else links) | low
                        else:
                            # kept only when every s - {u} is spherical;
                            # see the Prune
                            sub = c
                            while sub:
                                u = sub & -sub
                                if s ^ u not in longest:
                                    break
                                sub ^= u
                            if sub:
                                continue
                            # the component of s holding v: v and the
                            # closure of links inside c
                            comp = reach(noncomm, links, c)[0] | low
                        if comp != s:
                            # K is settled: at rank 3 it is the adjacent
                            # pair {x, v}, and from rank 4 it lies in some
                            # s - {u} the Prune found spherical
                            longest[s] = longest[comp] + longest[s ^ comp]
                        else:
                            if rank == 3:
                                verdict = _RANK3_ANY_ORDER.get(
                                    (mij, li[v], lj[v]))
                            else:
                                verdict = _match_clique(g, s)
                            if verdict is None:
                                continue
                            if verdict.kind == "AffineType":
                                affine.append(s)
                                continue
                            longest[s] = verdict.longest_length
                    after = rest & adj[v]
                    if after:
                        grown.append(s)
                        grown_cands.append(after)
            level, cands = grown, grown_cands
            rank += 1
        self.longest = longest
        self.affine = frozenset(affine)
        self.constants = GroupConstants(g.n, max(longest.values()),
                                        g.max_label())
        self._comm, self._noncomm = g._comm, noncomm

    def _cm(self, mask: int) -> int:
        """Cm(mask): the vertices commuting with every vertex of it."""
        return meet(self._comm, mask)

    def cores(self) -> tuple[tuple[int, int, bool], ...]:
        """(P, Cm(P), affine) for each affine P and for each other infinite
        irreducible P with Cm(P) non-spherical; see the class docstring.
        The P are grown on the first call; later calls return the same
        tuple, so every reader shares one growth."""
        return self._cores

    @cached_property
    def _cores(self) -> tuple[tuple[int, int, bool], ...]:
        comm, noncomm = self._comm, self._noncomm
        longest, affine = self.longest, self.affine
        found = [(p, self._cm(p), True) for p in affine]
        # (P, Cm(P), the vertices not commuting with some vertex of P);
        # each P is pushed once.  A vertex never commutes with itself here,
        # so Cm(P) misses P.
        stack = [(1 << v, comm[v], noncomm[v]) for v in range(len(comm))]
        seen = {p for p, _, _ in stack}
        while stack:
            p, cm, near = stack.pop()
            if cm in longest:
                continue
            if p not in longest and p not in affine:
                found.append((p, cm, False))
            for u in bits(near & ~p):
                grown = p | 1 << u
                if grown not in seen:
                    seen.add(grown)
                    stack.append((grown, cm & comm[u], near | noncomm[u]))
        return tuple(found)

    @cached_property
    def maximal_wide(self) -> tuple[int, ...]:
        """Inclusion-maximal wide masks, ascending: the maximal candidates
        over the affine cores and the closed commuting sets (see the module
        docstring)."""
        comm, longest, cm = self._comm, self.longest, self._cm
        candidates = {p | cm(p) for p in self.affine}
        seen = set(comm)
        stack = [y for y in seen if y not in longest]
        while stack:
            y = stack.pop()
            x = cm(y)
            if x not in longest:
                candidates.add(x | y)
            for c in comm:
                z = y & c
                if z not in seen:
                    seen.add(z)
                    if z not in longest:
                        stack.append(z)
        # a strict superset is larger, so it is seen first
        found: list[int] = []
        for m in sorted(candidates, key=popcount, reverse=True):
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
        Spherical sets are closed under subsets, so those of ``ground`` are
        reached from the empty set by adding one vertex above the highest at
        a time, and the vertices extending a set to a spherical one are
        among those extending its parent; a maximal set has none."""
        longest = self.longest
        found = []
        stack = [(0, ground)]  # (spherical set, the vertices extending it)
        while stack:
            m, ext = stack.pop()
            if not ext:
                found.append(m)
            above = ext & ~((1 << m.bit_length()) - 1)
            while above:
                low = above & -above
                above ^= low
                s = m | low
                grown = 0
                rest = ext ^ low
                while rest:
                    u = rest & -rest
                    rest ^= u
                    if s | u in longest:
                        grown |= u
                stack.append((s, grown))
        found.sort(reverse=True)
        return found


def _require_cap(g: CoxeterGraph, cap: int, layer: str) -> None:
    """Raise SizeCapError naming ``layer`` when the graph has more than
    ``cap`` vertices."""
    if g.n > cap:
        raise SizeCapError(cap, f"graph has {g.n} vertices, {layer} cap is {cap}")


def subset_table(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP,
                 layer: str = "enumeration") -> SubsetTable:
    """The graph's subset table, built on first use and kept on the graph.
    The one gate to it: every call first raises SizeCapError naming
    ``layer`` when the graph has more than ``cap`` vertices
    (``_require_cap``)."""
    _require_cap(g, cap, layer)
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


def longest_element_length_mask(g: CoxeterGraph, mask: int) -> int | None:
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


def compute_constants(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> GroupConstants:
    """(V, M, R) of the graph, kept on its subset table; guarded by ``cap``."""
    return subset_table(g, cap, "constants").constants


# ---------------------------------------------------------------------------
# ends


def ends_verdict(g: CoxeterGraph, cap: int = DEFAULT_SUBSET_CAP) -> EndsVerdict:
    """Number-of-ends verdict with a witness where one exists.

    Order of tests matters: a finite group has zero ends; D-infinity times a
    finite group is two-ended even though, e.g., the middle vertex of P3 is a
    (degenerate) spherical separator; everything else with a spherical
    separator or a disconnected graph is multi-ended; the rest is one-ended.
    It checks the cap first, but only the separator scan reads the subset
    table: the other verdicts come from the irreducible components.
    """
    _require_cap(g, cap, "ends")
    full = g.full_mask()
    comps = g.irreducible_components_mask(full)
    infinite = [c for c in comps if irreducible_kind(g, c) != "FiniteType"]
    if not infinite:
        return EndsVerdict("FiniteGroup", None)
    if len(infinite) == 1 and \
            irreducible_kind(g, infinite[0]) == "InfiniteDihedral":
        return EndsVerdict("TwoEnded", g.names_of(infinite[0]))
    if len(g.components_within(full)) > 1:
        return EndsVerdict("MultiEnded", ())
    sep = _separator(g, cap, "ends")
    return (EndsVerdict("OneEnded", None) if sep is None
            else EndsVerdict("MultiEnded", g.names_of(sep)))


def spherical_separator(g: CoxeterGraph) -> int | None:
    """Smallest (then lexicographically least) spherical separating set, as a mask.

    Returns None when no proper spherical subset disconnects the graph.
    The scan reads ``SubsetTable.longest``, in size-lex order, from the
    separator floor on, and tests each set with one search inside the
    rest of the graph (see the module docstring), through the gate at the
    default cap; a graph whose pairs are all adjacent reads no table.
    """
    return _separator(g, DEFAULT_SUBSET_CAP, "enumeration")


def _separator(g: CoxeterGraph, cap: int, layer: str) -> int | None:
    """``spherical_separator`` through the gate at ``cap`` and ``layer``.
    The scan starts at the separator floor, the least number of common
    neighbours of a non-adjacent pair; with no such pair there is no
    separator, and no table is read (see the module docstring)."""
    adj, full = g._adj, g.full_mask()
    floor = min((popcount(near & adj[b]) for a, near in enumerate(adj)
                 for b in bits(full & ~near & ~((2 << a) - 1))), default=None)
    if floor is None:
        return None
    for mask in subset_table(g, cap, layer).longest:
        if mask.bit_count() < floor:
            continue
        rest = full & ~mask
        if reach(adj, rest & -rest, rest)[0] != rest:
            return mask
    return None
