"""The per-mask subset scans that ``classification.SubsetTable`` replaced,
and the pair-by-pair avoidance deciders that ``avoidance._blocked_pairs``
replaced, and the dynamic program over all 2^n masks that found the wide
sets before ``SubsetTable.wide`` enumerated them from irreducible
components.

Each scan walks every subset (or every subset of a ground set),
splits it into irreducible components and matches each component against
the finite and affine tables, with no clique shortcut and no memo.  That
is how the library answered before the table, so the differential tests
in ``test_subset_table.py`` compare the table with these scans.  They are
exponential in the vertex count: keep the graphs small.

The pair-by-pair deciders run one path search per pair and blocked set, in
the order that picks the library's witnesses, so ``test_avoidance.py``
compares whole reports with them.
"""

from __future__ import annotations

from typing import Optional

from coxwide import avoidance
from coxwide.avoidance import AvoidanceReport, SpecialJoin, _join_grounds
from coxwide.classification import (DEFAULT_SUBSET_CAP, IrreducibleVerdict,
                                    _diagram_edges, _match_affine,
                                    _match_finite, subset_table)
from coxwide.graphs import CoxeterGraph, bits, popcount, submasks


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


def wide_masks(g: CoxeterGraph) -> tuple[int, ...]:
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


def maximal_wide_masks(g: CoxeterGraph) -> tuple[int, ...]:
    all_wide = wide_masks(g)
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
    for wm in avoidance.maximal_wide_masks(g, cap):
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
    decomps = list(_join_grounds(g, cap))
    full = g.full_mask()
    table = subset_table(g)
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
