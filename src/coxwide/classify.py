"""Morse-boundary classification verdicts.

For right-angled groups the four-way trichotomy-plus-empty-case is a theorem
and the verdict is definitive; the driver also extracts the visual splitting
(an amalgam decomposition of the defining graph over a separating subgraph)
whenever the boundary is disconnected for avoidance reasons.  The splitting
comes from the maximal wide subgraph that blocks a pair: a component of its
complement, or the star of a blocked vertex; one of the two always applies
to a graph that is not wide (see ``_splitting_from_blocker``).  For general
labels the connectedness direction is only proven under extra hypotheses, so
the driver reports which published implication applies, or flags the open
region with the exact hypothesis profile that was checked.

Every verdict is machine-checked before it is returned: witnesses are
re-validated against the graph (decompositions re-derived, splittings tested
for separation, blocking sets re-tested on their pair).  The checks raise
VerificationError, so they also run under ``python -O``.
"""

from __future__ import annotations

from .avoidance import (AvoidanceReport, is_affine_free, is_wide_avoidant,
                        is_wide_spherical_avoidant, maximal_wide_masks,
                        wide_decomposition)
from .classification import (DEFAULT_SUBSET_CAP, compute_constants,
                             ends_verdict, is_spherical_mask)
from .errors import Record, VerificationError, verify
from .graphs import CoxeterGraph, bits


class Splitting(Record):
    """Amalgam-shaped decomposition of the defining graph: gamma1 and gamma2
    cover the graph, meet exactly in delta, and have no edges across.
    via: 'component' | 'star'."""
    __slots__ = ("gamma1",  # tuple[str, ...]
                 "gamma2",  # tuple[str, ...]
                 "delta",   # tuple[str, ...]
                 "via")     # str


class ClassificationVerdict(Record):
    """The verdict of ``classify``: the case (one of ``RACG_CASES`` or
    ``GENERAL_CASES``), whether the graph is right-angled, its constants
    and ends verdict, the hypotheses checked and the witness."""
    __slots__ = ("case",        # str
                 "racg",        # bool
                 "constants",   # GroupConstants
                 "ends",        # EndsVerdict
                 "hypotheses",  # dict
                 "witness")     # dict


RACG_CASES = ("EmptyBoundary_FiniteOrWide", "Disconnected_MultiEnded",
              "Connected_LocallyConnected", "Disconnected_NotWideAvoidant")
GENERAL_CASES = ("EmptyBoundary", "TheoremApplies_A", "TheoremApplies_C",
                 "Unknown_ConjectureOpen")


def _check_splitting(g: CoxeterGraph, sp: Splitting) -> None:
    m1 = g.mask_of(sp.gamma1)
    m2 = g.mask_of(sp.gamma2)
    md = g.mask_of(sp.delta)
    full = g.full_mask()
    verify(m1 | m2 == full, "splitting does not cover the graph")
    verify(m1 & m2 == md, "splitting parts do not meet in delta")
    verify(m1 != full and m2 != full, "splitting part equals the whole graph")
    for v in bits(m1 & ~md):
        verify(g.neighbors_mask(v) & (m2 & ~md) == 0,
               "edge across the splitting")


def _splitting_from_blocker(g: CoxeterGraph, pi_mask: int,
                            pair: tuple[str, str]) -> Splitting:
    """Splitting extraction when a maximal wide subgraph Pi blocks a pair.

    The graph is not wide, so Pi is a proper subset.  If the complement of Pi
    is disconnected, one complement component joins Pi against the rest.  If
    it is connected, one of the blocked pair has its whole star inside Pi
    (otherwise each endpoint lies in or next to the complement component, and
    a path through it would dodge Pi), and the graph splits at that vertex
    over its link.
    """
    full = g.full_mask()
    rest = full & ~pi_mask
    comps = g.components_within(rest)
    if len(comps) >= 2:
        c = comps[0]
        return Splitting(g.names_of(c | pi_mask), g.names_of(full & ~c),
                         g.names_of(pi_mask), "component")
    for name in pair:
        s = g.index(name)
        if g.neighbors_mask(s) & ~pi_mask == 0 and (pi_mask >> s) & 1:
            star = g.neighbors_mask(s) | (1 << s)
            return Splitting(g.names_of(star), g.names_of(full & ~(1 << s)),
                             g.names_of(g.neighbors_mask(s)), "star")
    raise VerificationError("blocking set gives neither a component nor a "
                            "star splitting")


def _verify_blocking(g: CoxeterGraph, report: AvoidanceReport) -> None:
    """Re-test a failed avoidance witness on its pair, by a path search of
    its own rather than the decider's components pass."""
    verify(report.blocking_set is not None and report.pair is not None,
           "failed avoidance report carries no witness")
    blocked = g.mask_of(report.blocking_set)
    s = g.index(report.pair[0])
    t = g.index(report.pair[1])
    allowed = (g.full_mask() & ~blocked) | (1 << s) | (1 << t)
    verify((g.component_of(s, allowed) >> t) & 1 == 0,
           "stored blocking witness does not block its pair")


def classify(g: CoxeterGraph,
             cap: int = DEFAULT_SUBSET_CAP) -> ClassificationVerdict:
    """Classify the Morse boundary of the Coxeter group of ``g``."""
    constants = compute_constants(g, cap)
    ends = ends_verdict(g, cap)
    finite = ends.kind == "FiniteGroup"
    dec = wide_decomposition(g, g.vertices)
    wide = dec is not None
    racg = g.is_racg()
    wa = is_wide_avoidant(g, cap)
    # wsa implies wa, and on right-angled graphs wa implies wsa (see
    # coxwide.avoidance), so only general labels with wa holding need wsa
    wsa = is_wide_spherical_avoidant(g, cap) if wa.holds and not racg else wa
    affine_free = is_affine_free(g, cap)
    hypotheses = {
        "finite": finite,
        "wide": wide,
        "one_ended": ends.kind == "OneEnded",
        "affine_free": affine_free,
        "wide_avoidant": wa.holds,
        "wide_spherical_avoidant": wsa.holds,
    }

    def verdict(case: str, witness: dict) -> ClassificationVerdict:
        return ClassificationVerdict(case, racg=racg, constants=constants,
                                     ends=ends, hypotheses=hypotheses,
                                     witness=witness)

    if finite or wide:
        return verdict("EmptyBoundary_FiniteOrWide" if racg else "EmptyBoundary",
                       {"finite": finite,
                        "wide_decomposition":
                            None if dec is None else dec.to_json_obj()})
    if racg and ends.kind != "OneEnded":
        return verdict("Disconnected_MultiEnded", {"ends": ends.to_json_obj()})
    if not wa.holds:
        _verify_blocking(g, wa)
        sp = _splitting_from_blocker(g, g.mask_of(wa.blocking_set), wa.pair)
        _check_splitting(g, sp)
        verify(not (racg and is_spherical_mask(g, g.mask_of(sp.delta))),
               "one-ended graph split over a spherical subgraph")
        return verdict("Disconnected_NotWideAvoidant" if racg
                       else "TheoremApplies_A",
                       {"avoidance": wa.to_json_obj(),
                        "splitting": sp.to_json_obj()})
    if racg or (affine_free and ends.kind == "OneEnded" and wsa.holds):
        witness = {"maximal_wide": [list(g.names_of(wm))
                                    for wm in maximal_wide_masks(g, cap)]}
        if racg:
            witness["wide_spherical_avoidant"] = wsa.holds
        return verdict("Connected_LocallyConnected" if racg
                       else "TheoremApplies_C", witness)
    missing = [k for k in ("one_ended", "affine_free",
                           "wide_spherical_avoidant") if not hypotheses[k]]
    return verdict("Unknown_ConjectureOpen",
                   {"missing_hypotheses": missing, "wsa": wsa.to_json_obj()})
