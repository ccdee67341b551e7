"""Fans: one-vertex bundles of geodesically-spreading edges joined by
dihedral polygons.

A fan hangs at the endpoint of a geodesic base word gamma: fan letters
s_0 .. s_r (r >= 2) with every gamma*s_i geodesic, consecutive letters joined
in the defining graph, and a 2m-gon cell between neighbours.  The wide-tail
side condition keeps interior letters out of a wide subgraph containing the
tail whenever the tail is long (> M); short tails need nothing.

Construction: ending letters K of gamma never extend it, so fan letters must
avoid K.  Short tail: any K-avoiding path from s to t works (one-endedness
guarantees K separates nothing).  Long tail: the blocked set C1 | D2 | K'
(infinite tail-side C1, full opposite side D2, K' = K minus tail letters)
forms a special join, so wide-spherical-avoidance supplies the path; a
length-1 path is replaced by the walk s,t,s,t and an s = t request by s,z,s.
If no blocked set gives a fan that passes the fan check and s, t are
adjacent, each blocked set is tried again with the shortest, then lex-least,
s -> t path of length at least 2 that avoids the edge s - t (on O8 the walk
s,t,s,t can fail the wide-tail condition where such a detour passes).

A ConstructionError means that none of these letter paths passed the fan
check.  It does not show that the graph is not one-ended or not
wide-spherical-avoidant: on some right-angled graphs that ``classify`` calls
connected, the slot letters a filter asks for have no fan at all
(``tests/test_filters.py`` keeps one such graph as an expected failure).
"""

from __future__ import annotations

from .avoidance import (wide_decomposition_mask, wide_masks)
from .classification import compute_constants, is_spherical_mask
from .errors import ConstructionError, Record
from .graphs import CoxeterGraph, bits, spread
from .words import (Word, WordEngine, engine_for, _wide_suffix,
                    DEFAULT_ORBIT_CAP)


class FanDiagram(Record):
    """base: the geodesic word gamma; labels: fan letters s_0..s_r;
    cells: polygon sizes (2 * m(s_i, s_i+1)); tail/tail_delta: the wide tail
    of the base and a wide subgraph containing its label (None when empty or
    the tail condition ran in the short case); case: 'short-tail' or
    'wide-tail'; blocked: the vertex set interior letters were kept out of."""
    __slots__ = ("base",        # Word
                 "labels",      # tuple[str, ...]
                 "cells",       # tuple[int, ...]
                 "tail",        # Word
                 "tail_delta",  # tuple[str, ...] | None
                 "case",        # str
                 "blocked")     # tuple[str, ...]

    @property
    def left(self) -> str:
        return self.labels[0]

    @property
    def right(self) -> str:
        return self.labels[-1]

    def side_words(self, i: int) -> tuple[Word, Word]:
        """(lambda, rho) words of cell i: the two length-m alternating paths
        from the fan vertex to the cell's top vertex."""
        s, t = self.labels[i], self.labels[i + 1]
        m = self.cells[i] // 2
        lam = tuple((s, t)[j % 2] for j in range(m))
        rho = tuple((t, s)[j % 2] for j in range(m))
        return lam, rho

    def to_json_obj(self) -> dict:
        return {"base": " ".join(self.base),
                "labels": list(self.labels),
                "cells": list(self.cells),
                "tail": " ".join(self.tail),
                "tail_delta": (None if self.tail_delta is None
                               else list(self.tail_delta)),
                "case": self.case,
                "blocked": list(self.blocked)}


class FanCheck(Record):
    __slots__ = ("ok",        # bool
                 "failures")  # tuple[str, ...]


def _lex_least_path(g: CoxeterGraph, s: int, t: int, allowed: int,
                    direct: bool = True) -> list[int] | None:
    """Lexicographically least shortest path s -> t whose interior vertices
    lie in ``allowed`` (endpoints exempt), or None.  Without ``direct`` the
    edge s - t is left out, so the path found has length at least 2."""
    usable = allowed | (1 << s) | (1 << t)
    nbr = [g.neighbors_mask(u) & usable for u in range(g.n)]
    if not direct:
        nbr[s] &= ~(1 << t)
        nbr[t] &= ~(1 << s)
    # layers[k]: the vertices at distance k from t, up to s's layer; each
    # step from s takes the least neighbour one layer closer to t
    layers = [1 << t]
    seen = 1 << t
    while not seen >> s & 1:
        layer = spread(nbr, layers[-1]) & ~seen
        if not layer:
            return None
        layers.append(layer)
        seen |= layer
    path = [s]
    for layer in reversed(layers[:-1]):
        step = nbr[path[-1]] & layer
        path.append((step & -step).bit_length() - 1)
    return path


def _blocked_for_tail(g: CoxeterGraph, tail_mask: int, delta: int,
                      k_mask: int) -> int:
    """C1 | D2 | K' for the long-tail case (see module docstring)."""
    p, q, _kind = wide_decomposition_mask(g, delta)
    c_p, c_q = tail_mask & p, tail_mask & q
    if not is_spherical_mask(g, c_p):
        c1, d2 = c_p, q
    else:
        c1, d2 = c_q, p  # the tail is non-spherical, so one side must be
    return c1 | d2 | (k_mask & ~tail_mask)


def build_fan(g: CoxeterGraph, base: Word, s: str, t: str,
              orbit_cap: int = DEFAULT_ORBIT_CAP) -> FanDiagram:
    """Fan at the endpoint of ``base`` with left letter s and right letter t.

    Raises NonGeodesicError when base, base+s or base+t is not geodesic, and
    ConstructionError (carrying the last blocked set tried) when no letter
    path tried passes the fan check; see the module docstring for what that
    does and does not show.
    """
    eng = engine_for(g, orbit_cap)
    w = eng.encode(base)
    eng.require_geodesic(w)
    return _build_fan(g, eng, w, g.index(s), g.index(t))[0]


def _mask(letters) -> int:
    mask = 0
    for a in letters:
        mask |= 1 << a
    return mask


def _build_fan(g: CoxeterGraph, eng: WordEngine, w: tuple[int, ...],
               si: int, ti: int) -> tuple[FanDiagram, list[int]]:
    """``build_fan`` on the encoded geodesic base ``w`` and letters ``si``,
    ``ti``; the fan and its letters as indices."""
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
        # fallback: block the whole containing wide subgraph (always sound;
        # needed only when the join trick leaves an interior letter wide)
        fallback = delta | k_mask
        if fallback != joined:
            attempts.append(("wide-tail", fallback))

    # the detour round (see the module docstring) runs only after every
    # attempt failed, so no fan the attempts build changes
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


def check_fan(g: CoxeterGraph, fan: FanDiagram,
              orbit_cap: int = DEFAULT_ORBIT_CAP) -> FanCheck:
    """Verify the fan axioms: at least three fan edges, dihedral cells
    between adjacent letters, geodesy of the base extended by every fan
    letter and every cell side, and the wide-tail side condition.  The
    verdict is kept on the graph's word engine (``_fan_failures``)."""
    eng = engine_for(g, orbit_cap)
    w = eng.encode(fan.base)
    start = _wide_suffix(g, w)[0]
    fails = _fan_failures(g, eng, w, start, tuple(fan.labels),
                          tuple(fan.cells), eng.decode(w[start:]) == fan.tail,
                          fan.case)
    return FanCheck(not fails, fails)


def _fan_failures(g: CoxeterGraph, eng: WordEngine, w: tuple[int, ...],
                  start: int, labels: tuple[str, ...], cells: tuple[int, ...],
                  tail_ok: bool, case: str) -> tuple[str, ...]:
    """The failures of ``check_fan`` on a fan with encoded base ``w``,
    whose wide tail starts at ``start`` (from ``_wide_suffix``), and whose
    recorded tail is that wide tail iff ``tail_ok``.  The answer depends on
    nothing else, so it is kept on the engine: each fan is verified once."""
    key = (w, labels, cells, tail_ok, case)
    fails = eng._fans.get(key)
    if fails is None:
        fails = eng._fans[key] = _verify_fan(g, eng, w, start, labels, cells,
                                             tail_ok, case)
    return fails


def _verify_fan(g: CoxeterGraph, eng: WordEngine, w: tuple[int, ...],
                start: int, labels: tuple[str, ...], cells: tuple[int, ...],
                tail_ok: bool, case: str) -> tuple[str, ...]:
    fails: list[str] = []
    if len(labels) < 3:
        fails.append(f"only {len(labels)} fan edges, need at least 3")
    if len(cells) != len(labels) - 1:
        fails.append("cell count does not match fan edge count")
    if not eng.is_geodesic(w):
        fails.append("base word is not geodesic")
        return tuple(fails)
    idx = eng.encode(labels)
    for i in range(len(idx) - 1):
        a, b = idx[i], idx[i + 1]
        if a == b:
            fails.append(f"fan letters {i},{i + 1} coincide")
            continue
        m = g.m(a, b)
        if m is None:
            fails.append(f"fan letters {labels[i]},{labels[i + 1]} not adjacent")
        elif i < len(cells) and cells[i] != 2 * m:
            fails.append(f"cell {i} is a {cells[i]}-gon, expected {2 * m}-gon")
    for i, a in enumerate(idx):
        if not eng.is_geodesic(w + (a,)):
            fails.append(f"base + fan letter {labels[i]} (position {i}) "
                         "not geodesic")
    for i in range(min(len(cells), len(idx) - 1)):
        # the two sides of cell i (``FanDiagram.side_words``)
        pair = (idx[i], idx[i + 1])
        m = cells[i] // 2
        if not eng.is_geodesic(w + tuple(pair[j % 2] for j in range(m))):
            fails.append(f"base + left side of cell {i} not geodesic")
        if not eng.is_geodesic(w + tuple(pair[1 - j % 2] for j in range(m))):
            fails.append(f"base + right side of cell {i} not geodesic")
    if not tail_ok:
        fails.append("recorded tail differs from the wide tail of the base")
    long_tail = len(w) - start > compute_constants(g).m_gamma
    want_case = "wide-tail" if long_tail else "short-tail"
    if case != want_case:
        fails.append(f"recorded case {case!r}, but the tail length "
                     f"dictates {want_case!r}")
    if long_tail:
        tail_mask, interior = _mask(w[start:]), _mask(idx[1:-1])
        if not any(tail_mask & ~wm == 0 and interior & wm == 0
                   for wm in wide_masks(g)):
            fails.append("no wide subgraph contains the tail label and "
                         "avoids all interior fan letters")
    return tuple(fails)
