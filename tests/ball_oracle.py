"""The two-pass Cayley ball, the reference for ``walls.build_ball``.

``build_ball`` grows the ball along the prefix tree of canonical forms.
The reference instead grows each sphere by the generators outside an
element's ending letters, sorts it, and then normalizes every (element,
generator) pair again and keeps the products that land in the ball.  Both
passes use the engine they are given, so the differential tests in
``test_right_angled.py`` pass a braid-orbit ``WordEngine`` and compare with
the prefix-tree ball of either engine.
"""

from __future__ import annotations

from coxwide.walls import CayleyBall
from coxwide.words import WordEngine


def two_pass_ball(eng: WordEngine, radius: int) -> CayleyBall:
    g = eng.g
    gens = range(g.n)
    sphere: list[tuple[int, ...]] = [()]
    seen: dict[tuple[int, ...], int] = {(): 0}
    order: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt: set[tuple[int, ...]] = set()
        for w in sphere:
            ends = eng.ending_letters(w)
            for s in gens:
                if s not in ends:
                    nxt.add(eng.normalize(w + (s,)))
        sphere = sorted(nxt)
        for w in sphere:
            seen[w] = len(order)
            order.append(w)
    edges = set()
    for w, i in seen.items():
        for s in gens:
            j = seen.get(eng.normalize(w + (s,)))
            if j is not None and i < j:
                edges.add((i, j, g.vertices[s]))
    return CayleyBall(radius, tuple(eng.decode(w) for w in order),
                      tuple(sorted(edges)))
