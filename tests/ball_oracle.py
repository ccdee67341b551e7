"""Reference Cayley balls for ``walls.build_ball``.

``build_ball`` grows the ball along the prefix tree of canonical forms; on
a right-angled graph it reads two masks per element in place of its word.
Two references are kept here, both driven by the engine they are given:

- ``two_pass_ball`` grows each sphere by the generators outside an
  element's ending letters, sorts it, and then normalizes every (element,
  generator) pair again and keeps the products that land in the ball;
- ``prefix_tree_ball`` is the prefix-tree walk over canonical words, one
  ``right_mult`` per (element, generator) pair, which ``build_ball`` still
  runs on general labels and ran on right-angled graphs before the masks.

The differential tests in ``test_right_angled.py`` pass a braid-orbit
``WordEngine`` or a ``RightAngledEngine`` and compare with ``build_ball``.
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


def prefix_tree_ball(eng: WordEngine, radius: int) -> CayleyBall:
    """Each element of spheres 0..radius-1, in lex order, times each
    generator in ascending order; a product ending in that generator is a
    new element, any other longer product was found earlier."""
    names = eng.g.vertices
    words: list[tuple[str, ...]] = [()]
    edges: list[tuple[int, int, str]] = []
    sphere: dict[tuple[int, ...], int] = {(): 0}
    for _ in range(radius):
        nxt: dict[tuple[int, ...], int] = {}
        for c, i in sphere.items():
            up = []
            for s in range(eng.g.n):
                p = eng.right_mult(c, s)
                if len(p) > len(c):
                    if p[-1] == s:
                        j = nxt[p] = len(words)
                        words.append(words[i] + (names[s],))
                    else:
                        j = nxt[p]
                    up.append((j, s))
            up.sort()
            edges.extend((i, j, names[s]) for j, s in up)
        sphere = nxt
    return CayleyBall(radius, tuple(words), tuple(edges))
