"""Every tree diagram on 4 to 9 vertices against the former matchers.

From rank 4 ``_match_clique`` reads a tree's shape in one walk and decides
it from one table.  ``scan_oracle._irreducible_verdict`` keeps the former
edge-list matchers and their tree walkers as the reference.  Each tree
shape up to isomorphism is labeled 3 throughout and then with one or two
of its edges taken from {4, 5, 6} in every way, and each labeled tree gets
its own vertex relabelling from one fixed seed.  Every such tree is kept,
whatever its verdict.
"""

from __future__ import annotations

import itertools
import random

import pytest

import scan_oracle as S
from coxwide import CoxeterGraph
from coxwide.classification import classify_irreducible

SIZES = range(4, 10)
# unlabeled trees on n vertices (OEIS A000055)
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
HEAVY = (4, 5, 6)
SEED = 20261019


def _encode(adj, v, parent) -> str:
    """AHU code of the subtree at ``v`` away from ``parent``."""
    return "(" + "".join(sorted(_encode(adj, w, v) for w in adj[v]
                                if w != parent)) + ")"


def _canonical(n, edges) -> str:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return min(_encode(adj, root, -1) for root in range(n))


def _tree_shapes() -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """Vertex count -> one edge list per tree up to isomorphism, each grown
    from a smaller one by a leaf."""
    level = [()]
    shapes = {1: level}
    for n in range(2, max(SIZES) + 1):
        found = {}
        for edges in level:
            for v in range(n - 1):
                grown = edges + ((v, n - 1),)
                found.setdefault(_canonical(n, grown), grown)
        level = shapes[n] = list(found.values())
    return shapes


SHAPES = _tree_shapes()


def _labelings(k):
    """Label lists for k edges: all 3, then one or two edges from HEAVY."""
    yield [3] * k
    for r in (1, 2):
        for picked in itertools.combinations(range(k), r):
            for heavy in itertools.product(HEAVY, repeat=r):
                labels = [3] * k
                for e, m in zip(picked, heavy):
                    labels[e] = m
                yield labels


def test_every_tree_shape_is_enumerated():
    assert {n: len(trees) for n, trees in SHAPES.items()} == TREE_COUNTS


@pytest.mark.parametrize("n", SIZES)
def test_tree_shapes_match_former_matchers(n):
    rng = random.Random(SEED + n)
    names = [f"d{i}" for i in range(n)]
    families = set()
    for edges in SHAPES[n]:
        for labels in _labelings(len(edges)):
            perm = list(range(n))
            rng.shuffle(perm)
            label = {frozenset((perm[i], perm[j])): m
                     for (i, j), m in zip(edges, labels)}
            g = CoxeterGraph(names, [
                (names[i], names[j], label.get(frozenset((i, j)), 2))
                for i in range(n) for j in range(i + 1, n)])
            verdict = classify_irreducible(g, names)
            assert verdict == S._irreducible_verdict(g, g.full_mask()), \
                (edges, labels, perm)
            families.add(verdict.family)
    # every tree family of this rank occurs, so the sweep reaches each rule
    want = {f"A{n}", f"B{n}", f"D{n}", f"B~{n - 1}", f"C~{n - 1}"}
    want |= {4: {"F4", "H4"}, 5: {"D~4", "F~4"}, 6: {"D~5", "E6"},
             7: {"D~6", "E7", "E~6"}, 8: {"D~7", "E8", "E~7"},
             9: {"D~8", "E~8"}}[n]
    assert want <= families
