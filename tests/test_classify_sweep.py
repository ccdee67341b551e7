"""``classify``'s shortcuts against the paths they replaced, on a sweep
shaped like the graphs ``classify`` is timed on.

Three shortcuts are compared with ``scan_oracle``:

* the separator scan starting at the common-neighbour floor, against the
  former scan over every spherical set in size-lex order;
* the maximal wide sets taken from the affine cores and the closed
  commuting sets, against the former filter over the wide list of the
  former 2^n dynamic program;
* both avoidance reports, whose blocked-set pass stops at a component
  that touches every vertex, against the pair-by-pair deciders, and the
  wide-spherical-avoidance report, which tests only the core blocked
  sets, against the former decider over every join.

The sweep draws a fixed number of graphs per vertex count from a fixed
seed and keeps every one.  Right-angled graphs label half of their pairs
2; general graphs give each of the labels 2, 3, 4, 5 and infinity to a
fifth of their pairs.  Fixed proportions keep graphs of one size alike.
"""

from __future__ import annotations

import random

import pytest

import scan_oracle as S
from conftest import CORPUS_MAKERS, RA_CORPUS, graph_from_labels
from coxwide import CoxeterGraph
from coxwide.avoidance import (is_affine_free, is_wide_avoidant,
                               is_wide_spherical_avoidant)
from coxwide.classification import spherical_separator, subset_table
from coxwide.classify import classify
from coxwide.graphs import popcount

SWEEP_SIZES = range(9, 14)
SWEEP_PER_SIZE = 8
SWEEP_SEED = 20261020
RIGHT_ANGLED = (2, 0)          # 0 is the infinite bond
GENERAL = (2, 3, 4, 5, 0)


def _fixed_proportion_labels(rng: random.Random, n: int, choices):
    """Label matrix whose pairs take the choices in equal shares, shuffled."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [choices[k % len(choices)] for k in range(len(pairs))]
    rng.shuffle(labels)
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), m in zip(pairs, labels):
        mat[i][j] = mat[j][i] = m
    return mat


def _sweep_labels():
    rng = random.Random(SWEEP_SEED)
    return [(f"{kind}{n}-{k}", _fixed_proportion_labels(rng, n, choices))
            for n in SWEEP_SIZES for k in range(SWEEP_PER_SIZE)
            for kind, choices in (("ra", RIGHT_ANGLED), ("gen", GENERAL))]


def separator_floor(g: CoxeterGraph):
    """Least number of common neighbours of a non-adjacent pair, None when
    every pair is adjacent."""
    counts = [popcount(g.neighbors_mask(a) & g.neighbors_mask(b))
              for a in range(g.n) for b in range(a + 1, g.n)
              if not (g.neighbors_mask(a) >> b) & 1]
    return min(counts, default=None)


SWEEP = _sweep_labels()


@pytest.mark.parametrize("labels", [lab for _, lab in SWEEP],
                         ids=[name for name, _ in SWEEP])
def test_sweep_matches_replaced_paths(labels):
    g = graph_from_labels(labels)
    table = subset_table(g)
    sep = spherical_separator(g)
    assert sep == S.sorted_separator(g, table.longest)
    if sep is not None:
        assert popcount(sep) >= separator_floor(g)
    assert table.maximal_wide == S.maximal_of_wide(S.wide_masks_dp(g))
    assert is_wide_avoidant(g).to_json_obj() == \
        S.wide_avoidant_by_pairs(g).to_json_obj()
    report = is_wide_spherical_avoidant(g).to_json_obj()
    assert report == S.wide_spherical_avoidant_by_pairs(g).to_json_obj()
    assert report == S.wide_spherical_avoidant_all_joins(
        graph_from_labels(labels)).to_json_obj()


def _poles(m: int, spokes: int) -> CoxeterGraph:
    """Two poles a, b joined by label m, and ``spokes`` pairwise non-adjacent
    vertices commuting with both poles."""
    names = ["a", "b"] + [f"x{i}" for i in range(spokes)]
    return CoxeterGraph(names, [("a", "b", m)] + [
        (p, x, 2) for p in "ab" for x in names[2:]])


@pytest.mark.parametrize("m", [2, 3, 5])
def test_first_separator_has_exactly_the_floor(m):
    """The spokes pairwise share exactly the two poles, so the floor is 2,
    and the spherical pair of poles is the first separator."""
    g = _poles(m, 3)
    assert separator_floor(g) == 2
    sep = spherical_separator(g)
    assert sep == g.mask_of(["a", "b"])
    assert sep == S.sorted_separator(g, subset_table(g).longest)
    assert classify(g).ends.witness == ("a", "b")


def test_separator_floor_zero_and_complete_graphs():
    path = CoxeterGraph(["a", "b", "c", "d"],
                        [("a", "b", 2), ("b", "c", 3), ("c", "d", 2)])
    assert separator_floor(path) == 0
    assert spherical_separator(path) == S.sorted_separator(
        path, subset_table(path).longest) == path.mask_of(["b"])
    # every pair adjacent: removing any set leaves a complete graph
    tri = CoxeterGraph(["a", "b", "c"],
                       [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assert separator_floor(tri) is None
    assert spherical_separator(tri) is None


@pytest.mark.parametrize("labels", [lab for name, lab in SWEEP
                                    if name.startswith("ra")],
                         ids=[name for name, _ in SWEEP
                              if name.startswith("ra")])
def test_right_angled_classify_builds_no_wide_list(labels):
    """On a right-angled graph ``classify`` reads only the maximal wide
    sets, so the full wide list is never built."""
    g = graph_from_labels(labels)
    verdict = classify(g)
    table = subset_table(g)
    assert "wide" not in table.__dict__
    assert "maximal_wide" in table.__dict__
    assert table.maximal_wide == S.maximal_of_wide(S.wide_masks_dp(g))
    assert verdict.racg


@pytest.mark.parametrize("name", [name for name, _ in SWEEP
                                  if name.startswith("ra")] + RA_CORPUS)
def test_right_angled_tables_hold_no_affine_set(name):
    """An affine diagram of rank >= 3 is connected by labels >= 3, so the
    table of a right-angled graph (the sweep's and the corpus's) holds no
    affine set, and ``is_affine_free`` needs no right-angled shortcut."""
    g = (CORPUS_MAKERS[name]() if name in CORPUS_MAKERS
         else graph_from_labels(dict(SWEEP)[name]))
    assert g.is_racg()
    assert subset_table(g).affine == frozenset()
    assert is_affine_free(g)
