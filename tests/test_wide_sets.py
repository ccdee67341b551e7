"""The wide sets of ``SubsetTable`` against the dynamic program they replaced.

``scan_oracle.wide_masks_dp`` is the former 2^n dynamic program.  A
reference graph gets its table's wide sets from it, and its maximal wide
sets by filtering them, so every query built on them (maximal wide sets,
their cover, the wide-spherical-avoidance report and the whole
``classify`` JSON) is asked of both graphs and compared.

The seeded sweep draws a fixed number of graphs per vertex count from fixed
seeds and keeps every one.  The families are chosen for their wide sets:
joins with two infinite factors, affine sets with a commuting free part
(whose spherical parts only the affine branch of the enumeration reaches),
and affine cycles.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest

import scan_oracle as S
from conftest import (MEMORY_CAP_BYTES, graph_from_labels, make_wide8,
                      random_label_matrix, random_racg_matrix)
from coxwide import CoxeterGraph
from coxwide.avoidance import is_wide_spherical_avoidant
from coxwide.classification import subset_table
from coxwide.classify import classify

SWEEP_SIZES = range(8, 15)
SWEEP_PER_SIZE = 4
SWEEP_SEED = 20261018
COMMUTING_HEAVY = (0, 2, 2, 2, 3, 4, 6)   # labels for dense general graphs


def _sweep_labels():
    """(name, label matrix): per vertex count, ``SWEEP_PER_SIZE`` graphs of
    each kind: right-angled, general labels 2-5 and infinity, and general
    labels weighted towards commuting pairs."""
    rng = random.Random(SWEEP_SEED)
    out = []
    for n in SWEEP_SIZES:
        for k in range(SWEEP_PER_SIZE):
            out.append((f"ra{n}-{k}", random_racg_matrix(rng, n)))
            out.append((f"gen{n}-{k}", random_label_matrix(rng, n)))
            out.append((f"dense{n}-{k}",
                        random_label_matrix(rng, n, COMMUTING_HEAVY)))
    return out


def _with_dp_wide(make):
    """A fresh graph whose table holds the dynamic program's wide sets and
    the maximal ones filtered out of them, as the table once did."""
    ref = make()
    table = subset_table(ref)
    table.__dict__["wide"] = S.wide_masks_dp(ref)
    table.__dict__["maximal_wide"] = S.maximal_of_wide(table.wide)
    return ref


def _assert_matches_dp(make):
    g, ref = make(), _with_dp_wide(make)
    table, ref_table = subset_table(g), subset_table(ref)
    assert table.wide == ref_table.wide
    assert table.maximal_wide == ref_table.maximal_wide
    for mask in range(1 << min(g.n, 10)):
        assert table.wide_cover(mask) == ref_table.wide_cover(mask)
    report = is_wide_spherical_avoidant(g).to_json_obj()
    assert report == is_wide_spherical_avoidant(ref).to_json_obj()
    assert report == S.wide_spherical_avoidant_all_joins(make()).to_json_obj()
    assert classify(g).to_json_obj() == classify(ref).to_json_obj()
    return table


SWEEP = _sweep_labels()


@pytest.mark.parametrize("labels", [lab for _, lab in SWEEP],
                         ids=[name for name, _ in SWEEP])
def test_seeded_sweep_matches_dp(labels):
    _assert_matches_dp(lambda: graph_from_labels(labels))


def _join_of_anticliques(a: int, b: int) -> CoxeterGraph:
    left = [f"a{i}" for i in range(a)]
    right = [f"b{i}" for i in range(b)]
    return CoxeterGraph(left + right, [(u, v, 2) for u in left for v in right])


def _affine_with_free(kind: str, free: int) -> CoxeterGraph:
    """An affine set (A~2 triangle, C~2 or G~2 path) joined by commuting
    edges to ``free`` pairwise non-commuting vertices."""
    core = {"A~2": [("x", "y", 3), ("y", "z", 3), ("x", "z", 3)],
            "C~2": [("x", "y", 4), ("y", "z", 4), ("x", "z", 2)],
            "G~2": [("x", "y", 6), ("y", "z", 3), ("x", "z", 2)]}[kind]
    names = ["x", "y", "z"] + [f"f{i}" for i in range(free)]
    return CoxeterGraph(names, core + [(c, f, 2) for c in "xyz"
                                       for f in names[3:]])


def _affine_cycle(n: int) -> CoxeterGraph:
    """A~n: an (n+1)-cycle labeled 3, all other pairs commuting."""
    names = [f"c{i}" for i in range(n + 1)]
    return CoxeterGraph(names, [
        (names[i], names[j], 3 if (j - i) in (1, n) else 2)
        for i in range(n + 1) for j in range(i + 1, n + 1)])


def test_wide8_matches_dp():
    table = _assert_matches_dp(make_wide8)
    assert table.maximal_wide == (0xFF,)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 6)
                                 for b in range(a, 6)])
def test_joins_of_anticliques_match_dp(a, b):
    table = _assert_matches_dp(lambda: _join_of_anticliques(a, b))
    # wide exactly when both sides hold a non-commuting pair
    assert len(table.wide) == (2 ** a - 1 - a) * (2 ** b - 1 - b)


@pytest.mark.parametrize("kind", ["A~2", "C~2", "G~2"])
@pytest.mark.parametrize("free", range(5))
def test_affine_sets_with_free_vertices_match_dp(kind, free):
    table = _assert_matches_dp(lambda: _affine_with_free(kind, free))
    # the affine set with any part of the free vertices, and nothing else
    assert len(table.wide) == 2 ** free
    assert table.maximal_wide == ((1 << (3 + free)) - 1,)


@pytest.mark.parametrize("n", range(2, 9))
def test_affine_cycles_match_dp(n):
    table = _assert_matches_dp(lambda: _affine_cycle(n))
    assert table.wide == ((1 << (n + 1)) - 1,)


def _grown_core(extra: int, free: int) -> CoxeterGraph:
    """P = {a, b}, non-adjacent; ``extra`` vertices joined to a by label 3
    and commuting with b; ``free`` pairwise non-adjacent vertices commuting
    with all of these.  Cm(P) is the free vertices, and Cm(Cm(P)) is P with
    the extra vertices, irreducible and strictly larger than P."""
    extras = [f"e{i}" for i in range(extra)]
    frees = [f"f{i}" for i in range(free)]
    return CoxeterGraph(["a", "b"] + extras + frees, [
        *[("a", e, 3) for e in extras], *[("b", e, 2) for e in extras],
        *[(x, f, 2) for x in ["a", "b"] + extras for f in frees]])


@pytest.mark.parametrize("extra", range(1, 4))
@pytest.mark.parametrize("free", range(4))
def test_grown_cores_match_dp(extra, free):
    g = _grown_core(extra, free)
    table = _assert_matches_dp(lambda: _grown_core(extra, free))
    p = g.mask_of(["a", "b"])
    assert table._cm(table._cm(p)) == (1 << (2 + extra)) - 1
    # wide exactly when the free vertices hold a non-commuting pair
    assert table.maximal_wide == (((1 << g.n) - 1,) if free >= 2 else ())


def _joined_pairs(pairs: int, free: int) -> CoxeterGraph:
    """``pairs`` non-adjacent pairs and ``free`` pairwise non-adjacent
    vertices, every other pair commuting.  Cm(Cm(P)) is irreducible when P
    is (a component of it that misses P commutes with P, so lies in Cm(P),
    which Cm(Cm(P)) misses); a reducible X = Cm(Y) comes from a closed
    Y = Cm(S) with S reducible, here S the first pairs less one."""
    names = [f"{side}{i}" for i in range(pairs) for side in "ab"] + \
        [f"f{i}" for i in range(free)]
    def apart(u, v):
        if "f" in (u[0], v[0]):
            return u[0] == v[0]
        return u[1:] == v[1:]

    return CoxeterGraph(names, [(u, v, 2) for i, u in enumerate(names)
                                for v in names[i + 1:] if not apart(u, v)])


@pytest.mark.parametrize("pairs", range(1, 5))
@pytest.mark.parametrize("free", range(4))
def test_joined_pairs_match_dp(pairs, free):
    g = _joined_pairs(pairs, free)
    table = _assert_matches_dp(lambda: _joined_pairs(pairs, free))
    if pairs >= 3:
        s = (1 << 2 * (pairs - 1)) - 1
        x = table._cm(table._cm(s))
        assert x == s and len(g.irreducible_components_mask(x)) == pairs - 1
    wide = pairs + (free >= 2) >= 2
    assert table.maximal_wide == (((1 << g.n) - 1,) if wide else ())


@pytest.mark.parametrize("seed", range(12))
def test_joins_of_random_graphs_match_dp(seed):
    """Two seeded general-label graphs, every pair across them commuting,
    and one more vertex with seeded labels to all: the closed sets of a
    join hold the reducible X = Cm(Y)."""
    rng = random.Random(4000 + seed)
    left, right = rng.randint(2, 5), rng.randint(2, 5)
    n = left + right + 1
    labels = random_label_matrix(rng, n)
    for i in range(left):
        for j in range(left, left + right):
            labels[i][j] = labels[j][i] = 2
    _assert_matches_dp(lambda: graph_from_labels(labels))


@pytest.mark.parametrize("kind,seed", [("right-angled", 2020),
                                       ("general", 2021)])
def test_wide_sets_and_classify_stay_small_at_the_cap(kind, seed):
    """Caps bound memory as well as time: at the default cap of 20
    vertices the wide sets, the maximal wide sets (found without the wide
    list), wide-spherical-avoidance (from the cores) and ``classify`` keep
    their traced peak below 16 MB (the former 2^n dynamic program peaked
    at about 43 MB)."""
    rng = random.Random(seed)
    labels = (random_racg_matrix(rng, 20) if kind == "right-angled"
              else random_label_matrix(rng, 20))
    for name, call in (("wide", lambda g: subset_table(g).wide),
                       ("maximal_wide", lambda g: subset_table(g).maximal_wide),
                       ("is_wide_spherical_avoidant", is_wide_spherical_avoidant),
                       ("classify", classify)):
        g = graph_from_labels(labels)
        tracemalloc.start()
        try:
            call(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MEMORY_CAP_BYTES, (name, peak)


def test_table_keeps_no_reference_to_its_graph():
    g = make_wide8()
    table = subset_table(g)
    assert table.wide and table.maximal_wide
    assert table.wide_cover(0b11) == 0xFF
    ref = weakref.ref(table)
    del table
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()
