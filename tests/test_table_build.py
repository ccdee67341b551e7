"""The subset table's clique build against the builder it replaced.

``scan_oracle.clique_table`` is the former build: it recomputed the common
neighbours and the components of every candidate and ran the edge-list
matchers on every irreducible clique.  Each graph here compares the
table's spherical sets with their longest-element lengths, its order, its
affine sets and its constants with that build, and the spherical
separator with the former sort.  Every irreducible candidate the build
examines is also classified on a twin graph without a table (the direct
path, which shares the table's matcher) and compared with the former
verdict.

The seeded sweep draws a fixed number of graphs per vertex count from a
fixed seed and keeps every one.  Labels 6, 7 and 10^6 and the small affine
and hyperbolic sets are also checked against the eigenvalue oracle.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given

import oracles as O
import scan_oracle as S
from conftest import (CORPUS_MAKERS, MEMORY_CAP_BYTES, PROPERTY,
                      graph_from_labels, label_matrices, random_label_matrix,
                      random_racg_matrix)
from coxwide import CoxeterGraph
from coxwide import classification as C
from coxwide.classification import (_irreducible_verdict, classify_irreducible,
                                    is_spherical_mask, spherical_separator,
                                    subset_table)
from coxwide.graphs import bits, popcount

SWEEP_SIZES = range(8, 15)
SWEEP_PER_SIZE = 4
SWEEP_SEED = 20261019
COMMUTING_HEAVY = (0, 2, 2, 2, 3, 4, 6)
LARGE_LABELS = (0, 2, 2, 3, 4, 6, 7, 10 ** 6)
ALL_LABELS = (0, 2, 3, 4, 5, 6, 7, 10 ** 6)


def _sweep_labels():
    """(name, label matrix): per vertex count, ``SWEEP_PER_SIZE`` graphs of
    each kind: right-angled, general labels 2-5 and infinity, labels
    weighted towards commuting pairs, and labels up to 10^6."""
    rng = random.Random(SWEEP_SEED)
    out = []
    for n in SWEEP_SIZES:
        for k in range(SWEEP_PER_SIZE):
            out.append((f"ra{n}-{k}", random_racg_matrix(rng, n)))
            out.append((f"gen{n}-{k}", random_label_matrix(rng, n)))
            out.append((f"dense{n}-{k}",
                        random_label_matrix(rng, n, COMMUTING_HEAVY)))
            out.append((f"large{n}-{k}",
                        random_label_matrix(rng, n, LARGE_LABELS)))
    return out


def _candidates(g, longest):
    """Every set the build examines: a spherical clique grown by a vertex
    above its highest one and adjacent to all of it."""
    for c in longest:
        common = g.full_mask() & ~((1 << c.bit_length()) - 1)
        for i in bits(c):
            common &= g.neighbors_mask(i)
        for v in bits(common):
            yield c | 1 << v


def _assert_matches_builder(make):
    g, twin = make(), make()
    longest, spherical, affine, constants = S.clique_table(g)
    table = subset_table(g)
    assert table.longest == longest
    assert tuple(sorted(table.longest, reverse=True)) == spherical
    assert table.affine == affine
    assert table.constants == constants
    assert list(table.longest) == S.size_lex(longest)
    assert spherical_separator(g) == S.sorted_separator(g, longest)
    for s in _candidates(g, longest):
        if g.irreducible_components_mask(s) == [s]:
            assert classify_irreducible(twin, twin.names_of(s)) == \
                S._irreducible_verdict(g, s), s
    assert twin._subsets is None
    return table


SWEEP = _sweep_labels()


@pytest.mark.parametrize("labels", [lab for _, lab in SWEEP],
                         ids=[name for name, _ in SWEEP])
def test_seeded_sweep_matches_builder(labels):
    _assert_matches_builder(lambda: graph_from_labels(labels))


def _diagram(rank, edges):
    """Diagram on d0..d{rank-1}: the listed (i, j, m) edges, with m None
    for an absent edge, every other pair commuting."""
    names = [f"d{i}" for i in range(rank)]
    label = {frozenset((i, j)): m for i, j, m in edges}
    return CoxeterGraph(names, [
        (names[i], names[j], m)
        for i in range(rank) for j in range(i + 1, rank)
        if (m := label.get(frozenset((i, j)), 2)) is not None])


def _path(labels, start=0):
    return [(start + k, start + k + 1, m) for k, m in enumerate(labels)]


def _cycle(rank, labels=None):
    labels = labels or [3] * rank
    return [(k, (k + 1) % rank, labels[k]) for k in range(rank)]


def _star(arms):
    """Vertex 0 with arms of the given lengths, all labels 3."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt, 3))
            prev, nxt = nxt, nxt + 1
    return 1 + sum(arms), edges


def _types():
    """(family, kind, rank, edges) for the finite types up to rank 8 and
    the affine types up to rank 9."""
    out = []
    for n in range(1, 9):
        out.append((f"A{n}", "FiniteType", n, _path([3] * (n - 1))))
    for n in range(3, 9):
        out.append((f"B{n}", "FiniteType", n, _path([4] + [3] * (n - 2))))
    for n in range(4, 9):
        out.append((f"D{n}", "FiniteType", n,
                    _path([3] * (n - 2)) + [(n - 3, n - 1, 3)]))
    for name, arms in (("E6", (1, 2, 2)), ("E7", (1, 2, 3)),
                       ("E8", (1, 2, 4))):
        rank, edges = _star(arms)
        out.append((name, "FiniteType", rank, edges))
    out += [("F4", "FiniteType", 4, _path([3, 4, 3])),
            ("H3", "FiniteType", 3, _path([5, 3])),
            ("H4", "FiniteType", 4, _path([5, 3, 3]))]
    for m, name in ((3, "A2"), (4, "B2"), (5, "I2(5)"), (6, "I2(6)"),
                    (7, "I2(7)"), (10 ** 6, "I2(1000000)")):
        out.append((name, "FiniteType", 2, [(0, 1, m)]))
    for n in range(2, 9):
        out.append((f"A~{n}", "AffineType", n + 1, _cycle(n + 1)))
        out.append((f"C~{n}", "AffineType", n + 1,
                    _path([4] + [3] * (n - 2) + [4])))
    for n in range(3, 9):
        # leaves 0 and 1 at vertex 2, then a path to the 4 at its far end
        out.append((f"B~{n}", "AffineType", n + 1,
                    [(0, 2, 3), (1, 2, 3)]
                    + _path([3] * (n - 3) + [4], start=2)))
    for n in range(4, 9):
        # forks at both ends of the path 1..n-1
        out.append((f"D~{n}", "AffineType", n + 1,
                    _path([3] * (n - 2), start=1)
                    + [(0, 2, 3), (n, n - 2, 3)]))
    for name, arms in (("E~6", (2, 2, 2)), ("E~7", (1, 3, 3)),
                       ("E~8", (1, 2, 5))):
        rank, edges = _star(arms)
        out.append((name, "AffineType", rank, edges))
    out += [("F~4", "AffineType", 5, _path([3, 3, 4, 3])),
            ("G~2", "AffineType", 3, _path([3, 6]))]
    return out


TYPES = _types()


@pytest.mark.parametrize("family,kind,rank,edges", TYPES,
                         ids=[t[0] for t in TYPES])
def test_finite_and_affine_types(family, kind, rank, edges):
    g = _diagram(rank, edges)
    full = g.full_mask()
    v = classify_irreducible(g, g.vertices)
    assert (v.kind, v.family, v.rank) == (kind, family, rank)
    assert v == S._irreducible_verdict(g, full)
    table = _assert_matches_builder(lambda: _diagram(rank, edges))
    assert (full in table.longest) == (kind == "FiniteType")
    assert (full in table.affine) == (kind == "AffineType")
    lab = O.labels_from_graph(g)
    assert O.is_spherical_subset(lab, full) == (kind == "FiniteType")
    assert O.is_affine_irreducible_subset(lab, full) == (kind == "AffineType")


@pytest.mark.parametrize("name", sorted(CORPUS_MAKERS))
def test_corpus_matches_builder(name):
    _assert_matches_builder(CORPUS_MAKERS[name])


def _affine_cycle(n, changed=None):
    """A~n on c0..cn, every other pair commuting; ``changed`` relabels the
    c0-c1 edge."""
    labels = [3] * (n + 1)
    if changed is not None:
        labels[0] = changed
    return _diagram(n + 1, _cycle(n + 1, labels))


@pytest.mark.parametrize("changed", [None, 4])
@pytest.mark.parametrize("n", range(2, 9))
def test_affine_cycles_match_builder(n, changed):
    table = _assert_matches_builder(lambda: _affine_cycle(n, changed))
    full = (1 << (n + 1)) - 1
    if changed is None:
        assert table.affine == {full}     # its proper subsets are paths
    else:
        assert full not in table.affine and full not in table.longest


SMALL_CASES = {
    "G~2": [(0, 1, 3), (1, 2, 6)],
    "C~2": [(0, 1, 4), (1, 2, 4)],
    "path 3, 7": [(0, 1, 3), (1, 2, 7)],
    "I2(10^6)": [(0, 1, 10 ** 6)],
    "path 10^6, 3": [(0, 1, 10 ** 6), (1, 2, 3)],
    "triangle 6, 6, 3": [(0, 1, 6), (1, 2, 6), (0, 2, 3)],
}


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_large_labels_match_eigenvalue_oracle(name):
    edges = SMALL_CASES[name]
    rank = 1 + max(j for _, j, _ in edges)
    make = partial(_diagram, rank, edges)
    table = _assert_matches_builder(make)
    g = make()
    lab = O.labels_from_graph(g)
    for mask in range(1 << rank):
        want = O.is_spherical_subset(lab, mask)
        assert is_spherical_mask(g, mask) == want, mask   # direct path
        assert (mask in table.longest) == want, mask
    assert table.affine == {m for m in range(1 << rank) if popcount(m) >= 3
                            and O.is_affine_irreducible_subset(lab, m)}


CYCLE_RULE_CASES = {
    # a 4-cycle labeled 3 with one chord: degrees 3, 2, 3, 2
    "chorded square": [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 3),
                       (0, 2, 3)],
    "K4 labeled 3": [(i, j, 3) for i in range(4) for j in range(i + 1, 4)],
    "triangle with a tail": [(0, 1, 3), (1, 2, 3), (0, 2, 3), (2, 3, 3)],
    "triangle 3, 3, 4": [(0, 1, 3), (1, 2, 3), (0, 2, 4)],
    "square 3, 3, 3, 4": _cycle(4, [3, 3, 3, 4]),
}


@pytest.mark.parametrize("name", sorted(CYCLE_RULE_CASES))
def test_diagrams_with_a_cycle_are_neither_finite_nor_affine(name):
    """Only a single cycle labeled 3 throughout is affine; asked on the
    direct path, where no proper subset prunes the match."""
    edges = CYCLE_RULE_CASES[name]
    rank = 1 + max(max(i, j) for i, j, _ in edges)
    g = _diagram(rank, edges)
    lab = O.labels_from_graph(g)
    assert not O.is_spherical_subset(lab, g.full_mask())
    assert not O.is_affine_irreducible_subset(lab, g.full_mask())
    v = classify_irreducible(g, g.vertices)
    assert v.kind == "OtherInfinite"
    assert v == S._irreducible_verdict(g, g.full_mask())
    _assert_matches_builder(lambda: _diagram(rank, edges))


RANK2_LABELS = (*range(3, 13), 10 ** 6)
RANK3_LABELS = (2, 3, 4, 5, 6, 7, 10 ** 6, None)   # None: absent edge


@pytest.mark.parametrize("m", RANK2_LABELS)
def test_rank_two_cliques_match_former_matcher(m):
    """Ranks up to 3 are settled from their labels; the former edge-list
    matchers are the reference."""
    make = partial(_diagram, 2, [(0, 1, m)])
    g = make()
    assert _irreducible_verdict(g, 0b11) == S._irreducible_verdict(g, 0b11)
    assert _irreducible_verdict(g, 0b01) == S._irreducible_verdict(g, 0b01)
    _assert_matches_builder(make)


@pytest.mark.parametrize("first", RANK3_LABELS)
def test_rank_three_cliques_match_former_matcher(first):
    """Every triple of labels from ``RANK3_LABELS`` on the pairs d0-d1,
    d0-d2 and d1-d2 whose first label is ``first``, so every label triple
    in every vertex order: irreducible triangles and paths, A1 x I2(m) and
    other reducible triples, and triples with an absent edge."""
    for second, third in itertools.product(RANK3_LABELS, repeat=2):
        labels = (first, second, third)
        make = partial(_diagram, 3, [(0, 1, first), (0, 2, second),
                                     (1, 2, third)])
        g = make()
        if g.irreducible_components_mask(0b111) == [0b111]:
            assert _irreducible_verdict(g, 0b111) == \
                S._irreducible_verdict(g, 0b111), labels
        _assert_matches_builder(make)


def test_build_matches_only_from_rank_four(monkeypatch):
    """Pairs and triples are settled from their labels: building the
    tables of the types, of every label triple and of the seeded sweep up
    to 10 vertices hands ``_match_clique`` only sets of rank >= 4."""
    ranks = []
    match = C._match_clique

    def spy(g, mask):
        ranks.append(popcount(mask))
        return match(g, mask)

    monkeypatch.setattr(C, "_match_clique", spy)
    graphs = [_diagram(rank, edges) for _, _, rank, edges in TYPES]
    graphs += [_diagram(3, [(0, 1, a), (0, 2, b), (1, 2, c)])
               for a, b, c in itertools.product(RANK3_LABELS, repeat=3)]
    graphs += [graph_from_labels(labels) for _, labels in SWEEP
               if len(labels) <= 10]
    for g in graphs:
        subset_table(g)
    assert ranks and min(ranks) == 4


@PROPERTY
@given(label_matrices(max_n=9, choices=ALL_LABELS))
def test_random_tables_match_builder(labels):
    """The spherical sets with their lengths and order, the affine sets,
    the constants and the separator of random graphs with labels 2-7,
    10^6 and infinity equal those of the former build and sort."""
    g = graph_from_labels(labels)
    longest, _, affine, constants = S.clique_table(g)
    table = subset_table(g)
    assert list(table.longest.items()) == list(longest.items())
    assert table.affine == affine
    assert table.constants == constants
    assert spherical_separator(g) == S.sorted_separator(g, longest)


def _dense_racg(n):
    return random_racg_matrix(random.Random(2000 + n), n, p_edge=0.9)


@pytest.mark.parametrize("n", range(18, 21))
def test_dense_right_angled_graphs_match_builder(n):
    labels = _dense_racg(n)
    _assert_matches_builder(lambda: graph_from_labels(labels))


def test_table_stays_small_at_the_cap():
    """Caps bound memory as well as time: the table of a dense
    right-angled graph at the default cap of 20 vertices (p = 0.9, 37,152
    spherical sets) keeps its traced peak below 16 MB."""
    g = graph_from_labels(_dense_racg(20))
    tracemalloc.start()
    try:
        table = subset_table(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.longest) == 37_152
    assert peak < MEMORY_CAP_BYTES, peak
