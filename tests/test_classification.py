"""Irreducible type matching, group constants, and ends verdicts.

Expected orders and longest-element lengths for the finite families come
from the exact reflection-matrix breadth-first search in ``oracles`` (run
here live for the corpus) plus the classical closed forms:
|A_n| = (n+1)!, |B_3| = 48, |D_4| = 192, |H_3| = 120, |I_2(m)| = 2m, and
longest lengths 6, 9, 12, 15, m respectively.
"""

import random

import pytest

from coxwide import CoxeterGraph
from coxwide.classification import (classify_irreducible, compute_constants,
                                    ends_verdict, is_spherical_mask,
                                    longest_element_length_mask,
                                    spherical_separator)
from coxwide.errors import GraphFormatError, SizeCapError

import oracles as O
from conftest import (CORPUS_MAKERS, graph_from_labels, make_i2,
                      racg, random_label_matrix)


def test_finite_families(corpus):
    expected = {
        "A3": ("FiniteType", "A3", 3, 6),
        "A4": ("FiniteType", "A4", 4, 10),
        "B3": ("FiniteType", "B3", 3, 9),
        "D4": ("FiniteType", "D4", 4, 12),
        "H3": ("FiniteType", "H3", 3, 15),
    }
    for name, (kind, family, rank, longest) in expected.items():
        g = corpus[name]
        v = classify_irreducible(g, g.vertices)
        assert v.kind == kind, name
        assert v.family == family, name
        assert v.rank == rank, name
        assert v.longest_length == longest, name


def test_dihedral_types():
    for m in range(3, 9):
        v = classify_irreducible(make_i2(m), ("a", "b"))
        assert v.kind == "FiniteType"
        assert v.longest_length == m
    v = classify_irreducible(CoxeterGraph(["a", "b"], []), ("a", "b"))
    assert v.kind == "InfiniteDihedral"


def test_affine_types(aff_tri):
    v = classify_irreducible(aff_tri, ("a", "b", "c"))
    assert v.kind == "AffineType"
    # the path with labels 4, 4 is the rank-3 affine family C~2
    g = CoxeterGraph(["a", "b", "c"], [("a", "b", 4), ("b", "c", 4), ("a", "c", 2)])
    assert classify_irreducible(g, ("a", "b", "c")).kind == "AffineType"


def test_other_infinite():
    # a triangle with labels (3, 3, 4) is hyperbolic: neither finite nor affine
    g = CoxeterGraph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3), ("a", "c", 4)])
    v = classify_irreducible(g, ("a", "b", "c"))
    assert v.kind == "OtherInfinite"


def test_sphericity_against_matrix_oracle(corpus):
    """Finiteness of every standard subset agrees with the exact BFS."""
    small = ["P3", "A3", "B3", "H3", "AFF_TRI", "I2_5", "I2_7", "INF_PAIR"]
    for name in small:
        g = corpus[name]
        lab = O.labels_from_graph(g)
        for mask in range(1 << g.n):
            want = O.subset_order(lab, mask, cap=2000).finite is True
            assert is_spherical_mask(g, mask) == want, (name, mask)


def test_longest_length_against_matrix_oracle(corpus):
    for name in ["A3", "A4", "B3", "D4", "H3", "I2_6", "I2_8"]:
        g = corpus[name]
        lab = O.labels_from_graph(g)
        res = O.group_order(lab)
        assert res.finite
        assert longest_element_length_mask(g, g.full_mask()) == res.longest


def test_sphericity_random_graphs_eigen_oracle():
    rng = random.Random(1234)
    for _ in range(120):
        n = rng.randint(1, 4)
        labels = random_label_matrix(rng, n)
        g = graph_from_labels(labels)
        for mask in range(1 << n):
            assert is_spherical_mask(g, mask) == \
                O.is_spherical_subset(labels, mask), (labels, mask)


def test_constants_frozen(corpus):
    expected = {
        "C4": (4, 2, 2), "C5": (5, 2, 2), "G6": (6, 3, 2), "O8": (8, 3, 2),
        "P3": (3, 2, 2), "A4": (4, 10, 3), "WIDE8": (8, 4, 2),
        "AFF_TRI": (3, 3, 3),
    }
    for name, (v, m, r) in expected.items():
        c = compute_constants(corpus[name])
        assert (c.v_gamma, c.m_gamma, c.r_gamma) == (v, m, r), name


def test_constants_m_is_max_spherical_longest(corpus):
    """M is the max longest-element length over spherical subsets (oracle)."""
    for name in ["C5", "G6", "A4", "B3"]:
        g = corpus[name]
        lab = O.labels_from_graph(g)
        best = 0
        for mask in range(1 << g.n):
            res = O.subset_order(lab, mask, cap=2000)
            if res.finite:
                best = max(best, res.longest)
        assert compute_constants(g).m_gamma == best, name


def test_constants_cap():
    g = racg([f"v{i}" for i in range(25)], [])
    with pytest.raises(SizeCapError):
        compute_constants(g, cap=20)


def test_ends_frozen(corpus):
    expected = {
        "C4": "OneEnded", "C5": "OneEnded", "C6": "OneEnded",
        "P3": "TwoEnded", "G6": "OneEnded", "O8": "OneEnded",
        "WIDE8": "OneEnded", "INF_PAIR": "TwoEnded", "AFF_TRI": "OneEnded",
        "A3": "FiniteGroup", "D4": "FiniteGroup", "I2_7": "FiniteGroup",
    }
    for name, kind in expected.items():
        assert ends_verdict(corpus[name]).kind == kind, name


def test_ends_against_oracle(corpus):
    tag = {"finite": "FiniteGroup", "two": "TwoEnded",
           "one": "OneEnded", "multi": "MultiEnded"}
    for name, g in corpus.items():
        want = tag[O.oracle_ends(O.labels_from_graph(g), order_cap=3000)]
        assert ends_verdict(g).kind == want, name


def test_ends_multi_and_witness():
    p4 = racg(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    v = ends_verdict(p4)
    assert v.kind == "MultiEnded"
    assert v.witness is not None
    # the witness really is a spherical separating set
    mask = p4.mask_of(v.witness)
    assert is_spherical_mask(p4, mask)
    rest = p4.full_mask() & ~mask
    assert len(p4.components_within(rest)) > 1
    # disconnected graph: empty separator
    free3 = CoxeterGraph(["a", "b", "c"], [])
    v2 = ends_verdict(free3)
    assert v2.kind == "MultiEnded" and v2.witness == ()
    assert O.oracle_ends(O.labels_from_graph(free3), order_cap=3000) == "multi"


def test_two_ended_growth(corpus):
    """Two-ended verdicts match eventually-constant sphere sizes."""
    for name in ["P3", "INF_PAIR"]:
        lab = O.labels_from_graph(corpus[name])
        sph = O.sphere_sizes(lab, 8)
        assert len(set(sph[-3:])) == 1 and sph[-1] > 0


def test_spherical_separator_none_on_one_ended(c5, g6):
    assert spherical_separator(c5) is None
    assert spherical_separator(g6) is None


def test_classify_irreducible_rejects_empty_and_reducible_subsets():
    a3 = CoxeterGraph(("a", "b", "c"),
                      [("a", "b", 3), ("b", "c", 3), ("a", "c", 2)])
    with pytest.raises(GraphFormatError) as exc:
        classify_irreducible(a3, [])
    assert str(exc.value) == "cannot classify the empty subset"
    with pytest.raises(GraphFormatError) as exc:
        classify_irreducible(a3, ["a", "c"])
    assert str(exc.value) == ("subset ['a', 'c'] is reducible "
                              "(2 irreducible components)")
