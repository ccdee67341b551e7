"""Wide subgraphs, special joins, and the two avoidance deciders.

Every decision is cross-checked against the brute-force oracle, which
enumerates all ordered (P, Q) partitions / all special joins with no
maximality pruning and decides factor types by cosine-matrix eigenvalues.
"""

import random

import pytest
from hypothesis import given, strategies as st

from coxwide import avoidance, classify
from coxwide.avoidance import (_blocked_pairs, enumerate_special_joins,
                               enumerate_wide_subgraphs, is_affine_free,
                               is_wide, is_wide_avoidant,
                               is_wide_spherical_avoidant, wide_decomposition)
from coxwide.classification import subset_table
from coxwide.errors import SizeCapError, VerificationError

import oracles as O
import scan_oracle as S
from conftest import (CORPUS_MAKERS, PROPERTY, graph_from_labels,
                      label_matrices, racg, racg_label_matrices,
                      random_label_matrix)


def test_wide_decomposition_frozen(c4, c5, aff_tri, g6, wide8):
    d = wide_decomposition(c4, c4.vertices)
    assert d.kind == "TwoInfiniteFactors"
    assert set(d.p) | set(d.q) == set(c4.vertices)
    assert wide_decomposition(c5, c5.vertices) is None
    t = wide_decomposition(aff_tri, aff_tri.vertices)
    assert t.kind == "AffineRank3Plus" and set(t.p) == {"a", "b", "c"}
    assert wide_decomposition(g6, ("s1", "s2", "s3", "s4")) is not None
    assert wide_decomposition(wide8, wide8.vertices) is not None


def test_is_wide_corpus(corpus):
    wide_names = {"C4", "WIDE8", "AFF_TRI"}
    for name, g in corpus.items():
        assert is_wide(g) == (name in wide_names), name


def test_wide_masks_against_brute_force(corpus):
    for name, g in corpus.items():
        if g.n > 6:
            continue
        lab = O.labels_from_graph(g)
        assert set(subset_table(g).wide) == set(O.brute_wide_masks(lab)), name


def test_wide_masks_random_against_brute_force():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(2, 5)
        lab = random_label_matrix(rng, n)
        g = graph_from_labels(lab)
        assert set(subset_table(g).wide) == set(O.brute_wide_masks(lab)), lab


def test_maximal_wide_masks(g6, o8):
    for g in (g6, o8):
        all_w = set(subset_table(g).wide)
        mx = set(subset_table(g).maximal_wide)
        assert mx <= all_w
        for m in all_w:
            assert any(m & ~t == 0 for t in mx)
        for m in mx:
            assert not any(m != t and m & ~t == 0 for t in mx)
    assert subset_table(o8).maximal_wide == (
        o8.mask_of(["s1", "s2", "s3", "s4"]), o8.mask_of(["t1", "t2", "t3", "t4"]))


def test_enumerate_wide_subgraphs(c4):
    subs = enumerate_wide_subgraphs(c4)
    assert ("s1", "s2", "s3", "s4") in subs
    # every returned vertex set admits a wide decomposition
    assert all(wide_decomposition(c4, names) is not None for names in subs)


def test_label_in_wide_subgraph(c4, c5):
    hit = subset_table(c4).wide_cover(c4.mask_of(["s1", "s2"]))
    assert hit is not None and c4.mask_of(["s1", "s2"]) & ~hit == 0
    assert subset_table(c5).wide_cover(c5.mask_of(["s1", "s2"])) is None


def test_avoidance_frozen(corpus):
    expected_wa = {"C4": False, "C5": True, "C6": True, "P3": True,
                   "G6": False, "O8": True, "WIDE8": False, "AFF_TRI": True,
                   "A4": True, "INF_PAIR": True}
    for name, wa in expected_wa.items():
        rep = is_wide_avoidant(corpus[name])
        assert rep.holds == wa, name
        reps = is_wide_spherical_avoidant(corpus[name])
        # on this corpus the two notions agree graph by graph
        assert reps.holds == wa, name


def test_g6_wa_witness_validated(g6):
    rep = is_wide_avoidant(g6)
    assert not rep.holds
    assert rep.blocking_set is not None and rep.pair is not None
    # the reported blocking set really disconnects the reported pair
    lab = O.labels_from_graph(g6)
    blocked = g6.mask_of(rep.blocking_set)
    s, t = (g6.index(x) for x in rep.pair)
    assert not O._path_avoiding(lab, s, t, blocked)
    # and it contains a wide subgraph of the defining graph
    assert any(wm & ~blocked == 0 for wm in subset_table(g6).wide)


def test_wsa_witness_join_validated(g6):
    rep = is_wide_spherical_avoidant(g6)
    assert not rep.holds and rep.join is not None
    lab = O.labels_from_graph(g6)
    p = g6.mask_of(rep.join.p)
    q = g6.mask_of(rep.join.q)
    k = g6.mask_of(rep.join.k)
    assert O.is_spherical_subset(lab, k)
    decs = O.brute_wide_decompositions(lab, p | q)
    assert any(dp == p and dq == q for dp, dq, _ in decs)
    blocked = p | q | k
    s, t = (g6.index(x) for x in rep.pair)
    assert not O._path_avoiding(lab, s, t, blocked)


def test_avoidance_random_against_brute_force():
    rng = random.Random(101)
    checked_wa = checked_wsa = 0
    for _ in range(120):
        n = rng.randint(2, 5)
        lab = random_label_matrix(rng, n)
        g = graph_from_labels(lab)
        lib_wa = is_wide_avoidant(g).holds
        brute_wa, _ = O.brute_is_wide_avoidant(lab)
        assert lib_wa == brute_wa, lab
        checked_wa += 1
        lib_wsa = is_wide_spherical_avoidant(g).holds
        brute_wsa, _ = O.brute_is_wide_spherical_avoidant(lab)
        assert lib_wsa == brute_wsa, lab
        checked_wsa += 1
    assert checked_wa == checked_wsa == 120


def test_wsa_implies_wa_on_random_graphs():
    """Avoiding every special join includes the K-empty joins, so
    wide-spherical-avoidance can never hold where wide-avoidance fails."""
    rng = random.Random(202)
    for _ in range(150):
        n = rng.randint(2, 5)
        lab = random_label_matrix(rng, n)
        g = graph_from_labels(lab)
        if is_wide_spherical_avoidant(g).holds:
            assert is_wide_avoidant(g).holds, lab


def _check_deciders(lab):
    """Both reports against the pair-by-pair deciders they replaced, their
    verdicts against brute force up to 6 vertices, the implications
    between them, and classify's reuse of the wide-avoidant verdict."""
    g = graph_from_labels(lab)
    wa = is_wide_avoidant(g)
    wsa = is_wide_spherical_avoidant(g)
    assert wa.to_json_obj() == S.wide_avoidant_by_pairs(g).to_json_obj()
    assert wsa.to_json_obj() == \
        S.wide_spherical_avoidant_by_pairs(g).to_json_obj()
    if len(lab) <= 6:
        assert wa.holds == O.brute_is_wide_avoidant(lab)[0]
        assert wsa.holds == O.brute_is_wide_spherical_avoidant(lab)[0]
    assert wa.holds or not wsa.holds
    if g.is_racg():
        assert wsa.holds == wa.holds
    assert classify(g).hypotheses["wide_spherical_avoidant"] == wsa.holds


@PROPERTY
@given(racg_label_matrices(max_n=9))
def test_deciders_against_references_right_angled(lab):
    _check_deciders(lab)


@PROPERTY
@given(label_matrices(max_n=7))
def test_deciders_against_references_general_labels(lab):
    _check_deciders(lab)


@PROPERTY
@given(st.one_of(racg_label_matrices(max_n=9), label_matrices(max_n=7)),
       st.data())
def test_blocked_pairs_against_path_search(lab, data):
    g = graph_from_labels(lab)
    n = len(lab)
    for blocked in data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                      min_size=1, max_size=8)):
        want = [(s, t) for s in range(n) for t in range(s + 1, n)
                if not O._path_avoiding(lab, s, t, blocked)]
        assert _blocked_pairs(g, blocked) == want, blocked


def test_special_joins(g6):
    joins = enumerate_special_joins(g6)
    assert joins
    lab = O.labels_from_graph(g6)
    for j in joins:
        p, q, k = (g6.mask_of(x) for x in (j.p, j.q, j.k))
        assert O.is_spherical_subset(lab, k)
        decs = O.brute_wide_decompositions(lab, p | q)
        assert any(dp == p and dq == q for dp, dq, _ in decs)
        # K consists of common neighbors of P, outside the wide set
        assert k & ~O._common_neighbors_brute(lab, p) == 0
        assert k & (p | q) == 0
    maximal = enumerate_special_joins(g6, maximal_only=True)
    assert maximal and len(maximal) <= len(joins)


def _brute_special_joins(lab) -> list[tuple[int, int, int]]:
    """Every (P, Q, K) from the definition: P, Q a wide decomposition of a
    wide set D, K a spherical set of common neighbours of P outside D."""
    out = set()
    for wm in O.brute_wide_masks(lab):
        for p, q, _kind in O.brute_wide_decompositions(lab, wm):
            ground = O._common_neighbors_brute(lab, p) & ~wm
            out.update((p, q, k) for k in O.osubmasks(ground)
                       if O.is_spherical_subset(lab, k))
    return sorted(out)


@PROPERTY
@given(label_matrices(max_n=6))
def test_special_joins_against_brute_force(lab):
    g = graph_from_labels(lab)
    want = _brute_special_joins(lab)
    blocked = [p | q | k for p, q, k in want]
    want_maximal = [j for j, b in zip(want, blocked)
                    if not any(b != b2 and b & ~b2 == 0 for b2 in blocked)]
    for maximal_only, expected in ((False, want), (True, want_maximal)):
        got = [tuple(g.mask_of(x) for x in (j.p, j.q, j.k))
               for j in enumerate_special_joins(g, maximal_only=maximal_only)]
        assert got == expected, maximal_only


def test_affine_free(corpus):
    expected = {"C4": True, "C5": True, "G6": True, "O8": True,
                "AFF_TRI": False, "A4": True, "H3": True, "INF_PAIR": True}
    for name, want in expected.items():
        assert is_affine_free(corpus[name]) == want, name
    # a graph containing an affine triangle plus a far vertex is not affine-free
    from coxwide import CoxeterGraph
    g = CoxeterGraph(["a", "b", "c", "z"],
                     [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assert not is_affine_free(g)


def test_avoidance_size_cap():
    g = racg([f"v{i}" for i in range(25)], [])
    with pytest.raises(SizeCapError):
        is_wide_avoidant(g, cap=20)


def test_wsa_witness_walk_that_finds_no_join_is_a_defect(g6, monkeypatch):
    """Every core blocked set is the blocked set of a special join, so the
    witness walk always finds one; a walk that ends without one is a
    library defect (exit 3), not a verdict."""
    monkeypatch.setattr(avoidance, "_join_grounds", lambda g, table: iter(()))
    with pytest.raises(VerificationError) as exc:
        is_wide_spherical_avoidant(g6)
    assert str(exc.value) == ("no special join separates s1, s3, which a "
                              "core blocked set separates")
