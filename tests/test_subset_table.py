"""The per-graph subset table against the scans it replaced and the oracles.

Random general-label graphs (labels 2-5 and infinity, up to 7 vertices)
are compared with ``scan_oracle`` (the old per-mask scans) and with
``oracles`` (eigenvalue sphericity, brute-force wideness).  Every query is
asked twice: on a graph without a table (the direct per-mask path) and on
one whose table is built.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import oracles as O
import scan_oracle as S
from conftest import PROPERTY, graph_from_labels, label_matrices
from coxwide import CoxeterGraph, EndsVerdict
from coxwide import classification
from coxwide.avoidance import (_spherical_submasks, enumerate_special_joins,
                               enumerate_wide_subgraphs, is_affine_free,
                               is_wide, is_wide_avoidant,
                               is_wide_spherical_avoidant)
from coxwide.classification import (DEFAULT_SUBSET_CAP, classify_irreducible,
                                    compute_constants, ends_verdict,
                                    irreducible_kind, is_spherical,
                                    is_spherical_mask,
                                    longest_element_length_mask,
                                    spherical_separator, subset_table)
from coxwide.classify import classify
from coxwide.errors import SizeCapError
from coxwide.fans import FanDiagram, build_fan, check_fan
from coxwide.filters import build_filter, check_filter
from coxwide.graphs import popcount
from coxwide.walls import morse_window_check
from coxwide.words import extend_geodesic, wide_tail


def _per_mask(g):
    full = g.full_mask()
    return ([longest_element_length_mask(g, m) for m in range(full + 1)],
            [is_spherical_mask(g, m) for m in range(full + 1)],
            {m: irreducible_kind(g, m) for m in range(1, full + 1)
             if g.irreducible_components_mask(m) == [m]})


@PROPERTY
@given(label_matrices())
def test_table_equals_replaced_scans(labels):
    g = graph_from_labels(labels)
    full = g.full_mask()
    want = ([S.longest_element_length_mask(g, m) for m in range(full + 1)],
            [S.is_spherical_mask(g, m) for m in range(full + 1)],
            {m: S.classify_component(g, m).kind for m in range(1, full + 1)
             if g.irreducible_components_mask(m) == [m]})
    assert _per_mask(g) == want          # direct path, no table yet
    assert g._subsets is None
    assert compute_constants(g).m_gamma == S.m_gamma(g)
    assert _per_mask(g) == want          # read from the table
    assert subset_table(g).wide == S.wide_sets(g)
    assert subset_table(g).maximal_wide == S.maximal_wide_sets(g)
    assert is_affine_free(g) == S.is_affine_free(g)
    assert spherical_separator(g) == S.spherical_separator(g)
    table = subset_table(g)
    for ground in range(full + 1):
        assert _spherical_submasks(table, ground) == \
            S.spherical_submasks(g, ground)
        assert table.maximal_spherical(ground) == \
            S.maximal_spherical_submasks(g, ground)


@PROPERTY
@given(label_matrices())
def test_table_equals_oracles(labels):
    g = graph_from_labels(labels)
    compute_constants(g)
    full = g.full_mask()
    for mask in range(full + 1):
        assert is_spherical_mask(g, mask) == O.is_spherical_subset(labels, mask)
    assert list(subset_table(g).wide) == O.brute_wide_masks(labels)
    affine = {m for m in range(full + 1) if popcount(m) >= 3
              and O.is_affine_irreducible_subset(labels, m)}
    assert subset_table(g).affine == affine
    assert is_affine_free(g) == (not affine)


def _path(n: int, label: int = 3) -> CoxeterGraph:
    names = [f"v{i}" for i in range(n)]
    return CoxeterGraph(names, [(names[i], names[i + 1], label)
                                for i in range(n - 1)])


def _pentagon_filter():
    """A depth-2 filter on the right-angled pentagon v0 .. v4, to be
    checked on a larger graph holding those vertices."""
    names = [f"v{i}" for i in range(5)]
    return build_filter(CoxeterGraph(names, [(names[i], names[(i + 1) % 5], 2)
                                             for i in range(5)]),
                        ("v0",), ("v1",), 2)


# A fan on the base v0: reading its wide tail reads the subset table.
_FAN = FanDiagram(("v0",), ("v1", "v0", "v1"), (6, 6), (), None,
                  "short-tail", ())


def _capped_calls(cap):
    """``(layer, takes_cap, call)`` for the readers of the subset table.
    Those that take no cap read it at the default cap; a word needs a
    letter before its wide tail reads the table."""
    return [
        ("constants", True, lambda g: compute_constants(g, cap)),
        ("ends", True, lambda g: ends_verdict(g, cap)),
        ("enumeration", True, lambda g: subset_table(g, cap).wide),
        ("enumeration", True, lambda g: subset_table(g, cap).maximal_wide),
        ("enumeration", True, lambda g: enumerate_wide_subgraphs(g, cap=cap)),
        ("enumeration", True, lambda g: is_affine_free(g, cap)),
        ("enumeration", True, lambda g: enumerate_special_joins(g, cap=cap)),
        ("enumeration", True, lambda g: is_wide_avoidant(g, cap)),
        ("enumeration", True, lambda g: is_wide_spherical_avoidant(g, cap)),
        ("constants", True, lambda g: classify(g, cap)),
        ("enumeration", False, spherical_separator),
        ("enumeration", False, lambda g: wide_tail(g, ("v0",))),
        ("enumeration", False, lambda g: extend_geodesic(g, (), 2)),
        ("enumeration", False, lambda g: morse_window_check(g, ("v0",), 0)),
        ("enumeration", False, lambda g: build_fan(g, ("v0",), "v1", "v1")),
        ("enumeration", False, lambda g: check_fan(g, _FAN)),
        ("constants", False, lambda g: check_filter(g, _pentagon_filter())),
    ]


@pytest.mark.parametrize("idx", range(len(_capped_calls(0))))
def test_caps_raise_before_any_table(idx):
    layer, takes_cap, call = _capped_calls(4)[idx]
    n, cap = (5, 4) if takes_cap else (21, DEFAULT_SUBSET_CAP)
    g = _path(n)
    with pytest.raises(SizeCapError) as exc:
        call(g)
    assert str(exc.value) == f"graph has {n} vertices, {layer} cap is {cap}"
    assert g._subsets is None


def test_cap_errors_name_their_layer():
    g = _path(5)
    for call, layer in ((compute_constants, "constants"),
                        (ends_verdict, "ends"), (subset_table, "enumeration")):
        with pytest.raises(SizeCapError,
                           match=f"graph has 5 vertices, {layer} cap is 4"):
            call(g, 4)


def test_default_caps_raise_at_21_vertices():
    g = _path(21)
    calls = [("constants", compute_constants), ("ends", ends_verdict),
             ("enumeration", lambda h: subset_table(h).wide),
             ("enumeration", lambda h: subset_table(h).maximal_wide),
             ("enumeration", enumerate_wide_subgraphs),
             ("enumeration", is_affine_free),
             ("enumeration", enumerate_special_joins),
             ("enumeration", is_wide_avoidant),
             ("enumeration", is_wide_spherical_avoidant),
             ("constants", classify),
             ("enumeration", lambda h: subset_table(h).wide_cover(1))]
    calls += [(layer, call) for layer, takes_cap, call
              in _capped_calls(None) if not takes_cap]
    for layer, call in calls:
        with pytest.raises(SizeCapError) as exc:
            call(g)
        assert str(exc.value) == \
            f"graph has 21 vertices, {layer} cap is {DEFAULT_SUBSET_CAP}"
    assert g._subsets is None


def test_reads_without_a_table_answer_beyond_the_cap():
    """A word with no letters has no wide tail and a graph whose pairs are
    all adjacent no separator: neither reads the subset table."""
    g = _path(21)
    assert wide_tail(g, ()) == ((), None)
    assert extend_geodesic(g, (), 1) == ("v0",)
    names = [f"v{i}" for i in range(21)]
    clique = CoxeterGraph(names, [(a, b, 2) for i, a in enumerate(names)
                                  for b in names[i + 1:]])
    assert spherical_separator(clique) is None
    assert g._subsets is None and clique._subsets is None


def test_ends_verdict_builds_a_table_only_for_the_separator_scan(
        monkeypatch):
    """Finite, two-ended and disconnected graphs are decided from their
    components: ``ends_verdict`` builds no ``SubsetTable`` for them, not
    even on 20 pairwise commuting vertices (2^20 spherical sets).  A
    connected graph with a non-adjacent pair does need the scan."""
    built = []
    real = classification.SubsetTable.__init__

    def spy(self, g):
        built.append(g)
        real(self, g)

    monkeypatch.setattr(classification.SubsetTable, "__init__", spy)
    names = [f"v{i}" for i in range(20)]
    commuting = CoxeterGraph(names, [(a, b, 2) for i, a in enumerate(names)
                                     for b in names[i + 1:]])
    two_ended = CoxeterGraph(["a", "b", "c", "d"],
                             [("a", "c", 2), ("b", "c", 2), ("a", "d", 2),
                              ("b", "d", 2), ("c", "d", 5)])
    disconnected = CoxeterGraph(["a", "b", "c", "d"],
                                [("a", "b", 3), ("c", "d", 3)])
    for g, kind, witness in ((commuting, "FiniteGroup", None),
                             (two_ended, "TwoEnded", ("a", "b")),
                             (disconnected, "MultiEnded", ())):
        assert ends_verdict(g) == EndsVerdict(kind, witness)
        assert g._subsets is None
    assert built == []
    p4 = _path(4)
    assert ends_verdict(p4) == EndsVerdict("MultiEnded", ("v1",))
    assert built == [p4]


@PROPERTY
@given(label_matrices())
def test_ends_verdict_with_and_without_a_table(labels):
    fresh, tabled = graph_from_labels(labels), graph_from_labels(labels)
    subset_table(tabled)
    assert ends_verdict(fresh) == ends_verdict(tabled)


def test_uncapped_queries_answer_on_large_graphs():
    # an A8 diagram on v0..v7 (other pairs commute), then 32 free vertices
    names = [f"v{i}" for i in range(40)]
    g = CoxeterGraph(names, [(names[i], names[j], 3 if j == i + 1 else 2)
                             for i in range(8) for j in range(i + 1, 8)])
    assert is_spherical(g, g.vertices[:8])                 # A8
    assert longest_element_length_mask(g, 0xFF) == 36
    assert classify_irreducible(g, g.vertices[:5]).family == "A5"
    assert not is_spherical_mask(g, 0b101 | 1 << 39)       # infinite bond
    assert not is_wide(g)
    assert g._subsets is None


def _permuted(labels, perm):
    n = len(labels)
    return [[labels[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@PROPERTY
@given(label_matrices(max_n=6).flatmap(
    lambda lab: st.tuples(st.just(lab),
                          st.permutations(range(len(lab))))))
def test_classify_booleans_invariant_under_relabelling(case):
    labels, perm = case
    v = classify(graph_from_labels(labels))
    w = classify(graph_from_labels(_permuted(labels, perm)))
    assert (v.case, v.racg, v.hypotheses, v.ends.kind, v.constants) == \
        (w.case, w.racg, w.hypotheses, w.ends.kind, w.constants)
