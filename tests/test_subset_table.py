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
from coxwide import CoxeterGraph
from coxwide.avoidance import (_spherical_submasks, enumerate_special_joins,
                               enumerate_wide_subgraphs, is_affine_free,
                               is_wide, is_wide_avoidant,
                               is_wide_spherical_avoidant,
                               label_in_wide_subgraph, maximal_wide_masks,
                               wide_masks)
from coxwide.classification import (classify_irreducible, compute_constants,
                                    ends_verdict, irreducible_kind,
                                    is_spherical, is_spherical_mask,
                                    longest_element_length_mask,
                                    spherical_separator, subset_table)
from coxwide.classify import classify
from coxwide.errors import SizeCapError
from coxwide.graphs import popcount


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
    assert wide_masks(g) == S.wide_masks(g)
    assert maximal_wide_masks(g) == S.maximal_wide_masks(g)
    assert is_affine_free(g) == S.is_affine_free(g)
    assert spherical_separator(g) == S.spherical_separator(g)
    table = subset_table(g)
    for ground in range(full + 1):
        assert _spherical_submasks(g, ground) == \
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
    assert list(wide_masks(g)) == O.brute_wide_masks(labels)
    affine = {m for m in range(full + 1) if popcount(m) >= 3
              and O.is_affine_irreducible_subset(labels, m)}
    assert subset_table(g).affine == affine
    assert is_affine_free(g) == (not affine)


def _capped_calls(cap):
    return [
        lambda g: compute_constants(g, cap),
        lambda g: ends_verdict(g, cap),
        lambda g: wide_masks(g, cap),
        lambda g: maximal_wide_masks(g, cap),
        lambda g: enumerate_wide_subgraphs(g, cap=cap),
        lambda g: is_affine_free(g, cap),
        lambda g: enumerate_special_joins(g, cap=cap),
        lambda g: is_wide_avoidant(g, cap),
        lambda g: is_wide_spherical_avoidant(g, cap),
        lambda g: classify(g, cap),
    ]


def _path(n: int, label: int = 3) -> CoxeterGraph:
    names = [f"v{i}" for i in range(n)]
    return CoxeterGraph(names, [(names[i], names[i + 1], label)
                                for i in range(n - 1)])


@pytest.mark.parametrize("idx", range(len(_capped_calls(0))))
def test_caps_raise_before_any_table(idx):
    g = _path(5)
    with pytest.raises(SizeCapError):
        _capped_calls(4)[idx](g)
    assert g._subsets is None


def test_cap_errors_name_their_layer():
    g = _path(5)
    for call, layer in ((compute_constants, "constants"),
                        (ends_verdict, "ends"), (wide_masks, "enumeration")):
        with pytest.raises(SizeCapError,
                           match=f"graph has 5 vertices, {layer} cap is 4"):
            call(g, 4)


def test_default_caps_raise_at_21_vertices():
    g = _path(21)
    for call in (compute_constants, ends_verdict, wide_masks,
                 maximal_wide_masks, enumerate_wide_subgraphs,
                 is_affine_free, enumerate_special_joins, is_wide_avoidant,
                 is_wide_spherical_avoidant, classify,
                 lambda h: label_in_wide_subgraph(h, 1)):
        with pytest.raises(SizeCapError):
            call(g)
    assert g._subsets is None


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
