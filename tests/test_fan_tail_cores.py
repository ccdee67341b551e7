"""The fans' wide-tail condition read off the cores of the subset table,
against the scan of the whole wide list it replaced
(``scan_oracle.wide_holds_tail``), and the guards on what the fan checks
no longer pay for: no list of wide sets, and one growth of the cores per
table, shared with wide-spherical-avoidance and the wide list.

The differential runs on seeded (tail, interior) pairs, on every fan that
``test_fans._fan_requests`` builds or checks, and on every tampered fan of
``test_fans.py`` and ``test_check_oracles.py``: a spy in place of
``fans._wide_holds_tail`` answers with the core test after comparing it with
the scan.
"""

from __future__ import annotations

import random
from functools import cached_property

import pytest

import scan_oracle as S
import test_check_oracles as C
import test_fans as F
from conftest import (graph_from_labels, make_c5, make_o8,
                      random_label_matrix, random_racg_matrix, replace)
from coxwide import build_filter, check_filter, fans
from coxwide.avoidance import is_wide_spherical_avoidant
from coxwide.classification import (SubsetTable, compute_constants,
                                    subset_table)
from coxwide.errors import ConstructionError
from coxwide.fans import build_fan, check_fan
from coxwide.words import _wide_suffix


def _sweep_graphs(rng, count):
    """Seeded right-angled and general-label graphs, alternately."""
    for k in range(count):
        if k % 2:
            yield graph_from_labels(random_racg_matrix(rng, rng.randint(5, 8),
                                                       0.55))
        else:
            yield graph_from_labels(random_label_matrix(rng, rng.randint(4, 6)))


@pytest.fixture
def asked(monkeypatch):
    """The (tail, interior) answers the fan checks ask for, each compared
    with the wide-list scan before it is returned."""
    seen = []
    core_test = fans._wide_holds_tail

    def spy(g, tail, interior):
        got = core_test(g, tail, interior)
        assert got == S.wide_holds_tail(g, tail, interior), \
            (g.edge_list(), tail, interior)
        seen.append(got)
        return got

    monkeypatch.setattr(fans, "_wide_holds_tail", spy)
    return seen


def test_core_test_matches_the_wide_list_scan_on_seeded_pairs():
    """Non-empty tails drawn mostly inside a maximal wide set, interiors
    mostly outside the tail, on 400 graphs of 4 to 9 vertices."""
    rng = random.Random(30)
    pairs = held = 0
    for k in range(400):
        n = rng.randint(4, 9)
        g = graph_from_labels(random_racg_matrix(rng, n, 0.6) if k % 2
                              else random_label_matrix(rng, n))
        wides = subset_table(g).maximal_wide
        for _ in range(40):
            if wides and rng.random() < 0.8:
                tail = rng.choice(wides) & rng.getrandbits(n)
                interior = rng.getrandbits(n) & rng.getrandbits(n)
                if rng.random() < 0.8:
                    interior &= ~tail
            else:
                tail, interior = rng.getrandbits(n), rng.getrandbits(n)
            if not tail:
                continue
            got = fans._wide_holds_tail(g, tail, interior)
            assert got == S.wide_holds_tail(g, tail, interior), \
                (g.edge_list(), tail, interior)
            pairs += 1
            held += got
    assert pairs >= 10_000 and 500 <= held < pairs - 500


def _long_tail(g, eng, w) -> bool:
    start = _wide_suffix(g, w)[0]
    return len(w) - start > compute_constants(g).m_gamma


def test_core_test_matches_the_scan_on_the_fan_request_sweep(asked):
    """The fan requests of ``test_fans``'s one-blocked-set sweep: every
    letter path tried, and every built fan checked again on a fresh copy
    of its graph, as built and with its interior letters reversed."""
    rng = random.Random(28)
    long_tail = 0
    for g in _sweep_graphs(rng, 60):
        for eng, w, si, ti in F._fan_requests(rng, g):
            long_tail += _long_tail(g, eng, w)
            try:
                fan = fans._build_fan(g, eng, w, si, ti)[0]
            except ConstructionError:
                continue
            h = C.fresh(g)
            assert check_fan(h, fan).ok
            inner = fan.labels[1:-1][::-1]
            check_fan(h, replace(fan, labels=fan.labels[:1] + inner
                                   + fan.labels[-1:]))
    assert long_tail >= 100
    assert True in asked and False in asked


def test_core_test_matches_the_scan_on_tampered_fans(asked):
    """The tampered fans of ``test_fans.py`` and ``test_check_oracles.py``,
    whose own assertions run as well."""
    F.test_fan_checker_rejects_tampering(make_c5())
    for name in sorted(C.GRAPHS):
        C.test_tampered_fans_match_oracle(name)
    C.test_wide_tail_fan_in_a_filter_matches_oracle()
    assert True in asked


# (alpha, beta, depth): O8 filters with wide-tail fans
O8_FILTERS = ((("s1", "s3") * 3, ("s2", "s4") * 3, 5),
              (("s1", "s3") * 3, ("t1", "t3") * 3, 5),
              (("s1", "s2", "s3", "s4") * 2, ("s3", "s4", "s1", "s2") * 2, 5))


def test_fan_and_filter_checks_build_no_wide_list():
    """Long-tail fans on O8 (the base s1 s2 s3 s4 with letters s2, s1, and
    the base s1 s3 s2 s4 with t1, t3), O8 filters with wide-tail fans and
    the fan request sweep leave the wide list unbuilt."""
    for base, s, t in ((("s1", "s2", "s3", "s4"), "s2", "s1"),
                       (("s1", "s3", "s2", "s4"), "t1", "t3")):
        g = make_o8()
        fan = build_fan(g, base, s, t)
        assert fan.case == "wide-tail" and check_fan(g, fan).ok
        assert check_fan(C.fresh(g), fan).ok
        assert "wide" not in subset_table(g).__dict__
    for alpha, beta, depth in O8_FILTERS:
        g = make_o8()
        filt = build_filter(g, alpha, beta, depth)
        assert any(f.case == "wide-tail" for f in filt.fans)
        assert check_filter(g, filt).ok
        assert "wide" not in subset_table(g).__dict__
    rng = random.Random(28)
    long_tail = 0
    for g in _sweep_graphs(rng, 60):
        for eng, w, si, ti in F._fan_requests(rng, g):
            long_tail += _long_tail(g, eng, w)
            try:
                fan = fans._build_fan(g, eng, w, si, ti)[0]
            except ConstructionError:
                continue
            assert check_fan(C.fresh(g), fan).ok
        assert "wide" not in subset_table(g).__dict__
    assert long_tail >= 100


def test_cores_grow_once_per_table(monkeypatch):
    """Wide-spherical-avoidance, the wide list and the fan checks share
    one growth of the cores per table, and ``cores()`` returns one tuple."""
    grown = []
    growth = SubsetTable._cores.func

    def counted(table):
        grown.append(table)
        return growth(table)

    spy = cached_property(counted)
    spy.__set_name__(SubsetTable, "_cores")
    monkeypatch.setattr(SubsetTable, "_cores", spy)
    for base, s, t in ((("s1", "s2", "s3", "s4"), "s2", "s1"),
                       (("s1", "s3", "s2", "s4"), "t1", "t3")):
        g = make_o8()
        table = subset_table(g)
        fan = build_fan(g, base, s, t)
        assert check_fan(C.fresh(g), fan).ok
        is_wide_spherical_avoidant(g)
        assert table.wide
        assert table.cores() is table.cores()
        assert grown.count(table) == 1
    rng = random.Random(28)
    for g in _sweep_graphs(rng, 20):
        table = subset_table(g)
        for eng, w, si, ti in F._fan_requests(rng, g):
            try:
                fans._build_fan(g, eng, w, si, ti)
            except ConstructionError:
                pass
        is_wide_spherical_avoidant(g)
        table.wide
        assert grown.count(table) == 1
