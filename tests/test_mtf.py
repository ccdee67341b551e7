"""Multi-tail filters: case traces, carried rays, glued filters."""

import pytest

from coxwide import extend_geodesic, normalize
from coxwide.errors import ConstructionError
from coxwide.filters import (build_multitail_filter, check_filter,
                             check_multitail_filter)
from coxwide.words import engine_for

from conftest import CORPUS_MAKERS, replace

ZIG = ("s1", "s3", "s1", "s3", "s1", "s3", "s1", "s3")
ZAG = ("s2", "s4", "s2", "s4", "s2", "s4", "s2", "s4")


def test_mtf_frozen_traces(c5):
    expected = {
        0: ("", (), 1),
        1: ("s1 s2", ("prepend", "fresh"), 2),
        2: ("s2 s3 s1 s4", ("fresh", "prepend", "prepend", "fresh"), 3),
        3: ("s1 s2 s3 s1 s4 s2",
            ("prepend", "fresh", "prepend", "prepend", "fresh", "fresh"), 4),
    }
    for n, (sigma, cases, n_filters) in expected.items():
        m = build_multitail_filter(c5, ZIG, ZAG, n, depth=2)
        assert " ".join(m.sigma) == sigma, n
        assert m.cases == cases, n
        assert len(m.filters) == n_filters, n
        ck = check_multitail_filter(c5, m)
        assert ck.ok, (n, ck.failures)


def test_mtf_level_zero_is_single_filter(c5):
    m = build_multitail_filter(c5, ZIG, ZAG, 0, depth=2)
    assert m.sigma == () and m.cases == ()
    assert len(m.filters) == 1
    assert m.filters[0].alpha == ZIG and m.filters[0].beta == ZAG


def test_mtf_sigma_is_connecting_geodesic(c5):
    eng = engine_for(c5)
    for n in (1, 2, 3):
        m = build_multitail_filter(c5, ZIG, ZAG, n, depth=2)
        a, b = eng.encode(ZIG), eng.encode(ZAG)
        assert eng.encode(m.sigma) == eng.mult(eng.inverse(a[:n]), b[:n])


def test_mtf_case_semantics(c5):
    """'prepend' steps are exactly the descending ones: the wall of the
    sigma edge crosses the previous tail, so the tail shortens."""
    eng = engine_for(c5)
    for n in (1, 2, 3):
        m = build_multitail_filter(c5, ZIG, ZAG, n, depth=2)
        a = eng.encode(ZIG)
        sigma = eng.encode(m.sigma)
        for k in range(1, len(sigma) + 1):
            prev = len(eng.normalize(a[:n] + sigma[: k - 1]))
            cur = len(eng.normalize(a[:n] + sigma[:k]))
            want = "prepend" if cur < prev else "fresh"
            assert m.cases[k - 1] == want, (n, k)


def test_mtf_rays_extend_tails_geodesically(c5):
    eng = engine_for(c5)
    m = build_multitail_filter(c5, ZIG, ZAG, 3, depth=2)
    a = eng.encode(ZIG)
    sigma = eng.encode(m.sigma)
    d = len(sigma)
    tails = [a[:3]] + [eng.normalize(a[:3] + sigma[:k])
                       for k in range(1, d)] + [eng.encode(ZAG)[:3]]
    for k, ray in enumerate(m.rays):
        assert eng.is_geodesic(tails[k] + eng.encode(ray)), k
    # prepend rays carry the previous ray across the sigma edge
    for k, case in enumerate(m.cases, start=1):
        if case == "prepend":
            assert m.rays[k] == (m.sigma[k - 1],) + m.rays[k - 1]


def test_mtf_boundaries_match_filters(c5):
    m = build_multitail_filter(c5, ZIG, ZAG, 3, depth=2)
    assert len(m.boundaries) == len(m.filters) == len(m.tails)
    for (left, right), filt in zip(m.boundaries, m.filters):
        assert filt.alpha == left and filt.beta == right


def test_mtf_checker_rejects_tampering(c5):
    m = build_multitail_filter(c5, ZIG, ZAG, 2, depth=2)
    assert check_multitail_filter(c5, m).ok
    # flip one case tag
    flipped = tuple(("fresh" if c == "prepend" else "prepend")
                    for c in m.cases)
    bad = replace(m, cases=flipped)
    assert not check_multitail_filter(c5, bad).ok
    # corrupt sigma
    bad2 = replace(m, sigma=("s1",) + m.sigma)
    assert not check_multitail_filter(c5, bad2).ok
    # swap a carried ray
    rays = list(m.rays)
    rays[1], rays[-1] = rays[-1], rays[1]
    bad3 = replace(m, rays=tuple(rays))
    assert not check_multitail_filter(c5, bad3).ok


def _relabelled(filt, letter):
    """The filter with every edge label replaced by ``letter``."""
    return replace(
        filt, edges=tuple(replace(e, label=letter)
                          for e in filt.edges))


def test_mtf_checker_checks_every_filter_when_boundaries_are_short(c5):
    """A record with fewer boundaries than filters fails, and every filter
    is still checked: filter 2 is broken and only boundary 0 is kept."""
    m = build_multitail_filter(c5, ZIG, ZAG, 2, depth=2)
    assert len(m.filters) == 3
    broken = _relabelled(m.filters[2], "s1")
    assert not check_filter(c5, broken).ok
    bad = replace(m, filters=m.filters[:2] + (broken,),
                  boundaries=m.boundaries[:1])
    ck = check_multitail_filter(c5, bad)
    assert not ck.ok
    assert "1 boundaries recorded for 3 filters" in ck.failures
    assert any(f.startswith("filter 2: ") for f in ck.failures), ck.failures


def test_mtf_checker_reports_short_tails(c5):
    """Fewer tails than filters is a failure, not an IndexError."""
    m = build_multitail_filter(c5, ZIG, ZAG, 2, depth=2)
    ck = check_multitail_filter(c5, replace(m, tails=m.tails[:1]))
    assert not ck.ok
    assert ck.failures == ("1 tails recorded for 3 filters",)


def test_mtf_degenerate_rays_raise(c5):
    """When both inputs are greedy extensions of the same kind, the last
    fresh ray coincides with the second boundary: no diagram exists."""
    a = extend_geodesic(c5, ("s1",), 8)
    b = extend_geodesic(c5, ("s3",), 8)
    with pytest.raises(ConstructionError):
        build_multitail_filter(c5, a, b, 1, depth=2)


def test_mtf_fresh_rays_keep_the_orbit_cap():
    """Fresh rays grow under the caller's orbit cap: no second word engine
    (at the default cap) is built on the graph."""
    g = CORPUS_MAKERS["C5"]()
    m = build_multitail_filter(g, ZIG, ZAG, 2, depth=2, orbit_cap=5000)
    assert "fresh" in m.cases
    assert sorted(g._engines) == [5000]


def test_mtf_level_out_of_range(c5):
    with pytest.raises(ValueError):
        build_multitail_filter(c5, ZIG, ZAG, 99, depth=1)


def test_mtf_json_fields(c5):
    m = build_multitail_filter(c5, ZIG, ZAG, 1, depth=1)
    obj = m.to_json_obj()
    assert list(obj.keys()) == ["alpha", "beta", "n", "sigma", "cases",
                                "rays", "tails", "boundaries", "filters"]


def test_mtf_on_o8(o8):
    a = ("s1", "s3", "s1", "s3", "s1", "s3")
    b = ("s2", "s4", "s2", "s4", "s2", "s4")
    for n in (0, 2):
        m = build_multitail_filter(o8, a, b, n, depth=2)
        ck = check_multitail_filter(o8, m)
        assert ck.ok, (n, ck.failures)
