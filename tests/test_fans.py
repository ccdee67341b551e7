"""Fan diagrams: spreading edge bundles with dihedral polygon cells."""

import pytest

from coxwide import extend_geodesic, fans, is_geodesic
from coxwide.errors import ConstructionError, NonGeodesicError
from coxwide.fans import FanDiagram, build_fan, check_fan

from conftest import CORPUS_MAKERS, replace


def test_fan_frozen(c5):
    f = build_fan(c5, (), "s1", "s2")
    assert f.labels == ("s1", "s2", "s1", "s2")
    assert f.case == "short-tail"
    assert f.cells == (4, 4, 4)
    assert f.tail == () and f.tail_delta is None
    assert check_fan(c5, f).ok


def test_fan_endpoints_and_spread(c5):
    f = build_fan(c5, ("s3",), "s1", "s2")
    assert f.left == "s1" and f.right == "s2"
    # every fan letter extends the base geodesically
    for s in f.labels:
        assert is_geodesic(c5, f.base + (s,))
    # consecutive letters are adjacent; the cell size is twice the label
    for i in range(len(f.labels) - 1):
        m = c5.label(f.labels[i], f.labels[i + 1])
        assert m is not None
        assert f.cells[i] == 2 * m


def test_fan_on_longer_bases(corpus):
    for name in ["C5", "G6", "O8"]:
        g = corpus[name]
        base = extend_geodesic(g, (g.vertices[0],), 5)
        ends = {base[-1]}
        picks = [s for s in g.vertices if is_geodesic(g, base + (s,))]
        s, t = picks[0], picks[-1]
        f = build_fan(g, base, s, t)
        ck = check_fan(g, f)
        assert ck.ok, (name, ck.failures)


def test_fan_side_words(c5):
    f = build_fan(c5, (), "s1", "s2")
    lam, rho = f.side_words(0)
    assert lam == ("s1", "s2") and rho == ("s2", "s1")


def test_fan_wide_tail_case(o8):
    """A base ending deep inside a wide subgraph forces the long-tail rules."""
    base = ("s1", "s3", "s2", "s4")  # entirely inside the wide inner square
    assert is_geodesic(o8, base)
    f = build_fan(o8, base, "t1", "t3")
    assert f.case == "wide-tail"
    assert f.labels == ("t1", "t2", "t3")
    assert f.tail == base and f.tail_delta == ("s1", "s2", "s3", "s4")
    assert f.blocked == ("s1", "s2", "s3", "s4")
    assert check_fan(o8, f).ok
    # interior letters stay out of the blocked set
    blocked = set(f.blocked)
    assert all(s not in blocked for s in f.labels[1:-1])


def test_fan_wide_tail_jams_without_avoidance(g6):
    """On a non-avoidant graph the long-tail path can genuinely not exist;
    the builder reports the blocking set instead of emitting a bad fan."""
    base = ("s1", "s3", "s2", "s4")
    assert is_geodesic(g6, base)
    with pytest.raises(ConstructionError):
        build_fan(g6, base, "a", "b")


def test_fan_fallback_runs_only_when_it_blocks_another_set(g6, monkeypatch):
    """Here the join rule and the fallback both block s1 s2 s3 s4 a, so the
    path search runs once and the error names that set."""
    searched = []
    real = fans._lex_least_path

    def spy(g, s, t, allowed, direct=True):
        searched.append((allowed, direct))
        return real(g, s, t, allowed, direct)

    monkeypatch.setattr(fans, "_lex_least_path", spy)
    with pytest.raises(ConstructionError) as exc:
        build_fan(g6, ("s1", "s3", "s2", "s4"), "a", "b")
    assert exc.value.blocking_set == {"s1", "s2", "s3", "s4", "a"}
    # a and b are not adjacent, so no detour is tried
    assert searched == [(g6.mask_of(["b"]), True)]


def test_fan_detour_around_adjacent_letters(o8, monkeypatch):
    """Slot letters s2, s1 under a wide tail: the walk s2,s1,s2,s1 puts its
    interior in the tail's wide set under the one blocked set, so the fan
    takes the detour s2, t1, s1 that avoids the edge s2 - s1."""
    searched = []
    real = fans._lex_least_path

    def spy(g, s, t, allowed, direct=True):
        searched.append(direct)
        return real(g, s, t, allowed, direct)

    monkeypatch.setattr(fans, "_lex_least_path", spy)
    base = ("s1", "s2", "s3", "s4")
    f = build_fan(o8, base, "s2", "s1")
    assert f.labels == ("s2", "t1", "s1") and f.cells == (4, 4)
    assert f.case == "wide-tail" and f.blocked == ("s1", "s2", "s3", "s4")
    assert check_fan(o8, f).ok
    assert searched == [True, False]   # one blocked set: direct, then detour


def test_fan_checker_rejects_tampering(c5):
    f = build_fan(c5, ("s3",), "s1", "s2")
    assert check_fan(c5, f).ok
    # corrupt a cell size
    bad_cells = (f.cells[0] + 2,) + f.cells[1:]
    f_bad = replace(f, cells=bad_cells)
    assert not check_fan(c5, f_bad).ok
    # corrupt the label sequence: repeat a letter (not geodesically spreading)
    f_bad2 = replace(f, labels=(f.labels[0],) * len(f.labels))
    assert not check_fan(c5, f_bad2).ok
    # claim a different case than the tail length dictates
    f_bad3 = replace(f, case="wide-tail")
    assert not check_fan(c5, f_bad3).ok


def test_fan_requires_geodesic_base(c5):
    with pytest.raises(NonGeodesicError):
        build_fan(c5, ("s1", "s1"), "s2", "s3")


def test_fan_rejects_non_extending_endpoints(c5):
    # s1 does not extend the base ("s1",) geodesically
    with pytest.raises(NonGeodesicError):
        build_fan(c5, ("s1",), "s1", "s2")


def test_fan_json_fields(c5):
    f = build_fan(c5, (), "s1", "s2")
    obj = f.to_json_obj()
    assert list(obj.keys()) == ["base", "labels", "cells", "tail",
                                "tail_delta", "case", "blocked"]
