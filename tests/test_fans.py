"""Fan diagrams: spreading edge bundles with dihedral polygon cells."""

import random

import pytest

from coxwide import extend_geodesic, fans, is_geodesic
from coxwide.classification import compute_constants, subset_table
from coxwide.errors import ConstructionError, NonGeodesicError
from coxwide.fans import FanDiagram, build_fan, check_fan
from coxwide.words import _wide_suffix, engine_for

import scan_oracle as S
from conftest import (CORPUS_MAKERS, graph_from_labels, random_label_matrix,
                      random_racg_matrix, replace)


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


def test_fan_long_tail_searches_one_blocked_set(g6, monkeypatch):
    """A long tail blocks the join set s1 s2 s3 s4 a only, so the path
    search runs once and the error names Delta | K, here the same set."""
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


def _fan_requests(rng, g):
    """Seeded fan requests on ``g``: geodesic bases drawn mostly inside one
    maximal wide set, so that many tails are long, each with three letter
    pairs (equal letters too) that extend the base."""
    eng = engine_for(g)
    wides = subset_table(g).maximal_wide
    for _ in range(6 if wides else 0):
        wm = rng.choice(wides)
        inside = [v for v in range(g.n) if wm >> v & 1]
        w = ()
        for _ in range(rng.randint(3, 12)):
            pool = inside if rng.random() < 0.85 else range(g.n)
            ext = [a for a in pool if a not in eng.ending_letters(w)]
            if not ext:
                break
            w += (rng.choice(ext),)
        free = [a for a in range(g.n) if a not in eng.ending_letters(w)]
        for _ in range(3 if free else 0):
            yield eng, w, rng.choice(free), rng.choice(free)


def _fan_outcome(build, g, eng, w, si, ti):
    try:
        return build(g, eng, w, si, ti), None
    except ConstructionError as err:
        return None, err.blocking_set


def test_one_blocked_set_matches_the_former_attempt_list():
    """``_build_fan`` against the former builder that also tried Delta | K
    after the join set (``scan_oracle.build_fan_attempts``): the same fan
    and letter path on seeded right-angled and general-label graphs, many
    of the long-tail requests with Delta | K different from the join set.
    A failure names the set that was searched: on a long tail the join
    set, the former builder's first attempt, where the former builder
    named its last, Delta | K."""
    rng = random.Random(28)
    long_tail = differ = built = failed = renamed = 0
    for k in range(60):
        if k % 2:
            labels = random_racg_matrix(rng, rng.randint(5, 8), 0.55)
        else:
            labels = random_label_matrix(rng, rng.randint(4, 6))
        g = graph_from_labels(labels)
        for eng, w, si, ti in _fan_requests(rng, g):
            got = _fan_outcome(fans._build_fan, g, eng, w, si, ti)
            want = _fan_outcome(S.build_fan_attempts, g, eng, w, si, ti)
            start, delta = _wide_suffix(g, w)
            if len(w) - start > compute_constants(g).m_gamma:
                long_tail += 1
                k_mask = fans._mask(eng.ending_letters(w))
                joined = fans._blocked_for_tail(g, fans._mask(w[start:]),
                                                delta, k_mask)
                differ += delta | k_mask != joined
                if want[1] is not None:
                    renamed += want[1] != frozenset(g.names_of(joined))
                    want = None, frozenset(g.names_of(joined))
            assert got == want, (labels, w, si, ti)
            built += got[1] is None
            failed += got[1] is not None
    assert long_tail >= 100 and differ >= 10
    assert built > 100 and failed > 10
    assert renamed >= 10


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


def test_lex_least_path_matches_the_distance_dict_search():
    """The mask-layer search against the former one on random graphs of up
    to 9 vertices, every endpoint pair (equal ones too) and random allowed
    masks, with and without the direct edge."""
    rng = random.Random(22)
    found = 0
    for _ in range(150):
        g = graph_from_labels(random_label_matrix(rng, rng.randint(1, 9)))
        for s in range(g.n):
            for t in range(g.n):
                allowed = rng.getrandbits(g.n)
                for direct in (True, False):
                    path = fans._lex_least_path(g, s, t, allowed, direct)
                    assert path == S.lex_least_path(g, s, t, allowed, direct), \
                        (g.edge_list(), s, t, allowed, direct)
                    found += path is not None and len(path) > 2
    assert found > 1000


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
