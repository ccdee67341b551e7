"""Cayley balls, wall crossing/separation, pencils, window criterion.

Ball sizes are cross-checked against sphere sizes from the exact
reflection-matrix BFS oracle.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from coxwide import (CoxeterGraph, build_ball, extend_geodesic, is_geodesic,
                     normalize)
from coxwide.errors import NonGeodesicError, OrbitCapError, SizeCapError
from coxwide.walls import (find_pencil, is_reflection, morse_window_check,
                           order_of, wall_separates, walls_cross)
from coxwide.words import engine_for

import oracles as O
from conftest import (CORPUS_MAKERS, PROPERTY, graph_from_labels, make_a3,
                      make_a4, make_c5, make_c6, make_d4, make_h3, make_o8,
                      make_wide8, racg_label_matrices, random_label_matrix)


def test_ball_sizes_frozen(corpus):
    expected = {"C4": [1, 5, 13, 25], "C5": [1, 6, 21, 61],
                "G6": [1, 7, 27, 81], "A3": [1, 4, 9, 15],
                "B3": [1, 4, 9, 16]}
    for name, sizes in expected.items():
        g = corpus[name]
        assert [len(build_ball(g, r).words) for r in range(4)] == sizes, name


def test_ball_sizes_match_matrix_oracle(corpus):
    for name in ["C4", "C5", "G6", "A3", "B3", "H3", "AFF_TRI", "P3"]:
        g = corpus[name]
        sph = O.sphere_sizes(O.labels_from_graph(g), 3)
        ball = build_ball(g, 3)
        cumulative = [sum(sph[: r + 1]) for r in range(4)]
        assert len(ball.words) == cumulative[3], name
        # per-sphere counts agree as well
        by_len = {}
        for w in ball.words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert [by_len.get(r, 0) for r in range(4)] == list(sph), name


def test_ball_structure(c5):
    ball = build_ball(c5, 2)
    # words are canonical, sorted by (length, lex), pairwise distinct
    assert len(set(ball.words)) == len(ball.words)
    assert all(normalize(c5, w) == w for w in ball.words)
    # each edge joins words differing by one right multiplication
    for i, j, s in ball.edges:
        assert normalize(c5, ball.words[i] + (s,)) == ball.words[j] or \
            normalize(c5, ball.words[j] + (s,)) == ball.words[i]


def test_ball_cap():
    g = CORPUS_MAKERS["G6"]()
    with pytest.raises(SizeCapError):
        build_ball(g, 4, cap=50)


@pytest.mark.parametrize("name", ["C5", "G6", "A3", "H3", "WIDE8"])
def test_ball_cap_is_exact(corpus, name):
    g = corpus[name]
    for radius in (1, 2, 3):
        ball = build_ball(g, radius)
        assert build_ball(g, radius, cap=len(ball.words)) == ball
        cap = len(ball.words) - 1
        with pytest.raises(SizeCapError,
                           match=rf"^ball exceeds {cap} elements$"):
            build_ball(g, radius, cap=cap)


def test_ball_radius_zero_is_the_identity(corpus):
    """The identity counts against the size cap like any element."""
    for name, g in corpus.items():
        ball = build_ball(g, 0)
        assert (ball.words, ball.edges) == (((),), ()), name
        assert build_ball(g, 0, cap=1) == ball, name
        with pytest.raises(SizeCapError, match=r"^ball exceeds 0 elements$"):
            build_ball(g, 0, cap=0)


def test_ball_size_cap_is_checked_before_the_next_sphere_is_grown():
    # A4 with orbit cap 2: spheres 0-2 hold 14 elements and growing
    # sphere 2 exceeds the orbit cap.  Each call gets a fresh graph, so no
    # memo carries over.
    make = CORPUS_MAKERS["A4"]
    assert len(build_ball(make(), 2, orbit_cap=2).words) == 14
    with pytest.raises(SizeCapError, match=r"^ball exceeds 13 elements$"):
        build_ball(make(), 3, cap=13, orbit_cap=2)
    with pytest.raises(OrbitCapError):
        build_ball(make(), 3, cap=14, orbit_cap=2)


def test_order_of(c5, corpus):
    assert order_of(c5, ("s1", "s2", "s1")) == 2  # reflections are involutions
    assert order_of(c5, ("s1", "s2")) == 2        # commuting product
    assert order_of(c5, ()) == 1
    a3 = corpus["A3"]
    assert order_of(a3, ("a", "b")) == 3          # braid label 3
    # infinite order: non-adjacent pair in a right-angled graph
    assert order_of(c5, ("s1", "s3"), cap=64) is None
    assert order_of(c5, ("s1", "s3")) is None


def test_order_of_refuses_labels_above_the_default_cap():
    """The product of the two generators of I2(100) has order 100, which
    the default cap of 64 would report as infinite."""
    g = CoxeterGraph(["a", "b"], [("a", "b", 100)])
    with pytest.raises(SizeCapError, match="R = 100"):
        order_of(g, ("a", "b"))
    assert order_of(g, ("a", "b"), cap=200) == 100
    assert order_of(g, ("a", "b"), cap=99) is None


def test_is_reflection(c5):
    assert is_reflection(c5, ("s1",))
    assert is_reflection(c5, ("s1", "s3", "s1"))
    assert not is_reflection(c5, ("s1", "s3"))
    assert not is_reflection(c5, ())


def test_wall_separates(c5):
    # the wall of the first edge separates the identity from the word
    w = extend_geodesic(c5, ("s1",), 5)
    eng = engine_for(c5)
    for i in range(1, len(w) + 1):
        refl = eng.decode(eng.reflection_word(eng.encode(w), i))
        assert wall_separates(c5, refl, w)
        assert not wall_separates(c5, refl, ())


def test_walls_cross(c4, c5):
    # C4: the walls dual to the edges of s1 s3 s1 s3 are pairwise parallel
    w = ("s1", "s3", "s1", "s3")
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert not walls_cross(c4, w, i, j), (i, j)
    # adjacent (commuting) generators have crossing walls
    assert walls_cross(c5, ("s1", "s2"), 1, 2)


def test_pencil_frozen(c4, c5):
    p = find_pencil(c4, ("s1", "s3", "s1", "s3"))
    assert list(p.positions) == [1, 2, 3, 4]
    assert [" ".join(r) for r in p.reflections] == \
        ["s1", "s1 s3 s1", "s1 s3 s1 s3 s1", "s1 s3 s1 s3 s1 s3 s1"]
    assert all(p.separates_endpoints)
    p5 = find_pencil(c5, extend_geodesic(c5, ("s1",), 5))
    assert list(p5.positions) == [1, 3, 4, 5]
    assert all(p5.separates_endpoints)


def test_pencil_walls_pairwise_parallel(c5):
    w = extend_geodesic(c5, ("s1",), 6)
    p = find_pencil(c5, w)
    for a in range(len(p.positions)):
        for b in range(a + 1, len(p.positions)):
            assert not walls_cross(c5, w, p.positions[a], p.positions[b])


def test_default_order_cap_refuses_labels_above_it():
    """An edge label above 64 is a rotation order the default cap of 64
    cannot see; an explicit cap decides the crossing."""
    g = CoxeterGraph(["a", "b"], [("a", "b", 65)])
    w = ("a", "b", "a")
    with pytest.raises(SizeCapError, match="R = 65"):
        walls_cross(g, w, 1, 3)
    with pytest.raises(SizeCapError, match="--order-cap"):
        find_pencil(g, w)
    assert walls_cross(g, w, 1, 3, order_cap=65)
    assert not walls_cross(g, w, 1, 3, order_cap=64)
    assert find_pencil(g, w, order_cap=65).positions == (1,)
    # at the default cap itself nothing changes
    g64 = CoxeterGraph(["a", "b"], [("a", "b", 64)])
    assert walls_cross(g64, w, 1, 3)


def test_pencil_past_the_old_orbit_cap():
    # before right-angled normal forms, the order probes of this word's
    # wall products exceeded the default 200,000-member orbit cap
    g = make_c5()
    w = ("s1", "s3", "s4", "s1")
    p = find_pencil(g, w)
    assert p.positions == (1, 2, 4)
    assert all(p.separates_endpoints)
    assert all(wall_separates(g, r, w) for r in p.reflections)


def test_pencil_on_a_right_angled_graph_keeps_its_memo_short():
    # a finite order in a right-angled group is 1 or 2, so each order probe
    # normalizes a wall product and its square, never 64 growing powers
    g = make_c5()
    w = extend_geodesic(g, ("s1",), 8)
    eng = engine_for(g)
    before = set(eng._norm)
    p = find_pencil(g, w)
    assert p.positions == (1, 3, 4, 5, 6, 7, 8)
    assert all(p.separates_endpoints)
    added = set(eng._norm) - before
    assert added and max(map(len, added)) <= 4 * len(w)


def _path(names: str, labels) -> CoxeterGraph:
    """A path diagram with these labels, every other pair commuting."""
    return CoxeterGraph(list(names), [
        (u, v, labels[i] if j == i + 1 else 2)
        for i, u in enumerate(names) for j, v in enumerate(names) if i < j])


FINITE_TYPES = {
    "A4": make_a4,
    "B4": lambda: _path("abcd", (4, 3, 3)),
    "D4": make_d4,
    "F4": lambda: _path("abcd", (3, 4, 3)),
    "H3": make_h3,
    "B3xI2(6)": lambda: CoxeterGraph(list("abcxy"), [
        ("a", "b", 4), ("b", "c", 3), ("a", "c", 2), ("x", "y", 6),
        *[(u, v, 2) for u in "abc" for v in "xy"]]),
}


def _max_rotation_order(lab) -> int:
    """Largest order of a product of two distinct reflections of a finite
    Coxeter group, from its exact reflection matrices: the reflections are
    the conjugates of the generators, found as words w s w^-1."""
    identity, apply_gen = O._ring_machine(lab)

    def times(word, mat):
        for gen in reversed(word):
            mat = apply_gen(gen, mat)
        return mat

    reflections = {}
    frontier = [(i,) for i in range(len(lab))]
    while frontier:
        grown = []
        for w in frontier:
            key = times(w, identity)
            if key not in reflections:
                reflections[key] = w
                grown.extend((j,) + w + (j,) for j in range(len(lab)))
        frontier = grown
    words = list(reflections.values())
    best = 0
    for a, r in enumerate(words):
        for r2 in words[a + 1:]:
            product = r + r2
            mat, order = times(product, identity), 1
            while mat != identity:
                mat, order = times(product, mat), order + 1
            best = max(best, order)
    return best


# the order of the product of the generators; F4 (12) and B3 x I2(6) (6)
# are left out, as their powers exceed the braid-orbit cap
COXETER_NUMBERS = {"A4": 5, "B4": 8, "D4": 6, "H3": 10}


@pytest.mark.parametrize("name", sorted(FINITE_TYPES))
def test_rotation_orders_never_exceed_the_largest_label(name):
    """The bound behind the default crossing cap: in a finite Coxeter
    group no product of two reflections has order above the largest
    label.  Element orders can: the product of the generators has the
    Coxeter number as its order, which ``order_of`` finds under its cap
    of 64."""
    g = FINITE_TYPES[name]()
    assert _max_rotation_order(O.labels_from_graph(g)) == g.max_label()
    if name in COXETER_NUMBERS:
        assert order_of(g, g.vertices) == COXETER_NUMBERS[name]


@pytest.mark.parametrize("name,word", [
    ("A4", None), ("B4", None), ("D4", None), ("H3", None),
    ("B3xI2(6)", "x y x y x y a b c")])
def test_default_crossing_cap_decides_every_pair_of_walls(name, word):
    """In a finite group all walls cross, so every probe of a product of
    two reflections, at most R powers, must find it finite.  The longest
    element's walls are all the reflections (on B3 x I2(6) a shorter word
    keeps the braid orbits small)."""
    g = FINITE_TYPES[name]()
    if word is None:
        w = ()
        while True:
            s = next((s for s in g.vertices if is_geodesic(g, w + (s,))), None)
            if s is None:
                break
            w += (s,)
    else:
        w = tuple(word.split())
    assert find_pencil(g, w).positions == (1,)
    assert all(walls_cross(g, w, 1, j) for j in range(2, len(w) + 1))


def test_pencil_probes_at_most_the_largest_label():
    """Probing 64 powers of each wall product through braid orbits
    exceeded the orbit cap on this word; the largest label, 3, decides
    every crossing."""
    g = CoxeterGraph(list("abcd"), [("a", "b", 3), ("b", "c", 3),
                                    ("c", "d", 2)])
    w = ("a", "b", "a", "c")
    p = find_pencil(g, w)
    assert p.positions == (2, 4)
    assert not walls_cross(g, w, 2, 4)
    assert walls_cross(g, w, 1, 2)
    assert find_pencil(g, w, order_cap=3) == p


def test_order_caps_below_one_are_refused():
    """A cap below 1 is refused: at cap 0 a generator of order 2 would read
    as of infinite order and every wall as parallel.  Cap 1 stays valid."""
    g = make_a3()
    w = ("a", "b", "a")
    for cap in (0, -3):
        with pytest.raises(ValueError, match="order cap must be >= 1"):
            order_of(g, ("a",), cap=cap)
        with pytest.raises(ValueError, match="order cap must be >= 1"):
            order_of(g, (), cap=cap)
        with pytest.raises(ValueError, match="order cap must be >= 1"):
            walls_cross(g, w, 1, 2, order_cap=cap)
        with pytest.raises(ValueError, match="order cap must be >= 1"):
            find_pencil(g, w, order_cap=cap)
    assert order_of(g, (), cap=1) == 1
    assert order_of(g, ("a",), cap=1) is None
    assert find_pencil(g, w, order_cap=1).positions == (1, 2, 3)


def _random_geodesic(g, rng, length):
    """A geodesic of ``length`` letters, each drawn among those that keep
    it geodesic; shorter only when the group's longest element ends it."""
    w = ()
    while len(w) < length:
        ext = [s for s in g.vertices if is_geodesic(g, w + (s,))]
        if not ext:
            break
        w += (rng.choice(ext),)
    return w


def _crossings(g, w, order_cap=None):
    n = len(w)
    return {(i, j): walls_cross(g, w, i, j, order_cap)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def _longest_parallel_chain(n, cross):
    """The lex-least longest chain of positions whose consecutive walls do
    not cross, by brute force."""
    for size in range(n, 0, -1):
        for chain in combinations(range(1, n + 1), size):
            if not any(cross[a, b] for a, b in zip(chain, chain[1:])):
                return chain
    return ()


def _pencil_sweep():
    """Fixed seeded geodesics: the right-angled C5, C6, O8 and WIDE8 at
    lengths 8, 12 and 16, and general-label graphs on 3-5 vertices (labels
    2-5 and infinity) at length 5, where every crossing test finishes."""
    cases = []
    for make in (make_c5, make_c6, make_o8, make_wide8):
        g, rng = make(), random.Random(make.__name__)
        cases += [(g, _random_geodesic(g, rng, length))
                  for length in (8, 12, 16) for _ in range(4)]
    for seed in range(16):
        rng = random.Random(seed)
        g = graph_from_labels(random_label_matrix(rng, rng.choice((3, 4, 5))))
        cases += [(g, _random_geodesic(g, rng, 5)) for _ in range(3)]
    return cases


def test_pencil_is_the_longest_chain_of_parallel_walls():
    """At the default cap, non-crossing is transitive along a geodesic:
    for i < j < l, a wall j crossing neither wall i nor wall l lies between
    them, so they do not cross either.  So the pencil is the lex-least
    longest chain of consecutively parallel walls."""
    for g, w in _pencil_sweep():
        n = len(w)
        cross = _crossings(g, w)
        for i, j, l in combinations(range(1, n + 1), 3):
            if not cross[i, j] and not cross[j, l]:
                assert not cross[i, l], (g.vertices, w, i, j, l)
        assert find_pencil(g, w).positions == \
            _longest_parallel_chain(n, cross), (g.vertices, w)


def test_pencil_at_an_explicit_cap_below_the_largest_label_is_no_chain():
    """Below R, an order above the cap reads as parallel, and the chain
    argument fails: on B2 x A1 (R = 4) walls 2-3, 3-4 and 4-5 are each
    parallel at caps 2 and 3, but walls 2 and 4 (and 3 and 5) cross."""
    g = graph_from_labels([[1, 2, 4], [2, 1, 2], [4, 2, 1]])
    w = ("v1", "v2", "v0", "v2", "v0")
    assert find_pencil(g, w).positions == (1,)
    for cap in (2, 3):
        cross = _crossings(g, w, cap)
        assert cross[2, 4] and cross[3, 5]
        assert _longest_parallel_chain(len(w), cross) == (2, 3, 4, 5)
        assert find_pencil(g, w, order_cap=cap).positions == (2, 3)


@PROPERTY
@given(racg_label_matrices(max_n=6), st.data())
def test_order_of_on_right_angled_graphs_against_matrix_oracle(lab, data):
    g = graph_from_labels(lab)
    word = tuple(data.draw(st.lists(st.sampled_from(g.vertices), max_size=6)))
    idx = [g.index(x) for x in word]
    one = O.word_element(lab, [])
    # the library squares at most once here; an order from 3 to 8 would show
    want = next((k for k in range(1, 9)
                 if O.word_element(lab, idx * k) == one), None)
    assert order_of(g, word) == want
    assert order_of(g, word, cap=1) == (1 if want == 1 else None)


def test_morse_window_frozen(c4, c5):
    rep = morse_window_check(c4, ("s1", "s3", "s1", "s3"), 2)
    assert not rep.passes
    obj = rep.to_json_obj()
    assert obj["window"] == [1, 3]
    assert obj["wide_subgraph"] == ["s1", "s2", "s3", "s4"]
    good = morse_window_check(c5, extend_geodesic(c5, ("s1",), 6), 2)
    assert good.passes


def test_morse_window_semantics(c4):
    """A window violation means: some k+1 consecutive letters all lie in one
    wide subgraph.  Verified against the wideness brute force."""
    lab = O.labels_from_graph(c4)
    w = ("s1", "s3", "s2", "s4")
    rep = morse_window_check(c4, w, 3)
    assert not rep.passes
    i, j = rep.to_json_obj()["window"]
    letters = w[i - 1: j]
    mask = 0
    for s in letters:
        mask |= 1 << c4.index(s)
    assert any(mask & ~wm == 0 for wm in O.brute_wide_masks(lab))


def test_morse_window_requires_geodesic(c5):
    with pytest.raises(NonGeodesicError):
        morse_window_check(c5, ("s1", "s1"), 1)


def test_no_wide_no_violation(c5):
    """Graphs without wide subgraphs pass every window check."""
    rng = random.Random(3)
    for _ in range(20):
        w = extend_geodesic(c5, (rng.choice(c5.vertices),), rng.randint(2, 10))
        for k in range(1, len(w) + 1):
            assert morse_window_check(c5, w, k).passes


def test_crossing_and_separation_reject_bad_inputs(c5):
    """Typed errors, with their messages, for positions outside the word,
    one position given twice, and a word that is not a reflection."""
    word = ("s1", "s3")
    for i, j, pos in ((0, 1, 0), (1, 3, 3)):
        with pytest.raises(ValueError) as exc:
            walls_cross(c5, word, i, j)
        assert str(exc.value) == f"position {pos} out of range 1..2"
    with pytest.raises(ValueError) as exc:
        walls_cross(c5, word, 2, 2)
    assert str(exc.value) == "positions 2 and 2 are dual to the same wall"
    with pytest.raises(ValueError) as exc:
        wall_separates(c5, ("s1", "s2"), ("s1",))
    assert str(exc.value) == "not a reflection word"
