"""Exact rewriting word engine: canonical forms, geodesics, extensions."""

import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from coxwide import (CoxeterGraph, GraphFormatError, NonGeodesicError,
                     OrbitCapError, element, ending_letters, extend_geodesic,
                     extension_constant, is_geodesic, normalize, parse_word,
                     reflection_of_edge, tits_orbit, wide_tail)
from coxwide.avoidance import maximal_wide_masks
from coxwide.classification import is_spherical_mask
from coxwide.words import DEFAULT_ORBIT_CAP, engine_for

import oracles as O
from conftest import (CORPUS_MAKERS, PROPERTY, graph_from_labels,
                      label_matrices, make_c5, make_c5_braid,
                      random_label_matrix)


def rand_word(rng, g, max_len):
    return tuple(rng.choice(g.vertices) for _ in range(rng.randint(0, max_len)))


def test_parse_word(c5):
    assert parse_word(c5, "s1 s2  s3") == ("s1", "s2", "s3")
    assert parse_word(c5, "") == ()
    with pytest.raises(Exception):
        parse_word(c5, "s1 nope")


def test_normalize_frozen(c5, c4):
    # s2 s1 s2 = s1 s2 s2 = s1 (adjacent generators commute)
    assert normalize(c5, ("s2", "s1", "s2")) == ("s1",)
    # s1, s3 are joined by an infinite bond: no rewriting applies
    assert normalize(c4, ("s1", "s3", "s1")) == ("s1", "s3", "s1")
    assert normalize(c5, ()) == ()


def test_normalize_is_canonical_lex_least(c5):
    """The canonical form is the lexicographically least geodesic orbit word."""
    rng = random.Random(5)
    for _ in range(60):
        w = rand_word(rng, c5, 7)
        nf = normalize(c5, w)
        orb = tits_orbit(c5, nf)
        assert nf == min(orb)
        assert all(len(u) == len(nf) for u in orb)


def test_normalize_idempotent_and_invariant(corpus):
    rng = random.Random(9)
    for name in ["C5", "G6", "A4", "H3", "AFF_TRI"]:
        g = corpus[name]
        for _ in range(40):
            w = rand_word(rng, g, 10)
            nf = normalize(g, w)
            assert normalize(g, nf) == nf
            assert is_geodesic(g, nf)


def test_group_laws(corpus):
    rng = random.Random(11)
    for name in ["C5", "B3", "AFF_TRI"]:
        g = corpus[name]
        eng = engine_for(g)
        for _ in range(30):
            u = eng.encode(rand_word(rng, g, 6))
            v = eng.encode(rand_word(rng, g, 6))
            # w * w^-1 = identity
            assert eng.mult(u, eng.inverse(u)) == ()
            # associativity spot check against one-shot normalization
            assert eng.mult(u, v) == eng.normalize(u + v)


def test_geodesic_lengths_match_matrix_oracle(corpus):
    """Canonical length equals the BFS distance in the group (exact)."""
    rng = random.Random(23)
    for name in ["C5", "A3", "B3", "AFF_TRI"]:
        g = corpus[name]
        lab = O.labels_from_graph(g)
        for _ in range(25):
            w = rand_word(rng, g, 8)
            nf = normalize(g, w)
            assert len(nf) == O.brute_geodesic_length(
                lab, [g.index(x) for x in w]), (name, w)


def test_geodesic_iff_distinct_walls(corpus):
    """A word is geodesic iff its edge reflections are pairwise distinct."""
    rng = random.Random(31)
    for name in ["C5", "C4", "B3"]:
        g = corpus[name]
        eng = engine_for(g)
        for _ in range(40):
            w = rand_word(rng, g, 8)
            refls = set()
            dup = False
            for i in range(len(w)):
                r = eng.normalize(eng.encode(w[: i + 1])
                                  + eng.encode(w[:i])[::-1])
                if r in refls:
                    dup = True
                refls.add(r)
            assert is_geodesic(g, w) == (not dup), (name, w)


def test_ending_letters(c5):
    assert sorted(ending_letters(c5, ("s1", "s2"))) == ["s1", "s2"]
    assert ending_letters(c5, ()) == frozenset()
    # s ends w iff appending s shortens
    rng = random.Random(40)
    for _ in range(40):
        nf = normalize(c5, rand_word(rng, c5, 8))
        ends = ending_letters(c5, nf)
        for s in c5.vertices:
            shorter = len(normalize(c5, nf + (s,))) < len(nf)
            assert (s in ends) == shorter


def test_ending_letters_spherical(corpus):
    """The ending-letter set of any element is spherical."""
    rng = random.Random(41)
    for name in ["C5", "G6", "AFF_TRI", "A4"]:
        g = corpus[name]
        for _ in range(30):
            nf = normalize(g, rand_word(rng, g, 9))
            mask = g.mask_of(ending_letters(g, nf))
            assert is_spherical_mask(g, mask), (name, nf)


def test_extend_geodesic_frozen(c5):
    w = extend_geodesic(c5, ("s1",), 8)
    assert w == ("s1", "s2", "s3", "s1", "s3", "s1", "s3", "s1")


def test_extend_geodesic_properties(corpus):
    for name in ["C5", "G6", "O8", "A4"]:
        g = corpus[name]
        base = (g.vertices[0],)
        w = extend_geodesic(g, base, 9)
        assert len(w) == 9
        assert w[: len(base)] == base
        assert is_geodesic(g, w)
        # every prefix is geodesic too
        for i in range(len(w)):
            assert is_geodesic(g, w[:i])


def test_extend_geodesic_jams_where_no_legal_letter(corpus):
    """With every vertex inside the blocked wide-plus-spherical set, the
    controlled extension cannot continue and says so."""
    from coxwide.errors import ConstructionError

    for name in ["C4", "AFF_TRI", "WIDE8"]:
        g = corpus[name]
        with pytest.raises(ConstructionError):
            extend_geodesic(g, (g.vertices[0],), 9)
    # finite group: jams exactly at the longest element
    a4 = corpus["A4"]
    w = extend_geodesic(a4, ("a",), 10)
    assert len(w) == 10
    with pytest.raises(ConstructionError):
        extend_geodesic(a4, ("a",), 11)


def test_extend_geodesic_requires_geodesic_seed(c5):
    with pytest.raises(NonGeodesicError):
        extend_geodesic(c5, ("s1", "s1"), 5)


def test_extension_constant_frozen(c5, c4):
    assert extension_constant(c5) == 8
    assert extension_constant(c4) == 7


def test_wide_tail(c4, c5):
    tail, label = wide_tail(c4, ("s1", "s3", "s2", "s4"))
    assert tail == ("s1", "s3", "s2", "s4")
    assert label == ("s1", "s2", "s3", "s4")
    tail5, label5 = wide_tail(c5, ("s1", "s2"))
    assert tail5 == () and label5 is None


def test_reflection_of_edge(c5):
    w = extend_geodesic(c5, ("s1",), 6)
    seen = set()
    for i in range(1, len(w) + 1):
        r = reflection_of_edge(c5, w, i)
        rw = r.element.word
        # a reflection is an involution: r * r = identity
        assert normalize(c5, rw + rw) == ()
        # its canonical word has odd length and records the edge's letter
        assert len(rw) % 2 == 1
        assert r.type_generator == w[i - 1]
        seen.add(rw)
    # geodesic words have pairwise distinct edge reflections
    assert len(seen) == len(w)


def test_wide_tail_is_longest_suffix_in_first_wide(corpus):
    """The tail is the longest suffix inside a maximal wide subgraph, and
    the subgraph is the first one (in mask order) containing that suffix."""
    rng = random.Random(41)
    for name in ["C4", "C5", "G6", "O8", "WIDE8"]:
        g = corpus[name]
        wides = maximal_wide_masks(g)

        def first_wide(suffix):
            m = g.mask_of(suffix)
            return next((g.names_of(wm) for wm in wides if m & ~wm == 0),
                        None)

        for _ in range(40):
            w = normalize(g, rand_word(rng, g, 8))
            j = len(w)
            while j > 0 and first_wide(w[j - 1:]) is not None:
                j -= 1
            want = ((), None) if j == len(w) else (w[j:], first_wide(w[j:]))
            assert wide_tail(g, w) == want, (name, w)


def test_orbit_cap():
    # a general-label graph: right-angled normal forms search no orbit
    g = make_c5_braid()
    big = extend_geodesic(g, ("s1",), 12)
    with pytest.raises(OrbitCapError):
        normalize(g, big, orbit_cap=2)


def test_right_angled_normalize_enumerates_no_orbit():
    g = make_c5()
    word = extend_geodesic(g, ("s1",), 12)
    assert len(tits_orbit(g, word)) > 1
    assert normalize(g, word, orbit_cap=1) == min(tits_orbit(g, word))


def test_memory_does_not_grow_with_edge_labels():
    g = CoxeterGraph(["a", "b"], [("a", "b", 10 ** 6)])
    tracemalloc.start()
    try:
        nf = normalize(g, ("a", "b", "a", "b"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nf == ("a", "b", "a", "b")
    assert peak < 1_000_000
    # a braid move becomes available once a word is as long as its label
    g5 = CoxeterGraph(["a", "b"], [("a", "b", 5)])
    assert normalize(g5, ("b", "a")) == ("b", "a")
    assert normalize(g5, ("b", "a", "b", "a", "b")) == ("a", "b", "a", "b", "a")
    assert normalize(g5, ("b", "a") * 3) == ("a", "b", "a", "b")


def test_element_serialization(c5):
    e = element(c5, ("s2", "s1", "s2"))
    assert e.word == ("s1",)
    assert len(e) == 1


# ---------------------------------------------------------------------------
# engines on their graph, orbit-cap boundaries, group-law properties


def test_engine_per_graph_and_cap():
    g = make_c5()
    eng = engine_for(g)
    assert engine_for(g, DEFAULT_ORBIT_CAP) is eng
    other = engine_for(g, 7)
    assert other is not eng and other.orbit_cap == 7
    assert engine_for(g, 7) is other
    assert engine_for(make_c5()) is not eng


def test_engines_are_freed_with_their_graph():
    g = make_c5()
    eng = engine_for(g)
    eng.normalize(eng.encode(("s1", "s3", "s5", "s2")))
    ref = weakref.ref(eng)
    del g, eng
    gc.collect()
    assert ref() is None


def test_orbit_cap_boundary_is_exact():
    """A word with a k-member braid orbit raises at cap k - 1, answers at
    k: ``normalize`` on a general-label graph (the braid-orbit engine),
    ``tits_orbit`` on a right-angled one."""
    for make, query in (
            (make_c5_braid, lambda g, w, cap: normalize(g, w, orbit_cap=cap)),
            (make_c5, lambda g, w, cap: tits_orbit(g, w, cap))):
        word = extend_geodesic(make(), ("s1",), 6)
        k = len(tits_orbit(make(), word))
        assert k >= 2
        with pytest.raises(OrbitCapError):
            query(make(), word, k - 1)
        assert query(make(), word, k)
    g = make_c5_braid()
    word = extend_geodesic(g, ("s1",), 6)
    k = len(tits_orbit(g, word))
    assert normalize(g, word, orbit_cap=k) == min(tits_orbit(g, word))
    with pytest.raises(OrbitCapError):
        normalize(g, word, orbit_cap=k - 1)   # the cap-k memo is not read


def test_doubled_member_is_not_charged():
    # the orbit of s1 s2 s1 reaches s2 s1 s1 after one member: the search
    # stops there, so even cap 1 suffices
    assert normalize(make_c5(), ("s1", "s2", "s1"), orbit_cap=1) == ("s2",)


def test_doubled_member_is_not_charged_general_labels():
    # the same on the braid-orbit engine: s3 s4 s3 -> s4 s3 s3 in one move
    assert normalize(make_c5_braid(), ("s3", "s4", "s3"),
                     orbit_cap=1) == ("s4",)


@st.composite
def graph_and_words(draw, count: int, max_len: int = 7):
    g = graph_from_labels(draw(label_matrices(max_n=5)))
    letters = st.sampled_from(g.vertices)
    words = [tuple(draw(st.lists(letters, max_size=max_len)))
             for _ in range(count)]
    return g, words


@PROPERTY
@given(graph_and_words(1))
def test_normalize_is_idempotent(case):
    g, (w,) = case
    nf = normalize(g, w)
    assert normalize(g, nf) == nf


@PROPERTY
@given(graph_and_words(3, max_len=5))
def test_multiplication_is_associative(case):
    g, words = case
    eng = engine_for(g)
    u, v, x = (eng.encode(w) for w in words)
    assert eng.mult(eng.mult(u, v), x) == eng.mult(u, eng.mult(v, x))


@PROPERTY
@given(graph_and_words(1))
def test_inverse_cancels(case):
    g, (w,) = case
    eng = engine_for(g)
    u = eng.encode(w)
    assert eng.mult(u, eng.inverse(u)) == ()


@PROPERTY
@given(graph_and_words(1))
def test_ending_letters_are_last_letters_of_orbit(case):
    g, (w,) = case
    nf = normalize(g, w)
    want = {u[-1] for u in tits_orbit(g, nf) if u}
    assert ending_letters(g, nf) == want


def test_unknown_names_are_graph_format_errors(c5):
    """Encoding names the first unknown vertex in a GraphFormatError, never
    a bare KeyError, and decoding inverts it."""
    with pytest.raises(GraphFormatError, match="^unknown vertex 'zz'$"):
        normalize(c5, ("zz",))
    eng = engine_for(c5)
    with pytest.raises(GraphFormatError, match="^unknown vertex 'zz'$"):
        eng.encode(iter(("s1", "zz", "yy")))
    with pytest.raises(GraphFormatError, match="^unknown vertex 'zz'$"):
        is_geodesic(c5, ("s2", "zz"))
    word = ("s5", "s1", "s3")
    assert eng.decode(eng.encode(word)) == word
    assert eng.encode(word) == (4, 0, 2)
