"""The right-angled engine against the braid-orbit route it replaced there.

On a right-angled graph ``engine_for`` returns a ``RightAngledEngine`` (heap
normal forms, no orbit search).  These tests compare it with a braid-orbit
``WordEngine`` built on the same graph, with ``tits_orbit`` of the canonical
form, and with the exact element invariant of ``tests/oracles.py``.
"""

import random

import pytest
from hypothesis import given, strategies as st

from coxwide import build_ball, ending_letters, normalize, tits_orbit
from coxwide.words import RightAngledEngine, WordEngine, engine_for

import oracles as O
from ball_oracle import prefix_tree_ball, two_pass_ball
from conftest import (CORPUS_MAKERS, PROPERTY, RA_CORPUS, graph_from_labels,
                      label_matrices, make_c5, racg_label_matrices,
                      random_racg_matrix)


@st.composite
def racg_and_word(draw, max_n: int = 8, max_len: int = 12):
    g = graph_from_labels(draw(racg_label_matrices(max_n=max_n)))
    word = tuple(draw(st.lists(st.sampled_from(g.vertices),
                               max_size=max_len)))
    return g, word


def test_engine_kind_follows_labels(corpus):
    for name, g in corpus.items():
        assert isinstance(engine_for(g), RightAngledEngine) == g.is_racg(), \
            name


@PROPERTY
@given(racg_and_word())
def test_normalize_is_lex_least_orbit_member(case):
    g, w = case
    eng = engine_for(g)
    assert isinstance(eng, RightAngledEngine)
    nf = normalize(g, w)
    assert nf == min(tits_orbit(g, nf))
    lab = O.labels_from_graph(g)
    assert O.word_element(lab, [g.index(x) for x in nf]) == \
        O.word_element(lab, [g.index(x) for x in w])
    assert eng.normalize(eng.encode(w)) == \
        WordEngine(g).normalize(eng.encode(w))


@PROPERTY
@given(racg_and_word())
def test_ending_letters_are_last_letters_of_the_orbit(case):
    g, w = case
    nf = normalize(g, w)
    assert ending_letters(g, nf) == {u[-1] for u in tits_orbit(g, nf) if u}


@PROPERTY
@given(racg_and_word(), st.data())
def test_right_mult_is_normalize_of_the_product(case, data):
    g, w = case
    eng = engine_for(g)
    c = eng.normalize(eng.encode(w))
    s = data.draw(st.integers(0, g.n - 1))
    assert eng.right_mult(c, s) == eng.normalize(c + (s,)) == \
        WordEngine(g).normalize(c + (s,))


@pytest.mark.parametrize("name", sorted(CORPUS_MAKERS))
def test_one_pass_ball_equals_two_pass_ball(name):
    g = CORPUS_MAKERS[name]()
    radius = 4 if g.n <= 5 else 3
    assert build_ball(g, radius) == two_pass_ball(WordEngine(g), radius)


@PROPERTY
@given(racg_label_matrices(max_n=6))
def test_one_pass_ball_equals_two_pass_ball_random(labels):
    g = graph_from_labels(labels)
    assert build_ball(g, 3) == two_pass_ball(WordEngine(g), 3)


@PROPERTY
@given(label_matrices(max_n=5))
def test_one_pass_ball_equals_two_pass_ball_general_labels(labels):
    g = graph_from_labels(labels)
    assert build_ball(g, 3) == two_pass_ball(WordEngine(g), 3)


def test_right_angled_ball_adds_no_memo_entries():
    g = make_c5()
    eng = engine_for(g)
    build_ball(g, 6)
    assert eng._norm == {}


# The mask walk of ``build_ball`` against the prefix-tree walk over
# canonical words that it replaced on right-angled graphs.


@pytest.mark.parametrize("radius", (5, 6))
@pytest.mark.parametrize("name", RA_CORPUS)
def test_mask_walk_equals_prefix_tree_walk(name, radius):
    g = CORPUS_MAKERS[name]()
    assert build_ball(g, radius) == \
        prefix_tree_ball(RightAngledEngine(g), radius)


def test_mask_walk_equals_prefix_tree_walk_on_c5_at_radius_7():
    g = make_c5()
    ball = build_ball(g, 7)
    assert len(ball.words) == 3046
    assert ball == prefix_tree_ball(RightAngledEngine(g), 7)


@pytest.mark.parametrize("seed", range(30))
def test_mask_walk_equals_prefix_tree_walk_seeded(seed):
    """Seeded right-angled graphs on 1-8 vertices, radius 5 up to 6
    vertices and 4 above (at most 1,610 elements)."""
    rng = random.Random(seed)
    g = graph_from_labels(random_racg_matrix(rng, rng.randint(1, 8)))
    radius = 5 if g.n <= 6 else 4
    assert build_ball(g, radius) == \
        prefix_tree_ball(RightAngledEngine(g), radius)


def test_right_angled_ball_builds_no_engine():
    """The mask walk multiplies no words, so no engine is built on the
    graph, and it runs no orbit search, so ``orbit_cap`` changes nothing."""
    for name in RA_CORPUS:
        g = CORPUS_MAKERS[name]()
        ball = build_ball(g, 4)
        assert g._engines == {}, name
        assert build_ball(g, 4, orbit_cap=1) == ball, name
        assert g._engines == {}, name
