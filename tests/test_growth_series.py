"""Sphere sizes of right-angled Cayley balls against the exact growth
series of ``tests/oracles.py``.

``oracles.racg_sphere_sizes`` counts the cliques of the graph and divides
the growth series out in integers; it shares nothing with ``src/`` and is
itself checked against the matrix BFS of ``oracles.sphere_sizes``.  Every
seed, size and radius below is fixed: a seeded graph's ball goes to the
largest radius up to 8 whose series ball holds at most 25,000 elements.
"""

import itertools
import random

import pytest

from coxwide import build_ball

import oracles as O
from conftest import (CORPUS_MAKERS, RA_CORPUS, graph_from_labels,
                      random_racg_matrix)

SEEDS = range(40)
MAX_RADIUS = 8
BALL_BUDGET = 25_000


def seeded_labels(seed: int) -> list[list[int]]:
    """A right-angled label matrix on 4-8 vertices, edge density 1/2 or
    3/4."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    return random_racg_matrix(rng, n, rng.choice((0.5, 0.75)))


def ball_sphere_sizes(g, radius: int) -> list[int]:
    sizes = [0] * (radius + 1)
    for w in build_ball(g, radius).words:
        sizes[len(w)] += 1
    return sizes


def test_series_pins_c5_and_c6():
    c5 = O.labels_from_graph(CORPUS_MAKERS["C5"]())
    assert list(itertools.accumulate(O.racg_sphere_sizes(c5, 7))) == \
        [1, 6, 21, 61, 166, 441, 1161, 3046]
    c6 = O.labels_from_graph(CORPUS_MAKERS["C6"]())
    assert sum(O.racg_sphere_sizes(c6, 6)) == 6391


def test_series_of_small_groups():
    assert O.racg_sphere_sizes([], 3) == (1, 0, 0, 0)
    assert O.racg_sphere_sizes([[1]], 3) == (1, 1, 0, 0)
    assert O.racg_sphere_sizes([[1, 2], [2, 1]], 3) == (1, 2, 1, 0)
    assert O.racg_sphere_sizes([[1, 0], [0, 1]], 3) == (1, 2, 2, 2)
    with pytest.raises(ValueError):
        O.racg_sphere_sizes([[1, 3], [3, 1]], 3)


@pytest.mark.parametrize("name", RA_CORPUS)
def test_series_equals_matrix_bfs_on_the_corpus(name):
    labels = O.labels_from_graph(CORPUS_MAKERS[name]())
    assert O.racg_sphere_sizes(labels, 4) == O.sphere_sizes(labels, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_series_equals_matrix_bfs_seeded(seed):
    labels = seeded_labels(seed)
    radius = 4 if len(labels) <= 6 else 3
    assert O.racg_sphere_sizes(labels, radius) == \
        O.sphere_sizes(labels, radius)


def _radius_within_budget(series) -> int:
    return max(r for r in range(MAX_RADIUS + 1)
               if sum(series[:r + 1]) <= BALL_BUDGET)


@pytest.mark.parametrize("name", RA_CORPUS)
def test_ball_sphere_sizes_equal_the_series_on_the_corpus(name):
    g = CORPUS_MAKERS[name]()
    series = O.racg_sphere_sizes(O.labels_from_graph(g), MAX_RADIUS)
    radius = _radius_within_budget(series)
    assert ball_sphere_sizes(g, radius) == list(series[:radius + 1])


def test_ball_sphere_sizes_equal_the_series_seeded():
    reached = 0
    for seed in SEEDS:
        labels = seeded_labels(seed)
        series = O.racg_sphere_sizes(labels, MAX_RADIUS)
        radius = _radius_within_budget(series)
        assert ball_sphere_sizes(graph_from_labels(labels), radius) == \
            list(series[:radius + 1]), seed
        reached += radius == MAX_RADIUS
    assert reached == 24  # of the 40 seeded graphs reach radius 8
