"""Shared corpus graphs and builders for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings, strategies as st

from coxwide import CoxeterGraph

# Property tests run a fixed example sequence (no example database), so a
# run is reproducible and its time does not depend on earlier runs.
settings.register_profile("coxwide", derandomize=True, deadline=None,
                          max_examples=100, database=None,
                          print_blob=False)
PROPERTY = settings.get_profile("coxwide")


def racg(vertices, edge_pairs) -> CoxeterGraph:
    """Right-angled graph: every listed edge has label 2."""
    return CoxeterGraph(vertices, [(u, v, 2) for u, v in edge_pairs])


def graph_from_labels(labels, names=None) -> CoxeterGraph:
    """Label matrix (0 = no edge / infinite bond) -> library graph."""
    n = len(labels)
    if names is None:
        names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[j], labels[i][j])
             for i in range(n) for j in range(i + 1, n) if labels[i][j] != 0]
    return CoxeterGraph(names, edges)


def cycle_racg(k: int, prefix: str = "s") -> CoxeterGraph:
    names = [f"{prefix}{i + 1}" for i in range(k)]
    return racg(names, [(names[i], names[(i + 1) % k]) for i in range(k)])


# ---------------------------------------------------------------------------
# the corpus


def make_c4() -> CoxeterGraph:
    return cycle_racg(4)


def make_c5() -> CoxeterGraph:
    return cycle_racg(5)


def make_c6() -> CoxeterGraph:
    return cycle_racg(6)


def make_p3() -> CoxeterGraph:
    return racg(["a", "b", "c"], [("a", "b"), ("b", "c")])


def make_g6() -> CoxeterGraph:
    """4-cycle s1..s4 plus a joined to s1,s2,s3 and b joined to s2,s3,s4."""
    names = ["s1", "s2", "s3", "s4", "a", "b"]
    square = [("s1", "s2"), ("s2", "s3"), ("s3", "s4"), ("s4", "s1")]
    extra = [("a", "s1"), ("a", "s2"), ("a", "s3"),
             ("b", "s2"), ("b", "s3"), ("b", "s4")]
    return racg(names, square + extra)


def make_o8() -> CoxeterGraph:
    """Inner 4-cycle, outer 4-cycle, each outer vertex joined to two
    adjacent inner vertices (all labels 2)."""
    inner = [f"s{i + 1}" for i in range(4)]
    outer = [f"t{i + 1}" for i in range(4)]
    edges = [(inner[i], inner[(i + 1) % 4]) for i in range(4)]
    edges += [(outer[i], outer[(i + 1) % 4]) for i in range(4)]
    for i in range(4):
        edges.append((outer[i], inner[i]))
        edges.append((outer[i], inner[(i + 1) % 4]))
    return racg(inner + outer, edges)


def make_wide8() -> CoxeterGraph:
    """Join of two 4-cycles: wide with two infinite factors, one-ended."""
    a = [f"s{i + 1}" for i in range(4)]
    b = [f"t{i + 1}" for i in range(4)]
    edges = [(a[i], a[(i + 1) % 4]) for i in range(4)]
    edges += [(b[i], b[(i + 1) % 4]) for i in range(4)]
    edges += [(u, v) for u in a for v in b]
    return racg(a + b, edges)


def make_inf_pair() -> CoxeterGraph:
    return CoxeterGraph(["a", "b"], [])


def make_aff_tri() -> CoxeterGraph:
    return CoxeterGraph(["a", "b", "c"],
                        [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])


def make_i2(m: int) -> CoxeterGraph:
    return CoxeterGraph(["a", "b"], [("a", "b", m)])


def make_a3() -> CoxeterGraph:
    return CoxeterGraph(["a", "b", "c"],
                        [("a", "b", 3), ("b", "c", 3), ("a", "c", 2)])


def make_a4() -> CoxeterGraph:
    path = [("a", "b", 3), ("b", "c", 3), ("c", "d", 3)]
    rest = [("a", "c", 2), ("a", "d", 2), ("b", "d", 2)]
    return CoxeterGraph(["a", "b", "c", "d"], path + rest)


def make_b3() -> CoxeterGraph:
    return CoxeterGraph(["a", "b", "c"],
                        [("a", "b", 4), ("b", "c", 3), ("a", "c", 2)])


def make_d4() -> CoxeterGraph:
    edges = [("c", "a", 3), ("c", "b", 3), ("c", "d", 3),
             ("a", "b", 2), ("a", "d", 2), ("b", "d", 2)]
    return CoxeterGraph(["a", "b", "c", "d"], edges)


def make_h3() -> CoxeterGraph:
    return CoxeterGraph(["a", "b", "c"],
                        [("a", "b", 5), ("b", "c", 3), ("a", "c", 2)])


def make_c5_braid() -> CoxeterGraph:
    """C5 with the s1-s2 edge labeled 3: a general-label graph, so its words
    go through the braid-orbit engine (and its orbit cap)."""
    names = [f"s{i + 1}" for i in range(5)]
    edges = [(names[i], names[(i + 1) % 5], 2) for i in range(1, 5)]
    return CoxeterGraph(names, [("s1", "s2", 3)] + edges)


CORPUS_MAKERS = {
    "C4": make_c4,
    "C5": make_c5,
    "C6": make_c6,
    "P3": make_p3,
    "G6": make_g6,
    "O8": make_o8,
    "WIDE8": make_wide8,
    "INF_PAIR": make_inf_pair,
    "AFF_TRI": make_aff_tri,
    "I2_3": lambda: make_i2(3),
    "I2_4": lambda: make_i2(4),
    "I2_5": lambda: make_i2(5),
    "I2_6": lambda: make_i2(6),
    "I2_7": lambda: make_i2(7),
    "I2_8": lambda: make_i2(8),
    "A3": make_a3,
    "A4": make_a4,
    "B3": make_b3,
    "D4": make_d4,
    "H3": make_h3,
}


# the right-angled corpus graphs (every edge labelled 2)
RA_CORPUS = sorted(name for name, make in CORPUS_MAKERS.items()
                   if make().is_racg())


@pytest.fixture(scope="session")
def corpus():
    return {name: mk() for name, mk in CORPUS_MAKERS.items()}


@pytest.fixture(scope="session")
def c4():
    return make_c4()


@pytest.fixture(scope="session")
def c5():
    return make_c5()


@pytest.fixture(scope="session")
def p3():
    return make_p3()


@pytest.fixture(scope="session")
def g6():
    return make_g6()


@pytest.fixture(scope="session")
def o8():
    return make_o8()


@pytest.fixture(scope="session")
def wide8():
    return make_wide8()


@pytest.fixture(scope="session")
def aff_tri():
    return make_aff_tri()


@pytest.fixture(scope="session")
def inf_pair():
    return make_inf_pair()


# ---------------------------------------------------------------------------
# seeded random graphs

LABEL_CHOICES = (0, 2, 3, 4, 5)  # 0 encodes the infinite bond

# traced peak allowed to a subset query at the default cap of 20 vertices
MEMORY_CAP_BYTES = 16 * 2 ** 20


def random_label_matrix(rng: random.Random, n: int,
                        choices=LABEL_CHOICES) -> list[list[int]]:
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = rng.choice(choices)
    return mat


def random_racg_matrix(rng: random.Random, n: int,
                       p_edge: float = 0.5) -> list[list[int]]:
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                mat[i][j] = mat[j][i] = 2
    return mat


def seeded_wsa_labels(seed: int) -> list[list[int]]:
    """The seeded general-label graphs of the filter acceptance criterion
    (seeds 12, 16 and 21 are wide-spherical-avoidant)."""
    rng = random.Random(seed)
    n = rng.choice((5, 6))
    return random_label_matrix(rng, n, LABEL_CHOICES)


@st.composite
def label_matrices(draw, max_n: int = 7, choices=LABEL_CHOICES):
    """Label matrices of random general-label graphs (by default labels 2-5
    and infinity) on 1 to ``max_n`` vertices."""
    n = draw(st.integers(1, max_n))
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.sampled_from(choices))
    return mat


@st.composite
def racg_label_matrices(draw, max_n: int = 8):
    """Label matrices of random right-angled graphs on 1 to ``max_n``
    vertices, each pair commuting (label 2) or not (infinite bond)."""
    n = draw(st.integers(1, max_n))
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.sampled_from((0, 2)))
    return mat
