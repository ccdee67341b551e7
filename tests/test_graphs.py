"""Defining-graph parsing, queries, and mask utilities."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from coxwide import CoxeterGraph, GraphFormatError, parse_graph
from coxwide.graphs import (bits, components, meet, popcount, reach, spread,
                            submasks)

import scan_oracle as S
from conftest import (CORPUS_MAKERS, PROPERTY, graph_from_labels,
                      random_label_matrix)
from oracles import labels_from_graph


def test_parse_text_roundtrip():
    text = """
    v a
    v b ; v c
    e a b 3   # a comment
    e b c 2
    """
    g = parse_graph(text)
    assert g.vertices == ("a", "b", "c")
    assert g.label("a", "b") == 3
    assert g.label("b", "c") == 2
    assert g.label("a", "c") is None  # absent edge = infinite bond
    g2 = parse_graph(g.to_text())
    assert g2 == g


def test_parse_json_roundtrip():
    g = parse_graph('{"vertices": ["x", "y"], "edges": [["x", "y", 5]]}')
    assert g.label("x", "y") == 5
    assert parse_graph(g.to_json()) == g


def test_parse_errors():
    with pytest.raises(GraphFormatError):
        parse_graph("q a")  # unknown statement
    with pytest.raises(GraphFormatError):
        parse_graph("v a; v b; e a b one")
    with pytest.raises(GraphFormatError):
        parse_graph("v a\nv b\ne a c 3")  # undeclared vertex
    with pytest.raises(GraphFormatError):
        parse_graph("v a\nv b\ne a b 1")  # labels must be >= 2
    with pytest.raises(GraphFormatError):
        parse_graph("v a\nv b\ne a a 2")  # loops forbidden
    with pytest.raises(GraphFormatError):
        parse_graph("v a\nv a")  # duplicate vertex
    with pytest.raises(GraphFormatError):
        parse_graph('{"edges": []}')


def test_label_of_a_vertex_with_itself_is_an_error(c5):
    with pytest.raises(GraphFormatError, match=re.escape(
            "label of a vertex with itself is undefined ('s1')")):
        c5.label("s1", "s1")


def test_induced_on_unknown_vertices_is_an_error(g6):
    with pytest.raises(GraphFormatError,
                       match=re.escape("unknown vertices ['x', 'y']")):
        g6.induced(["s1", "y", "x"])


def test_equal_graphs_hash_equal():
    """Graphs equal by vertices and labels, whatever the edge order, hash
    the same, so they are one key of a dict."""
    g = parse_graph("v a; v b; v c; e a b 3; e b c 2")
    h = CoxeterGraph(["a", "b", "c"], [("c", "b", 2), ("b", "a", 3)])
    assert g == h and hash(g) == hash(h)
    assert {g: 1, h: 2} == {g: 2}


def test_diagonal_and_m():
    g = parse_graph("v a\nv b\ne a b 4")
    assert g.m(0, 0) == 1
    assert g.m(0, 1) == 4
    assert g.m(1, 0) == 4


def test_racg_and_max_label(c5, aff_tri):
    assert c5.is_racg()
    assert not aff_tri.is_racg()
    assert c5.max_label() == 2
    assert aff_tri.max_label() == 3
    # edgeless graph: max label defaults to 2
    g = CoxeterGraph(["a", "b"], [])
    assert g.max_label() == 2


@pytest.mark.parametrize("name", sorted(CORPUS_MAKERS))
def test_racg_and_max_label_match_edge_list(name):
    """Both read the label matrix; compare them with their former
    definitions over ``edge_list``."""
    g = CORPUS_MAKERS[name]()
    assert g.is_racg() == S.is_racg(g)
    assert g.max_label() == S.max_label(g)


def test_racg_and_max_label_edge_cases():
    for g in (CoxeterGraph([], []), CoxeterGraph(["a"], []),
              CoxeterGraph(["a", "b", "c"], [("a", "c", 10 ** 6)]),
              CoxeterGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 7)])):
        assert g.is_racg() == S.is_racg(g)
        assert g.max_label() == S.max_label(g)
    assert CoxeterGraph([], []).is_racg()
    assert CoxeterGraph([], []).max_label() == 2


def test_masks(c5):
    full = c5.full_mask()
    assert popcount(full) == 5
    assert c5.mask_of(["s1", "s3"]) == 0b101
    assert c5.names_of(0b101) == ("s1", "s3")
    assert list(bits(0b1010)) == [1, 3]
    assert set(submasks(0b101)) == {0b000, 0b001, 0b100, 0b101}


def test_neighbors_and_commuting(c5):
    i = c5.index("s1")
    assert set(c5.names_of(c5.neighbors_mask(i))) == {"s2", "s5"}
    # in a right-angled graph the commuting mask equals the neighbor mask
    assert c5.commuting_mask(i) == c5.neighbors_mask(i)


def test_irreducible_components():
    # two commuting factors split; an infinite bond joins
    g = parse_graph("v a\nv b\nv c\ne a b 2\ne a c 2\ne b c 2")
    comps = g.irreducible_components_mask()
    assert [g.names_of(c) for c in comps] == [("a",), ("b",), ("c",)]
    h = parse_graph("v a\nv b\nv c\ne a b 2")  # a-c, b-c infinite bonds
    assert h.irreducible_components_mask() == [h.full_mask()]
    assert h.irreducible_components_mask(h.mask_of(["a", "b"])) == [1, 2]


def test_connectivity(c5, p3):
    full = c5.full_mask()
    assert c5.component_of(0, full) == full
    assert c5.components_within(full) == [full]
    # removing adjacent vertices keeps the 5-cycle connected
    rest = c5.full_mask() & ~c5.mask_of(["s1"])
    assert len(c5.components_within(rest)) == 1
    # removing the middle of the path disconnects it
    rest = p3.full_mask() & ~p3.mask_of(["b"])
    assert len(p3.components_within(rest)) == 2


def test_components_within_agrees_with_component_of():
    """The components partition the mask, in order of their least vertex,
    each the component of that vertex; one component (or none) exactly when
    the search from the lowest vertex reaches the whole mask."""
    rng = random.Random(7)
    for _ in range(50):
        g = graph_from_labels(random_label_matrix(rng, rng.randint(1, 6)))
        for mask in range(1 << g.n):
            comps = g.components_within(mask)
            assert sorted(comps, key=lambda c: c & -c) == comps
            union = 0
            for c in comps:
                assert c and c & union == 0, (g.edge_list(), mask)
                assert g.component_of((c & -c).bit_length() - 1, mask) == c
                union |= c
            assert union == mask
            connected = mask == 0 or \
                g.component_of((mask & -mask).bit_length() - 1, mask) == mask
            assert connected == (len(comps) <= 1), (g.edge_list(), mask)


# -- the kernels over rows, against plain set-based searches and folds -----


def set_reach(rows, seed, within):
    """(closure, touched) as sets: breadth-first from every seed vertex,
    entering only vertices of ``within``."""
    sets = [set(bits(r)) for r in rows]
    inside = set(bits(within))
    closure = set(bits(seed))
    queue = list(closure)
    touched = set()
    while queue:
        u = queue.pop(0)
        touched |= sets[u]
        for v in sorted(sets[u]):
            if v in inside and v not in closure:
                closure.add(v)
                queue.append(v)
    return closure, touched


def to_mask(vertices):
    return sum(1 << v for v in vertices)


@st.composite
def rows_and_masks(draw, max_n=10):
    """Rows over n <= ``max_n`` vertices (not necessarily symmetric, self
    loops allowed) and two masks over them."""
    n = draw(st.integers(0, max_n))
    mask = st.integers(0, (1 << n) - 1)
    return (tuple(draw(st.lists(mask, min_size=n, max_size=n))),
            draw(mask), draw(mask))


@PROPERTY
@given(rows_and_masks())
def test_kernels_match_set_searches_and_folds(case):
    rows, seed, within = case
    n = len(rows)
    closure, touched = set_reach(rows, seed, within)
    assert reach(rows, seed, within) == (to_mask(closure), to_mask(touched))
    for mask in (seed, within):
        picked = [set(bits(rows[v])) for v in bits(mask)]
        assert spread(rows, mask) == to_mask(set().union(*picked))
        assert meet(rows, mask) == to_mask(set(range(n)).intersection(*picked))
    comps = []
    todo = set(bits(within))
    while todo:
        comp = set_reach(rows, 1 << min(todo), within)[0]
        comps.append(to_mask(comp))
        todo -= comp
    assert components(rows, within) == comps


def test_kernels_on_empty_masks_and_a_seed_outside():
    rows = (0b0110, 0b1001, 0b1001, 0b0110)  # the 4-cycle 0-1-3-2-0
    assert reach(rows, 0, 0b1111) == (0, 0)
    assert reach(rows, 0b0001, 0) == (0b0001, 0b0110)
    # a seed outside ``within`` stays in the closure and is searched from
    assert reach(rows, 0b0001, 0b1000) == (0b0001, 0b0110)
    assert reach(rows, 0b0001, 0b0100) == (0b0101, 0b1111)
    assert reach(rows, 0b0001, 0b1110) == (0b1111, 0b1111)
    assert spread(rows, 0) == 0 and meet(rows, 0) == 0b1111
    assert meet((), 0) == 0 and components(rows, 0) == []
    assert spread(rows, 0b0011) == 0b1111 and meet(rows, 0b0011) == 0
    assert components(rows, 0b0110) == [0b0010, 0b0100]


def test_induced(g6):
    sub = g6.induced(["s1", "s2", "a"])
    assert sub.vertices == ("s1", "s2", "a")
    assert sub.label("s1", "s2") == 2
    assert sub.label("s1", "a") == 2


def test_label_matrix_adapters_invert():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 6)
        labels = random_label_matrix(rng, n)
        g = graph_from_labels(labels)
        assert labels_from_graph(g) == labels


def test_masks_from_the_edge_list_match_the_label_matrix():
    """Adjacency and commuting masks, built from the edges as they are
    read, against the pairwise definition on the label matrix; a repeated
    edge with the same label changes nothing."""
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(1, 7)
        g = graph_from_labels(random_label_matrix(rng, n))
        twice = CoxeterGraph(g.vertices, g.edge_list() * 2)
        for h in (g, twice):
            for i in range(n):
                assert h.neighbors_mask(i) == sum(
                    1 << j for j in range(n) if j != i and g.m(i, j))
                assert h.commuting_mask(i) == sum(
                    1 << j for j in range(n) if j != i and g.m(i, j) == 2)
        assert twice == g


@pytest.mark.parametrize("name", ["", " ", "a b", "a\tb", "a b",
                                  "a b", "\x1c"])
def test_bad_vertex_names_keep_their_message(name):
    with pytest.raises(GraphFormatError,
                       match=f"^bad vertex name {re.escape(repr(name))}$"):
        CoxeterGraph([name], [])


def test_edge_errors_keep_their_messages():
    for edges, message in [
            ([("a", "c", 3)], "edge uses undeclared vertex 'c'"),
            ([("a", "a", 2)], "self-loop at 'a'"),
            ([("a", "b", 1)], "edge label must be an integer >= 2, got 1"),
            ([("a", "b", 3), ("b", "a", 4)],
             "conflicting labels 3 and 4 for edge 'b'-'a'")]:
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            CoxeterGraph(["a", "b"], edges)
    with pytest.raises(GraphFormatError, match="^duplicate vertex 'a'$"):
        CoxeterGraph(["a", "a"], [])
