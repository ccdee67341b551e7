"""Filter diagrams: tree shape, cells, side classes, itinerary bounds."""

import pytest

from coxwide import extend_geodesic, normalize
from coxwide.errors import ConstructionError, NonGeodesicError
from coxwide.filters import (DEFAULT_ORBIT_CAP, build_filter, check_filter,
                             itinerary_cap)

from conftest import CORPUS_MAKERS, racg, replace


def boundary_pair(g, length=6):
    a = extend_geodesic(g, (g.vertices[0],), length)
    b = extend_geodesic(g, (g.vertices[1],), length)
    return a, b


def test_itinerary_cap_frozen(corpus):
    # N = 2q(R(q+1) + R) + 3q with q = M + V + 1
    assert itinerary_cap(corpus["C5"]) == 344
    assert itinerary_cap(corpus["C4"]) == 273
    assert itinerary_cap(corpus["O8"]) == 708


def test_filter_sizes_frozen(corpus):
    expected = {
        ("C5", 1): (18, 20, 3, 1),
        ("C5", 2): (30, 40, 11, 5),
        ("C5", 3): (57, 85, 29, 14),
        ("O8", 2): (34, 46, 13, 5),
    }
    for (name, depth), (nv, ne, nc, nf) in expected.items():
        g = corpus[name]
        a, b = boundary_pair(g)
        filt = build_filter(g, a, b, depth)
        got = (len(filt.vertices), len(filt.edges), len(filt.cells),
               len(filt.fans))
        assert got == (nv, ne, nc, nf), (name, depth, got)


def test_filter_check_passes(corpus):
    for name, depth in [("C5", 1), ("C5", 2), ("C5", 3), ("O8", 2)]:
        g = corpus[name]
        a, b = boundary_pair(g)
        filt = build_filter(g, a, b, depth)
        ck = check_filter(g, filt)
        assert ck.ok, (name, depth, ck.failures)
        assert ck.stats["paths_enumerated"] > 0


@pytest.mark.parametrize("depth", [5, 6])
def test_o8_deep_filters_build_and_check(o8, depth):
    """The acceptance rays on O8 need fans whose adjacent slot letters lie
    in the wide tail; the fan detour builds them."""
    a, b = boundary_pair(o8, 8)
    filt = build_filter(o8, a, b, depth)
    assert len(filt.vertices) == {5: 341, 6: 775}[depth]
    ck = check_filter(o8, filt)
    assert ck.ok, ck.failures


def _residual_graph():
    """A right-angled 7-vertex graph that ``classify`` calls connected."""
    names = [f"v{i}" for i in range(7)]
    edges = [(0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 6),
             (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)]
    return racg(names, [(names[i], names[j]) for i, j in edges])


@pytest.mark.xfail(strict=True, raises=ConstructionError,
                   reason="at depth 5 the builder asks for a fan from v5 to "
                          "v0 at base v0 v2 v1 v3, where v4 is the only "
                          "legal interior letter and is not adjacent to v0")
def test_residual_graph_filter_at_depth_5():
    g = _residual_graph()
    a, b = boundary_pair(g, 8)
    assert check_filter(g, build_filter(g, a, b, 5)).ok


def test_filter_tree_and_incoming_law(c5):
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 2)
    tree = [e for e in filt.edges if not e.top_left]
    # out-tree rooted at the basepoint: every non-root vertex has one parent
    parents = {}
    for e in tree:
        assert e.tgt not in parents
        parents[e.tgt] = e.src
    assert set(parents) == set(range(1, len(filt.vertices)))
    # tree words spell the recorded elements
    for e in tree:
        assert filt.vertices[e.tgt].element == \
            filt.vertices[e.src].element + (e.label,)
    # incoming edge count: 0 at the base, 2 at cell tops, else 1
    incoming = {v: 0 for v in range(len(filt.vertices))}
    for e in filt.edges:
        incoming[e.tgt] += 1
    tops = {c.cycle[len(c.cycle) // 2] for c in filt.cells}
    for v, k in incoming.items():
        want = 0 if v == 0 else (2 if v in tops else 1)
        assert k == want, (v, k, want)


def test_filter_vertices_are_geodesic(c5):
    """Every vertex's root-path word is geodesic.  (Distinct vertices may
    carry equal words: a fan between adjacent letters walks s,t,s,t, so the
    diagram is an unfolded tree-of-cells, not an embedded subgraph.)"""
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 2)
    for v in filt.vertices:
        assert len(normalize(c5, v.element)) == len(v.element)


def test_filter_cells_are_dihedral_cycles(c5):
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 2)
    for cell in filt.cells:
        lam = [filt.edges[i] for i in cell.lam]
        rho = [filt.edges[i] for i in cell.rho]
        s, t = lam[0].label, rho[0].label
        m = c5.label(s, t)
        assert m is not None
        assert len(lam) == len(rho) == m
        # alternating labels on both sides
        assert [e.label for e in lam] == [(s, t)[j % 2] for j in range(m)]
        assert [e.label for e in rho] == [(t, s)[j % 2] for j in range(m)]
        # the two sides meet at the top vertex
        assert lam[-1].tgt == rho[-1].tgt
        # only the last left edge carries the duplicate-corner marking
        assert lam[-1].top_left
        assert not any(e.top_left for e in lam[:-1])
        assert not any(e.top_left for e in rho[1:])


def test_filter_side_classes(c5):
    """Non-first left-side edges are right fan edges of later fans and vice
    versa; base corners of a fan carry one L and one R class at most."""
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 3)
    for cell in filt.cells:
        lam = [filt.edges[i] for i in cell.lam]
        rho = [filt.edges[i] for i in cell.rho]
        assert all(e.cls in (None, "R") for e in lam[1:])
        assert all(e.cls in (None, "L") for e in rho[1:])
        if rho[0].cls == "R":
            assert lam[0].cls in (None, "I")
        if lam[0].cls == "L":
            assert rho[0].cls in (None, "I")


def test_filter_boundary_edges_marked(c5):
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 2)
    alpha_edges = [e for e in filt.edges if e.boundary == "alpha"]
    beta_edges = [e for e in filt.edges if e.boundary == "beta"]
    assert tuple(e.label for e in alpha_edges) == a
    assert tuple(e.label for e in beta_edges) == b


def test_filter_rejects_shared_first_edge(c5):
    a = extend_geodesic(c5, ("s1",), 5)
    with pytest.raises(ConstructionError):
        build_filter(c5, a, a, 1)
    with pytest.raises(ConstructionError):
        build_filter(c5, (), ("s1",), 1)


def test_filter_rejects_non_geodesic_boundary(c5):
    with pytest.raises(NonGeodesicError):
        build_filter(c5, ("s1", "s1"), ("s2",), 1)


def test_filter_checker_rejects_tampering(c5):
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 2)

    # flip one interior edge class
    for idx, e in enumerate(filt.edges):
        if e.cls == "I":
            bad_edge = replace(e, cls="L")
            bad = replace(
                filt, edges=filt.edges[:idx] + (bad_edge,)
                + filt.edges[idx + 1:])
            assert not check_filter(c5, bad).ok
            break
    else:
        pytest.fail("no interior edge found to tamper with")

    # erase a duplicate-corner marking: the tree gains a cycle
    for idx, e in enumerate(filt.edges):
        if e.top_left:
            bad_edge = replace(e, top_left=False)
            bad = replace(
                filt, edges=filt.edges[:idx] + (bad_edge,)
                + filt.edges[idx + 1:])
            assert not check_filter(c5, bad).ok
            break

    # relabel a tree edge: the spelled element no longer matches
    e0 = next(e for e in filt.edges if not e.top_left and e.cls == "I")
    idx0 = filt.edges.index(e0)
    other = next(s for s in c5.vertices if s != e0.label)
    bad_edge = replace(e0, label=other)
    bad = replace(
        filt, edges=filt.edges[:idx0] + (bad_edge,) + filt.edges[idx0 + 1:])
    assert not check_filter(c5, bad).ok


@pytest.mark.parametrize("field,value,failure", [
    ("labels", ("s1", "s3", "s2"), "fan letters s1,s3 not adjacent"),
    ("base", ("s1", "s1"), "base word is not geodesic"),
], ids=["non-adjacent-letters", "non-geodesic-base"])
def test_filter_checker_reports_bad_fan_records(c5, field, value, failure):
    """A recorded fan with non-adjacent consecutive letters or a base that
    is not geodesic is a failure of fan 0, not an exception."""
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 2)
    bad_fan = replace(filt.fans[0], **{field: value})
    bad = replace(filt, fans=(bad_fan,) + filt.fans[1:])
    ck = check_filter(c5, bad)
    assert not ck.ok
    assert any(f.startswith("fan 0: ") and failure in f
               for f in ck.failures), ck.failures


def test_filter_json_field_order(c5):
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 1)
    obj = filt.to_json_obj()
    assert list(obj.keys()) == ["alpha", "beta", "depth", "vertices",
                                "edges", "cells", "fans"]


def test_filter_dot_export(c5):
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 1)
    dot = filt.to_dot()
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    for color in ("blue", "red", "forestgreen"):
        assert color in dot


def test_filter_open_vertices(c5):
    """Open vertices are exactly those not serving as a fan apex."""
    a, b = boundary_pair(c5)
    filt = build_filter(c5, a, b, 2)
    apexes = {f.apex for f in filt.fans}
    for v_idx, v in enumerate(filt.vertices):
        assert v.open == (v_idx not in apexes)
