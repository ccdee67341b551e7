"""The itinerary phase of ``check_filter``: its two routes, the weighted
pass over a valid spanning tree and the walk root path by root path that
spells out the failures, both against the per-path loop they replaced
(kept in ``tests/filter_oracle.py``)."""

import functools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

from coxwide import build_filter, check_filter, extend_geodesic
from coxwide import filters
from coxwide.filters import (_path_route, _tree_shape, _weighted_pass,
                             _window_walker, itinerary_bounds)

import filter_oracle as O
from conftest import (PROPERTY, graph_from_labels, make_c5, make_o8,
                      replace, seeded_wsa_labels)

GRAPHS = {"C5": make_c5(), "O8": make_o8(),
          **{f"WSA{s}": graph_from_labels(seeded_wsa_labels(s))
             for s in (12, 16, 21)}}
DEPTHS = (1, 2, 3, 4)
HUGE = 10 ** 9


@functools.cache
def real_filter(name: str, depth: int):
    """The acceptance criterion's filter: rays of length 8 from the first
    two vertices."""
    g = GRAPHS[name]
    alpha = extend_geodesic(g, (g.vertices[0],), 8)
    beta = extend_geodesic(g, (g.vertices[1],), 8)
    return g, build_filter(g, alpha, beta, depth)


def with_edges(filt, change):
    return replace(
        filt, edges=tuple(change(i, e) for i, e in enumerate(filt.edges)))


def strip_boundary(filt):
    return with_edges(filt, lambda i, e: replace(e, boundary=None))


def assert_agree(g, filt, bounds):
    """Both routes against the oracle: the weighted pass (on a valid tree)
    gives its window count and whether any bound fails, the per-path route
    its window count and whole failure list."""
    windows, fails = O.itinerary(g, filt, bounds)
    tree_in, tree_out, order, shape_fails = _tree_shape(filt)
    walk = _window_walker(g, filt, bounds)
    if not shape_fails:
        assert _weighted_pass(walk, filt, tree_in, tree_out, order) == (
            windows, not fails)
    assert _path_route(walk, filt, tree_out) == (windows, fails)
    return fails


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_one_pass_matches_per_path_on_real_filters(name):
    rng = random.Random(name)
    fails = []
    for depth in DEPTHS:
        g, filt = real_filter(name, depth)
        assert not assert_agree(g, filt, itinerary_bounds(g))
        for _ in range(6):
            bounds = tuple(rng.randint(1, 4) for _ in range(4))
            for tampered in (filt, strip_boundary(filt),
                             untree_first_top_left(filt)):
                fails += assert_agree(g, tampered, bounds)
    # C5 has no wide label set, so only its R-runs can fail
    kinds = ("R-run",) if name == "C5" else (
        "I-edges", "an L-run", "off-boundary wide window", "R-run")
    for kind in kinds:
        assert any(kind in f for f in fails), (name, kind)


@PROPERTY
@given(st.sampled_from([("O8", 3), ("WSA12", 3), ("WSA16", 2),
                        ("WSA21", 3), ("C5", 4)]),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(("L", "R", "I", None)), min_size=1,
                max_size=4),
       st.lists(st.sampled_from((None, "alpha", "beta")), min_size=1,
                max_size=4),
       st.tuples(*[st.integers(1, 4)] * 4))
def test_one_pass_matches_per_path_on_reassigned_classes(
        key, seed, classes, marks, bounds):
    """Edge classes and boundary marks drawn at random, from drawn pools,
    on a real filter's tree, so every bound fails somewhere, alone or with
    others."""
    g, filt = real_filter(*key)
    rng = random.Random(seed)
    tampered = with_edges(filt, lambda i, e: replace(
        e, cls=rng.choice(classes), boundary=rng.choice(marks)))
    assert_agree(g, tampered, bounds)


@pytest.mark.parametrize("name", ["WSA12", "WSA21"])
def test_one_pass_finds_lr_subpaths_alone(name):
    """Only L and R classes, every edge on a boundary ray: no I-edges and
    no off-boundary window, so the LR-subpaths are the only failures."""
    g, filt = real_filter(name, 3)
    rng = random.Random(name)
    tampered = with_edges(filt, lambda i, e: replace(
        e, cls=rng.choice("LR"), boundary="alpha"))
    fails = assert_agree(g, tampered, (1, 4, 4, 4))
    assert fails and all("LR-subpaths" in f for f in fails)


# ---------------------------------------------------------------------------
# the whole check against the oracle, bound by bound


def expected_check(g, filt, bounds, monkeypatch):
    """check_filter's failures and stats as the oracle gives them: the
    phases before the itinerary from a run that no window can fail, then
    the oracle's itinerary under ``bounds``."""
    with monkeypatch.context() as m:
        m.setattr(filters, "itinerary_bounds", lambda h: (HUGE,) * 4)
        before = check_filter(g, filt)
    windows, fails = O.itinerary(g, filt, bounds)
    stats = dict(before.stats, wide_windows_checked=windows,
                 itinerary_cap=bounds[2])
    return before.failures + tuple(fails), stats


def reclass_first_interior(filt):
    """A fault of the fan axioms: one interior fan edge classed L."""
    first = next(i for i, e in enumerate(filt.edges) if e.cls == "I")
    return with_edges(filt, lambda i, e: replace(e, cls="L")
                      if i == first else e)


def untree_first_top_left(filt):
    """A fault of the tree shape: a cell top gets two tree parents."""
    first = next(i for i, e in enumerate(filt.edges) if e.top_left)
    return with_edges(filt, lambda i, e: replace(
        e, top_left=False) if i == first else e)


BOUND_CASES = [
    # (graph, depth, tampering, bounds or None for the graph's own, message)
    ("O8", 4, strip_boundary, (1, HUGE, HUGE, HUGE), "I-edges"),
    ("WSA12", 4, None, (1, HUGE, HUGE, HUGE), "LR-subpaths"),
    ("WSA16", 3, strip_boundary, (HUGE, 1, HUGE, HUGE), "an L-run"),
    ("WSA21", 3, strip_boundary, (HUGE, HUGE, 3, HUGE),
     "off-boundary wide window"),
    ("C5", 4, strip_boundary, None, "off-boundary R-run"),
    ("O8", 3, strip_boundary, None, "off-boundary R-run"),
    ("WSA16", 3, reclass_first_interior, (2, 3, 4, 1), "R-run"),
    ("O8", 3, untree_first_top_left, (2, 1, 4, 1), "an L-run"),
]


@pytest.mark.parametrize("name,depth,tamper,bounds,message", BOUND_CASES)
def test_check_filter_failures_match_oracle(name, depth, tamper, bounds,
                                            message, monkeypatch):
    g, filt = real_filter(name, depth)
    if tamper is not None:
        filt = tamper(filt)
    if bounds is not None:
        monkeypatch.setattr(filters, "itinerary_bounds", lambda h: bounds)
    got = check_filter(g, filt)
    want_fails, want_stats = expected_check(
        g, filt, bounds or O.default_bounds(g), monkeypatch)
    assert any(message in f for f in want_fails), want_fails[:5]
    assert got.failures == want_fails
    assert got.stats == want_stats
    assert got.ok is False


def test_real_filters_match_oracle():
    for name in sorted(GRAPHS):
        for depth in DEPTHS:
            g, filt = real_filter(name, depth)
            got = check_filter(g, filt)
            windows, fails = O.itinerary(g, filt)
            assert got.ok and not fails, (name, depth)
            assert got.stats["wide_windows_checked"] == windows
            assert got.stats["itinerary_cap"] == O.default_bounds(g)[2]


def run_child(script, *flags):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ``coxwide``; its stdout lines."""
    import coxwide
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxwide.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, *flags, "-c",
                          textwrap.dedent(script)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


C5_FILTER = """
    import sys
    from coxwide import (build_filter, check_filter, extend_geodesic,
                         parse_graph)
    def replace(rec, **changes):
        return rec.__replace__(**changes)
    g = parse_graph("v s1; v s2; v s3; v s4; v s5; e s1 s2 2; "
                    "e s2 s3 2; e s3 s4 2; e s4 s5 2; e s5 s1 2")
    filt = build_filter(g, extend_geodesic(g, ("s1",), 8),
                        extend_geodesic(g, ("s2",), 8), {depth})
"""


def test_itinerary_check_survives_python_O():
    """The bounds are explicit checks, not ``assert``s: under -O a filter
    whose only fault is an off-boundary R-run still fails its check, on a
    valid tree and on a malformed one (a cell top with two tree parents,
    which the per-path route walks)."""
    lines = run_child(C5_FILTER.format(depth=4) + """
    print("optimize", sys.flags.optimize)
    print("clean", check_filter(g, filt).ok)
    filt = replace(filt, edges=tuple(
        replace(e, boundary=None) for e in filt.edges))
    chk = check_filter(g, filt)
    print("stripped", chk.ok, sorted(set(chk.failures)))
    first = next(i for i, e in enumerate(filt.edges) if e.top_left)
    filt = replace(filt, edges=tuple(
        replace(e, top_left=False) if i == first else e
        for i, e in enumerate(filt.edges)))
    chk = check_filter(g, filt)
    print("untreed", chk.ok, chk.failures[0],
          sorted(set(chk.failures[1:])))
    """, "-O")
    assert lines[:3] == [
        "optimize 1", "clean True",
        "stripped False ['off-boundary R-run of length 3']"]
    assert lines[3:] == [
        "untreed False vertex 19 has 2 tree parents "
        "['cell 0: last left edge not marked top-left', "
        "'off-boundary R-run of length 3']"]


def test_cyclic_tree_terminates():
    """A tree edge from a boundary vertex back to the basepoint closes a
    cycle; the check reports the tree shape and returns, within a memory
    limit set in the child, rather than walking the cycle."""
    lines = run_child(C5_FILTER.format(depth=3) + """
    import resource
    limit = 512 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    last = max(e.tgt for e in filt.edges if e.boundary == "alpha")
    back = replace(filt.edges[0], src=last, tgt=0, cls=None, boundary=None)
    chk = check_filter(g, replace(filt, edges=filt.edges + (back,)))
    print(chk.ok, chk.failures[0])
    """)
    assert lines == ["False basepoint has incoming edges"]
