"""``check_fan`` and ``check_filter`` against the name-space checks they
replaced (``tests/filter_oracle.py``): whole ``FanCheck`` and
``FilterCheck`` objects (verdict, failures in order, stats), or the same
exception, on real filters, on tampered ones, and with the fan verdicts
remembered on the engine (right after ``build_filter``) or not (a fresh
copy of the graph)."""

import random

import pytest

from coxwide import (CoxeterGraph, build_filter, check_filter,
                     extend_geodesic, fans, is_geodesic)
from coxwide.classification import subset_table
from coxwide.errors import (ConstructionError, GraphFormatError,
                            NonGeodesicError)
from coxwide.fans import FanDiagram, build_fan, check_fan
from coxwide.words import engine_for, wide_tail

import filter_oracle as O
from conftest import CORPUS_MAKERS, replace
from test_filter_itinerary import (C5_FILTER, DEPTHS, GRAPHS, real_filter,
                                   run_child, with_edges)


def fresh(g):
    """An equal graph with no engine yet, so no fan verdict is known."""
    return CoxeterGraph(g.vertices, g.edge_list())


def outcome(check, g, obj, **kw):
    try:
        return check(g, obj, **kw)
    except (GraphFormatError, NonGeodesicError, TypeError) as exc:
        return type(exc), str(exc)


def assert_same_filter_check(g, filt, **kw):
    """The check on ``g`` as it is and on a fresh copy both equal the
    oracle's, stats in the same order; returns the oracle's outcome."""
    want = outcome(O.check_filter, g, filt, **kw)
    for h in (g, fresh(g)):
        got = outcome(check_filter, h, filt, **kw)
        assert got == want
        if not isinstance(want, tuple):
            assert list(got.stats) == list(want.stats)
    return want


def assert_same_fan_check(g, fan, h=None):
    """On ``h`` (a fresh copy of ``g`` if None), computed or remembered,
    then remembered: both equal the oracle."""
    want = outcome(O.check_fan, g, fan)
    h = fresh(g) if h is None else h
    assert outcome(check_fan, h, fan) == want
    assert outcome(check_fan, h, fan) == want
    return want


def recorded_fans(g, filt):
    """The fans of a filter as ``check_filter`` checks them."""
    for f in filt.fans:
        cells = tuple(2 * g.label(f.labels[i], f.labels[i + 1])
                      for i in range(len(f.labels) - 1))
        yield FanDiagram(f.base, f.labels, cells, *wide_tail(g, f.base),
                         f.case, ())


def with_fan(filt, k, **change):
    changed = list(filt.fans)
    changed[k] = replace(changed[k], **change)
    return replace(filt, fans=tuple(changed))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_real_filters_match_oracle_checks(name):
    for depth in DEPTHS:
        g, filt = real_filter(name, depth)
        want = assert_same_filter_check(g, filt)
        assert want.ok, (name, depth, want.failures[:3])
        for fan in recorded_fans(g, filt):
            assert assert_same_fan_check(g, fan).ok


# (enum_len, enum_cap, samples, seed)
ENUM_BOUNDS = ((14, 200_000, 64, 0), (6, 37, 5, 1), (3, 10 ** 6, 0, 2),
               (9, 400, 20, 3))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_enumeration_cap_and_sampling_match_oracle(name):
    """A swapped label makes rooted paths fail below it; the enumeration
    counts, its cap and the sampled walks agree for several bounds."""
    g, filt = real_filter(name, 3)
    bad = swap_label(filt, random.Random(name))
    for enum_len, enum_cap, samples, seed in ENUM_BOUNDS:
        for f in (filt, bad):
            assert_same_filter_check(g, f, enum_len=enum_len,
                                     enum_cap=enum_cap, samples=samples,
                                     seed=seed)


def swap_label(filt, rng):
    """A tree edge below the root, with edges below it, takes its parent
    edge's label, so every rooted path through the two spells a doubled
    letter."""
    into = {e.tgt: e for e in filt.edges if not e.top_left}
    sources = {e.src for e in filt.edges}
    picks = [i for i, e in enumerate(filt.edges)
             if not e.top_left and e.src != 0 and e.tgt in sources]
    k = rng.choice(picks)
    label = into[filt.edges[k].src].label
    return with_edges(filt, lambda i, e: replace(e, label=label)
                      if i == k else e)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_swapped_labels_match_oracle(name):
    g, filt = real_filter(name, 3)
    rng = random.Random(name)
    for _ in range(4):
        bad = swap_label(filt, rng)
        want = assert_same_filter_check(g, bad)
        rooted = [f for f in want.failures if f.startswith("rooted path")]
        assert rooted and not want.ok
        # the paths below the first bad one fail too
        assert len(rooted) > 1


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sampled_walks_report_a_swapped_label(name):
    """With the literal enumeration cut to one letter, only the sampled
    walks, each tested once as a whole word, can see a swapped label;
    they report each whole sampled word as the oracle does."""
    g, filt = real_filter(name, 3)
    bad = swap_label(filt, random.Random(name))
    want = assert_same_filter_check(g, bad, enum_len=1)
    assert any(f.startswith("sampled path") for f in want.failures)
    assert not any(f.startswith("sampled path")
                   for f in assert_same_filter_check(g, filt, enum_len=1)
                   .failures)


def fan_tamperings(filt):
    """(what, tampered filter) pairs altering one fan's base, labels or
    case; a reversed fan may be a fan too."""
    last = len(filt.fans) - 1
    other = next(f.base for f in filt.fans if f.base != filt.fans[last].base)
    f = filt.fans[last]
    flip = "wide-tail" if f.case == "short-tail" else "short-tail"
    yield "other base", with_fan(filt, last, base=other)
    yield "base not geodesic", with_fan(filt, last, base=f.base + f.base[-1:])
    yield "reversed labels", with_fan(filt, last, labels=f.labels[::-1])
    yield "repeated label", with_fan(filt, last,
                                     labels=f.labels[:1] * len(f.labels))
    yield "dropped label", with_fan(filt, last, labels=f.labels[:2])
    yield "case", with_fan(filt, last, case=flip)
    yield "first fan case", with_fan(filt, 0, case=flip)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_tampered_fans_match_oracle(name):
    g, filt = real_filter(name, 3)
    for what, bad in fan_tamperings(filt):
        want = assert_same_filter_check(g, bad)
        if what == "base not geodesic":
            assert any(f.startswith("fan ") and
                       f.endswith(": base word is not geodesic")
                       for f in want.failures), want
        elif what != "reversed labels":
            assert any(f.startswith("fan ") for f in want.failures), what


def test_wide_tail_fan_in_a_filter_matches_oracle():
    """No fan of the acceptance filters has a long wide tail, so one is
    put in: its verdict is computed by ``check_filter`` on a fresh copy of
    the graph and remembered from ``build_fan`` on the graph itself."""
    g, filt = real_filter("O8", 3)
    fan = build_fan(g, ("s1", "s3", "s2", "s4"), "t1", "t3")
    assert fan.case == "wide-tail"
    for case in ("wide-tail", "short-tail"):
        bad = with_fan(filt, 0, base=fan.base, labels=fan.labels, case=case)
        want = assert_same_filter_check(g, bad)
        fan_fails = [f for f in want.failures if f.startswith("fan 0:")]
        assert fan_fails[-1] == "fan 0: base word does not reach its apex"
        assert (len(fan_fails) == 1) == (case == "wide-tail")


def relabel_edge(filt):
    """The first interior fan edge takes another letter, so it no longer
    extends its source's element to its target's."""
    k = next(i for i, e in enumerate(filt.edges) if e.cls == "I")
    other = next(e.label for e in filt.edges
                 if e.label != filt.edges[k].label)
    return k, with_edges(filt, lambda i, e: replace(e, label=other)
                         if i == k else e)


def retarget_edge(filt):
    """The first edge with a sibling (an edge from the same vertex) of
    another label points at that sibling's target instead."""
    for k, e in enumerate(filt.edges):
        sib = next((f for f in filt.edges if f.src == e.src
                    and f.label != e.label), None)
        if sib is not None:
            return k, with_edges(filt, lambda i, d: replace(d, tgt=sib.tgt)
                                 if i == k else d)


def respell_vertex(filt):
    """The first vertex other than the basepoint with edges out of it
    spells its element with a doubled letter appended: the same element,
    by a word that is not geodesic."""
    sources = {e.src for e in filt.edges}
    v = next(v for v, x in enumerate(filt.vertices)
             if x.element and v in sources)
    x = filt.vertices[v]
    spelled = x.element + x.element[-1:] * 2
    return v, replace(filt, vertices=filt.vertices[:v] + (
        replace(x, element=spelled),) + filt.vertices[v + 1:])


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_edge_and_vertex_geodesy_failures_match_oracle(name):
    """The per-edge test from the step memo against normalizing each
    source word plus its letter from scratch: a relabelled edge and a
    retargeted one fail it; a vertex whose element word is not geodesic
    fails, and so do the edges out of it, but not the edges into it."""
    g, filt = real_filter(name, 3)
    for tamper in (relabel_edge, retarget_edge):
        k, bad = tamper(filt)
        want = assert_same_filter_check(g, bad)
        assert (f"edge {k} does not extend its source geodesically"
                in want.failures), (tamper.__name__, want.failures[:5])
    v, bad = respell_vertex(filt)
    want = assert_same_filter_check(g, bad)
    assert f"vertex {v} element word not geodesic" in want.failures
    for i, e in enumerate(bad.edges):
        message = f"edge {i} does not extend its source geodesically"
        assert (message in want.failures) == (e.src == v), (i, e)


# ---------------------------------------------------------------------------
# ids that name no vertex or edge


def with_cell(filt, k, **change):
    changed = list(filt.cells)
    changed[k] = replace(changed[k], **change)
    return replace(filt, cells=tuple(changed))


def bad_ids(filt):
    """What -> (tampered filter, its failures) for each kind of recorded id
    that names no vertex or edge, and for a cell with empty sides."""
    n, m = len(filt.vertices), len(filt.edges)
    last = len(filt.fans) - 1
    edge, cell, fan = filt.edges[5], filt.cells[2], filt.fans[last]

    def with_edge(**change):
        return with_edges(filt, lambda i, e: replace(e, **change)
                          if i == 5 else e)

    return {
        "source past the end": (with_edge(src=n), (
            f"edge 5: source {n} is not a vertex",)),
        "target past the end": (with_edge(tgt=n + 3), (
            f"edge 5: target {n + 3} is not a vertex",)),
        "negative source and target": (with_edge(src=-1, tgt=-edge.tgt), (
            "edge 5: source -1 is not a vertex",
            f"edge 5: target {-edge.tgt} is not a vertex")),
        "cell edge past the end": (
            with_cell(filt, 2, lam=cell.lam[:-1] + (m,)),
            (f"cell 2: edge {m} is not an edge",)),
        "empty cell": (with_cell(filt, 2, lam=(), rho=()), (
            "cell 2: empty sides",)),
        "fan edge past the end": (
            with_fan(filt, last, edge_ids=fan.edge_ids + (m + 1,)),
            (f"fan {last}: edge {m + 1} is not an edge",)),
        "fan apex past the end": (with_fan(filt, last, apex=n), (
            f"fan {last}: apex {n} is not a vertex",)),
        "fan without edges": (with_fan(filt, last, edge_ids=()), (
            f"fan {last}: no edges",)),
    }


@pytest.mark.parametrize("what", [
    "source past the end", "target past the end",
    "negative source and target", "cell edge past the end", "empty cell",
    "fan edge past the end", "fan apex past the end", "fan without edges"])
def test_ids_out_of_range_are_failures(what):
    """Each recorded id that names no vertex or edge is a failure, and the
    check stops there, where it used to raise IndexError or, for -1, read
    the last vertex; a cell with empty sides fails the cell check."""
    g, filt = real_filter("C5", 3)
    bad, failures = bad_ids(filt)[what]
    want = assert_same_filter_check(g, bad)
    assert not want.ok
    assert want.failures == failures


def test_a_filter_without_vertices_reports_its_ids():
    g, filt = real_filter("C5", 3)
    want = assert_same_filter_check(g, replace(filt, vertices=()))
    assert want.failures[:2] == ("filter has no basepoint",
                                 "edge 0: source 0 is not a vertex")
    assert len(want.failures) == 1 + 2 * len(filt.edges) + len(filt.fans)


# ---------------------------------------------------------------------------
# shape, class and fan-edge failures that no real filter reaches


def shape_tamperings(filt):
    """What -> (tampered filter, one failure it must report), each about
    the first fan and its last cell, which its right fan edge bounds."""
    fan = filt.fans[0]
    ci = fan.cell_ids[-1]
    cell = filt.cells[ci]
    top = filt.edges[cell.lam[-1]].tgt
    elsewhere = filt.edges[cell.lam[0]].tgt

    def with_edge(k, **change):
        return with_edges(filt, lambda i, e: replace(e, **change)
                          if i == k else e)

    vertices = list(filt.vertices)
    vertices[top] = replace(vertices[top], is_top=False)
    return {
        "edge into the basepoint": (
            with_edge(cell.lam[-1], tgt=0), "basepoint has incoming edges"),
        "short left side": (
            with_cell(filt, ci, lam=cell.lam[:-1]),
            f"cell {ci}: unequal sides"),
        "top-left right side": (
            with_edge(cell.rho[-1], top_left=True),
            f"cell {ci}: stray top-left marking"),
        "right side ends elsewhere": (
            with_edge(cell.rho[-1], tgt=elsewhere),
            f"cell {ci}: sides do not meet at a top vertex"),
        "top vertex unmarked": (
            replace(filt, vertices=tuple(vertices)),
            f"cell {ci}: meeting vertex not marked top"),
        "left side classed I": (
            with_edge(cell.lam[1], cls="I"),
            f"cell {ci}: left-side edge {cell.lam[1]} classed I, expected R"),
        "right side classed R": (
            with_edge(cell.rho[1], cls="R"),
            f"cell {ci}: right-side edge {cell.rho[1]} classed R, "
            "expected L"),
        "right-bounded cell with an L edge": (
            with_edge(cell.lam[0], cls="L"),
            f"cell {ci}: right-bounded cell with L first left edge"),
        "left fan edge unclassed": (
            with_edge(fan.edge_ids[0], cls=None),
            "fan 0: left fan edge not classed L"),
        "right fan edge unclassed": (
            with_edge(fan.edge_ids[-1], cls=None),
            "fan 0: right fan edge not classed R"),
    }


@pytest.mark.parametrize("what", [
    "edge into the basepoint", "short left side", "top-left right side",
    "right side ends elsewhere", "top vertex unmarked",
    "left side classed I", "right side classed R",
    "right-bounded cell with an L edge", "left fan edge unclassed",
    "right fan edge unclassed"])
def test_shape_and_class_tamperings_match_oracle(what):
    """Each tampering of a real filter reports its failure, and the whole
    check equals the oracle's."""
    g, filt = real_filter("C5", 3)
    bad, failure = shape_tamperings(filt)[what]
    want = assert_same_filter_check(g, bad)
    assert not want.ok
    assert failure in want.failures, want.failures


FAN_GRAPHS = ("C5", "G6", "O8", "WIDE8", "A3", "H3")


def wide_base(g):
    """A geodesic word in the letters of the first maximal wide set,
    cycling through them, if one of length at least 8 comes out."""
    masks = subset_table(g).maximal_wide
    if not masks:
        return None
    letters = g.names_of(masks[0])
    base = ()
    for k in range(8 * len(letters)):
        s = letters[k % len(letters)]
        if is_geodesic(g, base + (s,)):
            base += (s,)
    return base if len(base) >= 8 else None


def corpus_fans(g):
    """Fans on greedy bases of length 0-5, and on a wide base, between the
    first and last letters that extend them, where the graph has them."""
    bases = []
    for length in range(6):
        try:
            bases.append(extend_geodesic(g, (), length))
        except ConstructionError:
            break
    bases.append(wide_base(g))
    for base in filter(None, bases):
        picks = [s for s in g.vertices if is_geodesic(g, base + (s,))]
        for s, t in ((picks[0], picks[-1]), (picks[-1], picks[0]),
                     (picks[0], picks[0])):
            try:
                yield build_fan(g, base, s, t)
            except ConstructionError:
                continue


def fan_variants(g, fan):
    other = next(v for v in g.vertices if v not in fan.labels[:1])
    yield fan
    yield replace(fan, cells=(fan.cells[0] + 2,) + fan.cells[1:])
    yield replace(fan, cells=fan.cells[:-1])
    yield replace(fan, labels=fan.labels[:1] * len(fan.labels))
    yield replace(fan, labels=(other,) + fan.labels[1:])
    yield replace(fan, labels=fan.labels[::-1])
    yield replace(fan, case="wide-tail" if fan.case ==
                  "short-tail" else "short-tail")
    yield replace(fan, tail=fan.tail[1:] or (other,))
    yield replace(fan, base=fan.base + fan.labels[:1])
    yield replace(fan, base=fan.base + fan.base[-1:])


@pytest.mark.parametrize("name", FAN_GRAPHS)
def test_fan_checks_match_oracle(name):
    g = CORPUS_MAKERS[name]()
    built = list(corpus_fans(g))
    assert built, name
    if name == "O8":
        assert any(f.case == "wide-tail" for f in built)
    verdicts = set()
    h = fresh(g)
    for fan in built:
        for variant in fan_variants(g, fan):
            want = assert_same_fan_check(g, variant, h)
            verdicts.add(want if isinstance(want, tuple) else want.ok)
    assert {True, False} <= verdicts


def count_fan_checks(monkeypatch):
    calls = []
    real = fans._verify_fan

    def spy(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(fans, "_verify_fan", spy)
    return calls


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_each_fan_is_verified_once(name, monkeypatch):
    """``check_filter`` right after ``build_filter`` verifies no fan again;
    on a fresh copy of the graph it verifies each distinct fan once, and
    the two checks are equal."""
    g = fresh(GRAPHS[name])
    alpha = extend_geodesic(g, (g.vertices[0],), 8)
    beta = extend_geodesic(g, (g.vertices[1],), 8)
    calls = count_fan_checks(monkeypatch)
    filt = build_filter(g, alpha, beta, 3)
    assert len(calls) == len(set(calls)) >= len(
        {(f.base, f.labels, f.case) for f in filt.fans})
    built = len(calls)
    warm = check_filter(g, filt)
    assert len(calls) == built
    h = fresh(g)
    cold = check_filter(h, filt)
    assert len(calls) - built == len(
        {(f.base, f.labels, f.case) for f in filt.fans})
    assert cold == warm and cold.ok
    assert len(engine_for(h)._fans) == len(calls) - built


# ---------------------------------------------------------------------------
# unknown names


def test_foreign_fan_label_is_a_graph_format_error(c5):
    fan = build_fan(c5, ("s3",), "s1", "s2")
    bad = replace(fan, labels=fan.labels[:1] + ("zz",) + fan.labels[2:])
    for check in (check_fan, O.check_fan):
        with pytest.raises(GraphFormatError, match="unknown vertex 'zz'"):
            check(c5, bad)


def test_foreign_edge_label_is_a_graph_format_error():
    _, filt = real_filter("C5", 2)
    g = fresh(GRAPHS["C5"])
    bad = with_edges(filt, lambda i, e: replace(e, label="zz")
                     if i == 3 else e)
    for check in (check_filter, O.check_filter):
        with pytest.raises(GraphFormatError, match="unknown vertex 'zz'"):
            check(g, bad)


# ---------------------------------------------------------------------------
# under python -O


def test_fan_checks_survive_python_O():
    """A fan with a wrong case still fails under -O, whether its verdict is
    computed (on a fresh graph) or remembered (again, and on the graph the
    filter was built on, whose other fans are all remembered)."""
    lines = run_child(C5_FILTER.format(depth=3) + """
    from coxwide import build_fan, check_fan
    text = "; ".join([f"v {v}" for v in g.vertices] + [
        f"e {u} {v} {m}" for u, v, m in g.edge_list()])
    fresh = parse_graph(text)
    print("optimize", sys.flags.optimize)
    k = len(filt.fans) - 1
    fans = list(filt.fans)
    fans[k] = replace(fans[k], case="wide-tail")
    bad = replace(filt, fans=tuple(fans))
    for run, h in (("cold", fresh), ("memo", fresh), ("built", g)):
        chk = check_filter(h, bad)
        print(run, chk.ok, " | ".join(f for f in chk.failures
                                      if f.startswith("fan")))
    h = parse_graph(text)
    fan = build_fan(h, ("s3",), "s1", "s2")
    fan = replace(fan, cells=(6,) + fan.cells[1:])
    for run in ("cold", "memo"):
        chk = check_fan(h, fan)
        print(run, chk.ok, " | ".join(chk.failures))
    """, "-O")
    fan_fail = ("fan 13: recorded case 'wide-tail', but the tail length "
                "dictates 'short-tail'")
    cell_fail = ("cell 0 is a 6-gon, expected 4-gon | base + left side of "
                 "cell 0 not geodesic | base + right side of cell 0 not "
                 "geodesic")
    assert lines == [
        "optimize 1",
        f"cold False {fan_fail}",
        f"memo False {fan_fail}",
        f"built False {fan_fail}",
        f"cold False {cell_fail}",
        f"memo False {cell_fail}",
    ]
