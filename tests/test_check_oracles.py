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
from coxwide.avoidance import maximal_wide_masks
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


FAN_GRAPHS = ("C5", "G6", "O8", "WIDE8", "A3", "H3")


def wide_base(g):
    """A geodesic word in the letters of the first maximal wide set,
    cycling through them, if one of length at least 8 comes out."""
    masks = maximal_wide_masks(g)
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
