"""End-to-end boundary classification verdicts with validated witnesses."""

import importlib
import io
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

from coxwide import CoxeterGraph, classify
from coxwide.avoidance import (AvoidanceReport, is_wide, is_wide_avoidant,
                               is_wide_spherical_avoidant)
from coxwide.classify import GENERAL_CASES, RACG_CASES, _splitting_from_blocker
from coxwide.classification import (ends_verdict, is_spherical_mask,
                                    subset_table)
from coxwide.cli import main
from coxwide.errors import VerificationError

import oracles as O
from conftest import (CORPUS_MAKERS, PROPERTY, graph_from_labels,
                      label_matrices, racg, racg_label_matrices,
                      random_racg_matrix)

# the module, which the package's ``classify`` function shadows
classify_module = importlib.import_module("coxwide.classify")


def test_cases_frozen(corpus):
    expected = {
        "C4": "EmptyBoundary_FiniteOrWide",
        "C5": "Connected_LocallyConnected",
        "C6": "Connected_LocallyConnected",
        "P3": "Disconnected_MultiEnded",
        "G6": "Disconnected_NotWideAvoidant",
        "O8": "Connected_LocallyConnected",
        "WIDE8": "EmptyBoundary_FiniteOrWide",
        "INF_PAIR": "Disconnected_MultiEnded",
        "AFF_TRI": "EmptyBoundary",
        "I2_7": "EmptyBoundary",
        "A3": "EmptyBoundary",
        "A4": "EmptyBoundary",
        "H3": "EmptyBoundary",
    }
    for name, case in expected.items():
        v = classify(corpus[name])
        assert v.case == case, (name, v.case)


def test_case_families(corpus):
    for name, g in corpus.items():
        v = classify(g)
        assert v.racg == g.is_racg(), name
        assert v.case in (RACG_CASES if v.racg else GENERAL_CASES), name


def test_hypotheses_recorded(c5, g6):
    v = classify(c5)
    h = v.hypotheses
    assert h["one_ended"] and h["affine_free"]
    assert h["wide_avoidant"] and h["wide_spherical_avoidant"]
    assert not h["finite"] and not h["wide"]
    v6 = classify(g6)
    assert not v6.hypotheses["wide_avoidant"]
    assert v6.hypotheses["one_ended"]


def test_racg_wa_implies_wsa_in_verdicts(corpus):
    """For right-angled graphs the connected verdict carries both avoidance
    facts; they can only differ through an affine factor, which right-angled
    graphs never have."""
    for name, g in corpus.items():
        if not g.is_racg():
            continue
        wa = is_wide_avoidant(g).holds
        wsa = is_wide_spherical_avoidant(g).holds
        assert wa == wsa, name


def test_g6_splitting_validated(g6):
    v = classify(g6)
    assert v.case == "Disconnected_NotWideAvoidant"
    sp = v.witness["splitting"]
    g1 = set(sp["gamma1"])
    g2 = set(sp["gamma2"])
    delta = set(sp["delta"])
    # a genuine splitting: cover, meet exactly in delta, both proper
    assert g1 | g2 == set(g6.vertices)
    assert g1 & g2 == delta
    assert g1 != set(g6.vertices) and g2 != set(g6.vertices)
    # no edges between the two private parts
    for u in g1 - delta:
        for w in g2 - delta:
            assert g6.label(u, w) is None, (u, w)
    # delta is non-spherical (the amalgam is over an infinite subgroup)
    assert not is_spherical_mask(g6, g6.mask_of(sp["delta"]))
    # frozen witness: the separating set is the link of the corner vertex s1
    assert sp["via"] == "star"
    assert sorted(sp["delta"]) == ["a", "s2", "s4"]


def test_verdict_json_shape(c5):
    obj = classify(c5).to_json_obj()
    assert list(obj.keys()) == ["case", "racg", "constants", "ends",
                                "hypotheses", "witness"]
    assert obj["case"] == "Connected_LocallyConnected"
    assert obj["constants"] == {"V": 5, "M": 2, "R": 2}
    assert obj["ends"]["kind"] == "OneEnded"


def test_exactly_one_case_random_racgs():
    """Small right-angled graphs land in exactly one of the four cases, and
    the case agrees with independently recomputed hypotheses."""
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(1, 6)
        lab = random_racg_matrix(rng, n)
        g = graph_from_labels(lab)
        v = classify(g)
        assert v.case in RACG_CASES
        # a right-angled group on <= 6 generators is finite only if complete
        # (order <= 2^6), so a BFS cap of 200 is decisive here; two-ended
        # groups of this size have constant sphere sizes from radius 5, so
        # growth out to radius 8 settles two- versus infinitely-ended
        finite = O.group_order(lab, cap=200).finite is True
        wide = O.brute_is_wide(lab, (1 << n) - 1)
        ends = O.oracle_ends(lab, radius=8, order_cap=200)
        wa, _ = O.brute_is_wide_avoidant(lab)
        if finite or wide:
            assert v.case == "EmptyBoundary_FiniteOrWide"
        elif ends != "one":
            assert v.case == "Disconnected_MultiEnded"
        elif wa:
            assert v.case == "Connected_LocallyConnected"
        else:
            assert v.case == "Disconnected_NotWideAvoidant"


def test_general_unknown_case():
    """A graph that is one-ended and wide-avoidant but not affine-free
    falls outside every proved hypothesis set."""
    # affine triangle joined to one more commuting vertex: still contains
    # the affine triangle, infinite, not wide (the triangle is rank 3 but
    # the A~2 factor forces wideness... choose the join carefully): attach
    # z adjacent to a only, label 3: the whole graph is irreducible.
    g = CoxeterGraph(["a", "b", "c", "z"],
                     [("a", "b", 3), ("b", "c", 3), ("a", "c", 3),
                      ("z", "a", 3), ("z", "b", 2), ("z", "c", 2)])
    v = classify(g)
    if v.case == "Unknown_ConjectureOpen":
        assert v.witness["missing_hypotheses"]
        assert "affine_free" in v.witness["missing_hypotheses"]
    else:
        # wideness of some subset may already decide the boundary
        assert v.case in GENERAL_CASES


def test_general_theorem_cases(corpus):
    va = classify(corpus["I2_7"])
    assert va.case == "EmptyBoundary"
    aff = classify(corpus["AFF_TRI"])
    assert aff.case == "EmptyBoundary"
    assert aff.witness["wide_decomposition"]["kind"] == "AffineRank3Plus"


def test_not_wa_general_graph():
    """A general (non-right-angled) graph failing wide-avoidance lands in
    the divergence case with a concrete witness."""
    # G6 with one outer label changed to 3: still contains the wide square,
    # still fails avoidance through it
    g = CoxeterGraph(
        ["s1", "s2", "s3", "s4", "a", "b"],
        [("s1", "s2", 2), ("s2", "s3", 2), ("s3", "s4", 2), ("s4", "s1", 2),
         ("a", "s1", 2), ("a", "s2", 2), ("a", "s3", 2),
         ("b", "s2", 2), ("b", "s3", 3), ("b", "s4", 2)])
    v = classify(g)
    assert v.case == "TheoremApplies_A"
    w = v.witness["avoidance"]["witness"]
    blocked = g.mask_of(w["blocking_set"])
    s, t = (g.index(x) for x in w["pair"])
    assert not O._path_avoiding(O.labels_from_graph(g), s, t, blocked)


def _assert_separating(lab, g, sp) -> None:
    """``sp`` (JSON form) covers the graph, its parts meet in delta, and no
    edge of the label matrix joins the two sides, both non-empty."""
    assert sp is not None and sp["via"] in ("component", "star")
    m1, m2, md = (g.mask_of(sp[k]) for k in ("gamma1", "gamma2", "delta"))
    assert m1 | m2 == (1 << len(lab)) - 1 and m1 & m2 == md
    side1, side2 = m1 & ~md, m2 & ~md
    assert side1 and side2
    assert all(lab[i][j] == 0 for i in O.obits(side1) for j in O.obits(side2))


@PROPERTY
@given(st.one_of(racg_label_matrices(max_n=8), label_matrices(max_n=7)))
def test_not_wide_avoidant_verdicts_carry_a_separating_splitting(lab):
    g = graph_from_labels(lab)
    obj = classify(g).to_json_obj()
    if obj["case"] in ("Disconnected_NotWideAvoidant", "TheoremApplies_A"):
        _assert_separating(lab, g, obj["witness"]["splitting"])


@PROPERTY
@given(st.one_of(racg_label_matrices(max_n=8), label_matrices(max_n=7)))
def test_every_blocked_pair_splits_at_a_component_or_a_star(lab):
    """In a graph that is not wide, a maximal wide set blocking a pair has a
    disconnected complement or contains the star of an endpoint, so the
    blocking witness alone always yields the splitting."""
    g = graph_from_labels(lab)
    if is_wide(g):
        return
    for wm in subset_table(g).maximal_wide:
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if not O._path_avoiding(lab, s, t, wm):
                    pair = (g.vertices[s], g.vertices[t])
                    sp = _splitting_from_blocker(g, wm, pair)
                    _assert_separating(lab, g, sp.to_json_obj())


def test_blocking_check_survives_python_O():
    """The witness re-check is an explicit check, not an ``assert``, so a
    blocking set that separates nothing is still caught under -O."""
    import coxwide
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxwide.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = textwrap.dedent("""
        import sys
        from coxwide import parse_graph
        from coxwide.avoidance import AvoidanceReport
        from coxwide.classify import _verify_blocking
        g = parse_graph("v a; v b; v c; e a b 2; e b c 2")
        rep = AvoidanceReport(False, blocking_set=("b",), pair=("a", "b"))
        print("optimize", sys.flags.optimize)
        try:
            _verify_blocking(g, rep)
        except Exception as exc:
            print(type(exc).__name__, exc)
    """)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "optimize 1",
        "VerificationError stored blocking witness does not block its pair"]


def test_blocking_set_that_blocks_nothing_gives_no_splitting(c5, capsys,
                                                             monkeypatch):
    """On C5, {s1} leaves the path s2 s3 s4 s5 connected and holds neither
    star of the pair s2, s5, so no splitting comes from it: a library
    defect, reported as a failed verification (exit 3)."""
    message = "blocking set gives neither a component nor a star splitting"
    with pytest.raises(VerificationError, match=f"^{message}$"):
        _splitting_from_blocker(c5, c5.mask_of(["s1"]), ("s2", "s5"))
    monkeypatch.setattr(classify_module, "is_wide_avoidant",
                        lambda g, cap: AvoidanceReport(
                            False, blocking_set=("s1",), pair=("s2", "s5")))
    monkeypatch.setattr(classify_module, "_verify_blocking",
                        lambda g, report: None)
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "v s1; v s2; v s3; v s4; v s5\n"
        "e s1 s2 2; e s2 s3 2; e s3 s4 2; e s4 s5 2; e s5 s1 2"))
    assert main(["classify", "-"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("",
                                            f"verification failed: {message}\n")
