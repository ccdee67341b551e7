"""Wide-spherical-avoidance from the core blocked sets, and the maximal wide
sets from closed commuting sets, against the paths they replaced.

``is_wide_spherical_avoidant`` tests only the blocked sets P | Cm(P) | K of
the cores (P, Cm(P)), and walks the joins only to name the witness of a
failure.  Its whole report is compared with the former all-joins decider
(``scan_oracle.wide_spherical_avoidant_all_joins``), with the pair-by-pair
decider and, up to 7 vertices, with the brute-force verdict of
``oracles``.  The small sweep draws a fixed number of graphs per vertex
count from a fixed seed and keeps every one; its commuting-heavy graphs
hold affine sets, so some of them fail with an affine P in the witness.

The witness walk, which visits only the wide sets grown from the cores
that separate the least pair, is compared report for report with the
former walk over the whole list of wide sets
(``scan_oracle.wide_spherical_avoidant_list_walk``) on a second seeded
sweep: right-angled, general and commuting-heavy graphs of 3 to 9
vertices, and two families on which wide-spherical-avoidance mostly
fails, right-angled graphs of 16 to 20 vertices and commuting-heavy ones
of 10 to 14.  Every graph drawn is kept, whatever its verdict.

The guards check what ``classify`` no longer pays for: it never grows the
irreducible sets P for the maximal wide sets, and the subset table keeps
no list of wide sets.
"""

from __future__ import annotations

import random
import sys

import pytest

import coxwide
import oracles as O
import scan_oracle as S
from conftest import graph_from_labels, random_label_matrix, random_racg_matrix
from coxwide.avoidance import is_wide_spherical_avoidant
from coxwide.classification import SubsetTable, irreducible_kind, subset_table
from coxwide.classify import classify

SMALL_SIZES = range(4, 8)
SMALL_PER_SIZE = 6
SMALL_SEED = 20261021
COMMUTING_HEAVY = (0, 2, 2, 2, 3, 4, 6)   # dense general graphs, affine sets


def _small_sweep():
    """(name, label matrix): per vertex count, ``SMALL_PER_SIZE`` graphs of
    each kind: right-angled, general labels 2-5 and infinity, and general
    labels weighted towards commuting pairs."""
    rng = random.Random(SMALL_SEED)
    out = []
    for n in SMALL_SIZES:
        for k in range(SMALL_PER_SIZE):
            out.append((f"ra{n}-{k}", random_racg_matrix(rng, n)))
            out.append((f"gen{n}-{k}", random_label_matrix(rng, n)))
            out.append((f"dense{n}-{k}",
                        random_label_matrix(rng, n, COMMUTING_HEAVY)))
    return out


SMALL = _small_sweep()


@pytest.mark.parametrize("labels", [lab for _, lab in SMALL],
                         ids=[name for name, _ in SMALL])
def test_small_sweep_matches_all_joins_pairs_and_brute_force(labels):
    g = graph_from_labels(labels)
    report = is_wide_spherical_avoidant(g).to_json_obj()
    assert report == S.wide_spherical_avoidant_all_joins(
        graph_from_labels(labels)).to_json_obj()
    assert report == S.wide_spherical_avoidant_by_pairs(g).to_json_obj()
    assert report["holds"] == O.brute_is_wide_spherical_avoidant(labels)[0]
    assert subset_table(g).maximal_wide == S.maximal_of_wide(S.wide_masks_dp(g))
    if g.is_racg():
        # see test_classify_sweep.test_right_angled_tables_hold_no_affine_set
        assert subset_table(g).affine == frozenset()


def test_small_sweep_fails_with_affine_joins():
    """The sweep reaches the witness path through an affine P: a failing
    report whose join has an irreducible affine P."""
    affine_witnesses = set()
    for name, labels in SMALL:
        g = graph_from_labels(labels)
        report = is_wide_spherical_avoidant(g)
        if not report.holds and \
                irreducible_kind(g, g.mask_of(report.join.p)) == "AffineType":
            affine_witnesses.add(name.rstrip("0123456789-"))
    assert {"gen", "dense"} <= affine_witnesses


def test_maximal_spherical_matches_the_former_filter():
    """Every ground of the small sweep's graphs, up to 6 vertices."""
    for _, labels in SMALL:
        if len(labels) > 6:
            continue
        g = graph_from_labels(labels)
        table = subset_table(g)
        for ground in range(1 << g.n):
            assert table.maximal_spherical(ground) == \
                S.maximal_spherical(table, ground)


WALK_SEED = 20261022
WALK_SMALL_SIZES = range(3, 10)
WALK_SMALL_PER_SIZE = 12
WALK_FAILING_SIZES = {"ra": range(16, 21), "dense": range(10, 15)}
WALK_FAILING_PER_SIZE = 8


def _walk_sweep() -> dict[str, list[tuple[str, list[list[int]]]]]:
    """Sweep name -> (graph name, label matrix), drawn in a fixed order from
    one seed: ``WALK_SMALL_PER_SIZE`` right-angled, general and
    commuting-heavy graphs per small vertex count, then
    ``WALK_FAILING_PER_SIZE`` per vertex count of each failing family."""
    rng = random.Random(WALK_SEED)
    out = {}
    for n in WALK_SMALL_SIZES:
        for k in range(WALK_SMALL_PER_SIZE):
            out.setdefault(f"ra{n}", []).append(
                (f"ra{n}-{k}", random_racg_matrix(rng, n)))
            out.setdefault(f"gen{n}", []).append(
                (f"gen{n}-{k}", random_label_matrix(rng, n)))
            out.setdefault(f"dense{n}", []).append(
                (f"dense{n}-{k}", random_label_matrix(rng, n, COMMUTING_HEAVY)))
    for kind, sizes in WALK_FAILING_SIZES.items():
        for n in sizes:
            out[f"failing-{kind}{n}"] = [
                (f"{kind}{n}-{k}",
                 random_racg_matrix(rng, n) if kind == "ra"
                 else random_label_matrix(rng, n, COMMUTING_HEAVY))
                for k in range(WALK_FAILING_PER_SIZE)]
    return out


WALK = _walk_sweep()


@pytest.mark.parametrize("sweep", list(WALK))
def test_witness_walk_matches_the_list_walk(sweep):
    for name, labels in WALK[sweep]:
        report = is_wide_spherical_avoidant(graph_from_labels(labels))
        assert report.to_json_obj() == S.wide_spherical_avoidant_list_walk(
            graph_from_labels(labels)).to_json_obj(), name


def test_walk_sweeps_reach_the_witness():
    """The sweeps exercise the walk: many of their graphs fail
    wide-spherical-avoidance, most of all in the failing families."""
    failed = dict.fromkeys(("small", "failing-ra", "failing-dense"), 0)
    for sweep, graphs in WALK.items():
        family = sweep.rstrip("0123456789") if "-" in sweep else "small"
        for _, labels in graphs:
            failed[family] += not is_wide_spherical_avoidant(
                graph_from_labels(labels)).holds
    assert failed["small"] >= 60
    assert failed["failing-ra"] >= 25 and failed["failing-dense"] >= 10


def _spy_on_cores(monkeypatch) -> list[str]:
    """Replace ``SubsetTable.cores`` by a spy that records the name of the
    function asking for the P-growth."""
    callers = []
    cores = SubsetTable.cores

    def spy(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return cores(self)

    monkeypatch.setattr(SubsetTable, "cores", spy)
    return callers


def test_classify_never_grows_p_for_the_maximal_wide_sets(monkeypatch):
    callers = _spy_on_cores(monkeypatch)
    asked = set()
    for _, labels in SMALL:
        before = len(callers)
        subset_table(graph_from_labels(labels)).maximal_wide
        assert len(callers) == before
        g = graph_from_labels(labels)
        classify(g)
        if g.is_racg():
            # right-angled classify reads only the maximal wide sets
            assert len(callers) == before
        asked.update(callers)
    assert "maximal_wide" not in asked
    # the spy sees the growth that wide-spherical-avoidance still runs
    assert asked == {"is_wide_spherical_avoidant"}


def test_general_classify_where_wsa_holds_builds_no_wide_list():
    """The subset table has no list of wide sets, and the package exports
    no enumerator of wide sets or special joins (their reference copies
    are in ``scan_oracle``); general-label ``classify`` reads the maximal
    wide sets where both avoidance conditions hold."""
    assert not hasattr(SubsetTable, "wide")
    assert not {"enumerate_wide_subgraphs", "enumerate_special_joins"} & \
        set(coxwide.__all__)
    holding = 0
    for _, labels in SMALL:
        g = graph_from_labels(labels)
        verdict = classify(g)
        if not verdict.racg and verdict.hypotheses["wide_avoidant"] and \
                verdict.hypotheses["wide_spherical_avoidant"]:
            holding += 1
            assert "maximal_wide" in subset_table(g).__dict__
    assert holding >= 10
