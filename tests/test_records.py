"""The result records of the package (``errors.Record``).

The 22 types were frozen dataclasses; as slotted records they keep the
same construction, repr, equality, hash, immutability, pickling and
copying.  Each check here runs in this process and, with explicit checks
in place of ``assert``, in a fresh ``python -O`` interpreter.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import pickle

import pytest

from coxwide import (AvoidanceReport, CayleyBall, ClassificationVerdict,
                     EndsVerdict, FanCheck, FanDiagram, FilterCheck,
                     FilterDiagram, GroupConstants, GroupElement,
                     IrreducibleVerdict, MorseWindowReport, MultiTailFilter,
                     Pencil, Reflection, SpecialJoin, Splitting,
                     WideDecomposition, classify, parse_graph)
from coxwide.errors import Record
from coxwide.filters import FilterCell, FilterEdge, FilterFan, FilterVertex

from test_filter_itinerary import run_child

JOIN = SpecialJoin(("a",), ("b", "c"), ())
ELEMENT = GroupElement(("a",))
VERTEX = FilterVertex(("a",), 1, False, True)
VERTEX_TEXT = "FilterVertex(element=('a',), level=1, is_top=False, open=True)"
EDGE = FilterEdge(0, 1, "a", "I", False, "alpha")
EDGE_TEXT = ("FilterEdge(src=0, tgt=1, label='a', cls='I', top_left=False, "
             "boundary='alpha')")
CELL = FilterCell(0, (1, 2), (3, 4), (0, 1, 2, 3))
CELL_TEXT = "FilterCell(fan=0, lam=(1, 2), rho=(3, 4), cycle=(0, 1, 2, 3))"
FAN = FilterFan(1, 0, (), ("a", "b"), (0, 1), (0,), "short-tail")
FAN_TEXT = ("FilterFan(level=1, apex=0, base=(), labels=('a', 'b'), "
            "edge_ids=(0, 1), cell_ids=(0,), case='short-tail')")
FILTER = FilterDiagram(("a",), ("b",), 1, (VERTEX,), (EDGE,), (CELL,), (FAN,))
FILTER_TEXT = (f"FilterDiagram(alpha=('a',), beta=('b',), depth=1, "
               f"vertices=({VERTEX_TEXT},), edges=({EDGE_TEXT},), "
               f"cells=({CELL_TEXT},), fans=({FAN_TEXT},))")

# One record of each type, its fields in order, and its repr.
CASES = [
    (IrreducibleVerdict("FiniteType", "B3", 3, 9),
     {"kind": "FiniteType", "family": "B3", "rank": 3, "longest_length": 9},
     "IrreducibleVerdict(kind='FiniteType', family='B3', rank=3, "
     "longest_length=9)"),
    (GroupConstants(5, 2, 2),
     {"v_gamma": 5, "m_gamma": 2, "r_gamma": 2},
     "GroupConstants(v_gamma=5, m_gamma=2, r_gamma=2)"),
    (EndsVerdict("MultiEnded", ("s1",)),
     {"kind": "MultiEnded", "witness": ("s1",)},
     "EndsVerdict(kind='MultiEnded', witness=('s1',))"),
    (WideDecomposition(("a", "b"), ("c",), "TwoInfiniteFactors"),
     {"p": ("a", "b"), "q": ("c",), "kind": "TwoInfiniteFactors"},
     "WideDecomposition(p=('a', 'b'), q=('c',), kind='TwoInfiniteFactors')"),
    (JOIN,
     {"p": ("a",), "q": ("b", "c"), "k": ()},
     "SpecialJoin(p=('a',), q=('b', 'c'), k=())"),
    (AvoidanceReport(False, ("a", "b"), ("c", "d"), JOIN),
     {"holds": False, "blocking_set": ("a", "b"), "pair": ("c", "d"),
      "join": JOIN},
     "AvoidanceReport(holds=False, blocking_set=('a', 'b'), pair=('c', 'd'), "
     "join=SpecialJoin(p=('a',), q=('b', 'c'), k=()))"),
    (Splitting(("a", "b"), ("b", "c"), ("b",), "star"),
     {"gamma1": ("a", "b"), "gamma2": ("b", "c"), "delta": ("b",),
      "via": "star"},
     "Splitting(gamma1=('a', 'b'), gamma2=('b', 'c'), delta=('b',), "
     "via='star')"),
    (ClassificationVerdict("EmptyBoundary", False, GroupConstants(2, 3, 3),
                           EndsVerdict("FiniteGroup", None),
                           {"finite": True}, {"note": [1]}),
     {"case": "EmptyBoundary", "racg": False,
      "constants": GroupConstants(2, 3, 3),
      "ends": EndsVerdict("FiniteGroup", None),
      "hypotheses": {"finite": True}, "witness": {"note": [1]}},
     "ClassificationVerdict(case='EmptyBoundary', racg=False, "
     "constants=GroupConstants(v_gamma=2, m_gamma=3, r_gamma=3), "
     "ends=EndsVerdict(kind='FiniteGroup', witness=None), "
     "hypotheses={'finite': True}, witness={'note': [1]})"),
    (ELEMENT, {"word": ("a",)}, "GroupElement(word=('a',))"),
    (Reflection(ELEMENT, "a"),
     {"element": ELEMENT, "type_generator": "a"},
     "Reflection(element=GroupElement(word=('a',)), type_generator='a')"),
    (CayleyBall(1, ((), ("a",)), ((0, 1, "a"),)),
     {"radius": 1, "words": ((), ("a",)), "edges": ((0, 1, "a"),)},
     "CayleyBall(radius=1, words=((), ('a',)), edges=((0, 1, 'a'),))"),
    (Pencil((1, 3), (("a",), ("a", "b", "a")), (True, True)),
     {"positions": (1, 3), "reflections": (("a",), ("a", "b", "a")),
      "separates_endpoints": (True, True)},
     "Pencil(positions=(1, 3), reflections=(('a',), ('a', 'b', 'a')), "
     "separates_endpoints=(True, True))"),
    (MorseWindowReport(False, 2, (1, 3), ("a", "b"), True),
     {"passes": False, "k": 2, "window": (1, 3), "wide_subgraph": ("a", "b"),
      "within_proven_hypothesis": True},
     "MorseWindowReport(passes=False, k=2, window=(1, 3), "
     "wide_subgraph=('a', 'b'), within_proven_hypothesis=True)"),
    (FanDiagram(("c",), ("a", "b"), (4,), ("c",), None, "short-tail",
                ("d",)),
     {"base": ("c",), "labels": ("a", "b"), "cells": (4,), "tail": ("c",),
      "tail_delta": None, "case": "short-tail", "blocked": ("d",)},
     "FanDiagram(base=('c',), labels=('a', 'b'), cells=(4,), tail=('c',), "
     "tail_delta=None, case='short-tail', blocked=('d',))"),
    (FanCheck(False, ("bad cell",)),
     {"ok": False, "failures": ("bad cell",)},
     "FanCheck(ok=False, failures=('bad cell',))"),
    (VERTEX,
     {"element": ("a",), "level": 1, "is_top": False, "open": True},
     VERTEX_TEXT),
    (EDGE,
     {"src": 0, "tgt": 1, "label": "a", "cls": "I", "top_left": False,
      "boundary": "alpha"},
     EDGE_TEXT),
    (CELL, {"fan": 0, "lam": (1, 2), "rho": (3, 4), "cycle": (0, 1, 2, 3)},
     CELL_TEXT),
    (FAN,
     {"level": 1, "apex": 0, "base": (), "labels": ("a", "b"),
      "edge_ids": (0, 1), "cell_ids": (0,), "case": "short-tail"},
     FAN_TEXT),
    (FILTER,
     {"alpha": ("a",), "beta": ("b",), "depth": 1, "vertices": (VERTEX,),
      "edges": (EDGE,), "cells": (CELL,), "fans": (FAN,)},
     FILTER_TEXT),
    (FilterCheck(False, ("bad edge",), {"edges_checked": 3}),
     {"ok": False, "failures": ("bad edge",), "stats": {"edges_checked": 3}},
     "FilterCheck(ok=False, failures=('bad edge',), "
     "stats={'edges_checked': 3})"),
    (MultiTailFilter(("a",), ("b",), 1, ("a", "b"), ("fresh",),
                     (("a",), ("b",)), ((),), ((("a",), ("b",)),),
                     (FILTER,)),
     {"alpha": ("a",), "beta": ("b",), "n": 1, "sigma": ("a", "b"),
      "cases": ("fresh",), "rays": (("a",), ("b",)), "tails": ((),),
      "boundaries": ((("a",), ("b",)),), "filters": (FILTER,)},
     f"MultiTailFilter(alpha=('a',), beta=('b',), n=1, sigma=('a', 'b'), "
     f"cases=('fresh',), rays=(('a',), ('b',)), tails=((),), "
     f"boundaries=((('a',), ('b',)),), filters=({FILTER_TEXT},))"),
]
IDS = [type(rec).__name__ for rec, _, _ in CASES]
# records holding a dict, unhashable as their dataclasses were
UNHASHABLE = (ClassificationVerdict, FilterCheck)
HASHABLE = [case for case in CASES if not isinstance(case[0], UNHASHABLE)]
HASHABLE_IDS = [type(rec).__name__ for rec, _, _ in HASHABLE]

C5_TEXT = ("v s1; v s2; v s3; v s4; v s5; "
           "e s1 s2 2; e s2 s3 2; e s3 s4 2; e s4 s5 2; e s5 s1 2")
# not wide-avoidant: classify's witness holds a splitting
G6_TEXT = ("v s1; v s2; v s3; v s4; v a; v b; "
           "e s1 s2 2; e s2 s3 2; e s3 s4 2; e s4 s1 2; "
           "e a s1 2; e a s2 2; e a s3 2; e b s2 2; e b s3 2; e b s4 2")


def frozen_dataclass(rec: Record):
    """The frozen dataclass the record's type used to be, same name."""
    cls = dataclasses.make_dataclass(type(rec).__name__, rec.__slots__,
                                     frozen=True)
    cls.__qualname__ = type(rec).__qualname__
    return cls(*rec._values())


def test_every_result_type_is_a_record():
    assert len(IDS) == len(set(IDS)) == 22
    assert sorted(IDS) == sorted(cls.__name__
                                 for cls in Record.__subclasses__())
    for rec, _, _ in CASES:
        assert not dataclasses.is_dataclass(rec)
        assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("rec, fields, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(rec, fields, text):
    assert repr(rec) == str(rec) == text == repr(frozen_dataclass(rec))


def test_repr_of_a_verdict_inside_its_own_witness_stops_as_before():
    texts = []
    verdict = CASES[IDS.index("ClassificationVerdict")][0]
    for verdict in (verdict, frozen_dataclass(verdict)):
        verdict = copy.deepcopy(verdict)
        verdict.witness["self"] = verdict
        texts.append(repr(verdict))
    assert texts[0] == texts[1]
    assert texts[0].endswith("witness={'note': [1], 'self': ...})")


@pytest.mark.parametrize("rec, fields, text", CASES, ids=IDS)
def test_construction_by_position_and_keyword(rec, fields, text):
    cls = type(rec)
    assert {name: getattr(rec, name) for name in rec.__slots__} == fields
    assert list(rec.__slots__) == list(fields) == list(cls.__match_args__)
    signature = inspect.signature(cls)
    assert list(signature.parameters) == list(fields)
    assert {p.kind for p in signature.parameters.values()} \
        == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    by_keyword = cls(**fields)
    assert by_keyword == cls(*fields.values()) == rec
    assert repr(by_keyword) == text
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)


def test_avoidance_report_defaults_to_no_witness():
    rep = AvoidanceReport(True)
    assert (rep.blocking_set, rep.pair, rep.join) == (None, None, None)
    assert rep == AvoidanceReport(True, None, None, None) \
        == AvoidanceReport(holds=True)
    assert repr(rep) == ("AvoidanceReport(holds=True, blocking_set=None, "
                         "pair=None, join=None)")
    assert AvoidanceReport(False, pair=("a", "b")).blocking_set is None
    with pytest.raises(TypeError):
        AvoidanceReport()


def test_equality_is_per_class():
    wd = WideDecomposition(("a",), ("b", "c"), ())
    assert wd != JOIN and JOIN != wd
    assert wd._values() == JOIN._values()
    assert GroupConstants(1, 2, 3) != (1, 2, 3)
    assert EndsVerdict("OneEnded", None) != IrreducibleVerdict(
        "OneEnded", None, 0, None)
    assert GroupConstants(1, 2, 3) == GroupConstants(1, 2, 3)
    assert GroupConstants(1, 2, 3) != GroupConstants(1, 2, 4)
    assert not GroupConstants(1, 2, 3) != GroupConstants(1, 2, 3)


@pytest.mark.parametrize("rec, fields, text", HASHABLE, ids=HASHABLE_IDS)
def test_hash_is_the_hash_of_the_field_values(rec, fields, text):
    twin = type(rec)(*fields.values())
    assert twin is not rec
    assert hash(twin) == hash(rec) == hash(tuple(fields.values())) \
        == hash(frozen_dataclass(rec))
    assert len({rec, twin}) == 1


def test_a_verdict_holding_dicts_is_unhashable_as_before():
    for cls in UNHASHABLE:
        rec = CASES[IDS.index(cls.__name__)][0]
        for value in (rec, frozen_dataclass(rec)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


@pytest.mark.parametrize("rec, fields, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(rec, fields, text):
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError, match=f"assign to field '{name}'"):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError, match=f"delete field '{name}'"):
            delattr(rec, name)
    assert repr(rec) == text


@pytest.mark.parametrize("rec, fields, text", CASES, ids=IDS)
def test_pickle_copy_and_deepcopy_round_trip(rec, fields, text):
    copies = [pickle.loads(pickle.dumps(rec, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(rec), copy.deepcopy(rec)]
    for twin in copies:
        assert type(twin) is type(rec)
        assert twin == rec and repr(twin) == text
    assert copy.copy(rec) is not rec
    shallow, deep = copy.copy(rec), copy.deepcopy(rec)
    for name in fields:
        value = getattr(rec, name)
        if isinstance(value, dict):
            assert getattr(shallow, name) is value
            assert getattr(deep, name) is not value


def test_replace_builds_a_changed_copy():
    rec = CASES[0][0]
    changed = rec.__replace__(family="C3")
    assert changed == IrreducibleVerdict("FiniteType", "C3", 3, 9)
    assert rec.family == "B3"
    with pytest.raises(TypeError):
        rec.__replace__(no_such_field=1)


def test_match_binds_fields_by_position():
    match CASES[0][0]:
        case IrreducibleVerdict(kind, family, rank, length):
            assert (kind, family, rank, length) == ("FiniteType", "B3", 3, 9)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("text", [C5_TEXT, G6_TEXT], ids=["C5", "G6"])
def test_classify_verdicts_round_trip_with_the_same_json(text):
    verdict = classify(parse_graph(text))
    dumped = json.dumps(verdict.to_json_obj(), indent=2)
    for twin in (pickle.loads(pickle.dumps(verdict)), copy.deepcopy(verdict)):
        assert twin == verdict
        assert json.dumps(twin.to_json_obj(), indent=2) == dumped


def _scribble(obj):
    """Add a key to every dict and an item to every list inside ``obj``."""
    if isinstance(obj, dict):
        for value in list(obj.values()):
            _scribble(value)
        obj["scribbled"] = 1
    elif isinstance(obj, list):
        for value in obj:
            _scribble(value)
        obj.append("scribbled")


@pytest.mark.parametrize("text", [C5_TEXT, G6_TEXT], ids=["C5", "G6"])
def test_json_objects_share_no_container_with_their_record(text):
    verdict = classify(parse_graph(text))
    witness = copy.deepcopy(verdict.witness)
    dumped = json.dumps(verdict.to_json_obj(), indent=2)
    _scribble(verdict.to_json_obj())
    assert verdict.witness == witness
    assert json.dumps(verdict.to_json_obj(), indent=2) == dumped
    check = CASES[IDS.index("FilterCheck")][0]
    _scribble(check.to_json_obj())
    assert check.stats == {"edges_checked": 3}
    assert check.to_json_obj()["stats"] == {"edges_checked": 3}


# The checks above, in explicit form, for a ``python -O`` interpreter (where
# ``assert`` statements are compiled away).
UNDER_O = """
import copy, json, pickle, sys
from coxwide import (AvoidanceReport, GroupConstants, IrreducibleVerdict,
                     SpecialJoin, WideDecomposition, classify, parse_graph)
from coxwide.filters import FilterEdge
if not sys.flags.optimize:
    sys.exit("not running under -O")
failed = []
def check(ok, what):
    if not ok:
        failed.append(what)
join = SpecialJoin(("a",), ("b", "c"), ())
rec = AvoidanceReport(False, ("a", "b"), ("c", "d"), join)
check(repr(AvoidanceReport(True)) == "AvoidanceReport(holds=True, "
      "blocking_set=None, pair=None, join=None)", "repr")
check(WideDecomposition(("a",), ("b", "c"), ()) != join, "class equality")
check(hash(GroupConstants(5, 2, 2)) == hash((5, 2, 2)), "hash")
check(IrreducibleVerdict(kind="A", family=None, rank=1, longest_length=1)
      == IrreducibleVerdict("A", None, 1, 1), "keywords")
edge = FilterEdge(src=0, tgt=1, label="a", cls=None, top_left=False,
                  boundary=None)
check(edge == FilterEdge(0, 1, "a", None, False, None), "generated init")
check(edge.__replace__(label="b") == FilterEdge(0, 1, "b", None, False, None)
      and edge.label == "a", "replace")
for action in (lambda: setattr(rec, "holds", True),
               lambda: delattr(rec, "pair"),
               lambda: setattr(edge, "label", "b")):
    try:
        action()
        failed.append("mutation")
    except AttributeError:
        pass
for value in (rec, edge):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        check(twin == value and repr(twin) == repr(value), "round trip")
verdict = classify(parse_graph(%r))
check(copy.deepcopy(verdict).to_json_obj() == verdict.to_json_obj(),
      "verdict deepcopy")
print(json.dumps(failed))
""" % G6_TEXT


def test_record_checks_hold_under_python_O():
    assert json.loads(run_child(UNDER_O, "-O")[-1]) == []
