"""A built filter keeps its vertices and edges in columns: the views over
them against the plain tuples of records they stand for, and a spy that
no vertex or edge record is built on the way from ``build_filter``
through ``check_filter`` to the JSON."""

import copy
import pickle

import pytest

from coxwide import check_filter
from coxwide.filters import FilterEdge, FilterVertex

from conftest import replace
from test_filter_itinerary import DEPTHS, GRAPHS, real_filter


def plain(filt):
    """``filt`` with its vertices and edges as tuples of records."""
    return replace(filt, vertices=tuple(filt.vertices),
                   edges=tuple(filt.edges))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_columns_agree_with_tuples_of_records(name):
    for depth in DEPTHS:
        g, filt = real_filter(name, depth)
        copied = plain(filt)
        assert type(copied.vertices) is tuple and type(copied.edges) is tuple
        assert check_filter(g, filt) == check_filter(g, copied)
        obj = filt.to_json_obj()
        assert obj == copied.to_json_obj()
        assert obj["vertices"] == [v.to_json_obj() for v in filt.vertices]
        assert obj["edges"] == [e.to_json_obj() for e in filt.edges]
        assert filt.to_dot() == copied.to_dot()
        assert filt == copied and copied == filt
        assert hash(filt) == hash(copied)
        for back in (pickle.loads(pickle.dumps(filt)), copy.deepcopy(filt),
                     copy.copy(filt)):
            assert back == filt and hash(back) == hash(filt)
            assert type(back.edges) is type(filt.edges)
            assert back.to_json_obj() == filt.to_json_obj()


def test_views_behave_as_tuples():
    _, filt = real_filter("C5", 2)
    for view in (filt.vertices, filt.edges):
        rows = tuple(view)
        assert len(view) == len(rows) and list(view) == list(rows)
        assert view == rows and rows == view and not view != rows
        assert hash(view) == hash(rows)
        assert repr(view) == repr(rows)
        assert view[3] == rows[3] and view[-1] == rows[-1]
        assert view[2:7] == rows[2:7] and type(view[2:7]) is tuple
        assert view[::-3] == rows[::-3]
        assert view + rows[:2] == rows + rows[:2]
        assert rows[:2] + view == rows[:2] + rows
        assert view + view == rows + rows
        assert view.index(rows[5]) == rows.index(rows[5])
        assert view.count(rows[5]) == rows.count(rows[5])
        assert rows[4] in view
        assert view != rows[1:] and view != list(rows)
        with pytest.raises(IndexError):
            view[len(rows)]
        with pytest.raises(TypeError):
            view[0] = rows[0]
    assert filt.vertices != filt.edges


def test_a_hand_built_filter_with_no_rows():
    """A filter given empty tuples is zipped into empty columns."""
    _, filt = real_filter("C5", 1)
    empty = replace(filt, vertices=(), edges=(), cells=(), fans=())
    obj = empty.to_json_obj()
    assert obj["vertices"] == obj["edges"] == []
    assert empty.to_dot().count("->") == 0


def test_build_check_and_json_make_no_vertex_or_edge_record(monkeypatch):
    """On WSA16 at depth 4, building, checking and writing out a filter
    (as JSON and as dot) builds no ``FilterVertex`` or ``FilterEdge``;
    reading an item does."""
    made = []
    for kind in (FilterVertex, FilterEdge):
        def counting(self, *args, _init=kind.__init__, _kind=kind):
            made.append(_kind)
            _init(self, *args)
        monkeypatch.setattr(kind, "__init__", counting)
    g = GRAPHS["WSA16"]
    filt = real_filter.__wrapped__("WSA16", 4)[1]
    assert check_filter(g, filt).ok
    filt.to_json_obj()
    filt.to_dot()
    assert len(filt.vertices) == 886 and made == []
    filt.vertices[0], filt.edges[0]
    assert made == [FilterVertex, FilterEdge]
