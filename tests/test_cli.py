"""Command-line interface: subcommands, formats, and exit codes."""

import importlib
import io
import json

import pytest

from coxwide import walls
from coxwide.cli import main
from coxwide.filters import build_multitail_filter
from coxwide.walls import CayleyBall

from coxwide.graphs import parse_graph
from conftest import (make_aff_tri, make_c4, make_c5, make_g6, make_inf_pair,
                      make_o8)

C5_TEXT = "\n".join(
    ["v s1; v s2; v s3; v s4; v s5"]
    + [f"e s{i} s{i % 5 + 1} 2" for i in range(1, 6)])

C4_TEXT = "\n".join(
    ["v s1; v s2; v s3; v s4"]
    + [f"e s{i} s{i % 4 + 1} 2" for i in range(1, 5)])

G6_TEXT = ("v s1; v s2; v s3; v s4; v a; v b\n"
           "e s1 s2 2; e s2 s3 2; e s3 s4 2; e s4 s1 2\n"
           "e a s1 2; e a s2 2; e a s3 2\n"
           "e b s2 2; e b s3 2; e b s4 2")

AFF_TRI_TEXT = "v a; v b; v c; e a b 3; e b c 3; e a c 3"

INF_PAIR_TEXT = "v a; v b"

C5_BRAID_TEXT = C5_TEXT.replace("e s1 s2 2", "e s1 s2 3")


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.cox"
    p.write_text(C5_TEXT + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.cox"
    p.write_text(C4_TEXT + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def c5_braid_file(tmp_path):
    p = tmp_path / "c5_braid.cox"
    p.write_text(C5_BRAID_TEXT + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def g6_file(tmp_path):
    p = tmp_path / "g6.cox"
    p.write_text(G6_TEXT + "\n", encoding="utf-8")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# classify / constants


def test_classify_json(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["classify", c5_file])
    assert code == 0
    assert list(obj.keys()) == ["case", "racg", "constants", "ends",
                                "hypotheses", "witness"]
    assert obj["case"] == "Connected_LocallyConnected"
    assert obj["racg"] is True


def test_classify_pretty(capsys, c5_file):
    code, out, _ = run(capsys, ["classify", c5_file, "--format", "pretty"])
    assert code == 0
    assert out.startswith("case: Connected_LocallyConnected")
    assert "hypotheses:" in out


def test_classify_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(C4_TEXT))
    code, obj, _ = run_json(capsys, ["classify", "-"])
    assert code == 0
    assert obj["case"] == "EmptyBoundary_FiniteOrWide"


def test_constants(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["constants", c5_file])
    assert code == 0
    assert obj == {"V": 5, "M": 2, "R": 2}


# ---------------------------------------------------------------------------
# check


def test_check_wide_positive(capsys, c4_file):
    code, obj, _ = run_json(capsys, ["check", "wide", c4_file])
    assert code == 0
    assert obj["wide"] is True
    assert obj["decomposition"] is not None


def test_check_wide_negative(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["check", "wide", c5_file])
    assert code == 1
    assert obj == {"wide": False, "decomposition": None}


def test_check_wide_avoidant(capsys, c5_file, g6_file):
    code, obj, _ = run_json(capsys, ["check", "wide-avoidant", c5_file])
    assert code == 0 and obj["holds"] is True
    code, obj, _ = run_json(capsys, ["check", "wide-avoidant", g6_file])
    assert code == 1 and obj["holds"] is False
    assert len(obj["witness"]["pair"]) == 2
    assert obj["witness"]["blocking_set"]


def test_check_wsa(capsys, c5_file, c4_file):
    code, obj, _ = run_json(capsys, ["check", "wsa", c5_file])
    assert code == 0 and obj["holds"] is True
    code, obj, _ = run_json(capsys, ["check", "wsa", c4_file])
    assert code == 1 and obj["holds"] is False


def test_check_affine_free(capsys, c5_file, tmp_path):
    code, obj, _ = run_json(capsys, ["check", "affine-free", c5_file])
    assert code == 0 and obj == {"affine_free": True}
    p = tmp_path / "afftri.cox"
    p.write_text(AFF_TRI_TEXT, encoding="utf-8")
    code, obj, _ = run_json(capsys, ["check", "affine-free", str(p)])
    assert code == 1 and obj == {"affine_free": False}


def test_check_ends(capsys, c5_file, tmp_path):
    code, obj, _ = run_json(capsys, ["check", "ends", c5_file])
    assert code == 0
    assert obj["kind"] == "OneEnded"
    p = tmp_path / "pair.cox"
    p.write_text(INF_PAIR_TEXT, encoding="utf-8")
    code, obj, _ = run_json(capsys, ["check", "ends", str(p)])
    assert code == 0  # an ends verdict is informational, never negative
    assert obj["kind"] == "TwoEnded"


# ---------------------------------------------------------------------------
# word


def test_word_normalize(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["word", "normalize", c5_file,
                                     "--word", "s2 s1 s2"])
    assert code == 0
    assert obj == {"normal_form": ["s1"], "length": 1}


def test_word_geodesic(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["word", "geodesic", c5_file,
                                     "--word", "s1 s3 s1"])
    assert code == 0 and obj == {"geodesic": True}
    code, obj, _ = run_json(capsys, ["word", "geodesic", c5_file,
                                     "--word", "s1 s1"])
    assert code == 1 and obj == {"geodesic": False}


def test_word_ending_letters(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["word", "ending-letters", c5_file,
                                     "--word", "s1 s2"])
    assert code == 0
    assert obj == {"ending_letters": ["s1", "s2"]}


def test_word_wide_tail(capsys, c5_file, c4_file):
    code, obj, _ = run_json(capsys, ["word", "wide-tail", c5_file,
                                     "--word", "s1 s3"])
    assert code == 0
    assert obj == {"tail": [], "wide_subgraph": None}
    code, obj, _ = run_json(capsys, ["word", "wide-tail", c4_file,
                                     "--word", "s1 s3"])
    assert code == 0
    assert obj["tail"] == ["s1", "s3"]
    assert sorted(obj["wide_subgraph"]) == ["s1", "s2", "s3", "s4"]


def test_word_extend(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["word", "extend", c5_file,
                                     "--word", "s1", "--target-len", "6"])
    assert code == 0
    assert obj["word"] == ["s1", "s2", "s3", "s1", "s3", "s1"]


def test_word_extend_needs_target(capsys, c5_file):
    code, out, err = run(capsys, ["word", "extend", c5_file, "--word", "s1"])
    assert code == 2
    assert "target-len" in err


# ---------------------------------------------------------------------------
# ball / pencil / morse-window


def test_ball(capsys, c5_file, tmp_path):
    dot_file = tmp_path / "ball.dot"
    code, obj, _ = run_json(capsys, ["ball", c5_file, "--radius", "2",
                                     "--dot", str(dot_file)])
    assert code == 0
    assert list(obj.keys()) == ["radius", "elements", "edges"]
    assert len(obj["elements"]) == 21
    dot = dot_file.read_text(encoding="utf-8")
    assert dot.startswith("graph cayley_ball {")


def test_ball_dot_format(capsys, c5_file):
    code, out, _ = run(capsys, ["ball", c5_file, "--radius", "1",
                                "--format", "dot"])
    assert code == 0
    assert out.startswith("graph cayley_ball {")


def test_ball_dot_is_rendered_only_when_asked(capsys, c5_file, tmp_path,
                                              monkeypatch):
    rendered = []
    to_dot = CayleyBall.to_dot
    monkeypatch.setattr(CayleyBall, "to_dot",
                        lambda self: rendered.append(1) or to_dot(self))
    argv = ["ball", c5_file, "--radius", "2"]
    for fmt in ("json", "pretty"):
        assert run(capsys, argv + ["--format", fmt])[0] == 0
    assert rendered == []
    dot_file = tmp_path / "ball.dot"
    code, out, _ = run(capsys, argv + ["--format", "dot",
                                       "--dot", str(dot_file)])
    assert code == 0 and rendered == [1]
    assert dot_file.read_text(encoding="utf-8") == out


def test_pencil(capsys, c4_file):
    code, obj, _ = run_json(capsys, ["pencil", c4_file,
                                     "--word", "s1 s3 s1 s3"])
    assert code == 0
    assert obj["positions"] == [1, 2, 3, 4]


@pytest.fixture
def i2_file(tmp_path):
    """Path of a file holding the dihedral graph a - b with label m."""
    def write(m):
        p = tmp_path / f"i2_{m}.cox"
        p.write_text(f"v a; v b; e a b {m}\n", encoding="utf-8")
        return str(p)
    return write


def test_pencil_label_above_default_order_cap_exits_2(capsys, i2_file):
    """I2(100) is finite, so its walls all cross; the default cap of 64
    cannot see an order-100 product, so it refuses rather than answer."""
    code, out, err = run(capsys, ["pencil", i2_file(100),
                                  "--word", "a b a b a b"])
    assert code == 2 and out == ""
    assert "resource cap exceeded" in err
    assert "R = 100" in err and "--order-cap" in err


def test_pencil_explicit_order_cap_above_the_label(capsys, i2_file):
    code, obj, _ = run_json(capsys, ["pencil", i2_file(100), "--word",
                                     "a b a b a b", "--order-cap", "200"])
    assert code == 0 and obj["positions"] == [1]


def test_pencil_huge_label_exits_2_before_any_order_probe(
        capsys, monkeypatch, i2_file):
    def probe(*args):
        raise AssertionError("order probe ran")

    monkeypatch.setattr(walls, "_order", probe)
    code, _, err = run(capsys, ["pencil", i2_file(10 ** 12),
                                "--word", "a b a b a b"])
    assert code == 2 and f"R = {10 ** 12}" in err


def test_pencil_explicit_order_cap_keeps_its_meaning(capsys, tmp_path):
    p = tmp_path / "a3.cox"
    p.write_text("v a; v b; v c; e a b 3; e b c 3; e a c 2\n",
                 encoding="utf-8")
    code, obj, _ = run_json(capsys, ["pencil", str(p), "--word", "a b a",
                                     "--order-cap", "1"])
    assert code == 0 and obj["positions"] == [1, 2, 3]
    code, obj, _ = run_json(capsys, ["pencil", str(p), "--word", "a b a"])
    assert code == 0 and obj["positions"] == [1]


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_pencil_order_cap_below_1_is_input_error(capsys, tmp_path, cap):
    """A cap below 1 is an input error: at cap 0 every wall would read as
    parallel to every other."""
    p = tmp_path / "a3.cox"
    p.write_text("v a; v b; v c; e a b 3; e b c 3; e a c 2\n",
                 encoding="utf-8")
    code, out, err = run(capsys, ["pencil", str(p), "--word", "a b a",
                                  "--order-cap", cap])
    assert code == 2 and out == ""
    assert err == f"input error: --order-cap must be at least 1, got {cap}\n"


def test_morse_window(capsys, c4_file, c5_file):
    code, obj, _ = run_json(capsys, ["morse-window", c4_file,
                                     "--word", "s1 s3 s1 s3", "-k", "2"])
    assert code == 1
    assert obj["passes"] is False
    assert obj["window"] == [1, 3]
    code, obj, _ = run_json(capsys, ["morse-window", c5_file,
                                     "--word", "s1 s3 s1", "-k", "1"])
    assert code == 0
    assert obj["passes"] is True


# ---------------------------------------------------------------------------
# fan / filter / mtf


def test_fan(capsys, c5_file):
    code, obj, _ = run_json(capsys, ["fan", c5_file, "--base", "",
                                     "-x", "s1", "-y", "s2"])
    assert code == 0
    assert obj["labels"] == ["s1", "s2", "s1", "s2"]
    assert obj["check"]["ok"] is True


O8_TEXT = "\n".join(
    ["v s1; v s2; v s3; v s4; v t1; v t2; v t3; v t4"]
    + [f"e s{i} s{i % 4 + 1} 2; e t{i} t{i % 4 + 1} 2; "
       f"e t{i} s{i} 2; e t{i} s{i % 4 + 1} 2" for i in range(1, 5)])


def test_fan_wide_tail_json(capsys, tmp_path):
    """O8 (``conftest.make_o8``) with the base inside the wide inner square:
    the fan takes the detour s2, t1, s1, and its JSON holds the wide set
    of the tail as a list."""
    assert parse_graph(O8_TEXT) == make_o8()
    o8_file = tmp_path / "o8.cox"
    o8_file.write_text(O8_TEXT + "\n", encoding="utf-8")
    code, obj, err = run_json(capsys, ["fan", str(o8_file), "--base",
                                       "s1 s2 s3 s4", "-x", "s2", "-y", "s1"])
    assert (code, err) == (0, "")
    assert obj == {"base": "s1 s2 s3 s4", "labels": ["s2", "t1", "s1"],
                   "cells": [4, 4], "tail": "s1 s2 s3 s4",
                   "tail_delta": ["s1", "s2", "s3", "s4"],
                   "case": "wide-tail", "blocked": ["s1", "s2", "s3", "s4"],
                   "check": {"ok": True, "failures": []}}


def test_fan_blocked(capsys, g6_file):
    code, out, err = run(capsys, ["fan", g6_file, "--base", "s1 s3 s2 s4",
                                  "-x", "a", "-y", "b"])
    assert code == 1
    assert "construction impossible" in err


def test_filter(capsys, c5_file, tmp_path):
    dot_file = tmp_path / "filt.dot"
    code, obj, _ = run_json(capsys, [
        "filter", c5_file, "--alpha", "s1 s2 s3 s1 s3 s1",
        "--beta", "s2 s1 s3 s1 s3 s1", "--depth", "2",
        "--dot", str(dot_file)])
    assert code == 0
    assert list(obj.keys()) == ["alpha", "beta", "depth", "vertices",
                                "edges", "cells", "fans", "check"]
    assert len(obj["vertices"]) == 30
    assert obj["check"]["ok"] is True
    assert dot_file.read_text(encoding="utf-8").startswith("digraph")


def test_mtf(capsys, c5_file):
    code, obj, _ = run_json(capsys, [
        "mtf", c5_file, "--alpha", "s1 s3 s1 s3 s1 s3 s1 s3",
        "--beta", "s2 s4 s2 s4 s2 s4 s2 s4", "-n", "1", "--depth", "1"])
    assert code == 0
    assert list(obj.keys()) == ["alpha", "beta", "n", "sigma", "cases",
                                "rays", "tails", "boundaries", "filters",
                                "check"]
    assert obj["sigma"] == "s1 s2"
    assert len(obj["filters"]) == 2
    assert obj["check"]["ok"] is True


# ---------------------------------------------------------------------------
# output plumbing and error exits


def test_out_file_writes_json_and_prints_pretty(capsys, c5_file, tmp_path):
    out_file = tmp_path / "verdict.json"
    code, out, _ = run(capsys, ["classify", c5_file, "--out", str(out_file)])
    assert code == 0
    saved = json.loads(out_file.read_text(encoding="utf-8"))
    assert saved["case"] == "Connected_LocallyConnected"
    assert out.startswith("case: Connected_LocallyConnected")


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["classify", str(tmp_path / "no-such.cox")])
    assert code == 2
    assert "io error" in err


def test_malformed_graph_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.cox"
    p.write_text("v a\nq nonsense\n", encoding="utf-8")
    code, _, err = run(capsys, ["classify", str(p)])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("text", [
    '{"vertices": ["a", "b"], "edges": [[["a"], "b", 2]]}',
    '{"vertices": ["a", "b"], "edges": [[{"x": 1}, "b", 2]]}',
    '{"vertices": ["a", "b"], "edges": [["a", 1, 2]]}',
    '{"vertices": ["a", "b"], "edges": 5}',
    '{"vertices": ["a", "b"], "edges": {"a": "b"}}',
])
def test_malformed_json_graph_exits_2(capsys, tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["classify", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_failed_witness_check_exits_3(capsys, monkeypatch, g6_file):
    classify_mod = importlib.import_module("coxwide.classify")
    monkeypatch.setattr(classify_mod, "_splitting_from_blocker",
                        lambda g, pi, pair: classify_mod.Splitting(
                            ("s1",), ("s2",), (), "component"))
    code, out, err = run(capsys, ["classify", g6_file])
    assert code == 3 and out == ""
    assert err == "verification failed: splitting does not cover the graph\n"


def test_unknown_generator_exits_2(capsys, c5_file):
    code, _, err = run(capsys, ["word", "normalize", c5_file, "--word", "zz"])
    assert code == 2
    assert "input error" in err


def test_non_geodesic_fan_base_exits_2(capsys, c5_file):
    code, _, err = run(capsys, ["fan", c5_file, "--base", "s1 s1",
                                "-x", "s2", "-y", "s3"])
    assert code == 2
    assert "input error" in err


def test_negative_radius_exits_2(capsys, c5_file):
    code, _, err = run(capsys, ["ball", c5_file, "--radius", "-1"])
    assert code == 2
    assert "input error" in err


def test_mtf_level_out_of_range_exits_2(capsys, c4_file):
    code, _, err = run(capsys, ["mtf", c4_file, "--alpha", "s1 s3",
                                "--beta", "s2 s4", "-n", "9"])
    assert code == 2
    assert "input error" in err


def test_orbit_cap_exits_2(capsys, c5_braid_file):
    # s3 s4 has a two-member braid orbit on this general-label graph
    for what in ("normalize", "geodesic", "ending-letters", "wide-tail",
                 "extend"):
        code, _, err = run(capsys, ["word", what, c5_braid_file, "--word",
                                    "s3 s4", "--target-len", "4",
                                    "--orbit-cap", "1"])
        assert code == 2, what
        assert "resource cap exceeded" in err, what


def test_right_angled_word_ignores_orbit_cap(capsys, c5_file):
    code, out, _ = run_json(capsys, ["word", "normalize", c5_file,
                                     "--word", "s2 s1", "--orbit-cap", "1"])
    assert code == 0 and out["normal_form"] == ["s1", "s2"]


def test_dot_format_unavailable_exits_2(capsys, c5_file):
    code, _, err = run(capsys, ["classify", c5_file, "--format", "dot"])
    assert code == 2
    assert "input error" in err


def test_bad_subcommand_is_usage_error(capsys, c5_file):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", c5_file])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["fan", "G", "--base", "", "-x", "s1", "-y", "s2", "--cap", "1"],
    ["fan", "G", "--base", "", "-x", "s1", "-y", "s2", "--order-cap", "7"],
    ["fan", "G", "--base", "", "-x", "s1", "-y", "s2", "--seed", "9"],
    ["classify", "G", "--orbit-cap", "5"],
    ["word", "normalize", "G", "--word", "s1", "--cap", "3"],
    ["mtf", "G", "--alpha", "s1", "--beta", "s3", "-n", "1", "--seed", "1"],
])
def test_flag_of_another_subcommand_is_usage_error(capsys, c5_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([c5_file if a == "G" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_cox_cap_is_input_error(capsys, monkeypatch, c5_file):
    monkeypatch.setenv("COX_CAP", "abc")
    code, _, err = run(capsys, ["classify", c5_file])
    assert code == 2
    assert "input error" in err and "COX_CAP" in err


def test_cox_cap_sets_default_cap(capsys, monkeypatch, c5_file):
    monkeypatch.setenv("COX_CAP", "4")
    code, _, err = run(capsys, ["classify", c5_file])
    assert code == 2
    assert "resource cap exceeded" in err
    code, out, _ = run_json(capsys, ["constants", c5_file, "--cap", "5"])
    assert code == 0 and out["V"] == 5


@pytest.mark.parametrize("argv", [
    ["classify", "G", "--cap", "-1"],
    ["constants", "G", "--cap", "-5"],
    ["check", "ends", "G", "--cap", "-1"],
])
def test_negative_cap_is_input_error(capsys, c5_file, argv):
    code, out, err = run(capsys, [c5_file if a == "G" else a for a in argv])
    assert code == 2 and out == ""
    assert err == f"input error: --cap must be at least 0, got {argv[-1]}\n"


def test_negative_cox_cap_is_input_error(capsys, monkeypatch, c5_file):
    monkeypatch.setenv("COX_CAP", "-1")
    code, out, err = run(capsys, ["classify", c5_file])
    assert code == 2 and out == ""
    assert err == "input error: COX_CAP must be at least 0, got -1\n"


_CAPPED = "resource cap exceeded: graph has 21 vertices, {} cap is 20\n"


@pytest.mark.parametrize("argv, code, err", [
    (["classify", "G"], 2, _CAPPED.format("constants")),
    (["constants", "G"], 2, _CAPPED.format("constants")),
    (["filter", "G", "--alpha", "v0", "--beta", "v1"], 2,
     _CAPPED.format("constants")),
    (["check", "ends", "G"], 2, _CAPPED.format("ends")),
    (["check", "wide-avoidant", "G"], 2, _CAPPED.format("enumeration")),
    (["check", "wsa", "G"], 2, _CAPPED.format("enumeration")),
    (["check", "affine-free", "G"], 2, _CAPPED.format("enumeration")),
    (["word", "wide-tail", "G", "--word", "v0"], 2,
     _CAPPED.format("enumeration")),
    (["word", "extend", "G", "--word", "v0", "--target-len", "2"], 2,
     _CAPPED.format("enumeration")),
    (["morse-window", "G", "--word", "v0 v1", "-k", "1"], 2,
     _CAPPED.format("enumeration")),
    (["fan", "G", "--base", "v0", "-x", "v1", "-y", "v1"], 2,
     _CAPPED.format("enumeration")),
    (["ball", "G", "--radius", "1"], 0, ""),
    (["pencil", "G", "--word", "v0 v1"], 0, ""),
    (["check", "wide", "G"], 1, ""),
    (["classify", "G", "--cap", "21"], 0, ""),
    (["check", "ends", "G", "--cap", "21"], 0, ""),
    (["check", "wsa", "G", "--cap", "21"], 0, ""),
])
def test_subset_cap_on_21_vertices(capsys, monkeypatch, tmp_path, argv, code,
                                   err):
    """A path of 21 vertices labelled 3: each command that reads the subset
    table exits 2 naming its layer's cap of 20, unless ``--cap 21`` lifts
    it; the commands that read no table answer."""
    monkeypatch.delenv("COX_CAP", raising=False)
    p = tmp_path / "path21.cox"
    p.write_text("\n".join([f"v v{i}" for i in range(21)]
                           + [f"e v{i} v{i + 1} 3" for i in range(20)]) + "\n",
                 encoding="utf-8")
    got_code, out, got_err = run(capsys, [str(p) if a == "G" else a
                                          for a in argv])
    assert (got_code, got_err) == (code, err)
    assert (out == "") == (code == 2)


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["word", "normalize", "G", "--word", "s2 s1"],
    ["ball", "G", "--radius", "1"],
    ["mtf", "G", "--alpha", "s1 s3", "--beta", "s2 s4", "-n", "1"],
])
def test_orbit_cap_below_1_is_input_error(capsys, c5_file, argv, cap):
    code, out, err = run(capsys, [c5_file if a == "G" else a for a in argv]
                         + ["--orbit-cap", cap])
    assert code == 2 and out == ""
    assert err == f"input error: --orbit-cap must be at least 1, got {cap}\n"


def test_negative_ray_len_is_input_error(capsys, c5_file):
    with pytest.raises(ValueError, match="ray_len must be at least 0, got -2"):
        build_multitail_filter(make_c5(), ("s1", "s3"), ("s2", "s4"), 1,
                               ray_len=-2)
    code, out, err = run(capsys, ["mtf", c5_file, "--alpha", "s1 s3",
                                  "--beta", "s2 s4", "-n", "1",
                                  "--ray-len", "-2"])
    assert code == 2 and out == ""
    assert err == "input error: ray_len must be at least 0, got -2\n"


@pytest.mark.parametrize("text,message", [
    ("v", "line 1: bad vertex statement 'v'"),
    ("v a b", "line 1: bad vertex statement 'v a b'"),
    ("v a; v b\ne a b", "line 2: bad edge statement 'e a b'"),
    ('{"vertices": }',
     "bad JSON graph: Expecting value: line 1 column 14 (char 13)"),
    ('{"vertices": ["a", 1]}', "'vertices' must be a list of strings"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b"]]}',
     "bad edge entry ['a', 'b']"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b", "3"]]}',
     "edge label '3' is not an integer"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b", 3.0]]}',
     "edge label 3.0 is not an integer"),
])
def test_graph_text_errors_exit_2_with_their_message(capsys, monkeypatch,
                                                     text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, ["classify", "-"])
    assert (code, out, err) == (2, "", f"input error: {message}\n")
