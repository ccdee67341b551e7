"""Start-up: what ``import coxwide`` and each ``cox`` subcommand load, and
the public names that the package resolves on first access.

``import coxwide`` loads the classification layer only; the word engine,
walls, fans and filters are imported when one of their names is first read
(or when a subcommand that needs them runs).  Module sets are read in fresh
interpreters, since this test process has loaded every module already.
"""

from __future__ import annotations

import ast
import importlib
import json
import pathlib
import textwrap

import pytest

import coxwide

from test_filter_itinerary import run_child

CLASSIFICATION_LAYER = ["avoidance", "classification", "classify", "errors",
                        "graphs"]
LATE_LAYERS = {"fans", "filters", "walls", "words"}

# Every public name and the module it has always been importable from.
HOME = {
    "avoidance": ("AvoidanceReport", "SpecialJoin", "WideDecomposition",
                  "enumerate_special_joins", "enumerate_wide_subgraphs",
                  "is_affine_free", "is_wide", "is_wide_avoidant",
                  "is_wide_spherical_avoidant", "wide_decomposition"),
    "classification": ("EndsVerdict", "GroupConstants", "IrreducibleVerdict",
                       "classify_irreducible", "compute_constants",
                       "ends_verdict", "is_spherical"),
    "classify": ("ClassificationVerdict", "Splitting", "classify"),
    "errors": ("ConstructionError", "GraphFormatError", "NonGeodesicError",
               "OrbitCapError", "SizeCapError", "VerificationError"),
    "fans": ("FanCheck", "FanDiagram", "build_fan", "check_fan"),
    "filters": ("FilterCheck", "FilterDiagram", "MultiTailFilter",
                "build_filter", "build_multitail_filter", "check_filter",
                "check_multitail_filter", "itinerary_cap"),
    "graphs": ("CoxeterGraph", "parse_graph"),
    "walls": ("CayleyBall", "MorseWindowReport", "Pencil", "build_ball",
              "find_pencil", "is_reflection", "morse_window_check",
              "order_of", "wall_separates", "walls_cross"),
    "words": ("GroupElement", "Reflection", "Word", "element",
              "ending_letters", "extend_geodesic", "extension_constant",
              "is_geodesic", "normalize", "parse_word", "reflection_of_edge",
              "tits_orbit", "wide_tail"),
}

LOADED = """
import json, sys
print(json.dumps(sorted(m[len("coxwide."):] for m in sys.modules
                        if m.startswith("coxwide."))))
"""

C5_TEXT = ("v s1; v s2; v s3; v s4; v s5\n"
           "e s1 s2 2; e s2 s3 2; e s3 s4 2; e s4 s5 2; e s5 s1 2\n")

C4_TEXT = ("v s1; v s2; v s3; v s4\n"
           "e s1 s2 2; e s2 s3 2; e s3 s4 2; e s4 s1 2\n")

G6_TEXT = ("v s1; v s2; v s3; v s4; v a; v b\n"
           "e s1 s2 2; e s2 s3 2; e s3 s4 2; e s4 s1 2\n"
           "e a s1 2; e a s2 2; e a s3 2\n"
           "e b s2 2; e b s3 2; e b s4 2\n")


# Standard modules no command may import: ``dataclasses`` imports
# ``inspect``, which imports ``ast``, ``dis`` and ``tokenize``, and no part
# of the package imports ``typing`` (its annotations are not evaluated).
# The checks run with ``-S``, since ``site`` can import ``typing`` through a
# ``.pth`` file.
UNUSED = ("dataclasses", "inspect", "typing")

UNUSED_LOADED = f"""
import json, sys
print(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))
"""


def cox_in_child(argv, *flags, before="", report=LOADED):
    """(exit code, stderr, the modules ``report`` prints) of ``cox argv``
    run through ``cli.main`` in a fresh interpreter; ``before`` runs first.
    By default ``report`` prints the coxwide submodules loaded."""
    lines = run_child(textwrap.dedent(before) + textwrap.dedent(f"""
    import contextlib, io, json
    from coxwide.cli import main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        code = main({argv!r})
    print(json.dumps([code, err.getvalue()]))
    """) + report, *flags)
    code, err = json.loads(lines[-2])
    return code, err, set(json.loads(lines[-1]))


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.cox"
    p.write_text(C5_TEXT, encoding="utf-8")
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    """The square, a wide graph, so ``check wide`` exits 0 on it."""
    p = tmp_path / "c4.cox"
    p.write_text(C4_TEXT, encoding="utf-8")
    return str(p)


def test_import_loads_the_classification_layer_only():
    assert json.loads(run_child("import coxwide" + LOADED)[-1]) \
        == CLASSIFICATION_LAYER


@pytest.mark.parametrize("argv", [
    ["classify", "G"], ["constants", "G"], ["check", "wide", "G"],
    ["check", "wide-avoidant", "G"], ["check", "wsa", "G"],
    ["check", "affine-free", "G"], ["check", "ends", "G"],
])
def test_subset_commands_load_no_word_engine(c5_file, argv):
    code, err, loaded = cox_in_child(
        [c5_file if a == "G" else a for a in argv])
    assert code in (0, 1) and err == "", err
    assert set(CLASSIFICATION_LAYER) <= loaded
    assert not loaded & LATE_LAYERS, loaded


def test_no_module_imports_dataclasses_or_typing():
    """Read from the source, so an import inside a function counts too."""
    found = []
    paths = sorted(pathlib.Path(coxwide.__file__).parent.glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] in ("dataclasses", "typing")]
    assert paths and found == []


def test_import_under_python_S_loads_no_dataclasses_inspect_or_typing():
    assert json.loads(run_child("import coxwide" + UNUSED_LOADED, "-S")[-1]) \
        == []


@pytest.mark.parametrize("argv", [
    ["classify", "G"], ["constants", "G"], ["check", "wsa", "G"],
    pytest.param(["check", "wide", "W"], id="check-wide"),
    pytest.param(["check", "ends", "G"], id="check-ends"),
    ["word", "normalize", "G", "--word", "s2 s1"],
    ["ball", "G", "--radius", "2"],
    ["pencil", "G", "--word", "s1 s3 s1"],
    ["morse-window", "G", "--word", "s1 s3 s1", "-k", "1"],
    ["fan", "G", "--base", "", "-x", "s1", "-y", "s2"],
    ["filter", "G", "--alpha", "s1 s2 s3 s1", "--beta", "s2 s1 s3 s1",
     "--depth", "1"],
    ["mtf", "G", "--alpha", "s1 s3 s1 s3", "--beta", "s2 s4 s2 s4",
     "-n", "1", "--depth", "1"],
], ids=lambda argv: argv[0])
def test_commands_under_python_S_load_no_dataclasses_inspect_or_typing(
        c5_file, c4_file, argv):
    files = {"G": c5_file, "W": c4_file}
    code, err, unused = cox_in_child([files.get(a, a) for a in argv], "-S",
                                     report=UNUSED_LOADED)
    assert code == 0 and err == "", err
    assert unused == set(), unused


def test_word_command_loads_no_walls_or_diagrams(c5_file):
    code, err, loaded = cox_in_child(
        ["word", "normalize", c5_file, "--word", "s2 s1"])
    assert code == 0 and err == "", err
    assert loaded & LATE_LAYERS == {"words"}


def test_witness_check_runs_under_python_O_without_the_word_engine(tmp_path):
    """The classify witness re-check is an explicit check, so a bad splitting
    still exits 3 under -O, and the run loads only the subset layer."""
    g6 = tmp_path / "g6.cox"
    g6.write_text(G6_TEXT, encoding="utf-8")
    code, err, loaded = cox_in_child(["classify", str(g6)], "-O", before="""
    import importlib, sys
    if not sys.flags.optimize:
        sys.exit("not running under -O")
    classify_mod = importlib.import_module("coxwide.classify")
    classify_mod._splitting_from_blocker = (
        lambda g, pi, pair: classify_mod.Splitting(
            ("s1",), ("s2",), (), "component"))
    """)
    assert code == 3
    assert err == "verification failed: splitting does not cover the graph\n"
    assert not loaded & LATE_LAYERS, loaded


# ---------------------------------------------------------------------------
# the public surface


def test_every_public_name_is_its_home_modules_object():
    """Read in a fresh interpreter, so each late name goes through the
    module ``__getattr__`` once, then is a plain global."""
    lines = run_child(f"""
    import importlib, json
    import coxwide
    home = {HOME!r}
    bad, uncached = [], []
    for module, names in home.items():
        mod = importlib.import_module("coxwide." + module)
        for name in names:
            if getattr(coxwide, name) is not getattr(mod, name):
                bad.append(name)
            if name not in vars(coxwide):
                uncached.append(name)
    print(json.dumps([bad, uncached]))
    """)
    assert json.loads(lines[-1]) == [[], []]
    assert sorted(coxwide.__all__) == sorted(n for names in HOME.values()
                                             for n in names)


def test_dir_lists_every_public_name_before_it_is_read():
    lines = run_child("""
    import coxwide
    print(sorted(set(coxwide.__all__) - set(dir(coxwide))),
          "normalize" in vars(coxwide))
    """)
    assert lines[-1] == "[] False"


def test_star_import_binds_every_public_name():
    lines = run_child("""
    import json
    ns = {}
    exec("from coxwide import *", ns)
    import coxwide
    print(json.dumps([n for n in coxwide.__all__
                      if ns.get(n) is not getattr(coxwide, n)]))
    """)
    assert json.loads(lines[-1]) == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coxwide.no_such_name


def test_classify_stays_the_function_after_its_submodule_is_imported():
    lines = run_child("""
    import importlib
    import coxwide
    module = importlib.import_module("coxwide.classify")
    print(coxwide.classify is module.classify, callable(coxwide.classify))
    """)
    assert lines[-1] == "True True"
    importlib.import_module("coxwide.classify")
    assert coxwide.classify is importlib.import_module(
        "coxwide.classify").classify
