"""A standing fuzz of the ``cox`` command line.

Every subcommand runs in-process through ``cli.main`` on small random
graphs (at most 5 vertices, labels infinity, 2, 3, 4, 5 and 7), words of at
most 6 letters, and depths, radii, levels and k from -2 to 3.  Whatever the
input, ``main`` must return (or argparse must exit with) 0, 1 or 2, and no
other exception may escape.  A few bad inputs also run in a subprocess
under ``python -O``, where a stray ``assert`` would be skipped.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from coxwide.cli import main

from conftest import PROPERTY

LABELS = (None, 2, 3, 4, 5, 7)          # None: no edge, an infinite bond
SMALL = st.integers(-2, 3)
ORBIT = ["--orbit-cap", "2000"]
CHECKS = ("wide", "wide-avoidant", "wsa", "affine-free", "ends")
WORD_QUERIES = ("normalize", "geodesic", "ending-letters", "wide-tail",
                "extend")


@st.composite
def graph_texts(draw):
    """(vertex names, graph text) of a random graph on 1 to 5 vertices."""
    n = draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(n)]
    lines = ["; ".join(f"v {x}" for x in names)]
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.sampled_from(LABELS))
            if m is not None:
                lines.append(f"e {names[i]} {names[j]} {m}")
    return names, "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    """(graph text, argv with "G" standing for the graph file)."""
    names, text = draw(graph_texts())

    def word():
        return " ".join(draw(st.lists(st.sampled_from(names), max_size=6)))

    def num():
        return str(draw(SMALL))

    cmd = draw(st.sampled_from(("classify", "constants", "check", "word",
                                "ball", "pencil", "morse-window", "fan",
                                "filter", "mtf")))
    if cmd in ("classify", "constants"):
        argv = [cmd, "G"]
    elif cmd == "check":
        argv = [cmd, draw(st.sampled_from(CHECKS)), "G"]
    elif cmd == "word":
        what = draw(st.sampled_from(WORD_QUERIES))
        argv = [cmd, what, "G", "--word", word(), *ORBIT]
        if what == "extend" and draw(st.booleans()):
            argv += ["--target-len", num()]
    elif cmd == "ball":
        argv = [cmd, "G", "--radius", num(), *ORBIT]
    elif cmd == "pencil":
        argv = [cmd, "G", "--word", word(), *ORBIT]
    elif cmd == "morse-window":
        argv = [cmd, "G", "--word", word(), "-k", num(), *ORBIT]
    elif cmd == "fan":
        argv = [cmd, "G", "--base", word(), "-x", draw(st.sampled_from(names)),
                "-y", draw(st.sampled_from(names)), *ORBIT]
    elif cmd == "filter":
        argv = [cmd, "G", "--alpha", word(), "--beta", word(),
                "--depth", num(), "--seed", num(), *ORBIT]
    else:
        argv = [cmd, "G", "--alpha", word(), "--beta", word(), "-n", num(),
                "--depth", num(), *ORBIT]
        if draw(st.booleans()):
            argv += ["--ray-len", num()]
    argv += ["--format", draw(st.sampled_from(("json", "pretty", "dot")))]
    return text, argv


def run_main(argv) -> int:
    """Exit code of ``main(argv)``, an argparse exit included; output is
    discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(PROPERTY, max_examples=300)
@given(invocations())
def test_every_subcommand_exits_0_1_or_2(tmp_path_factory, inv):
    text, argv = inv
    path = tmp_path_factory.mktemp("fuzz") / "g.cox"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if a == "G" else a for a in argv]
    assert run_main(argv) in (0, 1, 2), argv


BAD_INPUTS = [
    (["ball", "G", "--radius", "-1"], "v a; v b; e a b 3"),
    (["filter", "G", "--alpha", "a", "--beta", "b", "--depth", "-2"],
     "v a; v b; v c; e a b 2; e b c 2"),
    (["mtf", "G", "--alpha", "a b", "--beta", "b a", "-n", "3"],
     "v a; v b; e a b 2"),
    (["pencil", "G", "--word", "a b a b a b"],
     "v a; v b; e a b 1000000000000"),
    (["morse-window", "G", "--word", "a zz", "-k", "1"], "v a; v b"),
    (["word", "extend", "G", "--word", "a", "--target-len", "-2"],
     "v a; v b"),
    (["classify", "G"], "v a; v b; e a b 1"),
]


def test_bad_inputs_exit_2_under_python_O(tmp_path):
    """Input errors are typed errors, not ``assert``s: under -O each bad
    input still exits 2 with an error line and no traceback."""
    import coxwide
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxwide.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for k, (argv, text) in enumerate(BAD_INPUTS):
        path = tmp_path / f"g{k}.cox"
        path.write_text(text + "\n", encoding="utf-8")
        argv = [str(path) if a == "G" else a for a in argv]
        out = subprocess.run([sys.executable, "-O", "-m", "coxwide.cli",
                              *argv], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 2, (argv, out.stderr)
        assert "Traceback" not in out.stderr, (argv, out.stderr)
        assert out.stderr.startswith(("input error", "resource cap exceeded")), \
            (argv, out.stderr)
