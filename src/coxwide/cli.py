"""Command-line front end.

Exit codes: 0 for success (and for positive check verdicts), 1 for negative
verdicts (a failed avoidance check, a non-geodesic word, a window violation,
an impossible construction), 2 for usage and input errors, 3 when a computed
witness fails its own re-check (a defect in the library, not in the input).

Each subcommand loads only the layers it uses.  ``classify``, ``constants``
and ``check`` run on the subset layer imported at the top of this module;
``word`` imports the word engine, ``ball``, ``pencil`` and ``morse-window``
import walls, and ``fan``, ``filter`` and ``mtf`` the diagram modules, in
``_run_word``, ``_run_walls`` and ``_run_diagrams``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from .avoidance import (is_affine_free, is_wide_avoidant,
                        is_wide_spherical_avoidant, wide_decomposition)
from .classification import DEFAULT_SUBSET_CAP, compute_constants, ends_verdict
from .classify import classify
from .errors import (DEFAULT_ORBIT_CAP, DEFAULT_ORDER_CAP, ConstructionError,
                     GraphFormatError, NonGeodesicError, OrbitCapError,
                     SizeCapError, VerificationError)
from .graphs import CoxeterGraph, parse_graph


def _load_graph(path: str) -> CoxeterGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(args, obj, pretty: str,
          dot: Callable[[], str] | None = None) -> None:
    """Print ``obj`` or ``pretty`` as ``--format`` asks.  ``dot`` renders
    the DOT text and is called only when ``--dot`` or ``--format dot`` asks
    for it."""
    dot_file = getattr(args, "dot_file", None)
    if dot_file or args.format == "dot":
        if dot is None:
            raise GraphFormatError(
                f"dot output is not defined for '{args.cmd}'")
        dot_text = dot()
    if dot_file:
        with open(dot_file, "w", encoding="utf-8") as fh:
            fh.write(dot_text + "\n")
    if args.format == "json":
        text = json.dumps(obj, indent=2, sort_keys=False)
    elif args.format == "dot":
        text = dot_text
    else:
        text = pretty
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(pretty)
    else:
        print(text)


def _add_common(p: argparse.ArgumentParser, cap: bool = False,
                orbit_cap: bool = False) -> None:
    p.add_argument("graph", help="graph file (text or JSON), '-' for stdin")
    if cap:
        p.add_argument("--cap", type=int,
                       help="vertex-count cap for subset enumeration "
                            f"(default: $COX_CAP, else {DEFAULT_SUBSET_CAP})")
    if orbit_cap:
        p.add_argument("--orbit-cap", type=int, default=DEFAULT_ORBIT_CAP,
                       help="braid-orbit size cap for the word engine")
    p.add_argument("--format", choices=("json", "pretty", "dot"),
                   default="json")
    p.add_argument("--out", help="write output to a file (a short report "
                                 "still goes to stdout)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cox",
        description="Coxeter-group wideness, word, wall, and diagram tools")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="Morse-boundary classification")
    _add_common(p, cap=True)

    p = sub.add_parser("constants", help="the window constants V, M, R")
    _add_common(p, cap=True)

    p = sub.add_parser("check", help="boolean graph conditions")
    p.add_argument("what", choices=("wide", "wide-avoidant", "wsa",
                                    "affine-free", "ends"))
    _add_common(p, cap=True)

    p = sub.add_parser("word", help="word engine queries")
    p.add_argument("what", choices=("normalize", "geodesic", "ending-letters",
                                    "wide-tail", "extend"))
    _add_common(p, orbit_cap=True)
    p.add_argument("--word", required=True, help="space-separated generators")
    p.add_argument("--target-len", type=int,
                   help="target length for 'extend'")

    p = sub.add_parser("ball", help="Cayley ball of a given radius")
    _add_common(p, orbit_cap=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--dot", dest="dot_file",
                   help="also write a DOT rendering to this file")

    p = sub.add_parser("pencil", help="maximum pairwise-non-crossing walls "
                                      "dual to a geodesic")
    _add_common(p, orbit_cap=True)
    p.add_argument("--word", required=True)
    p.add_argument("--order-cap", type=int, default=None,
                   help="element-order cap for wall crossing tests (default "
                        "the largest edge label; needed when an edge label "
                        f"exceeds {DEFAULT_ORDER_CAP})")

    p = sub.add_parser("morse-window", help="window criterion at constant k")
    _add_common(p, orbit_cap=True)
    p.add_argument("--word", required=True)
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("fan", help="build and verify a fan on a base word")
    _add_common(p, orbit_cap=True)
    p.add_argument("--base", required=True, help="base geodesic word")
    p.add_argument("-x", required=True, help="left fan letter")
    p.add_argument("-y", required=True, help="right fan letter")

    p = sub.add_parser("filter", help="build and verify a truncated filter")
    _add_common(p, orbit_cap=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled checks")
    p.add_argument("--dot", dest="dot_file",
                   help="also write a DOT rendering to this file")

    p = sub.add_parser("mtf", help="build and verify a multi-tail filter")
    _add_common(p, orbit_cap=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("-n", type=int, required=True, help="gluing level")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--ray-len", type=int)
    return ap


def _at_least(what: str, value: int, floor: int) -> int:
    """``value``, or an input error naming ``what`` when it is below
    ``floor``."""
    if value < floor:
        raise ValueError(f"{what} must be at least {floor}, got {value}")
    return value


def _env_cap() -> int:
    raw = os.environ.get("COX_CAP")
    if raw is None:
        return DEFAULT_SUBSET_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"COX_CAP must be an integer, got {raw!r}") from None
    return _at_least("COX_CAP", cap, 0)


def _run(args) -> int:
    if hasattr(args, "cap"):
        args.cap = (_env_cap() if args.cap is None
                    else _at_least("--cap", args.cap, 0))
    if hasattr(args, "orbit_cap"):
        _at_least("--orbit-cap", args.orbit_cap, 1)
    g = _load_graph(args.graph)

    if args.cmd == "classify":
        v = classify(g, args.cap)
        lines = [f"case: {v.case}", f"racg: {v.racg}",
                 f"ends: {v.ends.kind}",
                 "hypotheses: " + ", ".join(f"{k}={x}" for k, x
                                            in v.hypotheses.items()),
                 "witness: " + json.dumps(v.witness)]
        _emit(args, v.to_json_obj(), "\n".join(lines))
        return 0

    if args.cmd == "constants":
        c = compute_constants(g, args.cap)
        _emit(args, c.to_json_obj(),
              f"V = {c.v_gamma}\nM = {c.m_gamma}\nR = {c.r_gamma}")
        return 0

    if args.cmd == "check":
        if args.what == "wide":
            dec = wide_decomposition(g, g.vertices)
            ok = dec is not None
            obj = {"wide": ok,
                   "decomposition": None if dec is None else dec.to_json_obj()}
            _emit(args, obj, f"wide: {ok}"
                  + (f"  P={dec.p} Q={dec.q} ({dec.kind})" if ok else ""))
            return 0 if ok else 1
        if args.what == "wide-avoidant":
            rep = is_wide_avoidant(g, args.cap)
            _emit(args, rep.to_json_obj(),
                  f"wide-avoidant: {rep.holds}"
                  + ("" if rep.holds else
                     f"  blocked pair {rep.pair} by {rep.blocking_set}"))
            return 0 if rep.holds else 1
        if args.what == "wsa":
            rep = is_wide_spherical_avoidant(g, args.cap)
            _emit(args, rep.to_json_obj(),
                  f"wide-spherical-avoidant: {rep.holds}"
                  + ("" if rep.holds else
                     f"  blocked pair {rep.pair} by {rep.blocking_set}"))
            return 0 if rep.holds else 1
        if args.what == "affine-free":
            ok = is_affine_free(g, args.cap)
            _emit(args, {"affine_free": ok}, f"affine-free: {ok}")
            return 0 if ok else 1
        ev = ends_verdict(g, args.cap)
        _emit(args, ev.to_json_obj(),
              f"ends: {ev.kind}"
              + (f"  witness {ev.witness}" if ev.witness is not None else ""))
        return 0

    if args.cmd == "word":
        return _run_word(args, g)
    if args.cmd in ("ball", "pencil", "morse-window"):
        return _run_walls(args, g)
    if args.cmd in ("fan", "filter", "mtf"):
        return _run_diagrams(args, g)
    raise AssertionError(f"unhandled command {args.cmd}")


def _run_word(args, g: CoxeterGraph) -> int:
    """The ``word`` queries, on the word engine."""
    from .words import (ending_letters, extend_geodesic, is_geodesic,
                        normalize, parse_word, wide_tail)
    w = parse_word(g, args.word)
    if args.what == "normalize":
        nf = normalize(g, w, args.orbit_cap)
        _emit(args, {"normal_form": list(nf), "length": len(nf)},
              " ".join(nf) if nf else "(identity)")
        return 0
    if args.what == "geodesic":
        ok = is_geodesic(g, w, args.orbit_cap)
        _emit(args, {"geodesic": ok}, f"geodesic: {ok}")
        return 0 if ok else 1
    if args.what == "ending-letters":
        ends = sorted(ending_letters(g, w, args.orbit_cap))
        _emit(args, {"ending_letters": ends}, " ".join(ends) or "(none)")
        return 0
    if args.what == "wide-tail":
        tail, delta = wide_tail(g, w, args.orbit_cap)
        obj = {"tail": list(tail),
               "wide_subgraph": None if delta is None else list(delta)}
        _emit(args, obj,
              f"tail: {' '.join(tail) or '(empty)'}"
              + (f"  in wide subgraph {delta}" if delta else ""))
        return 0
    if args.target_len is None:
        raise GraphFormatError("'extend' needs --target-len")
    ext = extend_geodesic(g, w, args.target_len, args.orbit_cap)
    _emit(args, {"word": list(ext)}, " ".join(ext))
    return 0


def _run_walls(args, g: CoxeterGraph) -> int:
    """``ball``, ``pencil`` and ``morse-window``, on walls."""
    from .walls import build_ball, find_pencil, morse_window_check
    from .words import parse_word

    if args.cmd == "ball":
        ball = build_ball(g, args.radius, orbit_cap=args.orbit_cap)
        _emit(args, ball.to_json_obj(),
              f"radius {ball.radius}: {len(ball.words)} elements, "
              f"{len(ball.edges)} edges", dot=ball.to_dot)
        return 0

    if args.cmd == "pencil":
        w = parse_word(g, args.word)
        pen = find_pencil(g, w, args.order_cap, args.orbit_cap)
        _emit(args, pen.to_json_obj(),
              f"pencil positions: {pen.positions}  "
              f"separates endpoints: {pen.separates_endpoints}")
        return 0

    w = parse_word(g, args.word)
    rep = morse_window_check(g, w, args.k, args.orbit_cap)
    if rep.passes:
        _emit(args, rep.to_json_obj(),
              f"passes at k={args.k} "
              f"(within proven hypothesis: {rep.within_proven_hypothesis})")
        return 0
    _emit(args, rep.to_json_obj(),
          f"violation in window {rep.window}: label inside wide "
          f"subgraph {rep.wide_subgraph}")
    return 1


def _run_diagrams(args, g: CoxeterGraph) -> int:
    """``fan``, ``filter`` and ``mtf``, on the diagram modules."""
    from .fans import build_fan, check_fan
    from .filters import (build_filter, build_multitail_filter,
                          check_filter, check_multitail_filter)
    from .words import parse_word

    if args.cmd == "fan":
        base = parse_word(g, args.base)
        fan = build_fan(g, base, args.x, args.y, args.orbit_cap)
        chk = check_fan(g, fan, args.orbit_cap)
        pretty = (f"fan letters: {' '.join(fan.labels)}\n"
                  f"cells: {fan.cells}\ncase: {fan.case}\n"
                  f"blocked: {fan.blocked}\ncheck: {chk.ok}")
        obj = fan.to_json_obj()
        obj["check"] = chk.to_json_obj()
        _emit(args, obj, pretty)
        return 0 if chk.ok else 1

    if args.cmd == "filter":
        alpha, beta = parse_word(g, args.alpha), parse_word(g, args.beta)
        filt = build_filter(g, alpha, beta, args.depth, args.orbit_cap)
        chk = check_filter(g, filt, args.orbit_cap, seed=args.seed)
        pretty = (f"vertices: {len(filt.vertices)}  edges: {len(filt.edges)}"
                  f"  cells: {len(filt.cells)}  fans: {len(filt.fans)}\n"
                  f"check: {chk.ok}"
                  + ("" if chk.ok else "\n" + "\n".join(chk.failures[:10])))
        obj = filt.to_json_obj()
        obj["check"] = chk.to_json_obj()
        _emit(args, obj, pretty, dot=filt.to_dot)
        return 0 if chk.ok else 1

    alpha, beta = parse_word(g, args.alpha), parse_word(g, args.beta)
    mtf = build_multitail_filter(g, alpha, beta, args.n, args.depth,
                                 args.ray_len, args.orbit_cap)
    chk = check_multitail_filter(g, mtf, args.orbit_cap)
    pretty = (f"sigma: {' '.join(mtf.sigma) or '(empty)'}\n"
              f"cases: {' '.join(mtf.cases) or '(none)'}\n"
              f"filters: {len(mtf.filters)}\ncheck: {chk.ok}"
              + ("" if chk.ok else "\n" + "\n".join(chk.failures[:10])))
    obj = mtf.to_json_obj()
    obj["check"] = chk.to_json_obj()
    _emit(args, obj, pretty)
    return 0 if chk.ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _run(args)
    except ConstructionError as exc:
        print(f"construction impossible: {exc}"
              + (f" (blocking set: {sorted(exc.blocking_set)})"
                 if exc.blocking_set else ""), file=sys.stderr)
        return 1
    except (GraphFormatError, NonGeodesicError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (OrbitCapError, SizeCapError) as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
