"""Seeded inputs, operations and output checks of the coxwide benchmark.

A workload is an endless sequence of operations.  Its *schedule* (which
kind of operation, on which graph family, at which size) is the same for
every seed and repeats in rounds.  Each slot of the schedule has a fixed
set of ``VARIANTS`` concrete inputs (the random graph, the random geodesic,
the fan letters), drawn once from the slot's own generator.  These form the
workload's *universe*, and the output of every input in it is recorded in
``expected/``.  The seed picks the order in which each slot runs through
its variants, so every op of every seed is compared with a recorded output,
and runs of different seeds put the same load on the library.

Operation ``i`` renames every vertex with the prefix ``r<i>_``.  The
library keys its caches on the graph, names included, so each operation
starts as cold as a fresh ``cox`` process does, also when its input
repeats an earlier one.  Removing the prefix from an input or an output
gives its canonical form, which is what the recorded digests are keyed on.

Nothing here imports the library: the operations receive the package as
an argument, and the input generators and the independent checks are the
benchmark's own code.
"""

from __future__ import annotations

import hashlib
import json
import random

# ---------------------------------------------------------------------------
# fixed graph families, as (vertex names, edges (i, j, m)); a missing pair is
# an infinite bond


def _cycle(k):
    names = tuple(f"s{i + 1}" for i in range(k))
    return names, tuple((i, (i + 1) % k, 2) if i < (i + 1) % k
                        else ((i + 1) % k, i, 2) for i in range(k))


def _o8():
    names = ("s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4")
    edges = [(i, (i + 1) % 4) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    for i in range(4):
        edges += [(i, 4 + i), ((i + 1) % 4, 4 + i)]
    return names, tuple((min(a, b), max(a, b), 2) for a, b in edges)


def _wide8():
    names = ("s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4")
    edges = [(i, (i + 1) % 4) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    edges += [(i, 4 + j) for i in range(4) for j in range(4)]
    return names, tuple((min(a, b), max(a, b), 2) for a, b in edges)


def _labelled(n, edges):
    return tuple(f"v{i}" for i in range(n)), tuple(edges)


# The three wide-spherical-avoidant general-label graphs of the filter
# acceptance criterion (its seeds 12, 16 and 21), frozen here so that edits
# under tests/ cannot change the benchmark's inputs.
GRAPHS = {
    "C5": _cycle(5),
    "C6": _cycle(6),
    "O8": _o8(),
    "WIDE8": _wide8(),
    "WSA12": _labelled(6, [(0, 1, 3), (0, 2, 5), (0, 3, 3), (0, 4, 2),
                           (0, 5, 4), (1, 3, 3), (1, 4, 4), (1, 5, 3),
                           (2, 3, 4), (2, 4, 5), (2, 5, 2), (3, 4, 5),
                           (4, 5, 5)]),
    "WSA16": _labelled(6, [(0, 1, 4), (0, 2, 4), (0, 3, 3), (0, 4, 4),
                           (0, 5, 2), (1, 2, 4), (1, 4, 4), (1, 5, 3),
                           (2, 3, 2), (2, 4, 2), (3, 4, 3), (3, 5, 3),
                           (4, 5, 3)]),
    "WSA21": _labelled(5, [(0, 1, 4), (0, 2, 4), (0, 3, 3), (0, 4, 4),
                           (1, 2, 2), (1, 3, 4), (1, 4, 5), (2, 3, 2),
                           (2, 4, 5), (3, 4, 5)]),
}

LABEL_CHOICES = (0, 2, 3, 4, 5)   # 0 is the infinite bond


def render(spec, prefix: str) -> str:
    """Graph text in the ``cox`` input format, every name prefixed."""
    names, edges = spec
    lines = [f"v {prefix}{v}" for v in names]
    lines += [f"e {prefix}{names[i]} {prefix}{names[j]} {m}"
              for i, j, m in edges]
    return "\n".join(lines) + "\n"


def spell(spec, prefix: str, word) -> tuple[str, ...]:
    return tuple(prefix + spec[0][i] for i in word)


def commuting(spec) -> list[int]:
    """Bitmask per vertex of the vertices it commutes with (label 2)."""
    comm = [0] * len(spec[0])
    for i, j, m in spec[1]:
        if m == 2:
            comm[i] |= 1 << j
            comm[j] |= 1 << i
    return comm


def is_right_angled(spec) -> bool:
    return all(m == 2 for _, _, m in spec[1])


# ---------------------------------------------------------------------------
# right-angled word combinatorics, independent of the library's braid-orbit
# engine: in a right-angled group the reduced words of an element are the
# linear extensions of one heap, so cancellation and the lex-least spelling
# need only the commutation relation


def extends_reduced(comm, word, s) -> bool:
    """Whether ``word + (s,)`` stays reduced, for a reduced ``word``."""
    for x in reversed(word):
        if x == s:
            return False
        if not (comm[s] >> x) & 1:
            return True
    return True


def ra_normal_form(comm, word) -> tuple[int, ...]:
    """Lex-least reduced spelling, in vertex order, of ``word``'s element."""
    heap: list[int] = []
    for s in word:
        j = len(heap) - 1
        while j >= 0 and heap[j] != s and (comm[s] >> heap[j]) & 1:
            j -= 1
        if j >= 0 and heap[j] == s:
            del heap[j]
        else:
            heap.append(s)
    out = []
    while heap:
        best = None
        for k, x in enumerate(heap):
            if all((comm[x] >> y) & 1 for y in heap[:k]) and \
                    (best is None or x < heap[best]):
                best = k
        out.append(heap.pop(best))
    return tuple(out)


def ra_ending_letters(comm, word) -> frozenset[int]:
    """Right descents of a reduced word: letters whose last occurrence
    commutes with everything after it."""
    ends = set()
    for k, x in enumerate(word):
        if x not in word[k + 1:] and all((comm[x] >> y) & 1
                                         for y in word[k + 1:]):
            ends.add(x)
    return frozenset(ends)


def random_geodesic(rng, spec, length) -> tuple[int, ...]:
    comm = commuting(spec)
    n = len(spec[0])
    word: tuple[int, ...] = ()
    while len(word) < length:
        s = rng.randrange(n)
        if extends_reduced(comm, word, s):
            word += (s,)
    return word


def random_graph(rng, n, general) -> tuple:
    """Random labels on the pairs of n vertices, in fixed proportions: half
    the pairs commute (label 2) in a right-angled graph; each of 2, 3, 4, 5
    and infinity takes a fifth of the pairs in a general one.  Fixed
    proportions keep the cost of graphs of one size close together."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    choices = LABEL_CHOICES if general else (2, 0)
    labels = [choices[k % len(choices)] for k in range(len(pairs))]
    rng.shuffle(labels)
    return _labelled(n, [(i, j, m) for (i, j), m in zip(pairs, labels) if m])


# ---------------------------------------------------------------------------
# schedules: one round per list, every seed runs the same rounds


def _shuffled(slots, salt):
    slots = list(slots)
    random.Random(salt).shuffle(slots)
    return slots


# Each round is laid out so that p95, and where it can the median, falls
# inside a group of ops of nearly equal cost, not between two groups of different cost: a quantile at such a
# boundary jumps between runs.

# classify-sweep: the graphs of at most 7 vertices (24 of 38 ops, under
# 5 ms) hold the median, as in the tier-1 sweeps of the deciders and of
# classify; it falls inside the n = 7 group, where right-angled and general
# graphs cost about the same.  General labels at n = 12 (4 ops) hold p95;
# one n = 13 graph, right-angled and general in turn, sits above it.  Every
# size but 13 has both label kinds.
_CLASSIFY_BASE = ([("classify", n, general)
                   for n, count in ((5, 2), (6, 4), (7, 6))
                   for general in (False, True) for _ in range(count)]
                  + [("classify", n, general) for n in (8, 9, 10, 11)
                     for general in (False, True)]
                  + [("classify", 12, False)]
                  + [("classify", 12, True)] * 4)
CLASSIFY_ROUNDS = [_shuffled(_CLASSIFY_BASE + [("classify", 13, general)],
                             f"classify-sweep-{general}")
                   for general in (False, True)]

# word-ball: three C5 balls of radius 7 hold p95, below the one C6 ball of
# radius 6.  Normalizing a random geodesic costs roughly log-normally, and
# its mean grows about 1.8-fold per letter here.  The longest lengths keep
# the slowest of 1,500 samples under 0.4 s (O8 at 16 letters reached 1.4 s,
# C6 at 30 over 3 s).
_WORD_SLOTS = [("WIDE8", 8), ("WIDE8", 9), ("WIDE8", 10), ("O8", 12),
               ("O8", 13), ("O8", 14), ("C6", 20), ("C6", 22), ("C6", 24)]
WORD_ROUND = _shuffled(
    [("normalize", g, n) for g, n in _WORD_SLOTS]
    + [("ending_letters", g, n) for g, n in _WORD_SLOTS]
    + [("normalize_general", n, None) for n in (4, 5, 6) for _ in range(4)]
    + [("build_ball", g, r) for g, r in (("C5", 5), ("C5", 6), ("C6", 4),
                                         ("C6", 5), ("C6", 6))]
    + [("build_ball", "C5", 7)] * 3
    + [("find_pencil", g, n) for g, n in (("C5", 3), ("C6", 3), ("O8", 3),
                                          ("WIDE8", 4))],
    "word-ball")

# diagrams: multi-tail filters and depth-3 filters (10-20 ms) hold the
# median, above the six fans.  The depth-5 filters and C5's depth 6 (1/6 of
# the ops, 0.1-0.5 s) hold p95.  Depth 6 on a general-label graph costs
# 0.5-0.8 s; it comes once every third round (1.4% of the ops) so that it
# stays above p95.  Filter rays grow from the first two vertices, as in the
# filter acceptance criterion, so a filter's input differs between seeds
# only in its names: the vertex pair changes a filter's cost up to threefold,
# which would move the quantiles from seed to seed.
_WSA = ("WSA12", "WSA16", "WSA21")
_DIAGRAM_BASE = ([("filter", g, d) for g in ("C5",) + _WSA for d in (3, 4, 5)]
                 + [("filter", "C5", 6)]
                 + [("fan", g, n) for g in ("C5", "C6") for n in (4, 8, 12)]
                 + [("mtf", "C5", level) for level in (1, 2, 3, 4)])
DIAGRAM_ROUNDS = [
    _shuffled(_DIAGRAM_BASE
              + ([("filter", _WSA[r // 3], 6)] if r % 3 == 0 else []),
              f"diagrams-{r}")
    for r in range(9)]

SCHEDULES = {
    "classify-sweep": CLASSIFY_ROUNDS,
    "word-ball": [WORD_ROUND],
    "diagrams": DIAGRAM_ROUNDS,
}
WORKLOADS = tuple(SCHEDULES)

# multi-tail filters walk between the zig-zag rays (x1 x3)^4 and (x2 x4)^4 of
# C5, rotated by one of these offsets (the other two rotations make the rays
# at some level share their first edge, which no filter allows)
MTF_ROTATIONS = (0, 1, 3)
RAY_LEN = 8


def instance(slot, rng):
    """Concrete input of a slot: a prefix-free, JSON-able description."""
    kind, a, b = slot
    if kind == "classify":
        return {"kind": kind, "graph": random_graph(rng, a, b)}
    if kind in ("normalize", "ending_letters", "find_pencil"):
        spec = GRAPHS[a]
        return {"kind": kind, "graph": spec,
                "word": random_geodesic(rng, spec, b)}
    if kind == "normalize_general":
        spec = random_graph(rng, a, True)
        word = tuple(rng.randrange(a) for _ in range(rng.randint(10, 20)))
        return {"kind": "normalize", "graph": spec, "word": word}
    if kind == "build_ball":
        return {"kind": kind, "graph": GRAPHS[a], "radius": b}
    if kind == "filter":
        return {"kind": kind, "graph": GRAPHS[a], "depth": b}
    if kind == "fan":
        spec = GRAPHS[a]
        comm = commuting(spec)
        base = random_geodesic(rng, spec, b)
        ok = [s for s in range(len(spec[0]))
              if extends_reduced(comm, base, s)]
        return {"kind": kind, "graph": spec, "base": base,
                "letters": (rng.choice(ok), rng.choice(ok))}
    if kind == "mtf":
        return {"kind": kind, "graph": GRAPHS[a], "level": b,
                "rotation": rng.choice(MTF_ROTATIONS)}
    raise ValueError(f"unknown slot kind {kind!r}")


def input_key(inst) -> str:
    """Digest of the canonical input; keys the recorded output digests."""
    text = json.dumps(inst, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Concrete inputs per slot.  A slot that comes once a round runs through
# all of them in 16 rounds, so a run of 30 s sees most of the universe
# whatever its seed.
VARIANTS = 16

# A pool of this many rounds is generated in set-up; later ops cycle through
# it again under fresh names, so their caches are still cold.
POOL_ROUNDS = 48


def slot_instance(workload: str, slot, variant: int) -> dict:
    return instance(slot, random.Random(f"{workload}:{slot}:{variant}"))


def universe(workload: str) -> list[tuple[str, dict]]:
    """Every input any seed can draw, once each, as (key, instance) pairs."""
    slots = sorted({slot for rnd in SCHEDULES[workload] for slot in rnd},
                   key=repr)
    found = {}
    for slot in slots:
        for variant in range(VARIANTS):
            inst = slot_instance(workload, slot, variant)
            found.setdefault(input_key(inst), inst)
    return list(found.items())


def make_pool(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The op inputs of one seed, as (input key, instance) pairs.

    Each slot runs through its variants in an order drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = SCHEDULES[workload]
    orders: dict = {}
    made: dict = {}
    pool = []
    for r in range(POOL_ROUNDS):
        for slot in rounds[r % len(rounds)]:
            order = orders.setdefault(slot, [])
            if not order:
                order[:] = rng.sample(range(VARIANTS), VARIANTS)
            variant = order.pop()
            if (slot, variant) not in made:
                inst = slot_instance(workload, slot, variant)
                made[slot, variant] = (input_key(inst), inst)
            pool.append(made[slot, variant])
    return pool


def pool_fingerprint(workload: str, seed: int) -> str:
    keys = "".join(k for k, _ in make_pool(workload, seed))
    return hashlib.sha256(keys.encode()).hexdigest()


def output_digest(text: str, prefix: str) -> str:
    return hashlib.sha256(text.replace(prefix, "").encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# operations.  Each takes the bound library ``lib``, a tracer ``tr`` and the
# op prefix, builds its input as text and words, drives the library through
# the public functions ``cox`` uses, and returns the JSON text ``cox`` would
# print, the name prefix used in it, and a small payload for the checks.


def emit(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def _emit_with_check(built, chk) -> str:
    obj = built.to_json_obj()
    obj["check"] = chk.to_json_obj()
    return emit(obj)


CLASSIFY_LAYERS = (
    ("classification.compute_constants", "compute_constants"),
    ("classification.ends_verdict", "ends_verdict"),
    ("avoidance.is_wide", "is_wide"),
    ("avoidance.is_wide_avoidant", "is_wide_avoidant"),
    ("avoidance.is_wide_spherical_avoidant", "is_wide_spherical_avoidant"),
    ("avoidance.is_affine_free", "is_affine_free"),
)


def op_classify(lib, tr, prefix, inst):
    spec = inst["graph"]
    g = tr.call("graphs.parse_graph", lib.parse_graph, render(spec, prefix))
    if tr.enabled:
        # Replay classify's layers in its call order on this graph, then
        # time classify cold on a renamed copy: each layer sees the cache
        # state it has inside classify, and classify's own span, minus these
        # replayed children, is its residual.
        span = tr.reserve()
        for name, fn in CLASSIFY_LAYERS:
            tr.call(name, getattr(lib, fn), g, parent=span)
        prefix += "c_"
        g = tr.call("graphs.parse_graph", lib.parse_graph,
                    render(spec, prefix))
        verdict = tr.call("classify.classify", lib.classify, g, span_id=span)
        tr.count("classify.subsets", 1 << g.n)
    else:
        verdict = lib.classify(g)
    text = tr.call("emit.to_json", lambda: emit(verdict.to_json_obj()))
    return text, prefix, {"case": verdict.case, "racg": verdict.racg,
                          "hypotheses": dict(verdict.hypotheses)}


def op_normalize(lib, tr, prefix, inst):
    spec, word = inst["graph"], inst["word"]
    g = tr.call("graphs.parse_graph", lib.parse_graph, render(spec, prefix))
    nf = tr.call("words.normalize", lib.normalize, g,
                 spell(spec, prefix, word))
    tr.count("words.normalize.letters_in", len(word))
    tr.count("words.normalize.letters_out", len(nf))
    text = tr.call("emit.to_json", lambda: emit(
        {"normal_form": list(nf), "length": len(nf)}))
    return text, prefix, {"normal_form": [g.index(v) for v in nf]}


def op_ending_letters(lib, tr, prefix, inst):
    spec, word = inst["graph"], inst["word"]
    g = tr.call("graphs.parse_graph", lib.parse_graph, render(spec, prefix))
    ends = tr.call("words.ending_letters", lib.ending_letters, g,
                   spell(spec, prefix, word))
    text = tr.call("emit.to_json",
                   lambda: emit({"ending_letters": sorted(ends)}))
    return text, prefix, {"ending_letters": sorted(g.index(v) for v in ends)}


def op_build_ball(lib, tr, prefix, inst):
    g = tr.call("graphs.parse_graph", lib.parse_graph,
                render(inst["graph"], prefix))
    ball = tr.call("walls.build_ball", lib.build_ball, g, inst["radius"])
    tr.count("walls.build_ball.elements", len(ball.words))
    text = tr.call("emit.to_json", lambda: emit(ball.to_json_obj()))
    return text, prefix, {"elements": len(ball.words)}


def op_find_pencil(lib, tr, prefix, inst):
    spec = inst["graph"]
    g = tr.call("graphs.parse_graph", lib.parse_graph, render(spec, prefix))
    pen = tr.call("walls.find_pencil", lib.find_pencil, g,
                  spell(spec, prefix, inst["word"]))
    text = tr.call("emit.to_json", lambda: emit(pen.to_json_obj()))
    return text, prefix, {"separates": list(pen.separates_endpoints)}


def op_fan(lib, tr, prefix, inst):
    spec = inst["graph"]
    g = tr.call("graphs.parse_graph", lib.parse_graph, render(spec, prefix))
    s, t = spell(spec, prefix, inst["letters"])
    fan = tr.call("fans.build_fan", lib.build_fan, g,
                  spell(spec, prefix, inst["base"]), s, t)
    chk = tr.call("fans.check_fan", lib.check_fan, g, fan)
    text = tr.call("emit.to_json", lambda: _emit_with_check(fan, chk))
    return text, prefix, {"ok": chk.ok}


def op_filter(lib, tr, prefix, inst):
    spec = inst["graph"]
    g = tr.call("graphs.parse_graph", lib.parse_graph, render(spec, prefix))
    alpha, beta = (tr.call("words.extend_geodesic", lib.extend_geodesic, g,
                           spell(spec, prefix, (x,)), RAY_LEN)
                   for x in (0, 1))
    filt = tr.call("filters.build_filter", lib.build_filter, g, alpha, beta,
                   inst["depth"])
    chk = tr.call("filters.check_filter", lib.check_filter, g, filt)
    tr.count("filters.build_filter.vertices", len(filt.vertices))
    for key in ("edges_checked", "paths_enumerated", "wide_windows_checked"):
        tr.count(f"filters.check_filter.{key}", chk.stats.get(key, 0))
    text = tr.call("emit.to_json", lambda: _emit_with_check(filt, chk))
    return text, prefix, {"ok": chk.ok}


def op_mtf(lib, tr, prefix, inst):
    spec = inst["graph"]
    g = tr.call("graphs.parse_graph", lib.parse_graph, render(spec, prefix))
    r = inst["rotation"]
    zig = spell(spec, prefix, ((0 + r) % 5, (2 + r) % 5) * 4)
    zag = spell(spec, prefix, ((1 + r) % 5, (3 + r) % 5) * 4)
    mtf = tr.call("filters.build_multitail_filter",
                  lib.build_multitail_filter, g, zig, zag, inst["level"])
    chk = tr.call("filters.check_multitail_filter",
                  lib.check_multitail_filter, g, mtf)
    text = tr.call("emit.to_json", lambda: _emit_with_check(mtf, chk))
    return text, prefix, {"ok": chk.ok}


OPS = {
    "classify": op_classify,
    "normalize": op_normalize,
    "ending_letters": op_ending_letters,
    "build_ball": op_build_ball,
    "find_pencil": op_find_pencil,
    "fan": op_fan,
    "filter": op_filter,
    "mtf": op_mtf,
}


# ---------------------------------------------------------------------------
# independent checks of an op's payload; each returns an error or None


def _expected_case(racg, h):
    if racg:
        if h["finite"] or h["wide"]:
            return "EmptyBoundary_FiniteOrWide"
        if not h["one_ended"]:
            return "Disconnected_MultiEnded"
        if h["wide_avoidant"]:
            return "Connected_LocallyConnected"
        return "Disconnected_NotWideAvoidant"
    if h["finite"] or h["wide"]:
        return "EmptyBoundary"
    if not h["wide_avoidant"]:
        return "TheoremApplies_A"
    if h["affine_free"] and h["one_ended"] and h["wide_spherical_avoidant"]:
        return "TheoremApplies_C"
    return "Unknown_ConjectureOpen"


def check_payload(inst, payload):
    kind = inst["kind"]
    spec = inst["graph"]
    if kind == "classify":
        racg = is_right_angled(spec)
        if payload["racg"] != racg:
            return f"racg flag {payload['racg']}, graph says {racg}"
        want = _expected_case(racg, payload["hypotheses"])
        if payload["case"] != want:
            return f"case {payload['case']}, hypotheses imply {want}"
        return None
    if kind in ("fan", "filter", "mtf"):
        return None if payload["ok"] else "the op's own check failed"
    if kind == "find_pencil":
        return None if all(payload["separates"]) else \
            "a pencil wall does not separate the endpoints"
    if kind == "build_ball":
        return None
    word = inst["word"]
    if kind == "normalize":
        nf = tuple(payload["normal_form"])
        if is_right_angled(spec):
            want = ra_normal_form(commuting(spec), word)
            return None if nf == want else f"normal form {nf}, want {want}"
        if len(nf) > len(word) or (len(word) - len(nf)) % 2:
            return f"normal form length {len(nf)} from {len(word)} letters"
        return None
    if kind == "ending_letters":
        want = sorted(ra_ending_letters(commuting(spec), word))
        got = payload["ending_letters"]
        return None if got == want else f"ending letters {got}, want {want}"
    return f"no check for kind {kind!r}"


def oracle_check(oracles, inst, payload):
    """Cross-check against tests/oracles.py where it is fast (record mode)."""
    kind = inst["kind"]
    names, edges = inst["graph"]
    n = len(names)
    labels = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, m in edges:
        labels[i][j] = labels[j][i] = m
    if kind == "classify" and n <= 7:
        h = payload["hypotheses"]
        got = (h["wide"], h["wide_avoidant"], h["wide_spherical_avoidant"])
        want = (oracles.brute_is_wide(labels, (1 << n) - 1),
                oracles.brute_is_wide_avoidant(labels)[0],
                oracles.brute_is_wide_spherical_avoidant(labels)[0])
        if got != want:
            return f"(wide, wa, wsa) {got}, brute force {want}"
    if kind == "normalize":
        nf = list(payload["normal_form"])
        if oracles.word_element(labels, list(inst["word"])) != \
                oracles.word_element(labels, nf):
            return "normal form is another element than the input"
        if not oracles.oracle_is_geodesic(labels, nf):
            return "normal form is not geodesic by the wall criterion"
    return None
