"""Walls of geodesic words, pencils of parallel walls, Cayley-ball snapshots,
and the wide-window test for Morse geodesics.

The wall dual to position i of a geodesic word w is the fixed set of the
reflection  r_i = s_1 ... s_{i-1} s_i s_{i-1} ... s_1.  Two walls cross
exactly when the product of their reflections has finite order (the pair then
generates a finite dihedral group); parallel walls give an infinite-order
product, which is what the order cap detects.  With no cap given, a crossing
test probes at most R powers, R the largest edge label.  A product r r' of
finite order generates a finite subgroup, which lies in a conjugate of a
spherical parabolic subgroup W_T (Tits); there r r' is a rotation of a finite
reflection group, and those never have order above the largest label of T,
which is at most R.  ``tests/test_walls.py`` checks that bound with exact
reflection matrices on A4, B4, D4, F4, H3 and B3 x I2(6).  An element's
order can exceed R (the Coxeter element of A3 has order 4), so ``order_of``
keeps the cap of 64.  A graph with an edge label R above 64 raises
SizeCapError when no cap is given: that edge is a spherical pair I2(R),
whose two reflections have a product of order R.  A wall separates two
elements u, v exactly when left-multiplying by the reflection shortens
exactly one of them.
"""

from __future__ import annotations

from .avoidance import label_in_wide_subgraph, is_affine_free
from .errors import DEFAULT_BALL_CAP, DEFAULT_ORDER_CAP, Record, SizeCapError
from .graphs import CoxeterGraph, bits
from .words import (DEFAULT_ORBIT_CAP, RightAngledEngine, Word, WordEngine,
                    engine_for)


# ---------------------------------------------------------------------------
# Cayley balls


class CayleyBall(Record):
    """Ball of given radius in the Cayley graph, elements as canonical words.

    words: canonical geodesic words in breadth-first order (lexicographic
    by generator position within a sphere, the order in which
    ``build_ball`` walks the prefix tree of canonical forms); edges:
    triples (i, j, s), sorted, with i < j meaning the i-th and j-th
    elements differ by right-multiplication by generator s.
    """
    __slots__ = ("radius",  # int
                 "words",   # tuple[Word, ...]
                 "edges")   # tuple[tuple[int, int, str], ...]

    def to_json_obj(self) -> dict:
        return {"radius": self.radius,
                "elements": [" ".join(w) for w in self.words],
                "edges": [[i, j, s] for i, j, s in self.edges]}

    def to_dot(self) -> str:
        lines = ["graph cayley_ball {", "  node [shape=circle];"]
        for idx, w in enumerate(self.words):
            lbl = " ".join(w) if w else "e"
            lines.append(f'  n{idx} [label="{lbl}"];')
        for i, j, s in self.edges:
            lines.append(f'  n{i} -- n{j} [label="{s}"];')
        lines.append("}")
        return "\n".join(lines)


def build_ball(g: CoxeterGraph, radius: int, cap: int = DEFAULT_BALL_CAP,
               orbit_cap: int = DEFAULT_ORBIT_CAP) -> CayleyBall:
    """Breadth-first ball around the identity; raises SizeCapError beyond cap.

    One walk down the prefix tree of canonical forms: each element of
    spheres 0..radius-1, in lex order, is multiplied by each generator in
    ascending order, and a longer product is an element of the next sphere
    and an edge.  Right multiplication changes length by one, so every edge
    joins consecutive spheres and is found from its lower end.

    Lex-least reduced words are prefix-closed, so a longer product p = c s
    has the canonical parent p[:-1].  If p ends in s, then p = c + (s,) is
    new and c is its parent; otherwise p < c + (s,) puts p[:-1] lex below
    c, so p was found from it earlier in the walk.  Hence the next sphere
    is appended in lex order, each element once, and its name is its
    parent's name plus one letter.  Within one element the edges to
    elements found earlier come first, by index, then the new children in
    letter order.

    On a right-angled graph the canonical forms are a regular language
    (Brink and Howlett, Math. Ann. 1993), and the walk reads two masks per
    element c in place of its word:

    - D(c), the right descents;
    - F(c), the letters s for which c + (s,) is not the canonical form of
      c s: the descents, and each s whose trailing run in c (the letters
      after the last one not commuting with s) holds a letter above s, in
      front of which ``RightAngledEngine.right_mult`` puts s.

    The identity has D = F = {}.  A child c' = c + (t,), with t outside
    F(c), has D(c') = {t} | (Comm(t) & D(c)) and
    F(c') = {t} | (Comm(t) & (F(c) | {s < t})): for an s not commuting
    with t the run in c' is empty and s is no descent, and for an s
    commuting with t it is the run in c followed by t.  A letter outside
    F(c') gives a new element with parent c'.  A letter s in F(c') - D(c')
    commutes with t and is not a descent of c, so c' s = (c s) t, and its
    edge goes to up[up[c][s]][t], where up[x][y] is the index of x y for y
    outside D(x).  That row of c s is already filled, because c s comes
    before c' in their sphere: for s < t its canonical form is at most
    c + (s,), and otherwise it puts s before a larger letter of c.
    So no word is multiplied or hashed: an edge costs O(1), beside the copy
    of each new element's name, and only the up rows of two spheres are
    kept.  This walk builds no word engine and ignores ``orbit_cap``, since
    it runs no orbit search.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if g.is_racg():
        return _right_angled_ball(g, radius, cap)
    right_mult = engine_for(g, orbit_cap).right_mult
    names = g.vertices
    gens = range(g.n)
    words: list[Word] = [()]
    edges: list[tuple[int, int, str]] = []
    sphere: dict[tuple[int, ...], int] = {(): 0}
    for r in range(radius + 1):
        # the cap counts every element so far, the identity too
        if len(words) > cap:
            raise SizeCapError(cap, f"ball exceeds {cap} elements")
        if r == radius:
            break
        nxt: dict[tuple[int, ...], int] = {}
        for c, i in sphere.items():
            up = []
            for s in gens:
                p = right_mult(c, s)
                if len(p) > len(c):
                    if p[-1] == s:
                        j = nxt[p] = len(words)
                        words.append(words[i] + (names[s],))
                    else:
                        j = nxt[p]
                    up.append((j, s))
            up.sort()
            edges.extend([(i, j, names[s]) for j, s in up])
        sphere = nxt
    return CayleyBall(radius, tuple(words), tuple(edges))


def _right_angled_ball(g: CoxeterGraph, radius: int, cap: int) -> CayleyBall:
    """``build_ball`` on a right-angled graph, from the masks D and F."""
    names = g.vertices
    gens = range(g.n)
    comm = [g.commuting_mask(s) for s in gens]
    words: list[Word] = [()]
    edges: list[tuple[int, int, str]] = []
    # a sphere lists (index, parent index, last letter, D, F) in lex order;
    # its elements are the last len(sphere) words
    sphere = [(0, 0, 0, 0, 0)]
    rows_below: list[list[int]] = []  # the up rows of the sphere below
    for r in range(radius + 1):
        # the cap counts every element so far, the identity too
        if len(words) > cap:
            raise SizeCapError(cap, f"ball exceeds {cap} elements")
        if r == radius or not sphere:
            break
        lo = len(words) - len(sphere)
        lo_below = lo - len(rows_below)
        rows: list[list[int]] = []
        nxt = []
        for i, p, t, d, f in sphere:
            row = [0] * g.n
            old = f & ~d
            if old:
                parent_row = rows_below[p - lo_below]
                if old & (old - 1):
                    found = sorted([(rows[parent_row[s] - lo][t], s)
                                    for s in bits(old)])
                else:
                    s = old.bit_length() - 1
                    found = [(rows[parent_row[s] - lo][t], s)]
                for j, s in found:
                    row[s] = j
                    edges.append((i, j, names[s]))
            word = words[i]
            j = len(words)
            for s in gens:
                if f >> s & 1:
                    continue
                row[s] = j
                name = names[s]
                words.append(word + (name,))
                edges.append((i, j, name))
                bit = 1 << s
                nxt.append((j, i, s, bit | comm[s] & d,
                            bit | comm[s] & (f | (bit - 1))))
                j += 1
            rows.append(row)
        rows_below = rows
        sphere = nxt
    return CayleyBall(radius, tuple(words), tuple(edges))


# ---------------------------------------------------------------------------
# crossing and separation


def _order(eng: WordEngine, w: tuple[int, ...], cap: int) -> int | None:
    """Order of the element with canonical form ``w``, or None above ``cap``.

    A finite subgroup of a right-angled Coxeter group lies in a conjugate of
    a clique subgroup (Tits), an elementary abelian 2-group, so there every
    finite order is 1 or 2 and two powers decide it.
    """
    if not w:
        return 1
    if isinstance(eng, RightAngledEngine):
        cap = min(cap, 2)
    acc: tuple[int, ...] = ()
    for k in range(1, cap + 1):
        acc = eng.mult(acc, w)
        if not acc:
            return k
    return None


def _largest_label(g: CoxeterGraph) -> int:
    """The largest edge label R, which must not exceed
    ``DEFAULT_ORDER_CAP`` when no order cap is given (see the module
    docstring)."""
    r = g.max_label()
    if r > DEFAULT_ORDER_CAP:
        raise SizeCapError(
            DEFAULT_ORDER_CAP,
            f"the graph has an edge label R = {r}, a rotation order above "
            f"the default order cap of {DEFAULT_ORDER_CAP}; set the order cap "
            "(--order-cap) explicitly to decide wall crossings")
    return r


def _crossing_cap(g: CoxeterGraph, order_cap: int | None) -> int:
    """The order cap of a wall crossing test: ``order_cap`` when given,
    else the largest edge label (see the module docstring)."""
    return _largest_label(g) if order_cap is None else order_cap


def order_of(g: CoxeterGraph, word: Word, cap: int | None = None,
             orbit_cap: int = DEFAULT_ORBIT_CAP) -> int | None:
    """Order of the element, or None when it exceeds cap (infinite order, for
    any cap at least the largest finite element order in the group).  With
    no cap the cap is 64, and a graph with an edge label above 64 raises
    SizeCapError (see the module docstring)."""
    if cap is None:
        _largest_label(g)
        cap = DEFAULT_ORDER_CAP
    eng = engine_for(g, orbit_cap)
    return _order(eng, eng.normalize(eng.encode(word)), cap)


def is_reflection(g: CoxeterGraph, word: Word,
                  orbit_cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Odd-length involution test: reflections are exactly the elements
    conjugate to a generator, hence odd length and order two."""
    eng = engine_for(g, orbit_cap)
    w = eng.normalize(eng.encode(word))
    return bool(w) and len(w) % 2 == 1 and eng.mult(w, w) == ()


def walls_cross(g: CoxeterGraph, word: Word, i: int, j: int,
                order_cap: int | None = None,
                orbit_cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Do the walls dual to positions i and j (1-based) of a geodesic cross?

    True exactly when the product of the two reflections has finite order.
    An order above ``order_cap`` is reported as parallel (infinite order).
    With no ``order_cap`` the cap is the largest edge label R, which decides
    every crossing, and a graph with R above 64 raises SizeCapError (see
    the module docstring).
    """
    cap = _crossing_cap(g, order_cap)
    eng = engine_for(g, orbit_cap)
    w = eng.encode(word)
    eng.require_geodesic(w)
    for pos in (i, j):
        if not 1 <= pos <= len(w):
            raise ValueError(f"position {pos} out of range 1..{len(w)}")
    ri = eng.reflection_word(w, i)
    rj = eng.reflection_word(w, j)
    if ri == rj:
        raise ValueError(f"positions {i} and {j} are dual to the same wall")
    return _order(eng, eng.mult(ri, rj), cap) is not None


def wall_separates(g: CoxeterGraph, reflection_word: Word, u: Word,
                   v: Word = (), orbit_cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Does the wall of the reflection separate the elements u and v?

    It does exactly when left multiplication by the reflection shortens one
    of them and lengthens the other.  (For v = ru this always holds, so the
    degenerate adjacent-chambers case needs no special handling.)
    """
    if not is_reflection(g, reflection_word, orbit_cap):
        raise ValueError("not a reflection word")
    eng = engine_for(g, orbit_cap)
    r = eng.normalize(eng.encode(reflection_word))
    uu = eng.normalize(eng.encode(u))
    vv = eng.normalize(eng.encode(v))
    du = len(eng.mult(r, uu)) < len(uu)
    dv = len(eng.mult(r, vv)) < len(vv)
    return du != dv


# ---------------------------------------------------------------------------
# pencils


class Pencil(Record):
    """A maximum pairwise-parallel set of walls dual to one geodesic word.

    positions: 1-based letter positions, lexicographically least among the
    maximum-size answers; reflections: their canonical reflection words;
    separates_endpoints: per-wall verification that the wall separates the
    identity from the word's endpoint (true for every dual wall).
    """
    __slots__ = ("positions",            # tuple[int, ...]
                 "reflections",          # tuple[Word, ...]
                 "separates_endpoints")  # tuple[bool, ...]

    def to_json_obj(self) -> dict:
        return {"positions": list(self.positions),
                "reflections": [" ".join(r) for r in self.reflections],
                "separates_endpoints": list(self.separates_endpoints)}


def _max_independent_set(n: int, adj: list[int]) -> tuple[int, ...]:
    """Lexicographically least maximum independent set of an n-vertex graph
    given as adjacency bitmasks.  Exact; n stays small here (one vertex per
    letter of a geodesic word)."""
    best_size: dict[int, int] = {}

    def size(remaining: int) -> int:
        if remaining == 0:
            return 0
        got = best_size.get(remaining)
        if got is not None:
            return got
        v = remaining & -remaining
        idx = v.bit_length() - 1
        res = max(size(remaining & ~v),
                  1 + size(remaining & ~v & ~adj[idx]))
        best_size[remaining] = res
        return res

    chosen = []
    remaining = (1 << n) - 1
    target = size(remaining)
    for v in range(n):
        if not (remaining >> v) & 1:
            continue
        rest = remaining & ~(1 << v) & ~adj[v]
        if 1 + size(rest) == target:
            chosen.append(v)
            remaining = rest
            target -= 1
    return tuple(chosen)


def find_pencil(g: CoxeterGraph, word: Word,
                order_cap: int | None = None,
                orbit_cap: int = DEFAULT_ORBIT_CAP) -> Pencil:
    """Largest set of pairwise non-crossing walls dual to a geodesic word,
    with each wall checked to separate the endpoints of the word.  Walls
    cross as in ``walls_cross``, with the same ``order_cap``."""
    cap = _crossing_cap(g, order_cap)
    eng = engine_for(g, orbit_cap)
    w = eng.encode(word)
    eng.require_geodesic(w)
    n = len(w)
    refl = [eng.reflection_word(w, i + 1) for i in range(n)]
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if _order(eng, eng.mult(refl[a], refl[b]), cap) is not None:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    picked = _max_independent_set(n, adj)
    seps = []
    for p in picked:
        du = len(eng.mult(refl[p], w)) < len(w)
        seps.append(du)  # identity side never descends, so this is the XOR
    return Pencil(tuple(p + 1 for p in picked),
                  tuple(eng.decode(refl[p]) for p in picked), tuple(seps))


# ---------------------------------------------------------------------------
# the window test


class MorseWindowReport(Record):
    """Outcome of the wide-window scan.

    passes: no window of length k+1 has all letters inside one wide subgraph.
    window: on failure, the earliest offending positions (1-based, inclusive).
    within_proven_hypothesis: the graph is affine-free, the setting in which
    the window criterion is known to characterize Morse directions; outside
    it the scan still runs but the flag warns the verdict is heuristic.
    """
    __slots__ = ("passes",                    # bool
                 "k",                         # int
                 "window",                    # tuple[int, int] | None
                 "wide_subgraph",             # tuple[str, ...] | None
                 "within_proven_hypothesis")  # bool


def morse_window_check(g: CoxeterGraph, word: Word, k: int,
                       orbit_cap: int = DEFAULT_ORBIT_CAP) -> MorseWindowReport:
    """Scan a geodesic word for a window of length k+1 whose letters all lie
    in a common wide subgraph.

    Longer wide windows contain wide windows of length exactly k+1, so
    scanning that one length decides every window of length > k.  The first
    (leftmost) offending window is reported without extension.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    eng = engine_for(g, orbit_cap)
    eng.require_geodesic(eng.encode(word))
    hypothesis = is_affine_free(g)
    width = k + 1
    for start in range(len(word) - width + 1):
        mask = 0
        for s in word[start:start + width]:
            mask |= 1 << g.index(s)
        wm = label_in_wide_subgraph(g, mask)
        if wm is not None:
            return MorseWindowReport(False, k, (start + 1, start + width),
                                     g.names_of(wm), hypothesis)
    return MorseWindowReport(True, k, None, None, hypothesis)
