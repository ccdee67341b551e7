"""Exact word engines: normal forms, geodesy, ending letters, extensions.

Both engines return the same canonical form of an element: its lex-least
geodesic expression in the graph's vertex order.

Right-angled graphs (every edge labeled 2) get ``RightAngledEngine``.  There
the geodesic expressions of an element are the linear extensions of one
heap (Cartier-Foata), and the canonical form is the greedy lex-least one.
Multiplying by a letter deletes a heap-maximal copy of it or adds it on top,
which changes the greedy extension in one place (``right_mult``), so
normalization folds over the word in O(len^2) steps with no orbit search.

Other labels get ``WordEngine``, driven by two facts about Coxeter systems.
First, a word is geodesic iff no member of its orbit under braid moves
(replace a length-m alternating block ``abab...`` by ``baba...`` where
m = m_ab) contains a doubled letter.  Second, any two geodesic expressions
of the same element lie in one braid orbit.  Normalization therefore needs
no automaton: search the orbit for a doubled letter, delete it, restart;
once no orbit member has one, the word is geodesic and the lex-least orbit
member is the canonical form.  Orbits can be exponential, so every orbit
search (this engine's, and ``tits_orbit`` on any graph) honours an explicit
cap (default 200_000) and raises OrbitCapError beyond it.

Memo tables on an engine are pure caches and never change observable
behaviour: the normal forms, the ending-letter sets, and the verdicts of
the fan checks (``fans.check_fan``, also run by ``build_fan`` and
``filters.check_filter``), so each distinct fan is verified once.  A graph
keeps its engines itself, one per orbit cap, each built on first use by
``engine_for``.  A memo filled under one cap therefore never answers a
call made under another (which could have raised OrbitCapError), and the
engines and their memos live exactly as long as their graph: there is no
module-level cache holding the memos of graphs nobody uses any more.  One
graph's memo is not bounded; it grows with the words asked of it (every
enumerated orbit member, or on a right-angled graph each input word) and
with the fans checked.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence

from .classification import compute_constants, subset_table
from .errors import (DEFAULT_ORBIT_CAP, ConstructionError, GraphFormatError,
                     NonGeodesicError, OrbitCapError, Record)
from .graphs import CoxeterGraph, bits

Word = tuple[str, ...]  # letters are vertex names; () is the identity


class GroupElement(Record):
    """A group element, identified by its canonical (lex-least geodesic) word."""
    __slots__ = ("word",)  # Word

    def __len__(self):
        return len(self.word)


class Reflection(Record):
    """An involution conjugate to a generator.

    ``type_generator`` records the generator the defining construction
    conjugated (for a wall dual to the i-th edge of a word, the i-th letter).
    Equality of walls is equality of ``element``; the recorded type is a
    construction artifact, not a conjugacy invariant, since generators joined
    by odd-labeled paths are conjugate to each other.
    """
    __slots__ = ("element",         # GroupElement
                 "type_generator")  # str


def parse_word(g: CoxeterGraph, text: str) -> Word:
    """Space-separated vertex names; the empty string is the identity."""
    letters = tuple(text.split())
    for s in letters:
        g.index(s)  # raises GraphFormatError for unknown names
    return letters


class WordEngine:
    """Index-space rewriting engine bound to one graph.

    Public module functions wrap this in vertex-name space; heavy callers
    (ball construction, diagram builders) use the engine directly.
    """

    def __init__(self, g: CoxeterGraph, orbit_cap: int = DEFAULT_ORBIT_CAP):
        self.g = g
        self.orbit_cap = orbit_cap
        # (a, b) -> (m_ab, alternation a b a ... of length m_ab, the one
        # starting with b).  The alternations are built only for m_ab up to
        # ``_room``, the longest orbit word so far (``_make_room``), so
        # memory does not grow with the labels.
        self._pattern = {(i, j): (g.m(i, j), None, None)
                         for i in range(g.n) for j in bits(g.neighbors_mask(i))}
        self._room = 1
        self._norm: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._ends: dict[tuple[int, ...], frozenset[int]] = {}
        # fan checks: (encoded base, labels, cells, recorded tail is the
        # wide tail, case) -> failures (see ``fans._fan_failures``)
        self._fans: dict[tuple, tuple[str, ...]] = {}
        self._index_of = g._index.__getitem__
        self._name_of = g.vertices.__getitem__

    # -- encoding -----------------------------------------------------------

    def encode(self, word: Iterable[str]) -> tuple[int, ...]:
        try:
            return tuple(map(self._index_of, word))
        except KeyError as err:
            raise GraphFormatError(f"unknown vertex {err.args[0]!r}") from None

    def decode(self, iword: Sequence[int]) -> Word:
        return tuple(map(self._name_of, iword))

    # -- braid moves ---------------------------------------------------------

    def _make_room(self, n: int) -> None:
        """Build the alternations of every pair with m_ab <= n."""
        if n <= self._room:
            return
        pat = self._pattern
        for key, (m, fwd, _rev) in pat.items():
            if fwd is None and m <= n:
                pat[key] = (m, tuple(key[k % 2] for k in range(m)),
                            tuple(key[1 - k % 2] for k in range(m)))
        self._room = n

    def moves(self, w: tuple[int, ...]):
        """All single braid-move rewrites of ``w``, which must have at most
        ``_room`` letters."""
        pat = self._pattern
        n = len(w)
        for i in range(n - 1):
            key = (w[i], w[i + 1])
            entry = pat.get(key)
            if entry is None:
                continue
            m, fwd, rev = entry
            if i + m <= n and w[i:i + m] == fwd:
                yield w[:i] + rev + w[i + m:]

    @staticmethod
    def _doubled_at(w: tuple[int, ...]) -> int | None:
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                return i
        return None

    def orbit(self, w: tuple[int, ...],
              cap: int | None = None) -> Iterator[tuple[int, ...]]:
        """Yield the braid orbit of any word, ``w`` first, breadth first.

        Moves preserve length.  The cap counts the members a caller has
        gone past: OrbitCapError is raised when it resumes after member
        cap + 1, so a caller that stops at a member is never charged for it.
        """
        cap = self.orbit_cap if cap is None else cap
        self._make_room(len(w))
        seen = {w}
        yield w
        dq = deque([w])
        while dq:
            u = dq.popleft()
            for v in self.moves(u):
                if v not in seen:
                    yield v
                    seen.add(v)
                    if len(seen) > cap:
                        raise OrbitCapError(cap)
                    dq.append(v)

    # -- normalization -------------------------------------------------------

    def normalize(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical form: lex-least geodesic expression of the element of ``w``."""
        cached = self._norm.get(w)
        if cached is not None:
            return cached
        start = w
        while True:
            i = self._doubled_at(w)
            if i is not None:
                w = w[:i] + w[i + 2:]
                continue
            hit = self._norm.get(w)
            if hit is not None:
                self._norm[start] = hit
                return hit
            # search the orbit for a hidden doubled letter
            members = []
            for v in self.orbit(w):
                j = self._doubled_at(v)
                if j is not None:
                    w = v[:j] + v[j + 2:]
                    break
                members.append(v)
            else:
                # geodesic: the whole orbit was enumerated
                result = min(members)
                for u in members:
                    self._norm[u] = result
                self._ends[result] = frozenset(u[-1] for u in members) if result else frozenset()
                self._norm[start] = result
                return result

    def is_geodesic(self, w: tuple[int, ...]) -> bool:
        return len(self.normalize(w)) == len(w)

    def require_geodesic(self, w: tuple[int, ...]):
        if not self.is_geodesic(w):
            raise NonGeodesicError(f"word {self.decode(w)!r} is not geodesic")

    def mult(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return self.normalize(u + v)

    def inverse(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return self.normalize(tuple(reversed(u)))

    # -- descent structure ----------------------------------------------------

    def ending_letters(self, w: tuple[int, ...]) -> frozenset[int]:
        """Letters some geodesic expression of ``w`` ends with (the right descent set)."""
        c = self.normalize(w)
        if len(c) != len(w):
            raise NonGeodesicError(f"word {self.decode(w)!r} is not geodesic")
        return self._ends[c]  # filled when c's orbit was enumerated

    def reflection_word(self, w: tuple[int, ...], i: int) -> tuple[int, ...]:
        """Canonical word of the reflection dual to the i-th edge (1-based) of ``w``."""
        prefix = w[:i - 1]
        return self.normalize(prefix + (w[i - 1],) + tuple(reversed(prefix)))

    def right_mult(self, c: tuple[int, ...], s: int) -> tuple[int, ...]:
        """Canonical form of ``c`` times generator ``s``, for canonical ``c``."""
        return self.normalize(c + (s,))


class RightAngledEngine(WordEngine):
    """Heap normal forms for a right-angled graph; no orbit search, no cap.

    ``orbit`` (braid moves are then commutations) stays available for
    ``tits_orbit``.
    """

    def right_mult(self, c: tuple[int, ...], s: int) -> tuple[int, ...]:
        """Scan back from the end of ``c`` past the letters commuting with
        ``s``.  Stopping at an ``s`` means that copy is heap-maximal: delete
        it.  Otherwise ``s`` becomes available to the greedy extension right
        after the letter stopped at, and goes before the first larger letter
        from there on.  Being maximal, it delays nothing else, and a deleted
        maximal letter delayed nothing either, so the rest of ``c`` keeps
        its order."""
        comm = self.g.commuting_mask(s)
        i = len(c) - 1
        while i >= 0 and (comm >> c[i]) & 1:
            i -= 1
        if i >= 0 and c[i] == s:
            return c[:i] + c[i + 1:]
        j = i + 1
        while j < len(c) and c[j] < s:
            j += 1
        return c[:j] + (s,) + c[j:]

    def normalize(self, w: tuple[int, ...]) -> tuple[int, ...]:
        cached = self._norm.get(w)
        if cached is not None:
            return cached
        c: tuple[int, ...] = ()
        for s in w:
            c = self.right_mult(c, s)
        self._norm[w] = c
        return c

    def ending_letters(self, w: tuple[int, ...]) -> frozenset[int]:
        """The heap-maximal letters: those whose last occurrence commutes
        with every letter after it."""
        self.require_geodesic(w)
        comm = self.g.commuting_mask
        ends = []
        after = 0
        for x in reversed(w):
            if after & ~comm(x) == 0:
                ends.append(x)
            after |= 1 << x
        return frozenset(ends)


def engine_for(g: CoxeterGraph, orbit_cap: int = DEFAULT_ORBIT_CAP) -> WordEngine:
    """The graph's engine for ``orbit_cap``, built on first use and kept on
    the graph; each cap has its own engine and memo.  Right-angled graphs
    get a ``RightAngledEngine``."""
    eng = g._engines.get(orbit_cap)
    if eng is None:
        cls = RightAngledEngine if g.is_racg() else WordEngine
        eng = g._engines[orbit_cap] = cls(g, orbit_cap)
    return eng


def _encode_geodesic(g: CoxeterGraph, word: Iterable[str],
                     orbit_cap: int = DEFAULT_ORBIT_CAP
                     ) -> tuple[WordEngine, tuple[int, ...]]:
    """The engine for ``orbit_cap`` and ``word`` encoded, which must be
    geodesic: GraphFormatError for an unknown vertex, else NonGeodesicError."""
    eng = engine_for(g, orbit_cap)
    w = eng.encode(word)
    eng.require_geodesic(w)
    return eng, w


# ---------------------------------------------------------------------------
# name-space API


def tits_orbit(g: CoxeterGraph, word: Sequence[str],
               cap: int = DEFAULT_ORBIT_CAP) -> set[Word]:
    """Closure of ``word`` under braid moves.  Raises OrbitCapError past ``cap``."""
    eng = engine_for(g)
    return {eng.decode(u) for u in eng.orbit(eng.encode(word), cap)}


def normalize(g: CoxeterGraph, word: Sequence[str],
              orbit_cap: int = DEFAULT_ORBIT_CAP) -> Word:
    """Canonical form of the element spelled by ``word``.

    >>> g = _dihedral(3)
    >>> normalize(g, ("a", "b", "a", "b"))
    ('b', 'a')
    >>> normalize(g, ("a", "a"))
    ()
    """
    eng = engine_for(g, orbit_cap)
    return eng.decode(eng.normalize(eng.encode(word)))


def is_geodesic(g: CoxeterGraph, word: Sequence[str],
                orbit_cap: int = DEFAULT_ORBIT_CAP) -> bool:
    eng = engine_for(g, orbit_cap)
    return eng.is_geodesic(eng.encode(word))


def element(g: CoxeterGraph, word: Sequence[str]) -> GroupElement:
    return GroupElement(normalize(g, word))


def ending_letters(g: CoxeterGraph, word: Sequence[str],
                   orbit_cap: int = DEFAULT_ORBIT_CAP) -> frozenset[str]:
    """The set K of last letters over all geodesic expressions of the word.

    The group generated by K is always finite, and w*t is geodesic exactly for
    t outside K.
    """
    eng = engine_for(g, orbit_cap)
    return frozenset(g.vertices[i] for i in eng.ending_letters(eng.encode(word)))


def reflection_of_edge(g: CoxeterGraph, word: Sequence[str], i: int) -> Reflection:
    """Reflection dual to the i-th edge (1-based) of a geodesic word.

    A word is geodesic iff its edge reflections are pairwise distinct.
    """
    eng, w = _encode_geodesic(g, word)
    if not 1 <= i <= len(w):
        raise GraphFormatError(f"edge index {i} out of range 1..{len(w)}")
    return Reflection(GroupElement(eng.decode(eng.reflection_word(w, i))),
                      g.vertices[w[i - 1]])


# ---------------------------------------------------------------------------
# wide tails and geodesic extension (uses the wide-subgraph machinery)


def wide_tail(g: CoxeterGraph, word: Sequence[str],
              orbit_cap: int = DEFAULT_ORBIT_CAP
              ) -> tuple[Word, tuple[str, ...] | None]:
    """Longest suffix whose label set lies in a wide subgraph, with one such subgraph.

    Returns ``((), None)`` when even the last letter is in no wide subgraph.
    The word must be geodesic.
    """
    eng, w = _encode_geodesic(g, word, orbit_cap)
    j, delta = _wide_suffix(g, w)
    if not delta:
        return (), None
    return eng.decode(w[j:]), g.names_of(delta)


def _wide_suffix(g: CoxeterGraph, w: tuple[int, ...]) -> tuple[int, int]:
    """Start of the longest suffix of ``w`` whose letters lie in a wide
    subgraph, and the first maximal wide mask containing them;
    ``(len(w), 0)`` when there is none.  A word with no letters reads no
    subset table."""
    start, delta = len(w), 0
    if not w:
        return start, delta
    cover = subset_table(g).wide_cover
    suffix_mask = 0
    for j in range(len(w) - 1, -1, -1):
        suffix_mask |= 1 << w[j]
        hit = cover(suffix_mask)
        if hit is None:
            break
        start, delta = j, hit
    return start, delta


def extension_constant(g: CoxeterGraph) -> int:
    """Window constant C = M + V + 1 for greedy extensions.

    Any window of the appended part longer than C has label in no wide
    subgraph: after at most M letters the wide tail covers the window, and
    each further greedy letter avoids a wide subgraph containing that tail,
    so at most V distinct new letters can follow.
    """
    c = compute_constants(g)
    return c.m_gamma + c.v_gamma + 1


def extend_geodesic(g: CoxeterGraph, word: Sequence[str], target_len: int,
                    orbit_cap: int = DEFAULT_ORBIT_CAP) -> Word:
    """Extend a geodesic word to ``target_len`` by the greedy Morse-tail rule.

    Each step appends the least vertex outside Delta union K, where K is the
    ending-letter set and Delta is a wide subgraph covering the current wide
    tail (nothing, when the tail is empty).  Raises ConstructionError with the
    blocking set when no legal letter exists -- which happens exactly when the
    graph fails the preconditions (wide-spherical-avoidant, infinite group).
    """
    eng, w = _encode_geodesic(g, word, orbit_cap)
    if target_len < len(w):
        raise GraphFormatError(f"target length {target_len} shorter than word")
    full = g.full_mask()
    while len(w) < target_len:
        k_mask = 0
        for i in eng.ending_letters(w):
            k_mask |= 1 << i
        blocked = k_mask | _wide_suffix(g, w)[1]
        legal = full & ~blocked
        if legal == 0:
            raise ConstructionError(
                "no legal letter: every vertex lies in Delta union K",
                blocking_set=g.names_of(blocked))
        w = w + (next(bits(legal)),)
    return eng.decode(w)


def _dihedral(m: int) -> CoxeterGraph:
    """Two generators with label m -- used by doctests."""
    return CoxeterGraph(("a", "b"), [("a", "b", m)])
