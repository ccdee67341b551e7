"""Independent reference implementations used to validate the library.

Everything here is deliberately written with machinery disjoint from the
package under test:

* finiteness, group order, and longest-element length come from a
  breadth-first search over exact reflection matrices with entries in the
  ring Z[sqrt(2), sqrt(3), phi] (integer coordinate tuples, no floats);
* sphericity and affineness of generating subsets come from eigenvalues of
  the cosine matrix, with a high-precision escalation path for any value
  that lands near the decision boundary;
* wideness uses enumeration of *all* ordered (P, Q) partitions of a subset,
  checking the cross-label and factor-type conditions directly;
* the avoidance properties are re-decided with the full quantifier
  structure spelled out (every wide set and every special join, no
  maximality pruning), using a plain vertex BFS for path search;
* sphere sizes of the group (for growth/ends checks) fall out of the same
  matrix BFS, and on right-angled graphs also from the growth series,
  counted from the cliques of the graph in exact integers.

The only interface shared with the library is the input encoding: a graph
is an ``n x n`` symmetric integer matrix ``labels`` with ``labels[i][j]``
the edge label (``0`` standing for "no edge", i.e. an infinite bond) and
the diagonal ignored.  Vertex subsets are bitmasks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

# ---------------------------------------------------------------------------
# small bitmask helpers (redefined here on purpose; the oracle must not lean
# on the package under test)


def obits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def opopcount(mask: int) -> int:
    return bin(mask).count("1")


def osubmasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def labels_from_graph(g) -> list[list[int]]:
    """Adapter: library graph -> plain label matrix (0 encodes infinity)."""
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                mat[i][j] = 1
                continue
            m = g.m(i, j)
            mat[i][j] = 0 if m is None else m
    return mat


# ---------------------------------------------------------------------------
# exact reflection-matrix BFS
#
# The standard geometric representation sends generator i to the linear map
#   e_i -> -e_i,   e_j -> e_j + 2*cos(pi/m_ij) * e_i   (j != i).
# For labels in {2, 3, 4, 5, 6, infinity} the multipliers 2*cos(pi/m) are
#   0, 1, sqrt(2), phi, sqrt(3), 2
# all of which live in Z[sqrt(2), sqrt(3), phi].  We represent ring elements
# as integer coordinate vectors over the monomial basis
#   { sqrt(2)^a * sqrt(3)^b * phi^f : a, b, f in {0, 1} }
# restricted to the monomials actually reachable from the labels present,
# and run a breadth-first search over exact matrices.  The group is finite
# iff the search closes; the closing depth is the longest element's length.


class UnsupportedLabelError(ValueError):
    pass


class _Ring:
    """Z[sqrt2, sqrt3, phi] restricted to the monomials a graph needs.

    Basis monomials are encoded as 3-bit integers: bit0 = sqrt(2),
    bit1 = sqrt(3), bit2 = phi.  phi^2 = phi + 1.
    """

    def __init__(self, use_r2: bool, use_r3: bool, use_phi: bool):
        allowed = (1 if use_r2 else 0) | (2 if use_r3 else 0) | (4 if use_phi else 0)
        self.bases = [b for b in range(8) if b & ~allowed == 0]
        self.k = len(self.bases)
        self.slot = {b: s for s, b in enumerate(self.bases)}
        # scale_table[cb][eb] = list of (slot, coefficient) making up
        # basis(cb) * basis(eb)
        self.scale_table: dict[int, list[list[tuple[int, int]]]] = {}
        for cb in self.bases:
            row = []
            for eb in self.bases:
                row.append(self._basis_product(cb, eb))
            self.scale_table[cb] = row

    def _basis_product(self, b1: int, b2: int) -> list[tuple[int, int]]:
        m1, f1 = b1 & 3, b1 >> 2
        m2, f2 = b2 & 3, b2 >> 2
        carry = 1
        both = m1 & m2
        if both & 1:
            carry *= 2
        if both & 2:
            carry *= 3
        mono = m1 ^ m2
        if f1 + f2 == 0:
            return [(self.slot[mono], carry)]
        if f1 + f2 == 1:
            return [(self.slot[mono | 4], carry)]
        # phi^2 = 1 + phi
        return [(self.slot[mono], carry), (self.slot[mono | 4], carry)]

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.k

    def one(self) -> tuple[int, ...]:
        out = [0] * self.k
        out[self.slot[0]] = 1
        return tuple(out)


# 2*cos(pi/m) for the supported labels, as (basis monomial, coefficient)
_TWO_COS = {3: (0, 1), 4: (1, 1), 5: (4, 1), 6: (2, 1), 0: (0, 2)}


@dataclass(frozen=True)
class OrderResult:
    finite: Optional[bool]  # None when the cap was hit without closing
    size: Optional[int]
    longest: Optional[int]
    spheres: tuple[int, ...]  # sizes of spheres 0, 1, 2, ... as far as seen


def _ring_machine(labels: Sequence[Sequence[int]]):
    """(identity matrix, apply_gen) over the exact coefficient ring.

    ``apply_gen(i, mat)`` left-multiplies ``mat`` by the reflection matrix of
    generator i in the geometric representation, which is faithful, so two
    words multiply to the same group element iff their folded matrices agree.
    """
    n = len(labels)
    present = {labels[i][j] for i in range(n) for j in range(i + 1, n)}
    for m in present:
        if m not in (0, 2) and m not in _TWO_COS:
            raise UnsupportedLabelError(f"label {m} outside the supported ring")
    ring = _Ring(4 in present, 6 in present, 5 in present)
    k = ring.k

    # per generator: the nonzero off-diagonal multipliers of its row update
    gen_updates: list[list[tuple[int, int, int]]] = []
    for i in range(n):
        ups = []
        for j in range(n):
            if j == i:
                continue
            m = labels[i][j]
            if m == 2:
                continue
            mono, coef = _TWO_COS[m]
            ups.append((j, mono, coef))
        gen_updates.append(ups)

    one, zero = ring.one(), ring.zero()
    identity = tuple(tuple(one if r == c else zero for c in range(n))
                     for r in range(n))
    scale_table = ring.scale_table

    def apply_gen(i: int, mat):
        # row_i of (M_i * mat): -row_i + sum over j of 2cos(pi/m_ij) * row_j
        old = mat[i]
        new_row = []
        for c in range(n):
            acc = [-v for v in old[c]]
            for j, mono, coef in gen_updates[i]:
                entry = mat[j][c]
                tab = scale_table[mono]
                for s in range(k):
                    v = entry[s]
                    if v:
                        for slot, basis_coef in tab[s]:
                            acc[slot] += coef * basis_coef * v
            new_row.append(tuple(acc))
        return mat[:i] + (tuple(new_row),) + mat[i + 1:]

    return identity, apply_gen


def _matrix_bfs(labels: Sequence[Sequence[int]], cap: int,
                max_depth: Optional[int] = None) -> OrderResult:
    n = len(labels)
    identity, apply_gen = _ring_machine(labels)
    visited = {identity}
    frontier = [identity]
    spheres = [1]
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            return OrderResult(None, None, None, tuple(spheres))
        nxt = []
        for mat in frontier:
            for i in range(n):
                newmat = apply_gen(i, mat)
                if newmat not in visited:
                    visited.add(newmat)
                    nxt.append(newmat)
        if not nxt:
            return OrderResult(True, len(visited), depth, tuple(spheres))
        depth += 1
        spheres.append(len(nxt))
        if len(visited) > cap:
            return OrderResult(None, None, None, tuple(spheres))
        frontier = nxt


def group_order(labels: Sequence[Sequence[int]], cap: int = 100_000) -> OrderResult:
    """(finite?, order, longest length, sphere sizes) for the whole graph.

    Rank <= 2 uses the closed dihedral form (covering labels >= 7 as well);
    higher rank runs the exact matrix BFS.  ``finite=None`` means the cap
    was exhausted without the search closing.
    """
    n = len(labels)
    if n == 0:
        return OrderResult(True, 1, 0, (1,))
    if n == 1:
        return OrderResult(True, 2, 1, (1, 1))
    if n == 2:
        m = labels[0][1]
        if m == 0:
            spheres = [1] + [2] * 12
            return OrderResult(None, None, None, tuple(spheres))
        size, longest = 2 * m, m
        spheres = [1] + [2] * (m - 1) + [1]
        if size <= cap:
            return OrderResult(True, size, longest, tuple(spheres))
        return OrderResult(None, None, None, ())
    return _matrix_bfs(labels, cap)


def subset_order(labels: Sequence[Sequence[int]], mask: int,
                 cap: int = 100_000) -> OrderResult:
    idx = list(obits(mask))
    sub = [[labels[i][j] for j in idx] for i in idx]
    return group_order(sub, cap)


def sphere_sizes(labels: Sequence[Sequence[int]], radius: int,
                 cap: int = 2_000_000) -> tuple[int, ...]:
    """Sizes of spheres 0..radius around the identity (exact BFS).

    Raises RuntimeError when the BFS passes ``cap`` elements before it
    reaches ``radius``, rather than report the unseen spheres as empty.
    """
    n = len(labels)
    if n == 0:
        return (1,) + (0,) * radius
    if n == 1:
        return tuple([1, 1] + [0] * (radius - 1))[: radius + 1]
    if n == 2:
        m = labels[0][1]
        sph = [1] + [2] * (radius if m == 0 else min(m - 1, radius))
        if m != 0 and m <= radius:
            sph.append(1)
        sph += [0] * (radius + 1 - len(sph))
        return tuple(sph[: radius + 1])
    res = _matrix_bfs(labels, cap, max_depth=radius)
    if res.finite is None and len(res.spheres) < radius + 1:
        raise RuntimeError(f"sphere_sizes cap of {cap} exhausted before "
                           f"radius {radius}")
    sph = list(res.spheres)
    sph += [0] * (radius + 1 - len(sph))
    return tuple(sph[: radius + 1])


def _clique_counts(labels: Sequence[Sequence[int]]) -> list[int]:
    """counts[k] = number of k-cliques of the commuting graph (label 2),
    the empty clique included."""
    n = len(labels)
    comm = [sum(1 << j for j in range(n) if j != i and labels[i][j] == 2)
            for i in range(n)]
    counts = [0] * (n + 1)

    def grow(size: int, candidates: int) -> None:
        counts[size] += 1
        for v in obits(candidates):
            grow(size + 1, candidates & comm[v] & ~((2 << v) - 1))

    grow(0, (1 << n) - 1)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def is_right_angled(labels: Sequence[Sequence[int]]) -> bool:
    """Every pair of distinct generators commutes (2) or is free (0)."""
    return all(labels[i][j] in (0, 2)
               for i in range(len(labels)) for j in range(i))


def racg_sphere_sizes(labels: Sequence[Sequence[int]],
                      radius: int) -> tuple[int, ...]:
    """Sizes of spheres 0..radius of a right-angled Coxeter group, exactly,
    from its growth series W(t).

    With x = t / (1 + t), 1 / W(t) is the sum over the cliques sigma of
    the graph of (-x)^|sigma| (Steinberg's identity; the clique subgroups
    are the spherical ones, each of growth (1 + t)^|sigma|).  With d the
    clique number, P(t) = (1 + t)^d / W(t) = sum over sigma of
    (-t)^|sigma| (1 + t)^(d - |sigma|) is an integer polynomial with
    P(0) = 1, so W = (1 + t)^d / P divides out in integers.
    """
    if not is_right_angled(labels):
        raise ValueError("not a right-angled label matrix")
    counts = _clique_counts(labels)
    d = len(counts) - 1
    poly = [0] * (d + 1)
    for k, c in enumerate(counts):
        for i in range(d - k + 1):
            poly[k + i] += (-1) ** k * c * math.comb(d - k, i)
    assert poly[0] == 1
    sizes: list[int] = []
    for m in range(radius + 1):
        sizes.append(math.comb(d, m)
                     - sum(poly[i] * sizes[m - i]
                           for i in range(1, min(m, d) + 1)))
    return tuple(sizes)


# ---------------------------------------------------------------------------
# eigenvalue oracle for sphericity / affineness
#
# Classical facts: a Coxeter system is finite iff its cosine matrix
# B_ij = -cos(pi/m_ij) (with B_ii = 1, cos(pi/inf) = 1) is positive
# definite, and an irreducible system is affine iff B is positive
# semidefinite and singular (the kernel is then 1-dimensional).


def _cos_pi_over(m: int) -> float:
    if m == 0:
        return 1.0
    return math.cos(math.pi / m)


def cosine_matrix(labels: Sequence[Sequence[int]], mask: int) -> list[list[float]]:
    idx = list(obits(mask))
    return [[1.0 if a == b else -_cos_pi_over(labels[a][b]) for b in idx]
            for a in idx]


_ZERO_BAND = 1e-9
_SAFE_BAND = 1e-5


def _eigs(labels, mask) -> list[float]:
    import numpy as np

    mat = cosine_matrix(labels, mask)
    return sorted(np.linalg.eigvalsh(np.array(mat, dtype=float)).tolist())


def _eigs_refined(labels, mask) -> list:
    """50-digit eigenvalues for matrices near the decision boundary."""
    from mpmath import mp

    with mp.workdps(50):
        idx = list(obits(mask))

        def entry(a, b):
            if a == b:
                return mp.mpf(1)
            m = labels[a][b]
            return -mp.cos(mp.pi / m) if m else mp.mpf(-1)

        mat = mp.matrix([[entry(a, b) for b in idx] for a in idx])
        eigs = mp.eigsy(mat, eigvals_only=True)
        return sorted(eigs)


def _classified_eigs(labels, mask) -> tuple[int, int]:
    """(#negative, #zero) eigenvalues of the cosine matrix, robustly;
    memoized on the induced label submatrix."""
    idx = list(obits(mask))
    return _submatrix_eigs(tuple(tuple(labels[a][b] for b in idx)
                                 for a in idx))


@functools.lru_cache(maxsize=1 << 14)
def _submatrix_eigs(labels: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    mask = (1 << len(labels)) - 1
    eigs = _eigs(labels, mask)
    # A finite label m with 1 - cos(pi/m) inside the safe band (m above
    # about 700) can put a non-zero eigenvalue inside the zero band: I2(m)
    # has eigenvalues 1 +- cos(pi/m), 4.9e-12 for m = 10^6.  Such matrices
    # are always refined.
    huge = any(m and 1 - _cos_pi_over(m) < _SAFE_BAND
               for row in labels for m in row)
    if huge or any(_ZERO_BAND < abs(e) < _SAFE_BAND for e in eigs):
        eigs = _eigs_refined(labels, mask)
        neg = sum(1 for e in eigs if e < -1e-30)
        zer = sum(1 for e in eigs if abs(e) <= 1e-30)
        return neg, zer
    neg = sum(1 for e in eigs if e < -_ZERO_BAND)
    zer = sum(1 for e in eigs if abs(e) <= _ZERO_BAND)
    return neg, zer


def is_spherical_subset(labels, mask: int) -> bool:
    """Subset generates a finite group iff its cosine matrix is PD."""
    if mask == 0:
        return True
    neg, zer = _classified_eigs(labels, mask)
    return neg == 0 and zer == 0


def _noncommuting_connected(labels, mask: int) -> bool:
    verts = list(obits(mask))
    if not verts:
        return False
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in verts:
            if u not in seen and labels[v][u] != 2:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


def is_affine_irreducible_subset(labels, mask: int) -> bool:
    """Connected diagram whose cosine matrix is PSD and singular."""
    if opopcount(mask) < 2:
        return False
    if not _noncommuting_connected(labels, mask):
        return False
    neg, zer = _classified_eigs(labels, mask)
    return neg == 0 and zer >= 1


# ---------------------------------------------------------------------------
# brute-force wideness: every ordered (P, Q) partition, conditions checked
# directly from the definition


def brute_wide_decompositions(labels, mask: int) -> list[tuple[int, int, str]]:
    """All ordered (P, Q) with P|Q = mask, disjoint, every cross label 2, and
    either both factors infinite or P irreducible affine of rank >= 3
    (Q arbitrary, possibly empty).  Memoized on (labels, mask); each call
    returns a fresh list."""
    return list(_wide_decompositions(tuple(map(tuple, labels)), mask))


@functools.lru_cache(maxsize=1 << 10)
def _wide_decompositions(labels: tuple[tuple[int, ...], ...],
                         mask: int) -> tuple[tuple[int, int, str], ...]:
    out = []
    for p in osubmasks(mask):
        if p == 0:
            continue
        q = mask & ~p
        ok_cross = True
        for i in obits(p):
            for j in obits(q):
                if labels[i][j] != 2:
                    ok_cross = False
                    break
            if not ok_cross:
                break
        if not ok_cross:
            continue
        if (q != 0 and not is_spherical_subset(labels, p)
                and not is_spherical_subset(labels, q)):
            out.append((p, q, "TwoInfiniteFactors"))
        if (opopcount(p) >= 3 and is_affine_irreducible_subset(labels, p)):
            out.append((p, q, "AffineRank3Plus"))
    return tuple(out)


def brute_is_wide(labels, mask: int) -> bool:
    return bool(brute_wide_decompositions(labels, mask))


def brute_wide_masks(labels) -> list[int]:
    n = len(labels)
    return [m for m in range(1, 1 << n) if brute_is_wide(labels, m)]


# ---------------------------------------------------------------------------
# brute-force avoidance (full quantifiers, plain BFS path search)


def _path_avoiding(labels, s: int, t: int, blocked: int) -> bool:
    """Path s -> t in the defining graph meeting ``blocked`` only at s, t."""
    n = len(labels)
    allowed = ((1 << n) - 1) & ~blocked | (1 << s) | (1 << t)
    if not (allowed >> s) & 1 or not (allowed >> t) & 1:
        return False
    seen = 1 << s
    stack = [s]
    while stack:
        v = stack.pop()
        if v == t:
            return True
        for u in range(n):
            if u != v and labels[v][u] != 0 and (allowed >> u) & 1 \
                    and not (seen >> u) & 1:
                seen |= 1 << u
                stack.append(u)
    return False


def brute_is_wide_avoidant(labels) -> tuple[bool, Optional[tuple]]:
    n = len(labels)
    for wm in brute_wide_masks(labels):
        for s in range(n):
            for t in range(s + 1, n):
                if not _path_avoiding(labels, s, t, wm):
                    return False, (wm, s, t)
    return True, None


def _common_neighbors_brute(labels, p_mask: int) -> int:
    n = len(labels)
    acc = (1 << n) - 1
    for i in obits(p_mask):
        nbrs = 0
        for j in range(n):
            if j != i and labels[i][j] != 0:
                nbrs |= 1 << j
        acc &= nbrs
    return acc & ~p_mask


def brute_is_wide_spherical_avoidant(labels) -> tuple[bool, Optional[tuple]]:
    n = len(labels)
    for wm in brute_wide_masks(labels):
        for p, q, _kind in brute_wide_decompositions(labels, wm):
            ground = _common_neighbors_brute(labels, p) & ~wm
            for k in osubmasks(ground):
                if not is_spherical_subset(labels, k):
                    continue
                blocked = wm | k
                for s in range(n):
                    if (k >> s) & 1:
                        continue
                    for t in range(s + 1, n):
                        if (k >> t) & 1:
                            continue
                        if not _path_avoiding(labels, s, t, blocked):
                            return False, (p, q, k, s, t)
    return True, None


# ---------------------------------------------------------------------------
# independent word-combinatorics helpers


def brute_geodesic_length(labels, word_idx: Sequence[int],
                          cap: int = 200_000) -> int:
    """Length of the element spelled by ``word_idx`` via matrix BFS.

    Multiplies the generator matrices in order, then BFS from the identity
    until the product appears; the sphere it appears in is the geodesic
    length.  Only usable when the product is within ``cap`` elements.
    """
    n = len(labels)
    present = {labels[i][j] for i in range(n) for j in range(i + 1, n)}
    for m in present:
        if m not in (0, 2) and m not in _TWO_COS:
            raise UnsupportedLabelError(f"label {m} outside the supported ring")
    ring = _Ring(4 in present, 6 in present, 5 in present)
    k = ring.k
    gen_updates = []
    for i in range(n):
        ups = []
        for j in range(n):
            if j == i or labels[i][j] == 2:
                continue
            mono, coef = _TWO_COS[labels[i][j]]
            ups.append((j, mono, coef))
        gen_updates.append(ups)
    one, zero = ring.one(), ring.zero()
    identity = tuple(tuple(one if r == c else zero for c in range(n))
                     for r in range(n))
    scale_table = ring.scale_table

    def apply_gen(i, mat):
        old = mat[i]
        new_row = []
        for c in range(n):
            acc = [-v for v in old[c]]
            for j, mono, coef in gen_updates[i]:
                entry = mat[j][c]
                tab = scale_table[mono]
                for s in range(k):
                    v = entry[s]
                    if v:
                        for slot, bc in tab[s]:
                            acc[slot] += coef * bc * v
            new_row.append(tuple(acc))
        return mat[:i] + (tuple(new_row),) + mat[i + 1:]

    target = identity
    for i in reversed(word_idx):
        target = apply_gen(i, target)

    if target == identity:
        return 0
    visited = {identity}
    frontier = [identity]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for mat in frontier:
            for i in range(n):
                newmat = apply_gen(i, mat)
                if newmat == target:
                    return depth
                if newmat not in visited:
                    visited.add(newmat)
                    nxt.append(newmat)
        if len(visited) > cap:
            raise RuntimeError("brute_geodesic_length cap exhausted")
        frontier = nxt
    raise RuntimeError("unreachable")


# ---------------------------------------------------------------------------
# ends oracle (growth + separator search, independent implementations)


def oracle_ends(labels, radius: int = 9, order_cap: int = 100_000) -> str:
    """'finite' | 'two' | 'one' | 'multi' from growth and separators.

    An infinite Coxeter group has more than one end iff some spherical
    subset (possibly empty) separates the defining graph; with no such
    separator the group is one-ended, so the growth computation is only
    needed to split two-ended from infinitely-ended.  Two-ended means
    virtually Z, i.e. eventually constant nonzero sphere sizes.
    """
    n = len(labels)
    full = (1 << n) - 1
    res = group_order(labels, cap=order_cap)
    if res.finite:
        return "finite"
    has_separator = False
    for k_mask in range(1 << n):
        if opopcount(k_mask) >= n - 1:
            continue
        if not is_spherical_subset(labels, k_mask):
            continue
        comps = _graph_components(labels, full & ~k_mask)
        if len(comps) >= 2:
            has_separator = True
            break
    if not has_separator:
        return "one"
    # a right-angled group's spheres come from its growth series, exactly
    # and at once; ``tests/test_growth_series.py`` checks the series
    # against the matrix BFS
    sizes = racg_sphere_sizes if is_right_angled(labels) else sphere_sizes
    sph = sizes(labels, radius)
    tail = sph[-4:]
    if len(set(tail)) == 1 and tail[0] > 0:
        more = sizes(labels, radius + 3)
        if len(set(more[-6:])) == 1:
            return "two"
    return "multi"


def _graph_components(labels, mask: int) -> list[int]:
    out = []
    left = mask
    while left:
        start = left & -left
        comp = start
        stack = [start.bit_length() - 1]
        while stack:
            v = stack.pop()
            for u in obits(mask & ~comp):
                if labels[v][u] != 0:
                    comp |= 1 << u
                    stack.append(u)
        out.append(comp)
        left &= ~comp
    return out


# ---------------------------------------------------------------------------
# exact element equality for words (reflection comparison, geodesy)


def _dihedral_append(m: int, state, gen: int):
    """Append generator ``gen`` (0 or 1) to a dihedral normal form.

    Elements of the rank-2 group with label m (0 = infinite) are alternating
    words; the state is (length, first letter), with the two spellings of
    the longest element (length == m) identified as (m, -1).
    """
    length, first = state
    if length == 0:
        return (1, gen)
    if m != 0 and length == m:
        # the longest element has a spelling ending with either letter;
        # cancel against the one ending with gen
        f = gen if m % 2 == 1 else 1 - gen
        return (m - 1, f)
    last = first if length % 2 == 1 else 1 - first
    if gen == last:
        length -= 1
        return (length, first if length else None)
    length += 1
    if m != 0 and length == m:
        return (m, -1)  # both spellings equal: forget the first letter
    return (length, first)


def _dihedral_normal_form(m: int, word_idx: Sequence[int]):
    state = (0, None)
    for gen in word_idx:
        state = _dihedral_append(m, state, gen)
    return state


def word_element(labels: Sequence[Sequence[int]], word_idx: Sequence[int]):
    """A hashable exact invariant that two words share iff they represent
    the same group element (rank <= 2: dihedral normal form; otherwise the
    matrix of the word in the geometric representation)."""
    n = len(labels)
    if n == 1:
        return len(word_idx) % 2
    if n == 2:
        return _dihedral_normal_form(labels[0][1], word_idx)
    identity, apply_gen = _ring_machine(labels)
    mat = identity
    for gen in reversed(word_idx):
        mat = apply_gen(gen, mat)
    return mat


def edge_reflections(labels: Sequence[Sequence[int]],
                     word_idx: Sequence[int]) -> list:
    """Exact invariants of the reflections dual to the word's edges: the
    i-th is represented by w_1 ... w_{i-1} w_i w_{i-1} ... w_1."""
    out = []
    for i in range(1, len(word_idx) + 1):
        pre = list(word_idx[: i - 1])
        refl = pre + [word_idx[i - 1]] + pre[::-1]
        out.append(word_element(labels, refl))
    return out


def oracle_is_geodesic(labels: Sequence[Sequence[int]],
                       word_idx: Sequence[int]) -> bool:
    """Geodesy via the wall criterion: a word is geodesic iff the
    reflections dual to its edges are pairwise distinct."""
    refl = edge_reflections(labels, word_idx)
    return len(set(refl)) == len(refl)
