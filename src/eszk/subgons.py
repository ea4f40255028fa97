"""Sub-polygon enumeration, convex sub-k-gon search, and triple colorings.

A sub-k-gon is the polygon formed by a strictly increasing k-tuple of
vertex indices, order preserved.  For strict polygons a sub-k-gon is
convex exactly when all its vertex triples share one orientation sign,
so one sign table per polygon and one exhaustive DFS for monochromatic
index sets serve every strict search and count.  The table holds one
bitset per index pair (a, b), the vertices c > b with (a, b, c) turning
left; the DFS derives the right-turning ones as the complement among the
vertices above b, since no determinant vanishes on strict input.  The
table's C(n, 3) determinants are the ones strictness is defined by, so
its build decides strictness too: it stops at the first vanishing one,
and a polygon without a table takes the non-strict route.  The DFS stops
one level above the leaves: each (k-1)-prefix comes with the bitset of
the vertices that complete it, so a count adds bit counts and never
visits a leaf, while a list or a find expands the bitset in ascending
order.

Non-strict polygons are searched by a second DFS over index prefixes,
pruned by supporting lines.  One table per polygon (O(n^3) determinants)
holds, for each index pair, the bitsets of the vertices strictly left
and strictly right of its line, both empty when the two points
coincide.  A vertex set lies weakly on one side exactly when it misses
one of the two, so a candidate costs O(k) mask operations.  Every edge
of a leaf, the closing edge included, has all its vertices weakly on
one side.  That is necessary, as an edge of a convex polygon whose ends
differ lies on the hull boundary, hence on a supporting line.  On
pairwise distinct points it is also sufficient.  Dimension <= 1 is
convex outright.  On dimension 2, with hull H: (1) each edge lies in the
part of H on its supporting line, a side of H; (2) a maximal run of
consecutive vertices on the line of a side starts and ends at its two
corners, which are vertices, as an edge from a point inside the side to
a point off its line would separate them, so the run covers the side;
(3) no corner has both its edges on one side's line, or it would sit
inside a run and appear twice.  So the runs go from corner to adjacent
corner, each corner once: the edges trace the hull cycle.  A leaf whose
own points repeat goes to the oracle, which stays necessary there: the
doubly wound triangle a, b, c, a, b, c is convex, while the traced-back
triangle a, b, c, b passes the edge test and leaves the side ca
uncovered.  The sorted-triple sign rule of the strict DFS is not sound
here: in the doubly wound triangle (a, c, b) has the other sign.  The
oracle-only count, which certificates rest on, enumerates every
k-subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .convexity import _oracle_fail
from .errors import CapabilityError, ExhaustionError, InputError, PreconditionError
from .geometry import Polygon, _check_int, _sign_scan, perturb_to_strict

GOOD = "good"
BAD = "bad"

# Hard cap on exhaustive subset enumeration (roughly a minute at desk scale).
DEFAULT_BUDGET = 10**7

# Perturbation parameters for searching non-strict polygons; the result is
# always re-verified on the original, so nothing rests on these.
_PERTURB_SCALE = 10**4
_PERTURB_JITTER = 1
_PERTURB_SEED = 0


@dataclass(frozen=True)
class TripleColoring:
    """Good/bad classification of every 3-element index subset of a
    strict polygon: good iff the orientation determinant is positive."""

    n: int
    colors: Mapping[tuple[int, int, int], str]


def sub_polygon(P: Polygon, s) -> Polygon:
    """The sub-polygon (V_{i0}, ..., V_{ik-1}) for strictly increasing
    indices s in 0..n-1."""
    idx = tuple(s)
    if not idx:
        raise InputError("index subset must not be empty")
    for i in idx:
        _check_int("index", i, 0, len(P) - 1, "n - 1")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise InputError(f"indices must be strictly increasing, got {idx}")
    return Polygon(P._xy[i] for i in idx)


def triple_coloring(P: Polygon) -> TripleColoring:
    """Color every index triple good (positive orientation) or bad
    (negative).  Defined only for strict polygons, where no determinant
    vanishes; the sign table decides that as it is built."""
    pos = _polygon_signs(P._xy)
    if pos is None:
        raise PreconditionError("triple_coloring needs a strict polygon")
    n = len(pos)
    colors = {
        (a, b, c): GOOD if pos[a][b] >> c & 1 else BAD
        for a, b, c in itertools.combinations(range(n), 3)
    }
    return TripleColoring(n=n, colors=colors)


def _polygon_signs(vs):
    # For each pair a < b, the bitset N+(a, b) of the vertices c > b
    # whose triple (a, b, c) turns left, or None at the first index
    # triple a < b < c whose determinant vanishes.  So the table exists
    # exactly when vs is strict (a repeated point is collinear with
    # every third one, and n <= 2 has no triple), and N-(a, b) is every
    # other vertex above b, which _monochromatic derives instead of
    # storing.  Each anchor a lists its later vertices once, as
    # (1 << c, x - ax, y - ay), so the determinant of (a, b, c) is
    # dx * y - x * dy over the entries (_, dx, dy) of b and (_, x, y) of c.
    n = len(vs)
    pos = [[0] * n for _ in range(n)]
    for a, (ax, ay) in enumerate(vs):
        rel = [(1 << c, x - ax, y - ay) for c, (x, y) in enumerate(vs[a + 1 :], a + 1)]
        row = pos[a]
        for b, (_, dx, dy) in enumerate(rel, a + 1):
            p = 0
            for bit, x, y in rel[b - a :]:
                d = dx * y - x * dy
                if d > 0:
                    p |= bit
                elif d == 0:
                    return None
            row[b] = p
    return pos


def _monochromatic(pos_t, k: int, budget):
    # Yield, in lexicographic order, each (k-1)-prefix that some vertex
    # completes to a k-subset whose index triples share one sign, with
    # the nonzero bitset of those vertices; expanding each bitset in
    # ascending order lists the k-subsets in lexicographic order, and a
    # count adds up their bit counts without visiting a leaf.  A frame
    # keeps one mask per sign of the vertices that extend the prefix in
    # that sign; choosing v ANDs N+(a, v) into the positive mask for
    # every chosen a and clears their union from the negative one, which
    # holds only vertices above v, so that clearing is the AND with
    # every N-(a, v).  A mask that cannot reach k is dropped.  A yield
    # counts as one node, its first leaf, so the nodes up to the first
    # hit are those of a walk to that leaf.  k = 1 yields the empty
    # prefix with every vertex.
    full = (1 << len(pos_t)) - 1
    if k == 1:
        if budget < 1:
            raise CapabilityError(f"subgon search exceeded the budget of {budget} nodes")
        yield (), full
        return
    chosen: list[int] = []
    stack = [(full, full, full)]  # (untried, positive mask, negative mask)
    visited = 0
    while stack:
        untried, pos, neg = stack[-1]
        t = len(chosen)
        if t + untried.bit_count() < k:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        low = untried & -untried
        v = low.bit_length() - 1
        rest = untried ^ low  # the untried candidates above v
        stack[-1] = (rest, pos, neg)
        p = pos & rest if pos & low else 0
        q = neg & rest if neg & low else 0
        left = 0  # the union of N+(a, v) over the chosen a
        for a in chosen:
            row = pos_t[a][v]
            p &= row
            left |= row
        q &= ~left
        parent = t + 2 == k  # v ends a (k-1)-prefix, completed by p | q
        visited += 2 if parent and p | q else 1
        if visited > budget:
            raise CapabilityError(f"subgon search exceeded the budget of {budget} nodes")
        if parent:
            # the union: at the root p and q are both rest
            if p | q:
                yield (*chosen, v), p | q
            continue
        need = k - t - 1
        p = p if p.bit_count() >= need else 0
        q = q if q.bit_count() >= need else 0
        if p | q:
            chosen.append(v)
            stack.append((p | q, p, q))


def _first_leaf(groups):
    # The first k-subset of _monochromatic's (prefix, completions)
    # stream, or None.
    for prefix, last in groups:
        return (*prefix, (last & -last).bit_length() - 1)
    return None


def _leaves(groups):
    # Every k-subset of _monochromatic's stream, in lexicographic order.
    for prefix, last in groups:
        while last:
            low = last & -last
            yield (*prefix, low.bit_length() - 1)
            last ^= low


def _side_table(vs):
    # For each pair u < v, the bitsets pos(u, v) and neg(u, v) of the
    # vertices w with orient(V_u, V_v, V_w) > 0 and < 0.  A set m has
    # every vertex weakly on one side of the line exactly when m misses
    # neg or misses pos, and that reads the same for the edge u -> v and
    # v -> u, so the pairs u < v serve both.  When V_u = V_v every
    # orientation vanishes and both masks are empty: a degenerate edge
    # constrains nothing.  Each anchor u lists every vertex once, as
    # (1 << w, x - ux, y - uy), so the determinant of (u, v, w) is
    # dx * y - x * dy over the entries (_, dx, dy) of v and (_, x, y) of w.
    n = len(vs)
    pos = [[0] * n for _ in range(n)]
    neg = [[0] * n for _ in range(n)]
    for u, (ux, uy) in enumerate(vs):
        rel = [(1 << w, x - ux, y - uy) for w, (x, y) in enumerate(vs)]
        row_p, row_n = pos[u], neg[u]
        for v in range(u + 1, n):
            _, dx, dy = rel[v]
            p = q = 0
            for bit, x, y in rel:
                d = dx * y - x * dy
                if d > 0:
                    p |= bit
                elif d < 0:
                    q |= bit
            row_p[v], row_n[v] = p, q
    return pos, neg


def _convex_subsets(vs, k: int, budget):
    # The k-subsets whose sub-k-gon is convex, in lexicographic order, by
    # a DFS over index prefixes c_0 < ... < c_t.  A candidate must keep
    # every prefix edge, the new one (c_t, w) included, with all chosen
    # vertices weakly on one side: each edge (a, b) allows the
    # complement of neg(a, b) when the chosen vertices miss neg(a, b),
    # and of pos(a, b) when they miss pos(a, b), and a prefix edge with
    # no allowed side leaves no candidate.  So only a leaf tests its new
    # edge and its closing edge (w, c_0), and only a leaf that repeats a
    # point needs the oracle (module docstring).
    pos, neg = _side_table(vs)

    def one_side(a, b, m):
        return not m & neg[a][b] or not m & pos[a][b]

    chosen: list[int] = []
    m = 0  # bitset of chosen
    stack = [(1 << len(vs)) - 1]  # the untried candidates of each prefix
    visited = 0
    while stack:
        untried = stack[-1]
        t = len(chosen)
        if t + untried.bit_count() < k:
            stack.pop()
            if chosen:
                m ^= 1 << chosen.pop()
            continue
        low = untried & -untried
        v = low.bit_length() - 1
        rest = stack[-1] = untried ^ low  # the untried candidates above v
        visited += 1
        if visited > budget:
            raise CapabilityError(f"subgon search exceeded the budget of {budget} nodes")
        ext = m | low
        if t + 1 == k:
            if chosen and not (one_side(chosen[-1], v, ext) and one_side(chosen[0], v, ext)):
                continue
            idx = (*chosen, v)
            pts = tuple(vs[i] for i in idx)
            if len(set(pts)) == k or _oracle_fail(pts) is None:
                yield idx
            continue
        cand = rest
        path = chosen + [v]
        for a, b in zip(path, path[1:]):
            p, q = pos[a][b], neg[a][b]
            cand &= (0 if ext & q else ~q) | (0 if ext & p else ~p)
        if t + 1 + cand.bit_count() >= k:
            chosen.append(v)
            m = ext
            stack.append(cand)


def find_totally_monochromatic(coloring: TripleColoring, m: int):
    """First (lexicographically) m-subset all of whose triples share one
    color, as (subset, GOOD or BAD), or None.  Runs the same bitset DFS
    as the convex-subgon search, capped at DEFAULT_BUDGET nodes.  The
    coloring must give every increasing index triple of range(n), and
    nothing else, the color GOOD or BAD; otherwise InputError."""
    _check_int("m", m, 3)
    n = _check_int("coloring n", coloring.n, 0)
    colors = coloring.colors
    if len(colors) != math.comb(n, 3):
        raise InputError(f"coloring has {len(colors)} triples; n = {n} has {math.comb(n, 3)}")
    pos = [[0] * n for _ in range(n)]
    for a, b, c in itertools.combinations(range(n), 3):
        color = colors.get((a, b, c))
        if color == GOOD:
            pos[a][b] |= 1 << c
        elif color != BAD:
            problem = "lacks" if (a, b, c) not in colors else f"has the unknown color {color!r} for"
            raise InputError(f"coloring {problem} triple {(a, b, c)}")
    if m > n:
        return None
    hit = _first_leaf(_monochromatic(pos, m, DEFAULT_BUDGET))
    return hit and (hit, GOOD if colors[hit[:3]] == GOOD else BAD)


def _subset_total(n: int, k: int, budget) -> int:
    # C(n, k), checked before an exhaustive count tests any subset.
    _check_int("k", k, 1, n, "n")
    total = math.comb(n, k)
    if total > budget:
        raise CapabilityError(f"C({n},{k}) = {total} subsets exceed the budget {budget}")
    return total


def _oracle_convex(vs, k: int):
    # Yield, in lexicographic order, each k-subset the oracle's core calls convex.
    for idx, sub in zip(itertools.combinations(range(len(vs)), k), itertools.combinations(vs, k)):
        if _oracle_fail(sub) is None:
            yield idx


def count_convex_subgons(
    P: Polygon,
    k: int,
    include_subsets: bool = False,
    budget: int = DEFAULT_BUDGET,
    oracle_only: bool = False,
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Count the convex sub-k-gons; fails when C(n, k) exceeds the budget.

    Returns (count, subsets), where subsets lists the convex index tuples
    in lexicographic order when include_subsets is set, else None.  k
    must be an int in 1..n.  A strict polygon runs the monochromatic DFS
    over its sign table, any other the supporting-line DFS; both give
    exactly the oracle's answers (proof in the module docstring).  With
    oracle_only the definition-level test is applied to every
    sub-polygon instead; certificate verification walks the same
    generator of oracle-convex subsets, but stops at its first hit.
    """
    _subset_total(len(P), k, budget)
    vs = P._xy
    if oracle_only:
        hits = _oracle_convex(vs, k)
    elif (signs := _polygon_signs(vs)) is not None:
        groups = _monochromatic(signs, k, math.inf)
        if not include_subsets:
            return sum(last.bit_count() for _, last in groups), None
        hits = _leaves(groups)
    else:
        hits = _convex_subsets(vs, k, math.inf)
    if not include_subsets:
        return sum(1 for _ in hits), None
    subsets = list(hits)
    return len(subsets), subsets


def find_convex_subgon(P: Polygon, k: int, budget: int = DEFAULT_BUDGET):
    """Find an index subset whose sub-k-gon is convex, or None.

    k must be an int in 1..n; k <= 3 returns the first k indices.  On a
    strict polygon the answer is the lexicographically least convex
    subset, from the monochromatic DFS over its sign table, and its hit
    is checked by the sign scan of is_convex's sign route.  A non-strict
    polygon is first searched in a strict perturbation, whose hit stands
    only if the oracle's core calls it convex on the original; otherwise
    the answer is the first leaf of the exact supporting-line DFS of
    count_convex_subgons (proof in the module docstring), so the
    perturbation is an accelerator, never an authority.  budget caps DFS
    nodes only: the O(n^3) table is built in full before the DFS starts.
    """
    _check_int("k", k, 1, len(P), "n")
    if k <= 3:
        return tuple(range(k))
    vs = P._xy
    signs = _polygon_signs(vs)
    if signs is not None:
        hit = _first_leaf(_monochromatic(signs, k, budget))
        if hit is not None and _sign_scan(tuple(vs[i] for i in hit)) is not None:
            raise RuntimeError(
                f"internal inconsistency: monochromatic subset {hit} is not a convex sub-{k}-gon"
            )
        return hit

    try:
        Q = perturb_to_strict(P, _PERTURB_SCALE, _PERTURB_JITTER, _PERTURB_SEED)
        # strict by construction, so Q always has a table
        hit = _first_leaf(_monochromatic(_polygon_signs(Q._xy), k, budget))
    except (InputError, ExhaustionError):
        hit = None  # no strict perturbation
    if hit is not None and _oracle_fail(tuple(vs[i] for i in hit)) is None:
        return hit

    # ground truth: the first convex subset of the exact DFS
    return next(_convex_subsets(vs, k, budget), None)
