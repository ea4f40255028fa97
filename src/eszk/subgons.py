"""Sub-polygon enumeration, convex sub-k-gon search, and triple colorings.

A sub-k-gon is the polygon formed by a strictly increasing k-tuple of
vertex indices, order preserved.  For strict polygons a sub-k-gon is
convex exactly when all its vertex triples share one orientation sign,
so one sign table per polygon and one exhaustive DFS for monochromatic
index sets serve every strict search and count.  Subset enumeration is
left for the oracle-only and non-strict counts, and as the fallback
after a search of the perturbed polygon misses.  Off the oracle-only
route it builds one table of collinear triples per polygon (O(n^3) bit
operations, from the same builder as the sign table) and reads each
subset's strictness off it with mask ANDs, so a subset costs its
O(k) sign scan, or the oracle when it is not strict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .convexity import _is_convex_vertices, _oracle_verdict, _sign_mismatch
from .errors import CapabilityError, ExhaustionError, InputError, PreconditionError
from .geometry import Polygon, classify, perturb_to_strict

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


def validate_index_subset(s, n: int) -> tuple[int, ...]:
    """Check that s is a strictly increasing tuple of indices in [0, n)."""
    idx = tuple(s)
    if not idx:
        raise InputError("index subset must not be empty")
    prev = -1
    for i in idx:
        if type(i) is not int:
            raise InputError(f"index {i!r} is not a plain int")
        if not 0 <= i < n:
            raise InputError(f"index {i} out of range for a {n}-gon")
        if i <= prev:
            raise InputError(f"indices must be strictly increasing, got {idx}")
        prev = i
    return idx


def sub_polygon(P: Polygon, s) -> Polygon:
    """The sub-polygon (V_{i0}, ..., V_{ik-1}) for increasing indices s."""
    idx = validate_index_subset(s, len(P))
    return Polygon(P.vertices[i] for i in idx)


def triple_coloring(P: Polygon) -> TripleColoring:
    """Color every index triple good (positive orientation) or bad
    (negative).  Defined only for strict polygons, where no determinant
    vanishes."""
    rep = classify(P)
    if not rep.strict:
        raise PreconditionError("triple_coloring needs a strict polygon")
    pos, _ = _polygon_signs(P.vertices)
    colors = {
        (a, b, c): GOOD if pos[a][b] >> c & 1 else BAD
        for a, b, c in itertools.combinations(range(rep.n), 3)
    }
    return TripleColoring(n=rep.n, colors=colors)


def _sign_table(n: int, row):
    # For each pair a < b, the bitsets N+(a, b) and N-(a, b) of the
    # vertices c > b whose triple (a, b, c) has positive and negative
    # sign.  row(a, b) gives N+(a, b); the table only serves strict
    # inputs, where N-(a, b) is every other vertex above b.
    pos = [[0] * n for _ in range(n)]
    neg = [[0] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        pos[a][b] = p = row(a, b)
        neg[a][b] = ((1 << n) - (2 << b)) ^ p
    return pos, neg


def _polygon_signs(vs):
    def row(a, b):
        (ax, ay), (bx, by) = vs[a], vs[b]
        dx, dy = bx - ax, by - ay
        p = 0
        for c in range(b + 1, len(vs)):
            cx, cy = vs[c]
            if dx * (cy - ay) > (cx - ax) * dy:
                p |= 1 << c
        return p

    return _sign_table(len(vs), row)


def _monochromatic(table, n: int, k: int, budget):
    # Yield (subset, GOOD or BAD) for every k-subset whose index triples
    # share one sign, in lexicographic order.  A frame keeps one mask per
    # sign of the vertices that extend the prefix in that sign; choosing v
    # ANDs in N(a, v) for every chosen a, and a mask that cannot reach k
    # is dropped.
    pos_t, neg_t = table
    full = (1 << n) - 1
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
        visited += 1
        if visited > budget:
            raise CapabilityError(f"subgon search exceeded the budget of {budget} nodes")
        if t + 1 == k:
            yield tuple(chosen) + (v,), (GOOD if pos & low else BAD)
            continue
        p = pos & rest if pos & low else 0
        q = neg & rest if neg & low else 0
        for a in chosen:
            p &= pos_t[a][v]
            q &= neg_t[a][v]
        need = k - t - 1
        p = p if p.bit_count() >= need else 0
        q = q if q.bit_count() >= need else 0
        if p | q:
            chosen.append(v)
            stack.append((p | q, p, q))


def _check_subset_budget(n: int, k: int, budget) -> None:
    total = math.comb(n, k)
    if total > budget:
        raise CapabilityError(f"C({n},{k}) = {total} subsets exceed the budget {budget}")


def _collinear_pairs(vs):
    # (bitset {a, b}, Z(a, b)) for each pair a < b with a nonempty
    # Z(a, b): the vertices c > b with (a, b, c) collinear.  N-(a, b) of
    # vs holds the signs <= 0, and mirroring the polygon flips every
    # sign, so N+(a, b) of the mirror holds those < 0.
    _, nonpos = _polygon_signs(vs)
    neg, _ = _polygon_signs([(-x, y) for x, y in vs])
    return [
        ((1 << a) | (1 << b), nonpos[a][b] ^ neg[a][b])
        for a, b in itertools.combinations(range(len(vs)), 2)
        if nonpos[a][b] != neg[a][b]
    ]


def _convex_subsets(vs, k: int, oracle_only: bool):
    # Lexicographic enumeration of the k-subsets whose sub-k-gon is
    # convex.  With oracle_only the oracle decides each.  Otherwise a
    # subset is strict unless it holds both ends of a collinear pair and
    # a vertex of its Z, read with mask ANDs; a strict subset is decided
    # by the sign scan, complete there, any other by the oracle.  That is
    # the verdict of _is_convex_vertices, without re-deriving dimension
    # and strictness per subset.
    lines = None if oracle_only else _collinear_pairs(vs)
    bits = [1 << i for i in range(len(vs))]
    for idx in itertools.combinations(range(len(vs)), k):
        sub = tuple(vs[i] for i in idx)
        if lines is not None:
            mask = sum(map(bits.__getitem__, idx))
            if not any(mask & ab == ab and mask & z for ab, z in lines):
                if _sign_mismatch(sub) is None:
                    yield idx
                continue
        if _oracle_verdict(sub).convex:
            yield idx


def find_totally_monochromatic(coloring: TripleColoring, m: int):
    """First (lexicographically) m-subset all of whose triples share one
    color, as (subset, GOOD or BAD), or None.  Runs the same bitset DFS
    as the convex-subgon search, capped at DEFAULT_BUDGET nodes."""
    if m < 3:
        raise InputError(f"m must be >= 3, got {m}")
    n = coloring.n
    if m > n:
        return None
    colors = coloring.colors
    table = _sign_table(
        n, lambda a, b: sum(1 << c for c in range(b + 1, n) if colors[(a, b, c)] == GOOD)
    )
    return next(_monochromatic(table, n, m, DEFAULT_BUDGET), None)


def count_convex_subgons(
    P: Polygon,
    k: int,
    include_subsets: bool = False,
    budget: int = DEFAULT_BUDGET,
    oracle_only: bool = False,
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Count the convex sub-k-gons; fails when C(n, k) exceeds the budget.

    Returns (count, subsets) where subsets lists the convex index tuples
    in lexicographic order when include_subsets is set.  Strict polygons
    count the leaves of the monochromatic DFS over their sign table;
    other polygons test every k-subset, with the sign scan when the
    collinear-triple table shows it strict and the oracle otherwise.
    With oracle_only the definition-level test is applied to every
    sub-polygon, bypassing the fast sign route; certificate verification
    relies on that mode.
    """
    n = len(P)
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= {n}, got {k}")
    _check_subset_budget(n, k, budget)
    vs = P.vertices
    if not oracle_only and classify(P).strict:
        # C(n, k) <= budget bounds this walk to C(n+1, k) nodes
        hits = (s for s, _ in _monochromatic(_polygon_signs(vs), n, k, math.inf))
    else:
        hits = _convex_subsets(vs, k, oracle_only)
    if not include_subsets:
        return sum(1 for _ in hits), None
    subsets = list(hits)
    return len(subsets), subsets


def find_convex_subgon(P: Polygon, k: int, budget: int = DEFAULT_BUDGET):
    """Find an index subset whose sub-k-gon is convex, or None.

    k <= 3 subsets are always convex.  On a strict polygon the answer is
    the lexicographically least convex subset, from the exhaustive
    monochromatic DFS over the sign table (capped at budget nodes); its
    None is final.  Non-strict polygons are perturbed into strict
    position and searched there by the same DFS; a hit is re-verified on
    the original polygon, with enumeration of all C(n, k) <= budget
    subsets as the fallback, so the perturbation is an accelerator,
    never an authority.
    """
    n = len(P)
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if k <= 3:
        return tuple(range(k))
    vs = P.vertices

    def first_hit(Q):
        found = next(_monochromatic(_polygon_signs(Q.vertices), n, k, budget), None)
        return found and found[0]

    if classify(P).strict:
        hit = first_hit(P)
        if hit is not None and not _is_convex_vertices(tuple(vs[i] for i in hit)).convex:
            raise RuntimeError(
                f"internal inconsistency: monochromatic subset {hit} is not a convex sub-{k}-gon"
            )
        return hit

    try:
        hit = first_hit(perturb_to_strict(P, _PERTURB_SCALE, _PERTURB_JITTER, _PERTURB_SEED))
    except (InputError, ExhaustionError):
        hit = None  # no strict perturbation
    if hit is not None and _is_convex_vertices(tuple(vs[i] for i in hit)).convex:
        return hit

    # ground-truth fallback: lexicographic enumeration with early exit
    _check_subset_budget(n, k, budget)
    return next(_convex_subsets(vs, k, False), None)
