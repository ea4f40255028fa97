"""Convexity decisions for ordered polygons.

A polygon here is convex when the union of its edges equals the boundary
of the convex hull of its vertex set.  Two independent deciders live in
this module:

* ``sign_test`` -- the fast route for strict polygons: convexity is
  equivalent to 3n-8 orientation determinants sharing one sign.
* ``oracle_test`` -- the definition-level route for arbitrary polygons:
  compare the edge union against the hull boundary with exact integer
  interval arithmetic.

``is_convex`` dispatches between them; the two routes are cross-checked
against each other in the test suite and must never disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapabilityError, PreconditionError
from .geometry import Polygon, _dimension, _hull, _is_strict, _sign_scan

# Factorial enumeration cap for the permutation census.
PERMUTATION_LIMIT = 8

METHOD_SIGN_TEST = "sign_test"
METHOD_ORACLE = "oracle"
METHOD_SMALL_N = "small_n"
METHOD_DIM_LE_1 = "dim_le_1"


@dataclass(frozen=True)
class ConvexityVerdict:
    convex: bool
    method: str                 # one of the METHOD_* constants
    witness: str | None = None  # set exactly when convex is False


@dataclass(frozen=True)
class ToOneSideWitness:
    """One integer inward normal per edge.

    For edge j the normal n_j satisfies <n_j, V_r> >= <n_j, V_j> for every
    vertex V_r, with equality at V_{j+1}.  Normals are not unit length:
    only sign comparisons matter, and those are invariant under positive
    scaling, so we stay in integer arithmetic.
    """

    normals: tuple[tuple[int, int], ...]


def sign_test(P: Polygon) -> ConvexityVerdict:
    """Minimal orientation-sign convexity test for strict polygons, n >= 4.

    is_convex's sign route: scans the 3n-8 determinants whose common
    sign characterizes convexity, stopping at the first mismatch; the
    witness names the first failing triple.  Raises PreconditionError
    on non-strict or short input, where is_convex takes another route
    (use oracle_test there).  A convex scan proves strictness (see
    is_convex), so that answer costs O(n); strictness is checked, in
    O(n^2) expected time, only on a mismatch.
    """
    verdict = is_convex(P)
    if verdict.method != METHOD_SIGN_TEST:
        # on n >= 4 every other route means a non-strict polygon
        vs = P._xy
        raise PreconditionError(
            f"sign_test needs a strict polygon with n >= 4 "
            f"(got n={len(vs)}, strict={len(vs) <= 3 and _is_strict(vs)}); use oracle_test instead"
        )
    return verdict


def _side_pos(p, q, a):
    # The closed-side predicate: where a sits on the segment from p to
    # q != p, as its exact inner product with q - p (0 at p, |q - p|^2
    # at q), or None off the segment.  On the line pq that inner product
    # lies in [0, |q - p|^2] exactly when a lies between p and q.
    (px, py), (qx, qy), (x, y) = p, q, a
    dx, dy = qx - px, qy - py
    x -= px
    y -= py
    if dx * y != dy * x:
        return None
    t = x * dx + y * dy
    return t if 0 <= t <= dx * dx + dy * dy else None


def _edge_side(hull, corner, a, b):
    # The first side of a hull cycle, in hull order, holding both ends of
    # the edge from a to b, as (s, position of a, position of b) by
    # _side_pos on the side from hull[s] to the next corner, or None.  corner
    # maps each corner to its index in the cycle.  A corner lies on its
    # two incident sides and on no other, so an edge with a corner end is
    # tested on those two only.  Two distinct corners share a side
    # exactly when they are adjacent in the cycle, and then the edge is
    # that side, reported with both positions None: it covers the side
    # whole.
    h = len(hull)
    i, j = corner.get(a), corner.get(b)
    if i is not None and j is not None and i != j:
        if j - i in (1, 1 - h):
            return i, None, None
        if i - j in (1, 1 - h):
            return j, None, None
        return None
    c = j if i is None else i
    for s in range(h) if c is None else (c - 1, c) if c else (0, h - 1):
        p, q = hull[s], hull[s + 1 - h]
        sa = _side_pos(p, q, a)
        if sa is not None:
            sb = _side_pos(p, q, b)
            if sb is not None:
                return s, sa, sb
    return None


def _oracle_fail(vs):
    """The oracle's walk without a verdict: None when vs is convex by the
    definition (oracle_test), otherwise the index of the first edge that
    leaves the hull boundary, or else the first hull side (p, q), in hull
    order, that the edges leave uncovered.  Exhaustive counts and the
    leaves of the supporting-line walk test this directly, so they build
    no verdict and no witness string."""
    hull = _hull(vs)
    h = len(hull)
    if h <= 2:
        # Dimension <= 1: the hull is a point or segment; the edge walk
        # is connected and touches both endpoints, so it covers the whole
        # hull.
        return None

    # One walk over the edges matches each edge to its hull side and
    # records its span there, or None once an edge covers the side whole.
    corner = {p: j for j, p in enumerate(hull)}
    spans = {}
    n = len(vs)
    for i in range(n):
        match = _edge_side(hull, corner, vs[i], vs[i + 1 - n])
        if match is None:
            return i
        s, sa, sb = match
        if sa is None:
            spans[s] = None
        elif (found := spans.setdefault(s, [])) is not None:
            found.append((sa, sb) if sa <= sb else (sb, sa))

    # Sweep each side not covered whole up from p; a zero-length span
    # never extends the covered prefix.
    for s in range(h):
        found = spans.get(s, ())
        if found is None:
            continue
        covered = 0
        for lo, hi in sorted(found):
            if lo > covered:
                break
            if hi > covered:
                covered = hi
        (px, py), (qx, qy) = p, q = hull[s], hull[s + 1 - h]
        if covered < (qx - px) ** 2 + (qy - py) ** 2:
            return p, q
    return None


def _oracle_verdict(vs) -> ConvexityVerdict:
    # The verdict of _oracle_fail, with its witness in words.
    fail = _oracle_fail(vs)
    if fail is None:
        return ConvexityVerdict(True, METHOD_ORACLE)
    if type(fail) is int:
        a, b = vs[fail], vs[(fail + 1) % len(vs)]
        witness = f"edge {fail} from {tuple(a)} to {tuple(b)} leaves the hull boundary"
    else:
        p, q = fail
        witness = f"hull edge from {tuple(p)} to {tuple(q)} is not covered by polygon edges"
    return ConvexityVerdict(False, METHOD_ORACLE, witness=witness)


def oracle_test(P: Polygon) -> ConvexityVerdict:
    """Definition-level convexity decision for arbitrary polygons.

    Decides with exact arithmetic whether the union of the edges equals
    the boundary of the convex hull of the vertices.  Polygons of
    dimension <= 1 are convex outright.  Otherwise one walk matches each
    edge to a hull side holding both its ends, and the first edge with
    no such side is the witness.  Then each side, in hull order, must be
    covered by the edges matched to it, or it is the witness.

    Hull corners are looked up by their index in the cycle.  A corner
    lies on its two incident sides and on no other, so an edge with a
    corner end is tested against those two sides only, in hull order.
    Two distinct corners share a side exactly when they are adjacent in
    the cycle; such an edge is that side, covers it whole, and the
    coverage sweep runs only on the sides left partly covered.

    The match is exact.  A segment on the boundary of a convex region
    lies on a supporting line, and the hull keeps corners only, so that
    line meets the boundary in one side or one corner.  Hence a segment
    of positive length on the boundary lies in exactly one side, and
    with both ends on a side a segment lies in it.  The only edges on a
    side's line that are matched elsewhere are single points at a
    corner, and a single point cannot close a gap in a side.
    """
    return _oracle_verdict(P._xy)


def is_convex(P: Polygon) -> ConvexityVerdict:
    """Decide convexity by the cheapest sound route.

    n <= 3 and dimension <= 1 polygons are convex; strict polygons with
    n >= 4 take the sign route, the verdict sign_test returns; everything
    else goes through oracle_test.  Agrees with oracle_test on every
    input.  This is the one place the route is decided: sign_test and
    convex_permutations read it from the verdict's method.

    The 3n-8 sign determinants are scanned first, and when all are
    nonzero with one sign the answer is "convex" by sign_test, in O(n)
    time.  That needs no strictness check, because such a polygon is
    strictly convex.  Say every sign is positive (the negative case is
    its mirror image).  The triples (0, 1, k) put V2 ... V(n-1) in the
    open half-plane left of V0V1, and the triples (0, j, j+1) order
    V1 ... V(n-1) by strictly increasing angle around V0, all within
    that half-plane.  The triples (i-1, i, i+1), (0, 1, 2) and
    (0, n-2, n-1) make every turn of the closed walk left, the turn at
    V0 included, as orient(V(n-1), V0, V1) = orient(V0, V1, V(n-1)).
    A closed walk that fans once around V0 within a half-plane and turns
    left at every vertex bounds a convex region with every vertex a
    corner, so the vertices are in strictly convex position: distinct,
    and no three on a line.

    Any other outcome of the scan costs O(n) for the dimension and
    O(n^2) expected for strictness; the scan's own "not convex" answer
    stands only on a strict polygon, and the rest go through
    oracle_test.
    """
    vs = P._xy
    if len(vs) <= 3:
        return ConvexityVerdict(True, METHOD_SMALL_N)
    fail = _sign_scan(vs)
    if fail is None:
        return ConvexityVerdict(True, METHOD_SIGN_TEST)
    if _dimension(vs) <= 1:
        return ConvexityVerdict(True, METHOD_DIM_LE_1)
    if not _is_strict(vs):
        return _oracle_verdict(vs)
    # strict, so no determinant vanishes: the scan stopped at a sign change
    triple, s, ref_triple, ref = fail
    witness = (
        f"vertex triple {triple} has orientation {s} but triple {ref_triple} has orientation {ref}"
    )
    return ConvexityVerdict(False, METHOD_SIGN_TEST, witness=witness)


def _perp_ccw(dx: int, dy: int) -> tuple[int, int]:
    # Rotate (dx, dy) by +90 degrees; for a CCW-ordered edge this points
    # to the inside.
    return (-dy, dx)


def to_one_side(P: Polygon) -> ToOneSideWitness | None:
    """Per-edge supporting halfplanes: the oracle's edge walk with normals.

    Returns a witness iff every edge admits a nonzero linear functional
    vanishing on its direction with all vertices on the non-negative side
    relative to the edge start, else None.  A point or segment hull gives
    one normal for every edge.  Otherwise each edge is matched to the
    first hull side holding both its ends, as in oracle_test, and gets
    that side's inward normal: b - a turned left when the edge runs the
    side's counterclockwise way, a - b when it runs against it, and the
    side's own for a repeated point.  The match is exact: a line that
    supports the hull and holds two distinct vertices meets it in one
    side, and a point has a supporting functional iff it lies on the
    boundary.  O(n h) for h hull corners; an edge with a corner end
    costs O(1) by oracle_test's corner lookup.
    """
    vs = P._xy
    n = len(vs)
    hull = _hull(vs)
    if len(hull) == 1:
        return ToOneSideWitness(((1, 0),) * n)
    if len(hull) == 2:
        # all vertices project equally onto a normal of the carrier line
        (ax, ay), (bx, by) = vs[0], next(v for v in vs if v != vs[0])
        return ToOneSideWitness((_perp_ccw(bx - ax, by - ay),) * n)

    corner = {p: j for j, p in enumerate(hull)}
    normals = []
    for i in range(n):
        a, b = vs[i], vs[i + 1 - n]
        match = _edge_side(hull, corner, a, b)
        if match is None:
            return None
        s, sa, sb = match
        p, q = hull[s], hull[s + 1 - len(hull)]
        # the side's counterclockwise direction, scaled to the edge; an
        # edge between the side's corners is the side itself
        (ux, uy), (vx, vy) = (p, q) if sa is None or sa == sb else (a, b) if sb > sa else (b, a)
        normals.append(_perp_ccw(vx - ux, vy - uy))
    return ToOneSideWitness(tuple(normals))


def is_pre_convex(P: Polygon) -> bool:
    """Does some permutation of the vertex sequence form a convex polygon?

    Exactly when every vertex lies on the boundary of its hull, that is
    on a side (a corner lies on its own sides): the edge-to-side match of
    oracle_test and to_one_side, applied to each vertex as a zero-length
    edge.  A convex order's vertices lie on its edge union, which is that
    boundary; conversely, the boundary points walked counterclockwise,
    copies of a point kept adjacent, form a convex order.  A one- or two-point hull cycle is a
    point or a segment, so dimension <= 1 needs no special case.  A
    corner is found by oracle_test's corner lookup; any other vertex
    costs O(h) for h hull corners.
    """
    vs = P._xy
    hull = _hull(vs)
    corner = {p: j for j, p in enumerate(hull)}
    return all(_edge_side(hull, corner, v, v) is not None for v in vs)


def convex_permutations(P: Polygon) -> tuple[int, list[tuple[int, ...]]]:
    """Census of the vertex orders that form a convex polygon.

    Enumerates all n! index permutations and keeps the convex ones;
    capped at n = 8.  For a strictly convex strict polygon with n >= 3
    the count is exactly 2n (the cyclic shifts and their reversals).
    """
    n = len(P)
    if n > PERMUTATION_LIMIT:
        raise CapabilityError(
            f"permutation census is factorial and capped at n = {PERMUTATION_LIMIT} (got n = {n})"
        )
    # n, dimension and strictness do not depend on the order, so neither
    # does is_convex's route: every order is convex on small_n and
    # dim_le_1, and the others decide each order by the route's bare core
    # (no verdict or witness per order)
    method = is_convex(P).method
    perms = itertools.permutations(range(n))
    if method in (METHOD_SMALL_N, METHOD_DIM_LE_1):
        hits = list(perms)
    else:
        fails = _sign_scan if method == METHOD_SIGN_TEST else _oracle_fail
        vs = P._xy
        hits = [perm for perm in perms if fails(tuple(vs[i] for i in perm)) is None]
    return len(hits), hits
