"""Exact integer planar primitives.

Orientation determinant, polygon classification (strict / ordinary /
dimension), strict convex hull, and randomized perturbation into strict
position.  Every answer rests on exact integer arithmetic; the one use
of floating point is the slope filter of the strictness test, which can
only say "strict" and hands every collision to an exact integer test,
and no float is produced.  Coordinates are capped at
COORD_BOUND so that the orientation determinant of any admissible triple
fits in a double-width signed integer, which keeps the file formats
portable to fixed-width implementations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import ExhaustionError, InputError

COORD_BOUND = 10**9

# Resample cap for perturbation; failure is astronomically unlikely for
# jitter >= 1 but the loop must stay total.
PERTURB_MAX_ATTEMPTS = 64


class Point(NamedTuple):
    x: int
    y: int


def _check_int(name: str, value, lo: int, hi: int | None = None, bound: str = "") -> int:
    """Return value if it is a plain int in lo..hi (no upper end when hi
    is None); otherwise raise InputError, bound naming what hi stands
    for, as in "k = 5 exceeds n = 4".  A bool, float or string is
    refused, never read as a number."""
    if type(value) is not int:
        raise InputError(f"{name} = {value!r} is not an integer")
    if value < lo:
        raise InputError(f"{name} = {value} is below {lo}")
    if hi is not None and value > hi:
        raise InputError(f"{name} = {value} exceeds {bound} = {hi}")
    return value


def as_point(p) -> Point:
    """Coerce an (x, y) pair to a validated Point."""
    try:
        x, y = p
    except (TypeError, ValueError):
        raise InputError(f"not an (x, y) pair: {p!r}") from None
    return Point(
        _check_int("x", x, -COORD_BOUND, COORD_BOUND, "COORD_BOUND"),
        _check_int("y", y, -COORD_BOUND, COORD_BOUND, "COORD_BOUND"),
    )


@dataclass(frozen=True)
class Polygon:
    """Ordered sequence of at least one integer point.

    Order matters and duplicate vertices are allowed; edge i joins vertex
    i to vertex i+1, with the last edge closing back to vertex 0.
    Instances are immutable value objects.

    The coordinates are held twice: vertices gives callers Points, and
    the private _xy gives the kernels the same pairs as exact (int, int)
    tuples.  CPython unpacks an exact tuple on a fast path that a tuple
    subclass such as Point misses (x, y = p costs several times as much
    on a Point), and the kernels unpack a pair per determinant.  _xy is
    not a field: equality, hashing and the repr read vertices alone, and
    a pickle or copy rebuilds it through __init__.
    """

    # Slots written out rather than slots=True, whose rebuilt class makes
    # the frozen __setattr__ raise TypeError for a name that is not a field.
    __slots__ = ("vertices", "_xy")
    vertices: tuple[Point, ...]

    def __init__(self, points: Iterable):
        vs = tuple(as_point(p) for p in points)
        if not vs:
            raise InputError("a polygon needs at least one vertex")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_xy", tuple(map(tuple, vs)))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def __reduce__(self):  # unpickling must not go through the frozen __setattr__
        return Polygon, (self.vertices,)

    def __repr__(self):
        return "Polygon(%s)" % (list(map(tuple, self.vertices)),)

    def encoding(self) -> tuple[int, ...]:
        """Flattened (x0, y0, ..., xn-1, yn-1) image of the vertex list."""
        return tuple(c for v in self.vertices for c in v)


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    strict: bool       # no three vertices (by index) collinear
    ordinary: bool     # all vertices pairwise distinct
    dimension: int     # 0 = single point, 1 = collinear, 2 = planar


def _det(ax, ay, bx, by, cx, cy):
    # Twice the signed area of triangle (a, b, c).
    return (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)


def orient2d(a, b, c) -> int:
    """Signed orientation determinant of the ordered point triple (a, b, c).

    Positive means a counterclockwise turn, negative clockwise, zero
    collinear.  Antisymmetric under swapping any two arguments and
    invariant under translation.  Exact; inputs must respect COORD_BOUND.
    """
    ax, ay = as_point(a)
    bx, by = as_point(b)
    cx, cy = as_point(c)
    return _det(ax, ay, bx, by, cx, cy)


def _dimension(vs) -> int:
    first = vs[0]
    others = [v for v in vs if v != first]
    if not others:
        return 0
    (ax, ay), (bx, by) = first, others[0]
    for cx, cy in others[1:]:
        if _det(ax, ay, bx, by, cx, cy) != 0:
            return 2
    return 1


def _sign_triples(n):
    # Index triples whose orientation signs must all agree on a strictly
    # convex n-gon, in short-circuit order: 3n-8 of them for n >= 4, the
    # one triple (0, 1, 2) for n = 3 and none below.
    for i in range(2, n - 1):
        yield (i - 1, i, i + 1)
    for j in range(1, n - 1):
        yield (0, j, j + 1)
    for k in range(3, n):
        yield (0, 1, k)


def _sign_scan(vs):
    """Scan the sign triples of vs to the first vanishing determinant or
    sign change; O(n).

    Returns None when every determinant is nonzero with one sign: then
    vs, if n >= 3, is strictly convex, so strict (proof in
    convexity.is_convex; for n = 3 the one triple is the whole claim).
    Otherwise returns (triple, sign, ref_triple, ref) for the first
    failing triple and its sign, 0 when collinear, with the first
    triple scanned and its sign (None and 0 if the failing triple is
    that first one).
    """
    ref = 0
    ref_triple = None
    for a, b, c in _sign_triples(len(vs)):
        (ax, ay), (bx, by), (cx, cy) = vs[a], vs[b], vs[c]
        d = _det(ax, ay, bx, by, cx, cy)
        if d == 0:
            return (a, b, c), 0, ref_triple, ref
        s = 1 if d > 0 else -1
        if ref == 0:
            ref, ref_triple = s, (a, b, c)
        elif s != ref:
            return (a, b, c), s, ref_triple, ref
    return None


def _strict_through(p, others) -> bool:
    """No two of the points others are collinear with p, and none equals p.

    O(len(others)) expected time.  After ruling out a copy of p, the
    slopes (y - py) / (x - px) from p, math.inf for a vertical
    direction, go into one set: a set as long as others means no two
    points share a line through p.  That filter can only say "strict".
    Python's int / int division is correctly rounded, so equal rational
    slopes give equal floats, and -0.0 and 0.0 compare and hash alike;
    a collinear pair always collides.  The converse fails: two slopes
    may round to one double.  So a collision is settled exactly: the
    direction from p to each point is reduced by the gcd and signed so
    that opposite directions coincide, and a repeated key is a line
    through p holding two of the points.
    """
    if p in others:
        return False
    px, py = p
    if len({(y - py) / (x - px) if x != px else math.inf for x, y in others}) == len(others):
        return True
    seen = set()
    for x, y in others:
        dx, dy = x - px, y - py
        g = math.gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        key = (dx // g, dy // g)
        if key in seen:
            return False
        seen.add(key)
    return True


def _is_strict(vs) -> bool:
    """No three vertices (by index) collinear; O(n^2) expected time.

    A collinear triple a < b < c puts vs[b] and vs[c] on one line
    through vs[a] (or on vs[a] itself), so one slope fan per anchor a
    over the vertices after it finds every such triple.  Each fan is a
    float filter confirmed exactly on a collision (_strict_through), so
    "not strict" always rests on an exact integer test.
    """
    return all(_strict_through(vs[a], vs[a + 1:]) for a in range(len(vs) - 2))


def classify(P: Polygon) -> ClassificationReport:
    """Report vertex count, strictness, ordinariness and dimension.

    The O(n) sign scan of is_convex runs first.  When every determinant
    is nonzero with one sign the polygon is strictly convex, so strict,
    ordinary and planar, and the report costs O(n).  Otherwise
    ordinariness and dimension cost O(n), and strictness of an ordinary
    planar polygon O(n^2) expected time (_is_strict).
    """
    vs = P._xy
    n = len(vs)
    if n >= 3 and _sign_scan(vs) is None:
        return ClassificationReport(n=n, strict=True, ordinary=True, dimension=2)
    ordinary = len(set(vs)) == n
    dimension = _dimension(vs)
    if n < 3:
        strict = True
    elif not ordinary or dimension < 2:
        strict = False
    else:
        strict = _is_strict(vs)
    return ClassificationReport(n=n, strict=strict, ordinary=ordinary, dimension=dimension)


def convex_hull(points) -> tuple[list[Point], frozenset[Point]]:
    """Strict convex hull of a point set.

    Returns (hull_cycle, extreme_points): the cycle lists exactly the
    extreme points in counterclockwise order, never a point interior to a
    hull edge.  Degenerate inputs give a one-point cycle (single distinct
    point) or a two-point cycle (collinear set: the two endpoints).
    Coincident input points are deduplicated before the scan.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise InputError("convex_hull needs at least one point")
    cycle = _hull(pts)
    return cycle, frozenset(cycle)


def _hull(points) -> list:
    """The counterclockwise corner cycle of a non-empty collection of
    (x, y) int pairs, such as a Polygon's _xy, which need no second
    validation; coordinates are read by tuple unpacking.  The cycle
    starts at the least point in (x, y) order and is the one
    convex_hull returns: a single point, or the two ends of a segment,
    when the points span dimension 0 or 1."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    # Monotone chain: one pass over the sorted points grows the lower
    # chain, which pops on a turn that is not left, and the upper chain,
    # which pops on one that is not right, so collinear points go and
    # only corners stay.
    lower, upper = [], []
    for p in pts:
        x, y = p
        while len(lower) >= 2:
            (ax, ay), (bx, by) = lower[-2], lower[-1]
            if (bx - ax) * (y - ay) > (x - ax) * (by - ay):
                break
            lower.pop()
        lower.append(p)
        while len(upper) >= 2:
            (ax, ay), (bx, by) = upper[-2], upper[-1]
            if (bx - ax) * (y - ay) < (x - ax) * (by - ay):
                break
            upper.pop()
        upper.append(p)
    upper.reverse()
    return lower[:-1] + upper[:-1]


def perturb_to_strict(P: Polygon, scale: int, jitter: int, seed) -> Polygon:
    """Scale a polygon by an integer factor and jitter it into strict position.

    Vertex i becomes (scale*x_i + u_i, scale*y_i + w_i) with fresh integer
    offsets |u_i|, |w_i| <= jitter, resampled until the result is strict.
    Requires jitter < scale/2 so distinct vertices stay distinct, and the
    scaled coordinates must respect COORD_BOUND.  Deterministic for a
    fixed seed.  A strict polygon with jitter 0 comes back as its exact
    scale-multiple (the identity when scale is 1).
    """
    _check_int("scale", scale, 1)
    _check_int("jitter", jitter, 0)
    if 2 * jitter >= scale:
        raise InputError(f"jitter {jitter} must be smaller than scale/2 = {scale / 2:g}")
    worst = max(max(abs(v.x), abs(v.y)) for v in P.vertices)
    if worst * scale + jitter > COORD_BOUND:
        raise InputError(
            f"scaled coordinates would reach {worst * scale + jitter}, over the bound {COORD_BOUND}"
        )

    rng = random.Random(seed)
    for attempt in range(1, PERTURB_MAX_ATTEMPTS + 1):
        candidate = Polygon(
            (scale * v.x + rng.randint(-jitter, jitter), scale * v.y + rng.randint(-jitter, jitter))
            for v in P.vertices
        )
        if _is_strict(candidate._xy):
            return candidate
    raise ExhaustionError(
        f"no strict perturbation found in {PERTURB_MAX_ATTEMPTS} attempts "
        f"(scale={scale}, jitter={jitter})",
        attempts=PERTURB_MAX_ATTEMPTS,
    )
