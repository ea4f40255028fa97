import itertools
import random

import pytest

from eszk import Point, Polygon
from eszk.geometry import _is_strict


def det(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def on_segment(a, b, p):
    if det(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def point_in_hull(p, pts):
    """Brute-force exact membership of p in conv(pts): Caratheodory over
    single points, segments and triangles."""
    pts = list(set(pts))
    if tuple(p) in {tuple(q) for q in pts}:
        return True
    for a, b in itertools.combinations(pts, 2):
        if on_segment(a, b, p):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        d1, d2, d3 = det(a, b, p), det(b, c, p), det(c, a, p)
        if d1 == 0 and d2 == 0 and d3 == 0:
            # degenerate triple collinear with p; the segment loop above
            # already decided containment in its convex hull
            continue
        if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
            return True
    return False


def extreme_points_brute(pts):
    """A point is extreme iff it is not in the hull of the other points."""
    distinct = list(set(pts))
    return {p for p in distinct if not point_in_hull(p, [q for q in distinct if q != p])}


def is_strict_brute(pts):
    """No three of the points (by index) collinear; a repeated point
    makes every triple through it collinear."""
    return all(det(a, b, c) != 0 for a, b, c in itertools.combinations(pts, 3))


def parabola_polygon(n):
    """Strictly convex n-gon with vertices on y = x^2, in order."""
    return Polygon((i, i * i) for i in range(n))


def random_polygon(rng, n, box):
    return Polygon((rng.randint(-box, box), rng.randint(-box, box)) for _ in range(n))


def random_strict_polygon(rng, n, box):
    while True:
        vs = [Point(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(n)]
        if _is_strict(vs):
            return Polygon(vs)


def random_convex_polygon(rng, n, box):
    """Strictly convex strict n-gon: n corners of a random hull, in order."""
    from eszk import convex_hull

    while True:
        pts = {(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(6 * n)}
        cycle, _ = convex_hull(pts)
        if len(cycle) >= n:
            picks = sorted(rng.sample(range(len(cycle)), n))
            return Polygon(cycle[i] for i in picks)


def degenerate_pool(rng, count):
    """Random polygons biased toward duplicates, collinear runs, and
    convex positives (including non-strict convex shapes)."""
    pool = []
    while len(pool) < count:
        style = rng.randrange(6)
        n = rng.randint(4, 8)
        if style == 0:  # tiny box: collisions and collinear triples abound
            pool.append(Polygon((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)))
        elif style == 1:  # strictly convex positive
            pool.append(random_convex_polygon(rng, n, 20))
        elif style == 2:  # convex with a duplicated vertex
            base = random_convex_polygon(rng, n - 1, 20)
            vs = list(base.vertices)
            i = rng.randrange(len(vs))
            vs.insert(i, vs[i])
            pool.append(Polygon(vs))
        elif style == 3:  # convex with a vertex interior to an edge
            base = random_convex_polygon(rng, n - 1, 20)
            vs = list(base.vertices)
            for i in range(len(vs)):
                a, b = vs[i], vs[(i + 1) % len(vs)]
                if (a.x + b.x) % 2 == 0 and (a.y + b.y) % 2 == 0:
                    vs.insert(i + 1, ((a.x + b.x) // 2, (a.y + b.y) // 2))
                    break
            pool.append(Polygon(vs))
        elif style == 4:  # collinear run (dimension <= 1)
            x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
            dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
            pool.append(
                Polygon((x0 + t * dx, y0 + t * dy) for t in (rng.randint(-5, 5) for _ in range(n)))
            )
        else:  # moderate box: mixed population
            pool.append(Polygon((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(n)))
    return pool


@pytest.fixture
def seven_gon():
    return Polygon([(-13, 0), (15, 0), (0, 16), (18, 39), (27, -15), (10, 20), (16, 30)])


@pytest.fixture
def unit_square():
    return Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def rng():
    return random.Random(987654321)
