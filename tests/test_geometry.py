import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from eszk import (
    COORD_BOUND,
    ExhaustionError,
    InputError,
    Point,
    Polygon,
    classify,
    convex_hull,
    orient2d,
    perturb_to_strict,
    sign_test,
)
import eszk.geometry
from eszk.convexity import _oracle_fail
from eszk.geometry import _dimension, _hull, _is_strict, _sign_scan, _strict_through
from eszk.subgons import _polygon_signs
from conftest import (
    degenerate_pool,
    det,
    extreme_points_brute,
    is_strict_brute,
    parabola_polygon,
    random_polygon,
    random_strict_polygon,
)

coord = st.integers(-1000, 1000)
point = st.tuples(coord, coord)
# a 9 x 9 grid makes repeated points and collinear triples common
grid_point = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
wide_coord = st.integers(-COORD_BOUND, COORD_BOUND)


@st.composite
def float_collision_points(draw):
    """An anchor on a diagonal y = x + c near the origin or the lower left
    corner of the coordinate box, two points on one diagonal near the
    upper right corner, then a few points anywhere in the box.  Seen from
    the anchor, the two far points are collinear with it, or their slopes
    differ by about 1e-18 and round to one double, so the exact fallback
    of _strict_through answers either way."""
    ax = draw(st.one_of(st.integers(-3, 3), st.integers(-COORD_BOUND + 1, -COORD_BOUND + 4)))
    c = draw(st.integers(-1, 1))
    far = draw(st.lists(st.integers(COORD_BOUND - 6, COORD_BOUND - 1),
                        min_size=2, max_size=2, unique=True))
    rest = draw(st.lists(st.tuples(wide_coord, wide_coord), max_size=6))
    return [(ax, ax + draw(st.integers(-1, 1)))] + [(x, x + c) for x in far] + rest


@pytest.mark.parametrize(
    "a,b,c,expected",
    [
        ((0, 0), (1, 0), (0, 1), 1),
        ((0, 0), (1, 1), (2, 2), 0),
        ((-13, 0), (15, 0), (0, 16), 448),  # cofactor expansion by hand
    ],
)
def test_orient2d_values(a, b, c, expected):
    assert orient2d(a, b, c) == expected


@given(a=point, b=point, c=point)
def test_orient2d_antisymmetry(a, b, c):
    d = orient2d(a, b, c)
    assert orient2d(a, c, b) == -d
    assert orient2d(b, a, c) == -d


@given(a=point, b=point, c=point, t=point)
def test_orient2d_translation_invariance(a, b, c, t):
    shifted = [(p[0] + t[0], p[1] + t[1]) for p in (a, b, c)]
    assert orient2d(*shifted) == orient2d(a, b, c)


def test_orient2d_rejects_overflow():
    with pytest.raises(InputError):
        orient2d((COORD_BOUND + 1, 0), (0, 0), (1, 1))
    with pytest.raises(InputError):
        orient2d((0.5, 0), (0, 0), (1, 1))


def test_polygon_validation():
    with pytest.raises(InputError):
        Polygon([])
    with pytest.raises(InputError):
        Polygon([(0, 0), (1, 2.5)])
    with pytest.raises(InputError):
        Polygon([(0, COORD_BOUND + 1)])
    P = Polygon([(3, 4)])
    assert len(P) == 1 and P[0] == Point(3, 4)


def test_polygon_is_an_immutable_value():
    P = Polygon([(1, 2), (3, 4)])
    with pytest.raises(AttributeError):
        P.vertices = ()
    Q = Polygon([(1, 2), (3, 4)])
    assert P == Q and hash(P) == hash(Q)
    assert (P == ((1, 2), (3, 4))) is False
    assert eval(repr(P), {"Polygon": Polygon}) == P
    assert not hasattr(P, "__dict__")
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for R in [pickle.loads(pickle.dumps(P, p)) for p in protocols] + [copy.deepcopy(P)]:
        assert R == P and type(R.vertices[0]) is Point
        # the kernels' exact-tuple slot is rebuilt, not carried over
        assert R._xy == P.vertices and all(type(v) is tuple for v in R._xy)


def test_polygon_assignment_raises_frozen_instance_error():
    P = Polygon([(0, 0)])
    for name in ("vertices", "foo"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(P, name, 1)
    assert P.vertices == ((0, 0),)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        R = pickle.loads(pickle.dumps(P, protocol))
        assert R == P and type(R) is Polygon and type(R.vertices[0]) is Point


def test_kernels_read_points_and_int_pairs_alike():
    # Polygon keeps its coordinates as Points (vertices) and as exact int
    # tuples (_xy, what the kernels read); every kernel answers alike on both.
    rng = random.Random(2525)
    pool = degenerate_pool(rng, 1500)
    pool += [random_strict_polygon(rng, rng.randint(3, 40), 10**6) for _ in range(60)]
    pool += [random_polygon(rng, rng.randint(1, 3), 3) for _ in range(60)]
    kernels = (_is_strict, _sign_scan, _dimension, _hull, _oracle_fail, _polygon_signs)
    for P in pool:
        assert P._xy == P.vertices and all(type(v) is tuple for v in P._xy)
        for kernel in kernels:
            assert kernel(P.vertices) == kernel(P._xy), (kernel.__name__, P)


def test_polygon_encoding():
    P = Polygon([(1, 2), (3, 4)])
    assert P.encoding() == (1, 2, 3, 4)


def test_classify_unit_square(unit_square):
    rep = classify(unit_square)
    assert (rep.n, rep.strict, rep.ordinary, rep.dimension) == (4, True, True, 2)


def test_classify_collinear():
    rep = classify(Polygon([(0, 0), (1, 0), (2, 0)]))
    assert (rep.n, rep.strict, rep.ordinary, rep.dimension) == (3, False, True, 1)


def test_classify_single_and_duplicates():
    assert classify(Polygon([(5, 5)])).dimension == 0
    rep = classify(Polygon([(5, 5), (5, 5), (5, 5)]))
    assert rep.dimension == 0 and not rep.ordinary and not rep.strict
    # two vertices: no triple exists, strict holds vacuously
    assert classify(Polygon([(0, 0), (0, 0)])).strict


def test_classify_seven_gon_matches_brute(seven_gon):
    vs = seven_gon.vertices
    dets = [
        orient2d(vs[i], vs[j], vs[k])
        for i, j, k in itertools.combinations(range(7), 3)
    ]
    assert len(dets) == 35 and all(d != 0 for d in dets)
    assert classify(seven_gon).strict


@given(st.lists(point, min_size=1, max_size=9), st.tuples(coord, coord))
def test_classify_strict_implies_ordinary(pts, dup):
    # force occasional duplicates
    P = Polygon(pts + [pts[0]]) if dup[0] % 3 == 0 else Polygon(pts)
    rep = classify(P)
    if rep.strict and rep.n >= 3:
        assert rep.ordinary


@given(st.one_of(st.lists(grid_point, max_size=12), float_collision_points()))
def test_is_strict_matches_brute_force(pts):
    expected = is_strict_brute(pts)
    assert _is_strict([Point(*p) for p in pts]) == expected
    if pts:
        assert classify(Polygon(pts)).strict == expected


N = COORD_BOUND
# Each pair's slopes from p round to one double, so the float filter
# collides and only the exact fallback answers: the strict pairs have
# cross product 1, the collinear twins 0.
FLOAT_COLLISIONS = [
    ((0, 0), [(N - 1, N), (N - 2, N - 1)], True),
    ((-N, -N), [(-1, 0), (-2, -1)], True),
    ((0, 0), [(N - 1, N), (-(N - 1), -N)], False),
    ((-N, -N), [(-2, 0), (-N // 2 - 1, -N // 2)], False),
]


@pytest.mark.parametrize("p,others,expected", FLOAT_COLLISIONS,
                         ids=["origin", "corner", "origin-collinear", "corner-collinear"])
def test_strict_through_float_collision_answered_exactly(p, others, expected):
    (ax, ay), (bx, by) = ((x - p[0], y - p[1]) for x, y in others)
    assert ay / ax == by / bx
    assert abs(ax * by - bx * ay) == int(expected)
    assert _strict_through(p, others) is expected
    assert _is_strict([p] + others) is expected
    assert is_strict_brute([p] + others) is expected


@given(grid_point, st.lists(grid_point, max_size=11))
def test_strict_through_matches_brute_force(p, others):
    expected = p not in others and all(
        det(p, a, b) != 0 for a, b in itertools.combinations(others, 2)
    )
    assert _strict_through(p, others) == expected
    if len(others) >= 2 and is_strict_brute(others):
        # the use in grow: a strict base plus one new vertex
        assert _strict_through(p, others) == is_strict_brute([p] + others)


def test_classify_convex_answer_skips_strictness(monkeypatch):
    # an all-agreeing sign scan proves strictness, so no O(n^2) check runs
    def fail(*args):
        raise AssertionError("strictness checked on a convex scan")

    monkeypatch.setattr(eszk.geometry, "_is_strict", fail)
    rep = classify(parabola_polygon(1000))
    assert (rep.n, rep.strict, rep.ordinary, rep.dimension) == (1000, True, True, 2)


def _pushed_onto_line(n, i):
    # parabola n-gon with vertex i moved onto the line of its neighbours
    vs = list(parabola_polygon(n).vertices)
    (ax, ay), (bx, by) = vs[i - 1], vs[i + 1]
    vs[i] = ((ax + bx) // 2, (ay + by) // 2)
    return vs


# (0, 0), (10, 0), (10, 10), (-10, 10), then a last vertex that the fan
# around vertex 0 carries to or past the line of the first edge: every
# sign triple agrees but the last, (0, 1, n-1).
SPIRAL = [(0, 0), (10, 0), (10, 10), (-10, 10)]


@pytest.mark.parametrize(
    "pts,scan_fails_at",
    [
        (parabola_polygon(9).vertices, None),
        (parabola_polygon(9).vertices[::-1], None),
        ([(0, 0), (4, 1), (1, 3)], None),
        ([(0, 0), (1, 3), (4, 1)], None),
        ([(0, 0), (1, 1), (3, 3)], (0, 1, 2)),
        (_pushed_onto_line(9, 4), (3, 4, 5)),
        (_pushed_onto_line(9, 4)[::-1], (3, 4, 5)),
        (SPIRAL + [(-10, -1)], (0, 1, 4)),
        (SPIRAL + [(-10, 0)], (0, 1, 4)),
    ],
    ids=["ccw", "cw", "triangle-ccw", "triangle-cw", "triangle-collinear",
         "pushed-onto-line", "pushed-onto-line-cw", "last-triple-turns", "last-triple-collinear"],
)
def test_classify_strict_matches_brute_around_the_sign_scan(pts, scan_fails_at):
    vs = [Point(*p) for p in pts]
    fail = _sign_scan(vs)
    assert (fail and fail[0]) == scan_fails_at
    assert classify(Polygon(vs)).strict == is_strict_brute(pts)


def test_convex_hull_drops_edge_interior_points():
    cycle, extreme = convex_hull([(0, 0), (2, 0), (1, 0), (0, 2)])
    assert set(cycle) == {(0, 0), (2, 0), (0, 2)}
    assert (1, 0) not in extreme


def test_convex_hull_degenerate():
    cycle, extreme = convex_hull([(5, 5), (5, 5)])
    assert cycle == [Point(5, 5)] and extreme == {Point(5, 5)}
    cycle, _ = convex_hull([(0, 0), (3, 0), (1, 0), (2, 0)])
    assert cycle == [Point(0, 0), Point(3, 0)]


@pytest.mark.parametrize("pts", [[Point(1.5, 2), (0, 0)], [(True, 0)], [], [(1, 2, 3)]],
                         ids=["float-point", "bool", "empty", "triple"])
def test_convex_hull_validates_its_points(pts):
    # the public hull coerces every point; only the private scan trusts them
    with pytest.raises(InputError):
        convex_hull(pts)


def test_convex_hull_ccw(unit_square):
    cycle, _ = convex_hull(unit_square.vertices)
    n = len(cycle)
    assert n == 4
    for i in range(n):
        assert orient2d(cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]) > 0


def test_convex_hull_seven_gon_extremes(seven_gon):
    _, extreme = convex_hull(seven_gon.vertices)
    assert set(extreme) == extreme_points_brute(seven_gon.vertices)


@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=10))
def test_convex_hull_matches_brute_extremality(pts):
    cycle, extreme = convex_hull(pts)
    assert set(extreme) == extreme_points_brute(pts)
    assert set(cycle) == set(extreme)
    # corners only: consecutive triples of a 3+-cycle never collinear
    n = len(cycle)
    if n >= 3:
        for i in range(n):
            assert orient2d(cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]) > 0


def test_perturb_identity_on_strict():
    P = Polygon([(0, 0), (1, 0), (0, 1)])
    assert perturb_to_strict(P, scale=1, jitter=0, seed=7) == P


def test_perturb_collinear_input():
    P = Polygon([(0, 0), (1, 0), (2, 0)])
    Q = perturb_to_strict(P, scale=1000, jitter=3, seed=42)
    assert classify(Q).strict
    for v, target in zip(Q.vertices, [(0, 0), (1000, 0), (2000, 0)]):
        assert abs(v.x - target[0]) <= 3 and abs(v.y - target[1]) <= 3


def test_perturb_square_stays_convex(unit_square):
    Q = perturb_to_strict(unit_square, scale=100, jitter=1, seed=5)
    assert classify(Q).strict
    assert sign_test(Q).convex


def test_perturb_reproducible(unit_square):
    a = perturb_to_strict(unit_square, scale=100, jitter=7, seed=99)
    b = perturb_to_strict(unit_square, scale=100, jitter=7, seed=99)
    assert a == b


def test_perturb_exhaustion_reports_attempts():
    P = Polygon([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ExhaustionError) as info:
        perturb_to_strict(P, scale=10, jitter=0, seed=1)
    assert info.value.attempts == 64


def test_perturb_input_errors(unit_square):
    with pytest.raises(InputError):
        perturb_to_strict(unit_square, scale=0, jitter=0, seed=1)
    with pytest.raises(InputError):
        perturb_to_strict(unit_square, scale=4, jitter=2, seed=1)  # jitter >= scale/2
    with pytest.raises(InputError):
        perturb_to_strict(unit_square, 4, -1, 0)
    big = Polygon([(10**6, 0), (0, 10**6), (1, 1)])
    with pytest.raises(InputError):
        perturb_to_strict(big, scale=10**4, jitter=1, seed=1)


def test_random_polygons_classify_consistency(rng):
    for _ in range(300):
        P = random_polygon(rng, rng.randint(1, 8), 4)
        rep = classify(P)
        if rep.strict and rep.n >= 3:
            assert rep.ordinary
        assert (rep.dimension == 0) == (len(set(P.vertices)) == 1)
