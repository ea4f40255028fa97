import itertools

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
from eszk.geometry import _is_strict, _strict_through
from conftest import det, extreme_points_brute, is_strict_brute, random_polygon

coord = st.integers(-1000, 1000)
point = st.tuples(coord, coord)
# a 9 x 9 grid makes repeated points and collinear triples common
grid_point = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


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


@given(st.lists(grid_point, max_size=12))
def test_is_strict_matches_brute_force(pts):
    expected = is_strict_brute(pts)
    assert _is_strict([Point(*p) for p in pts]) == expected
    if pts:
        assert classify(Polygon(pts)).strict == expected


@given(grid_point, st.lists(grid_point, max_size=11))
def test_strict_through_matches_brute_force(p, others):
    expected = p not in others and all(
        det(p, a, b) != 0 for a, b in itertools.combinations(others, 2)
    )
    assert _strict_through(p, others) == expected
    if len(others) >= 2 and is_strict_brute(others):
        # the use in grow: a strict base plus one new vertex
        assert _strict_through(p, others) == is_strict_brute([p] + others)


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
