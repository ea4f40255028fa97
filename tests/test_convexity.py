import collections
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from eszk import (
    CapabilityError,
    ConvexityVerdict,
    Polygon,
    PreconditionError,
    classify,
    convex_permutations,
    is_convex,
    is_pre_convex,
    oracle_test,
    sign_test,
    to_one_side,
)
import eszk.convexity
import eszk.geometry
from eszk.convexity import ToOneSideWitness, _oracle_fail, _side_pos
from eszk.geometry import _dimension, _hull, _sign_scan
from conftest import (
    det,
    is_strict_brute,
    parabola_polygon,
    point_in_hull,
    random_convex_polygon,
    random_polygon,
    random_strict_polygon,
)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
PENTAGON = [(0, 0), (3, -1), (5, 1), (3, 4), (0, 3)]


def shuffled(seq, order):
    return Polygon(seq[i] for i in order)


class TestSignTest:
    def test_square_good_order(self):
        assert sign_test(Polygon(SQUARE)).convex

    def test_square_bad_order(self):
        verdict = sign_test(shuffled(SQUARE, (0, 2, 1, 3)))
        assert not verdict.convex
        assert verdict.witness  # names the first failing triple

    def test_seven_gon_prefix_not_convex(self, seven_gon):
        sub = Polygon(seven_gon.vertices[i] for i in (0, 1, 2, 3))
        assert not sign_test(sub).convex

    def test_rejects_non_strict(self):
        with pytest.raises(PreconditionError):
            sign_test(Polygon([(0, 0), (1, 0), (2, 0), (0, 1)]))

    def test_rejects_small_n(self):
        with pytest.raises(PreconditionError):
            sign_test(Polygon([(0, 0), (1, 0), (0, 1)]))

    def test_mismatch_checks_strictness_once(self, monkeypatch):
        # the precondition check and its message share one O(n^2) pass
        calls = []
        is_strict = eszk.convexity._is_strict

        def spy(vs):
            calls.append(len(vs))
            return is_strict(vs)

        monkeypatch.setattr(eszk.convexity, "_is_strict", spy)
        P = Polygon([(i, i * i) for i in range(300)] + [(150, 150 * 150)])
        with pytest.raises(PreconditionError, match="strict=False"):
            sign_test(P)
        assert calls == [301]

    def test_convex_answer_skips_strictness(self, monkeypatch):
        # an all-agreeing scan proves strictness, so no O(n^2) check runs
        def fail(*args):
            raise AssertionError("strictness checked on a convex scan")

        monkeypatch.setattr(eszk.convexity, "_is_strict", fail)
        verdict = sign_test(parabola_polygon(1000))
        assert (verdict.convex, verdict.method) == (True, "sign_test")


class TestOracle:
    def test_collinear_triangle(self):
        assert oracle_test(Polygon([(0, 0), (1, 0), (2, 0)])).convex

    def test_duplicate_collapses_to_triangle(self):
        assert oracle_test(Polygon([(0, 0), (0, 0), (1, 0), (0, 1)])).convex

    def test_edge_through_interior(self):
        verdict = oracle_test(Polygon([(0, 0), (2, 0), (1, 0), (0, 1)]))
        assert verdict == ConvexityVerdict(
            False, "oracle", "edge 2 from (1, 0) to (0, 1) leaves the hull boundary"
        )

    def test_square_both_orders(self):
        assert oracle_test(Polygon(SQUARE)).convex
        assert not oracle_test(shuffled(SQUARE, (0, 2, 1, 3))).convex

    def test_uncovered_hull_edge(self):
        # edges trace two sides of a triangle, never the third
        verdict = oracle_test(Polygon([(0, 0), (2, 0), (0, 0), (0, 2)]))
        assert verdict == ConvexityVerdict(
            False, "oracle", "hull edge from (2, 0) to (0, 2) is not covered by polygon edges"
        )

    @pytest.mark.parametrize(
        "pts, side",
        [
            # a triangle traced out and back along two of its sides
            ([(0, 0), (2, 0), (0, 2), (2, 0)], "(0, 2) to (0, 0)"),
            # the bottom side is covered only from (1, 0) to (2, 0); the
            # zero-length edge at (1, 0) must not extend that coverage
            (
                [(1, 0), (1, 0), (2, 0), (2, 2), (0, 2), (0, 0), (0, 2), (2, 2), (2, 0)],
                "(0, 0) to (2, 0)",
            ),
        ],
    )
    def test_repeated_point_leaves_a_side_uncovered(self, pts, side):
        assert oracle_test(Polygon(pts)) == ConvexityVerdict(
            False, "oracle", f"hull edge from {side} is not covered by polygon edges"
        )

    def test_edge_with_its_ends_on_different_sides(self):
        # (0, 2) is on the top and left sides and (1, 0) on the bottom
        # one, so each side holds exactly one end of edge 3: an edge is
        # matched to a side only by both its ends
        verdict = oracle_test(Polygon([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0)]))
        assert verdict == ConvexityVerdict(
            False, "oracle", "edge 3 from (0, 2) to (1, 0) leaves the hull boundary"
        )

    def test_edge_spanning_full_hull_side_with_midpoint_vertex(self):
        # vertex interior to a hull edge, walk still covers the boundary
        assert oracle_test(Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])).convex

    def test_backtracking_walk_still_covers(self):
        # walk doubles back along the bottom side but stays on the boundary
        P = Polygon([(0, 0), (2, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert oracle_test(P).convex
        # leaving the boundary after the backtrack is caught
        assert not oracle_test(Polygon([(0, 0), (2, 0), (1, 0), (2, 2), (0, 2)])).convex


class TestDispatch:
    @pytest.mark.parametrize(
        "pts,method",
        [
            ([(7, 7)], "small_n"),
            ([(0, 0), (4, 1)], "small_n"),
            ([(0, 0), (1, 0), (0, 1)], "small_n"),
            ([(0, 0), (1, 0), (2, 0), (3, 0)], "dim_le_1"),
            (SQUARE, "sign_test"),
            ([(0, 0), (1, 0), (2, 0), (0, 1)], "oracle"),
        ],
    )
    def test_method_selection(self, pts, method):
        assert is_convex(Polygon(pts)).method == method

    def test_small_and_degenerate_always_convex(self, rng):
        for _ in range(200):
            n = rng.randint(1, 3)
            assert is_convex(random_polygon(rng, n, 5)).convex
        for _ in range(200):
            n = rng.randint(1, 8)
            x0 = rng.randint(-5, 5)
            pts = [(x0 + t * 2, x0 - t) for t in [rng.randint(-4, 4) for _ in range(n)]]
            assert is_convex(Polygon(pts)).convex

    def test_seven_gon_not_convex(self, seven_gon):
        assert not is_convex(seven_gon).convex
        assert not oracle_test(seven_gon).convex

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=8))
    def test_agrees_with_oracle_everywhere(self, pts):
        P = Polygon(pts)
        assert is_convex(P).convex == oracle_test(P).convex

    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=8))
    def test_reversal_and_rotation_invariance(self, pts):
        P = Polygon(pts)
        base = is_convex(P).convex
        assert is_convex(Polygon(reversed(pts))).convex == base
        shift = len(pts) // 2
        assert is_convex(Polygon(pts[shift:] + pts[:shift])).convex == base

    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=8),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_rigid_motion_invariance(self, pts, t):
        P = Polygon(pts)
        base = is_convex(P).convex
        translated = Polygon((x + t[0], y + t[1]) for x, y in pts)
        rotated = Polygon((-y, x) for x, y in pts)
        assert is_convex(translated).convex == base
        assert is_convex(rotated).convex == base


def test_strictly_convex_fast_path_costs_3n_minus_8_determinants(monkeypatch):
    # the sign scan lives in geometry, next to the triple order it shares
    calls = []
    det = eszk.geometry._det

    def counted(*args):
        calls.append(args)
        return det(*args)

    monkeypatch.setattr(eszk.geometry, "_det", counted)
    n = 1000
    verdict = is_convex(parabola_polygon(n))
    assert (verdict.convex, verdict.method) == (True, "sign_test")
    assert len(calls) == 3 * n - 8


def test_differential_small_sample(rng):
    # the full 10^4-case run lives in the acceptance suite
    for _ in range(500):
        P = random_strict_polygon(rng, rng.randint(4, 9), 50)
        assert sign_test(P).convex == oracle_test(P).convex


def sign_test_reference(P):
    # The sign test with its own precondition, as it was written before it
    # read is_convex's route: the scan's verdict for n >= 4, strictness
    # checked only on a mismatch.
    vs = P.vertices
    verdict = None
    if len(vs) >= 4:
        fail = _sign_scan(vs)
        if fail is None:
            return ConvexityVerdict(True, "sign_test")
        triple, s, ref_triple, ref = fail
        if s == 0:
            witness = f"vertex triple {triple} is collinear"
        else:
            witness = (f"vertex triple {triple} has orientation {s} "
                       f"but triple {ref_triple} has orientation {ref}")
        verdict = ConvexityVerdict(False, "sign_test", witness)
    strict = is_strict_brute(vs)
    if verdict is None or not strict:
        raise PreconditionError(
            f"sign_test needs a strict polygon with n >= 4 "
            f"(got n={len(vs)}, strict={strict}); use oracle_test instead"
        )
    return verdict


def is_convex_reference(P):
    # The dispatch as it was written beside the sign test's own check.
    vs = P.vertices
    if len(vs) <= 3:
        return ConvexityVerdict(True, "small_n")
    try:
        verdict = sign_test_reference(P)
    except PreconditionError:
        verdict = None
    if verdict is not None and verdict.convex:
        return verdict
    if _dimension(vs) <= 1:
        return ConvexityVerdict(True, "dim_le_1")
    return verdict or oracle_test(P)


def route_polygon(rng, kind, max_n=7):
    # One polygon that reaches the route kind of is_convex.
    if kind == "small_n":
        return random_polygon(rng, rng.randint(1, 3), rng.choice([1, 3, 50]))
    n = rng.randint(4, max_n)
    if kind == "dim_le_1":
        x, y, dx, dy = (rng.randint(-4, 4) for _ in range(4))
        return Polygon((x + t * dx, y + t * dy) for t in (rng.randint(-3, 3) for _ in range(n)))
    if kind == "sign_test":
        if rng.random() < 0.5:
            P = random_convex_polygon(rng, n, 30)
            shift = rng.randrange(n)
            vs = P.vertices[shift:] + P.vertices[:shift]
            return Polygon(vs[::-1] if rng.random() < 0.5 else vs)
        return random_strict_polygon(rng, n, rng.choice([5, 50]))
    while True:
        vs = list(random_polygon(rng, n - 1, rng.choice([2, 4, 30])))
        i = rng.randrange(n - 1)
        if rng.random() < 0.5:
            vs.insert(i, vs[i])  # a repeated point
        else:
            (ax, ay), (bx, by) = vs[i], vs[i - 1]
            vs.insert(i, (2 * ax - bx, 2 * ay - by))  # a collinear triple
        P = Polygon(vs)
        if _dimension(P.vertices) == 2:
            return P


def outcome(decide, P):
    try:
        return decide(P)
    except PreconditionError as exc:
        return str(exc)


def test_sign_test_differential_against_its_own_precondition():
    # sign_test reads is_convex's route; the reference decides its
    # precondition itself.  Verdicts and error texts must match exactly.
    rng = random.Random(20260418)
    seen = collections.Counter()
    for _ in range(5000):
        for kind in ("small_n", "dim_le_1", "sign_test", "oracle"):
            P = route_polygon(rng, kind)
            got = outcome(sign_test, P)
            assert got == outcome(sign_test_reference, P), P
            verdict = is_convex(P)
            assert verdict == is_convex_reference(P), P
            seen[verdict.method, verdict.convex, got if isinstance(got, str) else "ok"] += 1
    n3 = "sign_test needs a strict polygon with n >= 4 (got n={}, strict={}); use oracle_test instead"
    for key in [
        ("small_n", True, n3.format(3, True)),
        ("small_n", True, n3.format(3, False)),
        ("small_n", True, n3.format(1, True)),
        ("dim_le_1", True, n3.format(4, False)),
        ("oracle", True, n3.format(5, False)),
        ("oracle", False, n3.format(5, False)),
        ("sign_test", True, "ok"),
        ("sign_test", False, "ok"),
    ]:
        assert seen[key] >= 10, (key, seen)


@pytest.mark.parametrize("kind", ["small_n", "dim_le_1", "sign_test", "oracle"])
def test_convex_permutations_lists_the_oracle_convex_orders(rng, kind):
    for _ in range(6):
        P = route_polygon(rng, kind, max_n=6)
        assert is_convex(P).method == kind
        vs = P.vertices
        orders = [
            perm for perm in itertools.permutations(range(len(vs)))
            if oracle_test(Polygon(vs[i] for i in perm)).convex
        ]
        assert convex_permutations(P) == (len(orders), orders)


def to_one_side_by_determinants(P):
    # Reference formulation: an edge with distinct ends a, b is to one
    # side when every vertex's orientation against (a, b) is >= 0 or
    # every one is <= 0, a repeated point when it lies on a hull side.
    vs = P.vertices
    n = len(vs)
    if len(set(vs)) == 1:
        return ToOneSideWitness(((1, 0),) * n)
    a0 = vs[0]
    b0 = next(v for v in vs if v != a0)
    if all(det(a0, b0, v) == 0 for v in vs):
        return ToOneSideWitness(((a0.y - b0.y, b0.x - a0.x),) * n)
    hull = _hull(vs)
    sides = list(zip(hull, hull[1:] + hull[:1]))
    normals = []
    for j in range(n):
        a, b = vs[j], vs[(j + 1) % n]
        if a != b:
            dets = [det(a, b, v) for v in vs]
            if all(d >= 0 for d in dets):
                normals.append((a.y - b.y, b.x - a.x))
            elif all(d <= 0 for d in dets):
                normals.append((b.y - a.y, a.x - b.x))
            else:
                return None
        else:
            for p, q in sides:
                if det(p, q, a) == 0 and min(p, q) <= a <= max(p, q):
                    normals.append((p.y - q.y, q.x - p.x))
                    break
            else:
                return None
    return ToOneSideWitness(tuple(normals))


def boundary_question_polygon(rng):
    # Polygons of dimension 0-2: random, convex in a cyclic shift or
    # reversed order, then with planted repeats and collinear runs.
    kind = rng.randrange(5)
    if kind == 0:
        P = Polygon([(rng.randint(-3, 3), rng.randint(-3, 3))] * rng.randint(1, 5))
    elif kind == 1:
        x, y, dx, dy = (rng.randint(-4, 4) for _ in range(4))
        P = Polygon((x + t * dx, y + t * dy) for t in (rng.randint(-3, 3) for _ in range(rng.randint(1, 7))))
    elif kind == 2:
        P = random_polygon(rng, rng.randint(1, 8), 4)
    else:
        P = random_convex_polygon(rng, rng.randint(3, 7), 12)
    vs = list(P.vertices)
    if kind >= 3:
        shift = rng.randrange(len(vs))
        vs = vs[shift:] + vs[:shift]
        if rng.random() < 0.5:
            vs.reverse()
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(vs))
        if rng.random() < 0.5:
            vs.insert(i, vs[i])  # a repeated point
        else:
            (ax, ay), (bx, by) = vs[i], vs[i - 1]  # a collinear run: an edge's midpoint
            if (ax + bx) % 2 == 0 and (ay + by) % 2 == 0:
                vs.insert(i, ((ax + bx) // 2, (ay + by) // 2))
    if rng.random() < 0.1:
        rng.shuffle(vs)
    return Polygon(vs)


class TestToOneSide:
    def test_square_inward_normals(self):
        witness = to_one_side(Polygon(SQUARE))
        assert witness.normals == ((0, 1), (-1, 0), (0, -1), (1, 0))

    def test_clockwise_square_inward_normals(self):
        # each edge runs against its hull side, so b - a is reversed first
        witness = to_one_side(Polygon(SQUARE[::-1]))
        assert witness.normals == ((0, -1), (-1, 0), (0, 1), (1, 0))

    def test_matches_determinant_reference(self, rng):
        kinds = {"witness": 0, "none": 0}
        for _ in range(20000):
            P = boundary_question_polygon(rng)
            witness = to_one_side(P)
            assert witness == to_one_side_by_determinants(P), P
            kinds["none" if witness is None else "witness"] += 1
        assert min(kinds.values()) > 2000, kinds

    def test_none_exactly_when_the_oracle_walk_fails_at_an_edge(self, rng):
        for _ in range(5000):
            P = boundary_question_polygon(rng)
            assert (to_one_side(P) is None) == (type(_oracle_fail(P.vertices)) is int), P

    def test_mixed_side_edge(self):
        assert to_one_side(Polygon([(0, 0), (2, 0), (1, 0), (0, 1)])) is None

    def test_degenerate_edge_on_boundary_ok(self):
        witness = to_one_side(Polygon([(0, 0), (0, 0), (1, 0), (0, 1)]))
        assert witness is not None

    def test_degenerate_edge_interior_fails(self):
        assert to_one_side(Polygon([(0, 0), (4, 0), (1, 1), (1, 1), (0, 4)])) is None
        # the degenerate edge first, so no mixed-side edge decides before it
        assert to_one_side(Polygon([(1, 1), (1, 1), (0, 0), (4, 0), (0, 4)])) is None

    def test_dim_le_1(self):
        assert to_one_side(Polygon([(2, 2), (2, 2)])) is not None
        assert to_one_side(Polygon([(0, 0), (2, 1), (4, 2)])) is not None

    def _check_witness(self, P, witness):
        vs = P.vertices
        n = len(vs)
        for j, (nx, ny) in enumerate(witness.normals):
            assert (nx, ny) != (0, 0)
            base = nx * vs[j].x + ny * vs[j].y
            nxt = vs[(j + 1) % n]
            assert nx * nxt.x + ny * nxt.y == base
            assert all(nx * v.x + ny * v.y >= base for v in vs)

    def test_witness_contract_on_random_convex(self, rng):
        for _ in range(60):
            P = random_convex_polygon(rng, rng.randint(3, 7), 40)
            assert oracle_test(P).convex and classify(P).ordinary
            witness = to_one_side(P)
            assert witness is not None
            self._check_witness(P, witness)

    def test_convex_ordinary_implies_witness(self, rng):
        # includes non-strict convex shapes: midpoint vertices on hull edges
        for _ in range(60):
            P = random_convex_polygon(rng, rng.randint(3, 6), 30)
            vs = list(P.vertices)
            a, b = vs[0], vs[1]
            if (a.x + b.x) % 2 == 0 and (a.y + b.y) % 2 == 0:
                vs.insert(1, ((a.x + b.x) // 2, (a.y + b.y) // 2))
            Q = Polygon(vs)
            if oracle_test(Q).convex and classify(Q).ordinary:
                witness = to_one_side(Q)
                assert witness is not None
                self._check_witness(Q, witness)


class TestPreConvex:
    def test_scrambled_square(self):
        assert is_pre_convex(shuffled(SQUARE, (0, 2, 1, 3)))

    def test_interior_point(self):
        P = Polygon([(0, 0), (4, 0), (1, 1), (0, 4)])
        # (1, 1) really is interior to the hull of the others
        assert point_in_hull((1, 1), [(0, 0), (4, 0), (0, 4)])
        assert not is_pre_convex(P)

    def test_circle_points(self):
        P = Polygon([(25, 0), (20, 15), (0, 25), (-15, 20), (-24, -7)])
        assert all(v.x**2 + v.y**2 == 625 for v in P.vertices)
        assert is_pre_convex(P)

    def test_non_strict_fallback(self):
        # collinear run: a convex order exists
        assert is_pre_convex(Polygon([(2, 0), (0, 0), (1, 0), (2, 2), (0, 2)]))
        # duplicate vertex: still pre-convex via the duplicate-adjacent order
        assert is_pre_convex(Polygon([(0, 0), (1, 0), (0, 0), (0, 1)]))

    def test_non_strict_negative(self):
        # center of the square is interior whatever the order
        assert not is_pre_convex(Polygon([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]))

    def test_answers_past_permutation_limit(self):
        # non-strict input past n = 8 is decided by the hull boundary alone
        assert is_pre_convex(Polygon([(i, 0) for i in (4, 0, 8, 2, 6, 1, 7, 3, 5)]))
        rim = [(0, 0), (4, 4), (2, 0), (4, 0), (0, 2), (0, 4), (4, 2), (2, 4), (4, 0), (2, 0)]
        # square corners, edge midpoints and two repeated points: n = 10
        assert not classify(Polygon(rim)).strict
        assert is_pre_convex(Polygon(rim))
        # the center is interior whatever the order
        assert not is_pre_convex(Polygon(rim + [(2, 2)]))

    def test_matches_census(self, rng):
        for _ in range(40):
            P = random_polygon(rng, rng.randint(1, 6), 3)
            count, _ = convex_permutations(P)
            assert is_pre_convex(P) == (count > 0)


class TestConvexPermutations:
    def test_square_census(self):
        count, perms = convex_permutations(Polygon(SQUARE))
        assert count == 8 == len(perms)
        assert tuple(range(4)) in perms

    def test_pentagon_census(self):
        P = Polygon(PENTAGON)
        assert sign_test(P).convex
        count, _ = convex_permutations(P)
        assert count == 10

    def test_not_pre_convex_census(self):
        count, perms = convex_permutations(Polygon([(0, 0), (4, 0), (1, 1), (0, 4)]))
        assert count == 0 and perms == []

    def test_small_n_all_orders(self):
        count, _ = convex_permutations(Polygon([(0, 0), (5, 1), (2, 9)]))
        assert count == 6

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            convex_permutations(Polygon([(i, i * i) for i in range(9)]))

    def test_two_n_for_random_convex(self, rng):
        for n in (3, 4, 5, 6):
            P = random_convex_polygon(rng, n, 30)
            count, _ = convex_permutations(P)
            assert count == 2 * n


# The oracle's edge walk as it scanned every hull side for every edge,
# before corners were looked up; kept as the reference for the lookup.


def first_side_reference(sides, a, b):
    for p, q in sides:
        sa = _side_pos(p, q, a)
        if sa is not None:
            sb = _side_pos(p, q, b)
            if sb is not None:
                return p, q, sa, sb
    return None


def oracle_fail_reference(vs):
    hull = _hull(vs)
    if len(hull) <= 2:
        return None
    sides = list(zip(hull, hull[1:] + hull[:1]))
    spans = {side: [] for side in sides}
    n = len(vs)
    for i in range(n):
        match = first_side_reference(sides, vs[i], vs[i + 1 - n])
        if match is None:
            return i
        p, q, sa, sb = match
        spans[p, q].append((min(sa, sb), max(sa, sb)))
    for p, q in sides:
        covered = 0
        for lo, hi in sorted(spans[p, q]):
            if lo > covered:
                break
            covered = max(covered, hi)
        if covered < (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2:
            return p, q
    return None


def to_one_side_reference(P):
    vs = P.vertices
    hull = _hull(vs)
    if len(hull) <= 2:
        return to_one_side(P)  # no side walk: one normal for every edge
    sides = list(zip(hull, hull[1:] + hull[:1]))
    normals = []
    for i in range(len(vs)):
        a, b = vs[i], vs[(i + 1) % len(vs)]
        match = first_side_reference(sides, a, b)
        if match is None:
            return None
        p, q, sa, sb = match
        u, v = (a, b) if sb > sa else (b, a) if sb < sa else (p, q)
        normals.append((u.y - v.y, v.x - u.x))
    return ToOneSideWitness(tuple(normals))


def is_pre_convex_reference(P):
    hull = _hull(P.vertices)
    sides = list(zip(hull, hull[1:] + hull[:1]))
    return all(first_side_reference(sides, v, v) is not None for v in P.vertices)


def corner_question_polygon(rng):
    # Small boxes, so corners, side midpoints and repeats collide often:
    # either random points, or a hull cycle (on even coordinates, so each
    # side has a lattice midpoint) with midpoints and repeats planted,
    # then rotated, reversed or shuffled.
    box = rng.randint(1, 3)
    pts = [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.5:
        vs = [(2 * x, 2 * y) for x, y in _hull(pts)]
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(vs))
            (ax, ay), (bx, by) = vs[i - 1], vs[i]
            vs.insert(i, ((ax + bx) // 2, (ay + by) // 2))
        shift = rng.randrange(len(vs))
        vs = vs[shift:] + vs[:shift]
        order = rng.randrange(3)
        if order == 1:
            vs.reverse()
        elif order == 2:
            rng.shuffle(vs)
    else:
        vs = pts
    for _ in range(rng.randint(0, 2)):
        vs.insert(rng.randrange(len(vs) + 1), rng.choice(vs))
    return Polygon(vs)


class TestCornerLookup:
    def test_oracle_matches_the_side_scan(self, rng):
        outcomes = collections.Counter()
        for _ in range(6000):
            P = corner_question_polygon(rng)
            fail = _oracle_fail(P.vertices)
            assert fail == oracle_fail_reference(P.vertices), P
            outcomes["convex" if fail is None else "edge" if type(fail) is int else "side"] += 1
        # every outcome, the uncovered side included, is reached often
        assert min(outcomes.values()) > 150, outcomes

    def test_to_one_side_and_pre_convex_match_the_side_scan(self, rng):
        for _ in range(3000):
            P = corner_question_polygon(rng)
            assert to_one_side(P) == to_one_side_reference(P), P
            assert is_pre_convex(P) == is_pre_convex_reference(P), P

    def test_corners_that_are_not_adjacent_share_no_side(self):
        # the diagonal (0, 0) -> (2, 2) joins two corners of the square
        P = Polygon([(0, 0), (2, 2), (2, 0), (0, 2)])
        assert _oracle_fail(P.vertices) == 0
        assert to_one_side(P) is None
        # the same corners in cycle order
        assert _oracle_fail(Polygon(SQUARE).vertices) is None
