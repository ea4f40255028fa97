import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eszk import (
    BAD,
    GOOD,
    CapabilityError,
    InputError,
    Polygon,
    PreconditionError,
    SEVEN_GON_CERTIFICATE,
    SearchConfig,
    TripleColoring,
    bounds_for,
    classify,
    count_convex_subgons,
    find_convex_subgon,
    find_totally_monochromatic,
    is_convex,
    oracle_test,
    orient2d,
    sign_test,
    sub_polygon,
    triple_coloring,
    verify_certificate,
)
import eszk.geometry
import eszk.subgons
from eszk.subgons import _convex_subsets, _polygon_signs
from conftest import (
    det,
    is_strict_brute,
    random_convex_polygon,
    random_polygon,
    random_strict_polygon,
)

HEXAGON = [(0, 0), (4, -1), (7, 2), (6, 6), (2, 7), (-2, 3)]

# Non-strict polygons for the supporting-line DFS.  The doubly wound
# triangle and the back-and-forth hexagon are oracle-convex although
# some of their sorted index triples have opposite signs; the traced-back
# triangle has every edge on a supporting line but leaves a hull edge
# uncovered, so only the oracle rejects it.
NON_STRICT = {
    "two-duplicates": [(0, 0), (3, 0), (3, 0), (2, 2), (0, 3), (0, 3), (-1, 1)],
    "point-three-times": [(1, 1), (0, 0), (1, 1), (3, 0), (1, 1), (2, 3), (-1, 2)],
    "doubly-wound-triangle": [(0, 0), (2, 0), (0, 2)] * 2,
    "back-and-forth-hexagon": [(0, 0), (2, 0), (1, 0), (3, 0), (3, 3), (0, 3)],
    "traced-back-triangle": [(0, 0), (2, 0), (0, 2), (2, 0), (1, 3)],
    "all-collinear": [(3 * i, 2 * i) for i in (0, 3, 1, 2, -1, 4, 1)],
    "all-equal": [(2, -1)] * 6,
}


def oracle_subsets(P, k):
    """The convex sub-k-gons of P by plain oracle enumeration."""
    return [
        idx
        for idx in itertools.combinations(range(len(P)), k)
        if oracle_test(sub_polygon(P, idx)).convex
    ]


def assert_dfs_matches_oracle(P):
    for k in range(1, len(P) + 1):
        convex = oracle_subsets(P, k)
        assert count_convex_subgons(P, k, include_subsets=True) == (len(convex), convex)
        first = next(_convex_subsets(P.vertices, k, math.inf), None)
        assert first == (convex[0] if convex else None)


class TestSubPolygon:
    def test_identity(self, seven_gon):
        assert sub_polygon(seven_gon, range(7)) == seven_gon

    def test_prefix(self, unit_square):
        assert sub_polygon(unit_square, (0, 1, 2)) == Polygon([(0, 0), (1, 0), (1, 1)])

    def test_even_indices(self, seven_gon):
        assert sub_polygon(seven_gon, (0, 2, 4, 6)) == Polygon(
            [(-13, 0), (0, 16), (27, -15), (16, 30)]
        )

    @pytest.mark.parametrize("bad", [(), (0, 0), (2, 1), (0, 9), (-1, 2), (0, 1.5)])
    def test_invalid_subsets(self, seven_gon, bad):
        with pytest.raises(InputError):
            sub_polygon(seven_gon, bad)


class TestCount:
    def test_seven_gon_has_none(self, seven_gon):
        assert count_convex_subgons(seven_gon, 4) == (0, None)
        count, subsets = count_convex_subgons(seven_gon, 4, include_subsets=True)
        assert count == 0 and subsets == []

    def test_square_single_subset(self, unit_square):
        count, subsets = count_convex_subgons(unit_square, 4, include_subsets=True)
        assert count == 1 and subsets == [(0, 1, 2, 3)]

    def test_convex_hexagon_all_fifteen(self):
        P = Polygon(HEXAGON)
        assert sign_test(P).convex
        count, subsets = count_convex_subgons(P, 4, include_subsets=True)
        assert count == 15 == len(subsets)
        # cross-check each against the definition-level oracle
        for idx in subsets:
            assert oracle_test(sub_polygon(P, idx)).convex

    def test_oracle_only_agrees(self, seven_gon):
        assert count_convex_subgons(seven_gon, 4, oracle_only=True)[0] == 0
        P = Polygon(HEXAGON)
        assert count_convex_subgons(P, 4, oracle_only=True)[0] == 15

    def test_budget(self, seven_gon):
        with pytest.raises(CapabilityError):
            count_convex_subgons(seven_gon, 3, budget=10)

    def test_k_range(self, unit_square):
        with pytest.raises(InputError):
            count_convex_subgons(unit_square, 0)
        with pytest.raises(InputError):
            count_convex_subgons(unit_square, 5)

    def test_small_k_counts_everything(self, seven_gon):
        assert count_convex_subgons(seven_gon, 3)[0] == 35
        assert count_convex_subgons(seven_gon, 1)[0] == 7

    def test_non_strict_polygon_uses_dispatch(self):
        # square plus a vertex interior to the bottom edge
        P = Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        count, subsets = count_convex_subgons(P, 4, include_subsets=True)
        for idx in itertools.combinations(range(5), 4):
            expected = oracle_test(sub_polygon(P, idx)).convex
            assert ((idx in subsets)) == expected
        assert count == len(subsets)


class TestFind:
    def test_seven_gon_none(self, seven_gon):
        assert find_convex_subgon(seven_gon, 4) is None

    def test_square(self, unit_square):
        assert find_convex_subgon(unit_square, 4) == (0, 1, 2, 3)

    def test_small_k_prefix(self, seven_gon):
        assert find_convex_subgon(seven_gon, 2) == (0, 1)

    def test_k_range(self, unit_square):
        with pytest.raises(InputError):
            find_convex_subgon(unit_square, 0)
        with pytest.raises(InputError):
            find_convex_subgon(unit_square, 5)

    def test_returns_lexicographically_least(self):
        P = Polygon(HEXAGON)
        assert find_convex_subgon(P, 4) == (0, 1, 2, 3)
        assert find_convex_subgon(P, 5) == (0, 1, 2, 3, 4)

    def test_random_strict_13_gons(self, rng):
        # statistical slice of the acceptance run
        for _ in range(50):
            P = random_strict_polygon(rng, 13, 10**6)
            found = find_convex_subgon(P, 4)
            assert found is not None
            assert oracle_test(sub_polygon(P, found)).convex

    def test_non_strict_with_solution(self):
        # collinear bottom run, convex quad available elsewhere
        P = Polygon([(0, 0), (5, 0), (10, 0), (10, 7), (0, 7), (3, 3)])
        found = find_convex_subgon(P, 4)
        assert found is not None
        assert is_convex(sub_polygon(P, found)).convex

    def test_all_collinear_subsets_are_convex(self):
        # dimension <= 1 sub-polygons are convex, so the first subset wins
        P = Polygon([(i, 0) for i in range(9)])
        assert find_convex_subgon(P, 4) == (0, 1, 2, 3)

    def test_non_strict_without_solution(self):
        # found by exhaustive oracle enumeration over all five 4-subsets
        from eszk import classify

        P = Polygon([(3, -3), (1, 4), (2, 0), (6, -1), (1, 3)])
        rep = classify(P)
        assert not rep.strict and rep.dimension == 2 and rep.ordinary
        assert count_convex_subgons(P, 4, oracle_only=True)[0] == 0
        assert find_convex_subgon(P, 4) is None

    def test_result_always_convex(self, rng):
        for _ in range(40):
            P = random_polygon(rng, rng.randint(4, 9), 6)
            found = find_convex_subgon(P, 4)
            if found is not None:
                assert is_convex(sub_polygon(P, found)).convex

    def test_presence_matches_exhaustive_count(self, rng):
        # degenerate-heavy inputs: found iff the oracle count is positive
        for _ in range(60):
            P = random_polygon(rng, rng.randint(4, 7), 4)
            count, _ = count_convex_subgons(P, 4, oracle_only=True)
            found = find_convex_subgon(P, 4)
            assert (found is not None) == (count > 0)

    def test_k_above_four_on_convex_positions(self, rng):
        for n, k in [(8, 5), (9, 6), (10, 7)]:
            P = random_convex_polygon(rng, n, 60)
            assert find_convex_subgon(P, k) == tuple(range(k))

    def test_strict_none_needs_no_enumeration_budget(self):
        # Strict 12-gon with no convex sub-5-gon.  The monochromatic DFS
        # visits 156 nodes, far below C(12, 5) = 792, and its None is
        # final: a budget in between must not trigger a C(n, k) pass.
        P = Polygon([(14, 19), (32, 18), (-41, -30), (-39, -18), (-12, -22), (17, 49),
                     (3, -28), (14, 42), (-49, -19), (20, -21), (6, 48), (-9, -22)])
        assert count_convex_subgons(P, 5, oracle_only=True)[0] == 0
        assert find_convex_subgon(P, 5, budget=700) is None
        with pytest.raises(CapabilityError):
            find_convex_subgon(P, 5, budget=100)

    def test_budget_counts_the_nodes_up_to_a_deep_hit(self):
        # Strict 11-gon whose least convex sub-5-gon, (3, 5, 6, 8, 9), is
        # the 104th DFS node: the leaf-parent DFS counts its hit as the
        # first leaf below the parent, as a walk to that leaf does.
        P = Polygon([(30, -39), (-41, 2), (10, 32), (2, -39), (48, 18), (-3, -2),
                     (-34, 2), (0, -1), (-24, -49), (1, -42), (0, -36)])
        assert find_convex_subgon(P, 5, budget=104) == (3, 5, 6, 8, 9)
        with pytest.raises(CapabilityError):
            find_convex_subgon(P, 5, budget=103)

    def test_budget_counts_the_nodes_up_to_a_non_strict_hit(self):
        # Non-strict 11-gon (vertices 2 and 7 coincide) whose least
        # convex sub-5-gon, (2, 3, 4, 6, 7), is the 119th node of the
        # supporting-line DFS; it repeats a point, so the oracle decides it.
        vs = Polygon([(37, 9), (-41, 47), (-38, -9), (0, 9), (4, 15), (-5, 5), (-24, 26),
                      (-38, -9), (31, 39), (-45, -25), (-27, 2)]).vertices
        assert next(_convex_subsets(vs, 5, 119)) == (2, 3, 4, 6, 7)
        with pytest.raises(CapabilityError):
            next(_convex_subsets(vs, 5, 118))

    def test_non_convex_hit_raises(self, monkeypatch):
        # a DFS hit that is not convex is an internal inconsistency; the
        # DFS yields the hit (0, 1, 2, 3) as its prefix and the bitset of
        # its last vertex
        monkeypatch.setattr(eszk.subgons, "_monochromatic",
                            lambda *args: iter([((0, 1, 2), 1 << 3)]))
        with pytest.raises(RuntimeError, match="internal inconsistency"):
            find_convex_subgon(SEVEN_GON_CERTIFICATE, 4)


@pytest.mark.parametrize("k", [True, 4.0, "4", None])
@pytest.mark.parametrize("entry", [
    find_convex_subgon,
    count_convex_subgons,
    verify_certificate,
    lambda P, m: find_totally_monochromatic(triple_coloring(P), m),
    lambda P, k: bounds_for(k),
    lambda P, k: SearchConfig(n=7, k=k, seed=1),
], ids=["find", "count", "verify", "monochromatic", "bounds", "search-config"])
def test_k_must_be_an_int(entry, k):
    # a bool, float or string k is refused, not read as a number
    with pytest.raises(InputError, match="not an integer"):
        entry(SEVEN_GON_CERTIFICATE, k)


class TestColoring:
    def test_square_all_good(self, unit_square):
        coloring = triple_coloring(unit_square)
        assert coloring.n == 4
        assert set(coloring.colors.values()) == {GOOD}

    def test_reflected_square_all_bad(self):
        coloring = triple_coloring(Polygon([(0, 0), (0, 1), (1, 1), (1, 0)]))
        assert set(coloring.colors.values()) == {BAD}

    def test_total_on_all_triples(self, seven_gon):
        coloring = triple_coloring(seven_gon)
        assert set(coloring.colors) == set(itertools.combinations(range(7), 3))

    def test_rejects_non_strict(self):
        with pytest.raises(PreconditionError):
            triple_coloring(Polygon([(0, 0), (1, 0), (2, 0), (0, 1)]))


class TestMonochromatic:
    def test_m3_is_any_triple(self, seven_gon):
        found = find_totally_monochromatic(triple_coloring(seven_gon), 3)
        assert found == ((0, 1, 2), triple_coloring(seven_gon).colors[(0, 1, 2)])

    def test_square_full_subset(self, unit_square):
        assert find_totally_monochromatic(triple_coloring(unit_square), 4) == ((0, 1, 2, 3), GOOD)
        clockwise = Polygon(unit_square.vertices[::-1])
        assert find_totally_monochromatic(triple_coloring(clockwise), 4) == ((0, 1, 2, 3), BAD)

    def test_seven_gon_has_none(self, seven_gon):
        assert find_totally_monochromatic(triple_coloring(seven_gon), 4) is None

    def test_m_too_small(self, unit_square):
        with pytest.raises(InputError):
            find_totally_monochromatic(triple_coloring(unit_square), 2)

    def test_m_exceeds_n(self, unit_square):
        assert find_totally_monochromatic(triple_coloring(unit_square), 5) is None

    @pytest.mark.parametrize("n", [-1, 2.0, "4", None])
    def test_rejects_bad_n(self, n):
        with pytest.raises(InputError, match="n = "):
            find_totally_monochromatic(TripleColoring(n=n, colors={}), 3)

    def test_rejects_missing_triple(self, unit_square):
        with pytest.raises(InputError, match="has 0 triples"):
            find_totally_monochromatic(TripleColoring(n=4, colors={}), 3)
        colors = dict(triple_coloring(unit_square).colors)
        del colors[1, 2, 3]
        with pytest.raises(InputError, match="has 3 triples"):
            find_totally_monochromatic(TripleColoring(n=4, colors=colors), 3)
        colors[1, 3, 2] = GOOD  # the count is right, the key is not increasing
        with pytest.raises(InputError, match=r"lacks triple \(1, 2, 3\)"):
            find_totally_monochromatic(TripleColoring(n=4, colors=colors), 4)

    def test_rejects_extra_triple(self, unit_square):
        colors = dict(triple_coloring(unit_square).colors)
        colors[0, 1, 4] = GOOD
        with pytest.raises(InputError, match="has 5 triples"):
            find_totally_monochromatic(TripleColoring(n=4, colors=colors), 3)

    @pytest.mark.parametrize("color", ["red", None, 1, True])
    def test_rejects_unknown_color(self, unit_square, color):
        # a color other than GOOD or BAD used to be read as BAD
        colors = dict(triple_coloring(unit_square).colors)
        colors[0, 2, 3] = color
        with pytest.raises(InputError, match=r"unknown color .* triple \(0, 2, 3\)"):
            find_totally_monochromatic(TripleColoring(n=4, colors=colors), 4)

    def test_equivalence_with_count(self, rng):
        # monochromatic 4-subset exists iff some sub-4-gon is convex
        for _ in range(80):
            P = random_strict_polygon(rng, rng.randint(4, 10), 30)
            coloring = triple_coloring(P)
            found = find_totally_monochromatic(coloring, 4)
            count, _ = count_convex_subgons(P, 4)
            assert (found is not None) == (count > 0)
            if found is not None:
                assert is_convex(sub_polygon(P, found[0])).convex


def test_sign_routes_match_oracle_brute_force(rng):
    # differential: the one monochromatic DFS behind find, the strict
    # count and the coloring search against plain oracle enumeration
    for _ in range(30):
        n = rng.randint(4, 10)
        P = random_strict_polygon(rng, n, rng.choice([8, 40, 10**4]))
        coloring = triple_coloring(P)
        for k in range(4, n + 1):
            convex = [
                idx
                for idx in itertools.combinations(range(n), k)
                if oracle_test(sub_polygon(P, idx)).convex
            ]
            least = convex[0] if convex else None
            assert find_convex_subgon(P, k) == least
            assert count_convex_subgons(P, k, include_subsets=True) == count_convex_subgons(
                P, k, include_subsets=True, oracle_only=True
            )
            mono = find_totally_monochromatic(coloring, k)
            if least is None:
                assert mono is None
            else:
                a, b, c = (P[i] for i in least[:3])
                assert mono == (least, GOOD if orient2d(a, b, c) > 0 else BAD)


def test_non_strict_enumeration_matches_oracle(rng):
    # differential: the supporting-line DFS behind the non-strict count
    # and the fallback of find, against plain oracle enumeration
    for trial in range(40):
        n = rng.randint(4, 10)
        pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]
        a, b, c = rng.sample(range(n), 3)
        if trial % 2:
            pts[c] = pts[a]  # planted duplicate
        else:
            pts[c] = (2 * pts[b][0] - pts[a][0], 2 * pts[b][1] - pts[a][1])  # on line ab
        P = Polygon(pts)
        assert not classify(P).strict
        assert_dfs_matches_oracle(P)


@pytest.mark.parametrize("plant", ["strict", "duplicate", "collinear"])
def test_oracle_only_count_matches_the_dfs_routes(rng, plant):
    # the certificate route, every k-subset through the witness-free
    # oracle core, against the sign-table DFS on strict polygons and the
    # supporting-line DFS on a planted duplicate or collinear triple
    for _ in range(15):
        n = rng.randint(6, 10)
        if plant == "strict":
            P = random_strict_polygon(rng, n, rng.choice([8, 40, 10**4]))
        else:
            pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]
            a, b, c = rng.sample(range(n), 3)
            (ax, ay), (bx, by) = pts[a], pts[b]
            pts[c] = (ax, ay) if plant == "duplicate" else (2 * bx - ax, 2 * by - ay)
            P = Polygon(pts)
        assert (_polygon_signs(P.vertices) is None) == (plant != "strict")
        for k in range(4, 7):
            count, subsets = count_convex_subgons(P, k, include_subsets=True)
            assert count_convex_subgons(P, k, oracle_only=True) == (count, None)
            assert count_convex_subgons(P, k, include_subsets=True, oracle_only=True) == (
                count, subsets)


@pytest.mark.parametrize("name", list(NON_STRICT))
def test_non_strict_cases_match_oracle(name):
    P = Polygon(NON_STRICT[name])
    assert not classify(P).strict
    assert_dfs_matches_oracle(P)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=9))
def test_supporting_line_dfs_matches_oracle(pts):
    assert_dfs_matches_oracle(Polygon(pts))


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=9,
                unique=True))
def test_distinct_points_need_no_oracle(pts):
    # a leaf of pairwise distinct points is convex once every edge is on
    # a supporting line, so the DFS alone matches oracle enumeration
    P = Polygon(pts)
    expected = {k: oracle_subsets(P, k) for k in range(1, len(P) + 1)}

    def fail(sub):
        raise AssertionError(f"oracle called on distinct points {sub}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eszk.subgons, "_oracle_fail", fail)
        for k, convex in expected.items():
            assert list(_convex_subsets(P.vertices, k, math.inf)) == convex


@st.composite
def planted_grid_points(draw):
    """Grid points, n from 1 to 9, some with a planted duplicate or a
    vertex planted on the line of two others (anywhere, or at the last
    three indices)."""
    # uniform draws: hypothesis's own integers favour small values, so
    # large boxes would rarely give a strict polygon
    rnd = draw(st.randoms(use_true_random=False))
    box = draw(st.sampled_from([3, 1000]))
    n = draw(st.integers(1, 9))
    pts = [(rnd.randint(-box, box), rnd.randint(-box, box)) for _ in range(n)]
    plant = draw(st.sampled_from(["none", "none", "duplicate", "collinear", "collinear-last"]))
    if plant == "duplicate" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pts[j] = pts[i]
    elif plant.startswith("collinear") and n >= 3:
        if plant == "collinear-last":
            a, b, c = n - 3, n - 2, n - 1
        else:
            a, b, c = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        t = draw(st.integers(-2, 3))
        (ax, ay), (bx, by) = pts[a], pts[b]
        pts[c] = (ax + t * (bx - ax), ay + t * (by - ay))
    return pts


@settings(deadline=None, max_examples=400)
@given(planted_grid_points())
def test_sign_table_is_the_strictness_test(pts):
    # the table exists exactly when no index triple is collinear, and
    # then every bit is the brute-force orientation
    signs = _polygon_signs(Polygon(pts).vertices)
    assert (signs is None) == (not is_strict_brute(pts))
    if signs is not None:
        for a, b, c in itertools.combinations(range(len(pts)), 3):
            assert (signs[a][b] >> c & 1) == (det(pts[a], pts[b], pts[c]) > 0)


def test_subgon_routes_never_classify(monkeypatch):
    # The 7-gon is strict but not convex, so classify would run the
    # O(n^2) strictness test; the sign table decides strictness instead.
    def fail(*args):
        raise AssertionError("strictness checked outside the sign table")

    monkeypatch.setattr(eszk.geometry, "_is_strict", fail)
    with pytest.raises(AssertionError, match="outside the sign table"):
        classify(SEVEN_GON_CERTIFICATE)
    assert count_convex_subgons(SEVEN_GON_CERTIFICATE, 4) == (0, None)
    assert find_convex_subgon(SEVEN_GON_CERTIFICATE, 4) is None
    assert triple_coloring(SEVEN_GON_CERTIFICATE).n == 7


def test_perturbed_hit_is_rechecked_on_the_original(monkeypatch):
    # A perturbed search hit that is not convex on the original polygon
    # must be dropped for the exact DFS's first leaf.  Random non-strict
    # polygons rarely give such a hit, so the strict DFS is made to
    # offer one.
    P = Polygon([(0, 0), (2, 0), (1, 0), (0, 2), (2, 2)])
    bogus = (0, 1, 2, 3)  # edge 2, from (1, 0) to (0, 2), leaves the hull boundary
    assert not oracle_test(Polygon(P.vertices[i] for i in bogus)).convex
    offered = []

    def monochromatic(pos_t, k, budget):
        offered.append(k)
        yield bogus[:-1], 1 << bogus[-1]  # (prefix, completions)

    monkeypatch.setattr(eszk.subgons, "_monochromatic", monochromatic)
    exact = next(_convex_subsets(P.vertices, 4, math.inf), None)
    assert exact == (1, 2, 3, 4)
    assert find_convex_subgon(P, 4) == exact
    assert offered == [4]


def test_oracle_sees_only_supported_subsets(monkeypatch, rng):
    # every subset the DFS sends to the oracle repeats a point and has
    # each edge, the closing edge included, on a supporting line of its
    # own vertices
    seen = []
    oracle = eszk.subgons._oracle_fail

    def spy(sub):
        seen.append(sub)
        return oracle(sub)

    monkeypatch.setattr(eszk.subgons, "_oracle_fail", spy)
    for trial in range(30):
        n = rng.randint(5, 9)
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        pts[rng.randrange(n)] = pts[rng.randrange(n)]
        for k in range(4, n + 1):
            count_convex_subgons(Polygon(pts), k)
    assert seen
    for sub in seen:
        assert len(set(sub)) < len(sub), sub
        for i, a in enumerate(sub):
            b = sub[i - 1]
            signs = {det(b, a, c) > 0 for c in sub if det(b, a, c) != 0}
            assert len(signs) <= 1, (sub, b, a)


# Non-strict 12-gon with no convex sub-6-gon.  Its coordinates are past
# 10^5, so the perturbed first hit cannot scale them and find goes
# straight to the DFS, which visits 191 nodes; C(12, 6) = 924.
FAR_NONE_12 = [(x * 10**4 + 7, y * 10**4 - 3) for x, y in [
    (-18, 44), (-5, 38), (44, 33), (-19, -49), (9, 49), (-19, 33), (-44, -30), (-36, -3),
    (10, -19), (-2, 19), (-37, 23), (-19, -49)]]


def test_non_strict_none_needs_no_enumeration_budget():
    P = Polygon(FAR_NONE_12)
    assert not classify(P).strict
    assert count_convex_subgons(P, 6, oracle_only=True)[0] == 0
    assert find_convex_subgon(P, 6, budget=700) is None
    with pytest.raises(CapabilityError):
        find_convex_subgon(P, 6, budget=100)


def test_non_strict_count_keeps_subset_budget():
    P = Polygon(FAR_NONE_12)
    assert count_convex_subgons(P, 6, budget=924) == (0, None)
    with pytest.raises(CapabilityError):
        count_convex_subgons(P, 6, budget=923)


def golden_polygons():
    # 24 seeded non-strict polygons, n 5..10: a planted duplicate or a
    # point on the line of two others, coordinates within 3, 9 or 10^6
    rng = random.Random(20261018)
    for trial in range(24):
        n = rng.randint(5, 10)
        box = (3, 9, 10**6)[trial % 3]
        pts = [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(n)]
        a, b, c = rng.sample(range(n), 3)
        if trial % 2:
            pts[c] = pts[a]
        else:
            pts[c] = (2 * pts[b][0] - pts[a][0], 2 * pts[b][1] - pts[a][1])
        yield Polygon(pts)


# find_convex_subgon(P, k) for k = 4..n on golden_polygons(), recorded
# before the supporting-line DFS replaced the subset enumeration.  7 of
# the 107 answers are not the lexicographically least convex subset:
# they are the perturbed polygon's first hit.
FIND_GOLDEN = [
    [(1, 2, 3, 4), (0, 1, 2, 3, 4), None],
    [(0, 1, 2, 7), (0, 2, 3, 5, 7), None, None, None, None],
    [(0, 1, 3, 5), None, None],
    [(0, 1, 2, 3), (0, 1, 2, 3, 8), None, None, None, None],
    [(0, 1, 2, 4), None, None, None, None, None, None],
    [(0, 1, 2, 5), (0, 2, 6, 7, 8), None, None, None, None],
    [(1, 2, 3, 5), None, None],
    [(0, 1, 3, 6), (0, 1, 3, 6, 7), None, None, None],
    [(0, 2, 3, 5), (0, 2, 3, 6, 7), None, None, None],
    [(0, 1, 3, 4), None, None],
    [(0, 3, 4, 5), None, None],
    [(0, 2, 3, 4), (0, 2, 3, 4, 5), None],
    [(0, 1, 2, 5), (0, 1, 6, 7, 8), None, None, None, None, None],
    [(0, 1, 3, 5), (1, 4, 6, 8, 9), (0, 2, 3, 5, 6, 7), None, None, None, None],
    [(0, 1, 3, 4), (0, 2, 7, 8, 9), None, None, None, None, None],
    [(0, 2, 3, 4), (1, 2, 5, 6, 8), (1, 3, 4, 5, 6, 8), None, None, None],
    [(0, 2, 4, 5), None, None],
    [(0, 2, 3, 4), None, None],
    [(0, 1, 2, 5), None, None, None],
    [(0, 1, 2, 4), (0, 1, 2, 4, 5), (0, 1, 2, 3, 4, 5)],
    [(0, 2, 3, 6), None, None, None, None, None],
    [(0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5), None],
    [(0, 1, 3, 4), None],
    [(0, 2, 3, 4), None],
]


def test_non_strict_find_golden():
    got = [[find_convex_subgon(P, k) for k in range(4, len(P) + 1)] for P in golden_polygons()]
    assert got == FIND_GOLDEN


def test_hereditary_property(rng):
    # backing for the DFS pruning rule: convex strict polygons have all
    # sub-4-gons convex; a counterexample here fails the build
    for _ in range(60):
        P = random_convex_polygon(rng, rng.randint(4, 9), 50)
        assert is_convex(P).convex
        count, _ = count_convex_subgons(P, 4)
        assert count == len(list(itertools.combinations(range(len(P)), 4)))


def test_leaf_parent_count_matches_the_enumeration(rng):
    # The count adds the completion bitsets of the (k-1)-prefixes; it
    # must equal the listed subsets, the oracle-only count and the
    # sign-monochromatic k-subsets, k <= 3 included (k = 2 makes the
    # root a leaf parent, where both sign masks hold every vertex).
    for _ in range(12):
        P = random_strict_polygon(rng, rng.randint(4, 9), 40)
        vs = P.vertices
        left = {t: det(*(vs[i] for i in t)) > 0 for t in itertools.combinations(range(len(vs)), 3)}
        for k in range(1, len(vs) + 1):
            count, subsets = count_convex_subgons(P, k, include_subsets=True)
            mono = [s for s in itertools.combinations(range(len(vs)), k)
                    if len({left[t] for t in itertools.combinations(s, 3)}) <= 1]
            assert count == len(subsets) == count_convex_subgons(P, k)[0], (P, k)
            assert count == count_convex_subgons(P, k, oracle_only=True)[0], (P, k)
            assert subsets == mono, (P, k)
            assert find_convex_subgon(P, k) == (subsets[0] if subsets else None), (P, k)
