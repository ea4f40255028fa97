"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
measurements.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import math
import random
import time

from eszk import (
    Polygon,
    SEVEN_GON_CERTIFICATE,
    SearchConfig,
    bounds_for,
    classify,
    convex_permutations,
    count_convex_subgons,
    find_convex_subgon,
    is_convex,
    is_pre_convex,
    oracle_test,
    search_extremal,
    sign_test,
    sub_polygon,
    verify_certificate,
)
from eszk.cli import main
from conftest import det, degenerate_pool, random_convex_polygon, random_strict_polygon

SEVEN_JSON = '{"vertices": [[-13,0],[15,0],[0,16],[18,39],[27,-15],[10,20],[16,30]]}'


def _report(capsys):
    out = json.loads(capsys.readouterr().out)
    return out["result"]


def test_criterion_1_builtin_certificate(tmp_path, capsys):
    """7-gon: 0 of 35 convex sub-4-gons; certificate proves bound >= 8."""
    path = tmp_path / "p7.json"
    path.write_text(SEVEN_JSON)
    start = time.perf_counter()
    assert main(["count-subgons", str(path), "-k", "4"]) == 0
    counted = _report(capsys)
    assert main(
        ["verify-cert", str(path), "-k", "4", "--store", str(tmp_path / "store.json")]
    ) == 0
    verified = _report(capsys)
    elapsed = time.perf_counter() - start
    assert counted == {"k": 4, "count": 0, "total": 35}
    assert verified["verified"] is True and verified["claimed_bound"] == 8
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 0/35 convex sub-4-gons, bound >= 8, {elapsed * 1000:.0f} ms")


def test_criterion_2_square_orders():
    """Square order (0,1,2,3) convex, order (0,2,1,3) not, by both routes."""
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    good = Polygon(sq)
    bad = Polygon(sq[i] for i in (0, 2, 1, 3))
    assert sign_test(good).convex and oracle_test(good).convex
    assert not sign_test(bad).convex and not oracle_test(bad).convex
    print("\nACCEPTANCE 2 PASS: square orders decided identically by both routes")


def test_criterion_3_differential_suite():
    """>= 10^4 random strict n-gons, n in 4..9, coords in [-50, 50]:
    the sign test and the definition oracle agree on every instance."""
    rng = random.Random(3141592)
    cases = 10000
    start = time.perf_counter()
    mismatches = 0
    for i in range(cases):
        P = random_strict_polygon(rng, 4 + i % 6, 50)
        if sign_test(P).convex != oracle_test(P).convex:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: {cases} cases, 0 mismatches, {elapsed:.1f} s")


def _half_lattice(a, b):
    # The points of segment [a, b] on the lattice, for a, b in doubled
    # coordinates: the half-integer points of the undoubled segment.
    g = math.gcd(b[0] - a[0], b[1] - a[1])
    if g == 0:
        return {a}
    sx, sy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
    return {(a[0] + t * sx, a[1] + t * sy) for t in range(g + 1)}


def _lattice_reference(P):
    """Convexity by definition, compared on the half-integer lattice.

    The hull boundary is the union of the segments between two vertices
    with every vertex weakly on one side of their line (for dimension 2,
    its sides; for dimension 1, all of it).  Edge union and boundary are
    unions of segments with integer ends, so they differ only if one
    leaves the other on an open piece of a segment: an edge through the
    interior, whose midpoint is interior, or a gap in a side between two
    integer points, whose midpoint is uncovered.  Both midpoints are
    half-integer, so agreement at every half-integer point is equality.
    """
    vs = [(2 * x, 2 * y) for x, y in P.vertices]
    n = len(vs)
    if len(set(vs)) == 1:
        return True
    edges = set().union(*(_half_lattice(vs[i], vs[(i + 1) % n]) for i in range(n)))
    boundary = set()
    for a, b in itertools.combinations(sorted(set(vs)), 2):
        dets = [det(a, b, c) for c in vs]
        if all(d >= 0 for d in dets) or all(d <= 0 for d in dets):
            boundary |= _half_lattice(a, b)
    return edges == boundary


def _boundary_walk_pool(rng, count):
    """Small-grid polygons aimed at both halves of the oracle: walks back
    and forth along a convex cycle (sides left uncovered, back-tracking,
    double winding), the same with a repeated point planted anywhere
    (chords), and plain random polygons."""
    pool = []
    while len(pool) < count:
        style = rng.randrange(3)
        if style == 2:
            pool.append(Polygon((rng.randint(-3, 3), rng.randint(-3, 3))
                                for _ in range(rng.randint(4, 8))))
            continue
        # a convex cycle, with the midpoint of a side inserted when it is
        # a lattice point
        cycle = list(random_convex_polygon(rng, rng.randint(3, 5), 4).vertices)
        for i in range(len(cycle) - 1, -1, -1):
            a, b = cycle[i], cycle[(i + 1) % len(cycle)]
            if (a.x + b.x) % 2 == 0 and (a.y + b.y) % 2 == 0 and rng.random() < 0.5:
                cycle.insert(i + 1, ((a.x + b.x) // 2, (a.y + b.y) // 2))
        m = len(cycle)
        pos, walk = 0, []
        for _ in range(rng.randint(2, 7)):
            walk.append(cycle[pos])
            pos = (pos + rng.choice((1, 1, -1))) % m
        step = rng.choice((1, -1))
        while pos != 0:  # home one step at a time, so every edge is a side piece
            walk.append(cycle[pos])
            pos = (pos + step) % m
        if style == 1:
            walk.insert(rng.randrange(len(walk) + 1), rng.choice(walk))
        pool.append(Polygon(walk))
    return pool


def test_criterion_3_oracle_matches_lattice_reference():
    """2000 small-grid polygons with back-tracking walks and planted
    repeats: oracle_test and is_convex agree with a brute-force reference
    that compares edge union and hull boundary on the half-integer
    lattice, and both of the oracle's checks decide some of them."""
    rng = random.Random(20061)
    pool = _boundary_walk_pool(rng, 2000)
    start = time.perf_counter()
    outcomes = {"convex": 0, "leaves the hull boundary": 0, "is not covered": 0}
    for P in pool:
        expected = _lattice_reference(P)
        verdict = oracle_test(P)
        assert verdict.convex == expected, (P, verdict)
        assert is_convex(P).convex == expected, P
        key = "convex" if verdict.convex else next(k for k in outcomes if k in verdict.witness)
        outcomes[key] += 1
    elapsed = time.perf_counter() - start
    assert min(outcomes.values()) >= 200  # each outcome is exercised, not vacuous
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 (oracle reference) PASS: {len(pool)} polygons, {outcomes}, "
          f"{elapsed:.1f} s")


def test_criterion_4_permutation_census():
    """Strictly convex n-gons, n in 4..6: exactly 2n convex orders."""
    fixtures = {
        4: Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
        5: Polygon([(0, 0), (3, -1), (5, 1), (3, 4), (0, 3)]),
        6: Polygon([(0, 0), (4, -1), (7, 2), (6, 6), (2, 7), (-2, 3)]),
    }
    for n, P in fixtures.items():
        assert classify(P).strict and sign_test(P).convex
        count, perms = convex_permutations(P)
        assert count == 2 * n == len(perms)
    print("\nACCEPTANCE 4 PASS: censuses 8/24, 10/120, 12/720")


def test_criterion_5_thirteen_gon_sampling():
    """1000 random strict 13-gons with coords in [-10^6, 10^6]: a convex
    sub-4-gon is always found and always passes the oracle."""
    rng = random.Random(13131313)
    start = time.perf_counter()
    for _ in range(1000):
        P = random_strict_polygon(rng, 13, 10**6)
        found = find_convex_subgon(P, 4)
        assert found is not None
        assert oracle_test(sub_polygon(P, found)).convex
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 PASS: 1000/1000 strict 13-gons, {elapsed:.1f} s")


def test_criterion_6_sub4_implies_convex():
    """Whenever all sub-4-gons of an n <= 8 polygon pass the oracle, the
    polygon itself passes the oracle; 5000+ degenerate-heavy instances."""
    rng = random.Random(424242)
    pool = degenerate_pool(rng, 5000)
    positives = 0
    counterexamples = 0
    for P in pool:
        n = len(P)
        all_sub4 = all(
            oracle_test(sub_polygon(P, idx)).convex
            for idx in itertools.combinations(range(n), 4)
        )
        if all_sub4:
            positives += 1
            if not oracle_test(P).convex:
                counterexamples += 1
    assert counterexamples == 0
    assert positives >= 1000  # the implication is exercised, not vacuous
    print(f"\nACCEPTANCE 6 PASS: {len(pool)} polygons, {positives} positives, 0 counterexamples")


def test_criterion_7_degenerate_convexity():
    """dim <= 1 and n <= 3 polygons are always convex; strict with n >= 3
    implies ordinary across the random suite."""
    rng = random.Random(777)
    checked = 0
    for _ in range(2000):
        n = rng.randint(1, 3)
        P = Polygon((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n))
        verdict = is_convex(P)
        assert verdict.convex and oracle_test(P).convex
        checked += 1
    for _ in range(2000):
        n = rng.randint(1, 9)
        x0, y0, dx, dy = (rng.randint(-5, 5) for _ in range(4))
        P = Polygon((x0 + t * dx, y0 + t * dy) for t in (rng.randint(-8, 8) for _ in range(n)))
        assert classify(P).dimension <= 1
        assert is_convex(P).convex and oracle_test(P).convex
        checked += 1
    for _ in range(2000):
        P = Polygon((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 8)))
        rep = classify(P)
        if rep.strict and rep.n >= 3:
            assert rep.ordinary
        checked += 1
    print(f"\nACCEPTANCE 7 PASS: {checked} degenerate/strictness checks")


def test_criterion_8_cyclic_pre_convexity():
    """100 random strict polygons on the integer circle of radius 25 are
    pre-convex."""
    circle = sorted(
        {
            (x, y)
            for x in range(-25, 26)
            for y in range(-25, 26)
            if x * x + y * y == 625
        }
    )
    assert len(circle) == 20
    rng = random.Random(2525)
    for _ in range(100):
        pts = rng.sample(circle, rng.randint(3, 12))
        rng.shuffle(pts)
        P = Polygon(pts)
        assert classify(P).strict
        assert is_pre_convex(P)
    print("\nACCEPTANCE 8 PASS: 100/100 cyclic polygons pre-convex")


def test_criterion_9_search_reproducibility():
    """Documented search (n=7, k=4, seed=1, 200x5000) is bit-identical
    across runs and worker counts; emitted certificates re-verify; the
    certificate-seeded run reports objective 0."""
    cfg = SearchConfig(n=7, k=4, seed=1)
    start = time.perf_counter()
    first = search_extremal(cfg)
    second = search_extremal(cfg)
    parallel = search_extremal(cfg, workers=2)
    elapsed = time.perf_counter() - start
    assert first.best == second.best == parallel.best
    assert first.objective == second.objective == parallel.objective
    recount, _ = count_convex_subgons(first.best, 4, oracle_only=True)
    assert recount == first.objective
    if first.objective == 0:
        assert first.certificate is not None
        assert verify_certificate(first.certificate.polygon, 4).verified

    seeded = search_extremal(
        SearchConfig(n=7, k=4, seed=1, restarts=2, max_iterations=10,
                     initial=SEVEN_GON_CERTIFICATE)
    )
    assert seeded.objective == 0
    assert seeded.certificate is not None and seeded.certificate.verified
    print(
        f"\nACCEPTANCE 9 PASS: objective {first.objective} reproduced serial/parallel, "
        f"seeded run 0, {elapsed:.0f} s for three full runs"
    )


def test_criterion_10_bounds_table():
    """Bounds: (3,3) for k=3, (8,13) for k=4, symbolic R(5,13;4) for k=5."""
    r3 = bounds_for(3)
    assert (r3.lower, r3.upper) == (3, 3)
    r4 = bounds_for(4)
    assert (r4.lower, r4.upper) == (8, 13)
    r5 = bounds_for(5)
    assert r5.upper is None and r5.symbolic_upper == "R(5,13;4)"
    print("\nACCEPTANCE 10 PASS: bounds (3,3), (8,13), R(5,13;4)")
