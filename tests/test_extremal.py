import concurrent.futures
import math
import random
import time
from dataclasses import replace

import pytest

from eszk import (
    CapabilityError,
    Certificate,
    InputError,
    Polygon,
    PreconditionError,
    SEVEN_GON_CERTIFICATE,
    SearchConfig,
    bounds_for,
    count_convex_subgons,
    grow,
    search_extremal,
    sub_polygon,
    verify_certificate,
)
import eszk.extremal
import eszk.subgons
from eszk.extremal import _moves, _run_restart, _sample_strict, _SubgonCounter


class TestBounds:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_small_k(self, k):
        record = bounds_for(k)
        assert record.lower == record.upper == k

    def test_k4(self):
        record = bounds_for(4)
        assert (record.lower, record.upper) == (8, 13)
        assert record.lower_provenance and record.upper_provenance

    def test_k5_symbolic(self):
        record = bounds_for(5)
        assert record.upper is None
        assert record.symbolic_upper == "R(5,13;4)"
        assert record.lower == 5

    def test_k_validation(self):
        with pytest.raises(InputError):
            bounds_for(0)

    def test_certificates_raise_lower(self):
        cert = verify_certificate(SEVEN_GON_CERTIFICATE, 4)
        assert bounds_for(4, [cert]).lower == 8
        with pytest.raises(InputError, match=r"^claimed_bound = 10 is not n \+ 1 = 8$"):
            Certificate(
                polygon=SEVEN_GON_CERTIFICATE, k=4, claimed_bound=10, verified=True,
                subgon_total=35,
            )
        unverified = Certificate(
            polygon=SEVEN_GON_CERTIFICATE, k=4, claimed_bound=8, verified=False, subgon_total=35
        )
        assert bounds_for(4, [unverified]).lower == 8

    def test_no_numeric_upper_beyond_four(self):
        for k in (5, 6, 9):
            assert bounds_for(k).upper is None

    def test_only_re_verified_certificates_are_folded(self, monkeypatch):
        # Tried in descending bound order: the parabola 10-gon fails, the
        # 7-gon folds, and the 5-gon below it is never re-verified.
        def claim(P):
            n = len(P)
            return Certificate(polygon=P, k=5, claimed_bound=n + 1, verified=True,
                               subgon_total=math.comb(n, 5))

        parabola = Polygon((x, x * x) for x in range(10))
        five = Polygon(SEVEN_GON_CERTIFICATE.vertices[:5])
        checked = []
        verify = eszk.extremal.verify_certificate
        monkeypatch.setattr(eszk.extremal, "verify_certificate",
                            lambda P, k: checked.append(len(P)) or verify(P, k))
        record = bounds_for(5, [claim(five), claim(SEVEN_GON_CERTIFICATE), claim(parabola)])
        assert checked == [10, 7]
        assert record.lower == 8
        assert record.lower_provenance == (
            "verified certificate: 7-gon with no convex sub-5-gon; "
            "not folded: certificates[2] (10-gon) has a convex sub-5-gon"
        )
        assert bounds_for(5, [claim(five)]).lower_provenance == (
            "verified certificate: 5-gon with no convex sub-5-gon"
        )

    def test_over_budget_certificate_is_not_folded(self):
        P = Polygon((x, x * x) for x in range(70))  # C(70, 5) = 12,103,014 subsets
        cert = Certificate(polygon=P, k=5, claimed_bound=71, verified=True,
                           subgon_total=math.comb(70, 5))
        record = bounds_for(5, [cert])
        assert record.lower == 5
        assert record.lower_provenance == (
            "trivial: a 4-gon has no sub-5-gon; not folded: certificates[0] (70-gon) was not "
            "re-verified: C(70,5) = 12103014 subsets exceed the budget 10000000"
        )

    def test_contradictory_certificate_rejected(self):
        with pytest.raises(InputError, match=r"^claimed_bound = 14 is not n \+ 1 = 8$"):
            Certificate(
                polygon=SEVEN_GON_CERTIFICATE, k=4, claimed_bound=14, verified=True,
                subgon_total=35,
            )

    def test_re_verified_bound_above_the_upper_bound_rejected(self, monkeypatch):
        # no 13-gon lacks a convex sub-4-gon, so only a wrong oracle verdict
        # reaches this check
        P = Polygon((x, x * x) for x in range(13))
        cert = Certificate(polygon=P, k=4, claimed_bound=14, verified=True,
                           subgon_total=math.comb(13, 4))
        monkeypatch.setattr(eszk.extremal, "verify_certificate",
                            lambda P, k: replace(cert, polygon=P, k=k))
        with pytest.raises(InputError, match="contradicting the exact upper bound 13"):
            bounds_for(4, [cert])


class TestVerifyCertificate:
    def test_seven_gon(self):
        cert = verify_certificate(SEVEN_GON_CERTIFICATE, 4)
        assert cert.verified
        assert cert.claimed_bound == 8
        assert cert.subgon_total == 35

    def test_square_fails(self, unit_square):
        cert = verify_certificate(unit_square, 4)
        assert not cert.verified and cert.claimed_bound == 5

    def test_tampered_seven_gon_fails(self, seven_gon):
        vs = list(seven_gon.vertices)
        vs[3] = (18, -39)
        tampered = Polygon(vs)
        assert count_convex_subgons(tampered, 4, oracle_only=True)[0] > 0
        assert not verify_certificate(tampered, 4).verified

    def test_roundtrip(self):
        cert = verify_certificate(SEVEN_GON_CERTIFICATE, 4)
        again = Certificate.from_dict(cert.to_dict())
        assert again == cert
        assert verify_certificate(again.polygon, again.k).verified

    @pytest.mark.parametrize(
        "field, value",
        [("k", "4"), ("k", 4.0), ("k", True), ("verified", "false"), ("verified", 1)],
    )
    def test_from_dict_requires_json_types(self, field, value):
        record = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()
        record[field] = value
        with pytest.raises(InputError, match=field):
            Certificate.from_dict(record)

    @pytest.mark.parametrize(
        "vertices, reason",
        [([[0, 0], [1, 2, 3]], "not an (x, y) pair: (1, 2, 3)"),
         ([[0, 1.5]], "y = 1.5 is not an integer")],
    )
    def test_from_dict_bad_vertex_is_a_malformed_record(self, vertices, reason):
        record = dict(k=1, vertices=vertices, claimed_bound=2, verified=True, subgon_total=1)
        with pytest.raises(InputError) as info:
            Certificate.from_dict(record)
        assert str(info.value) == f"malformed certificate record: {reason}"

    def test_json_shape(self):
        d = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()
        assert set(d) == {"k", "vertices", "claimed_bound", "verified", "subgon_total"}
        assert d["vertices"][0] == [-13, 0]

    @pytest.mark.parametrize(
        "field, value",
        [("k", "4"), ("k", 4.0), ("k", True), ("k", 0), ("k", 8), ("verified", 1),
         ("claimed_bound", 9), ("claimed_bound", 8.0), ("subgon_total", 34),
         ("subgon_total", 35.9), ("subgon_total", "35")],
    )
    def test_an_inconsistent_certificate_cannot_be_built(self, field, value):
        cert = verify_certificate(SEVEN_GON_CERTIFICATE, 4)
        fields = dict(polygon=cert.polygon, k=4, claimed_bound=8, verified=True, subgon_total=35)
        with pytest.raises(InputError, match=f"^{field} = "):
            Certificate(**dict(fields, **{field: value}))
        with pytest.raises(InputError, match=f"^{field} = "):
            replace(cert, **{field: value})

    def test_verification_matches_the_oracle_count(self):
        # strict polygons, then ones with a repeated point or a collinear triple
        rng = random.Random(20)
        outcomes = set()
        for case in range(300):
            n, k = rng.randint(5, 10), rng.randint(4, 5)
            vs = _sample_strict(rng, n, 30)
            a, b, c = rng.sample(range(n), 3)
            if case % 3 == 1:
                vs[a] = vs[b]
            elif case % 3 == 2:
                (ax, ay), (bx, by) = vs[a], vs[b]
                vs[c] = (2 * bx - ax, 2 * by - ay)
            P = Polygon(vs)
            verified = verify_certificate(P, k).verified
            assert verified == (count_convex_subgons(P, k, oracle_only=True)[0] == 0), vs
            assert verified == (count_convex_subgons(P, k)[0] == 0), vs
            outcomes.add((case % 3, verified))
        assert len(outcomes) == 6  # each kind both verifies and fails

    def test_verification_stops_at_the_first_convex_subset(self, monkeypatch):
        calls = []
        oracle = eszk.subgons._oracle_fail
        monkeypatch.setattr(eszk.subgons, "_oracle_fail",
                            lambda sub: calls.append(sub) or oracle(sub))
        parabola = Polygon((x, x * x) for x in range(10))  # every sub-5-gon is convex
        assert not verify_certificate(parabola, 5).verified
        assert calls == [parabola.vertices[:5]]
        calls.clear()
        assert verify_certificate(SEVEN_GON_CERTIFICATE, 4).verified
        assert len(calls) == 35
        calls.clear()
        with pytest.raises(InputError, match="k = 11 exceeds n = 10"):
            verify_certificate(parabola, 11)
        with pytest.raises(CapabilityError, match=r"C\(10,5\) = 252 subsets exceed the budget 251"):
            verify_certificate(parabola, 5, budget=251)
        assert calls == []


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig(n=7, k=4, seed=1)
        assert (cfg.box, cfg.max_iterations, cfg.restarts) == (50, 5000, 200)
        assert (cfg.t0, cfg.decay, cfg.radius) == (2.0, 0.999, 5)
        assert SearchConfig(n=7, k=4, seed=1, t0=3, decay=1).t0 == 3  # an int is a number

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "k": 1, "seed": 1},
            {"n": 4, "k": 5, "seed": 1},
            {"n": 7, "k": 4, "seed": -1},
            {"n": 7, "k": 4, "seed": 1, "box": 0},
            {"n": 7, "k": 4, "seed": 1, "decay": 0.0},
            {"n": 7, "k": 4, "seed": 1, "t0": 0.0},
            {"n": 7, "k": 4, "seed": 1, "radius": 0},
            {"n": 7.0, "k": 4, "seed": 1},
            {"n": 7, "k": True, "seed": 1},
            {"n": 7, "k": 4, "seed": 1.5},
            {"n": 7, "k": 4, "seed": 1, "box": 50.5},
            {"n": 7, "k": 4, "seed": 1, "max_iterations": 5.5},
            {"n": 7, "k": 4, "seed": 1, "restarts": True},
            {"n": 7, "k": 4, "seed": 1, "radius": 2.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("t0", "2"), ("t0", True), ("t0", None), ("decay", None), ("decay", True),
         ("decay", "0.9"), ("initial", [(0, 0), (3, 0), (0, 3)] * 2 + [(1, 1)]),
         ("initial", ((0, 0),) * 7)],
    )
    def test_non_int_fields_raise_input_error(self, field, value):
        with pytest.raises(InputError, match=f"^{field} = "):
            SearchConfig(n=7, k=4, seed=1, **{field: value})

    def test_initial_must_match(self, seven_gon):
        with pytest.raises(InputError):
            SearchConfig(n=6, k=4, seed=1, initial=seven_gon)
        with pytest.raises(InputError):
            SearchConfig(n=7, k=4, seed=1, box=20, initial=seven_gon)

    def test_initial_must_be_strict(self):
        with pytest.raises(InputError, match="not strict"):
            SearchConfig(n=4, k=4, seed=1, initial=Polygon([(0, 0), (1, 0), (2, 0), (0, 1)]))


SMALL = dict(restarts=6, max_iterations=400)


class TestSearch:
    def test_seeded_with_certificate_is_immediate(self, seven_gon):
        cfg = SearchConfig(n=7, k=4, seed=1, restarts=2, max_iterations=10, initial=seven_gon)
        result = search_extremal(cfg)
        assert result.objective == 0
        assert result.best == seven_gon
        assert result.certificate is not None and result.certificate.verified

    def test_objective_matches_recount(self):
        cfg = SearchConfig(n=6, k=4, seed=3, **SMALL)
        result = search_extremal(cfg)
        recount, _ = count_convex_subgons(result.best, 4)
        assert recount == result.objective

    def test_deterministic_across_runs(self):
        cfg = SearchConfig(n=6, k=4, seed=11, **SMALL)
        a = search_extremal(cfg)
        b = search_extremal(cfg)
        assert a.best == b.best and a.objective == b.objective

    def test_parallel_equals_serial(self):
        cfg = SearchConfig(n=6, k=4, seed=5, **SMALL)
        serial = search_extremal(cfg, workers=1)
        parallel = search_extremal(cfg, workers=3)
        assert serial.best == parallel.best
        assert serial.objective == parallel.objective

    def test_pool_gets_no_more_workers_than_restarts(self, monkeypatch):
        # a pool forks all its workers at the first submit; a fake pool
        # records the size asked for and maps in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        cfg = SearchConfig(n=6, k=4, seed=5, restarts=3, max_iterations=400)
        serial = search_extremal(cfg, workers=1)
        assert search_extremal(cfg, workers=64) == serial
        assert search_extremal(cfg, workers=2) == serial
        assert sizes == [3, 2]
        # one restart runs in this process, with no pool at all
        one = SearchConfig(n=6, k=4, seed=5, restarts=1, max_iterations=400)
        assert search_extremal(one, workers=8) == search_extremal(one, workers=1)
        assert sizes == [3, 2]

    def test_inconsistent_objective_raises(self, monkeypatch):
        # every tally one too many: the independent recount disagrees
        tally = _SubgonCounter._tally
        monkeypatch.setattr(_SubgonCounter, "_tally", lambda self, T: tally(self, T) + 1)
        cfg = SearchConfig(n=6, k=4, seed=3, restarts=1, max_iterations=50)
        with pytest.raises(RuntimeError, match="internal inconsistency"):
            search_extremal(cfg)

    def test_parallel_with_initial_polygon(self, seven_gon):
        # configs cross process boundaries; polygons must survive pickling
        import pickle

        cfg = SearchConfig(n=7, k=4, seed=1, restarts=4, max_iterations=5, initial=seven_gon)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        result = search_extremal(cfg, workers=2)
        assert result.objective == 0 and result.best == seven_gon

    def test_counter_matches_recount_after_every_move(self, monkeypatch):
        cfg = SearchConfig(n=7, k=4, seed=2, restarts=1, max_iterations=600)
        commit = eszk.extremal._SubgonCounter.commit
        commits = []

        def checked_commit(counter, *args):
            commit(counter, *args)
            commits.append(counter.count)
            assert counter.count == count_convex_subgons(Polygon(counter.coords), cfg.k)[0]

        monkeypatch.setattr(eszk.extremal._SubgonCounter, "commit", checked_commit)
        _run_restart(cfg, 0)
        assert len(commits) > 100

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, k", [(30, 10), (28, 6), (33, 5), (100, 1)])
    def test_counter_size_refused_up_front(self, n, k, workers):
        # slice tables past 2**32 bits at k = 10, 6 and 5; at n = 100,
        # k = 1 the triple fans alone take ~3.9e10 bits: refused at once
        cfg = SearchConfig(n=n, k=k, seed=1, restarts=1, max_iterations=1)
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match="tables"):
            search_extremal(cfg, workers=workers)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n, k", [(44, 4), (32, 5), (27, 6), (24, 7), (69, 1)])
    def test_counter_size_admits(self, n, k):
        # the largest n under the cap for each k; the tables are not built
        assert eszk.extremal._counter_bits(n, k) <= eszk.extremal._COUNTER_BITS_LIMIT
        assert eszk.extremal._counter_bits(n + 1, k) > eszk.extremal._COUNTER_BITS_LIMIT

    @pytest.mark.parametrize(
        "n, k", [(3, 1), (4, 4), (5, 2), (6, 3), (7, 4), (8, 5), (8, 8), (10, 5), (11, 9), (13, 4)]
    )
    def test_counter_bits_exact(self, n, k):
        rng = random.Random(n * 100 + k)
        counter = _SubgonCounter(_sample_strict(rng, n, 1000), k)
        built = sum(m.bit_length() for slice_t in counter.slices for _, m in slice_t)
        built += sum(bit.bit_length() for fan in counter.fan for _, _, bit in fan)
        assert eszk.extremal._counter_bits(n, k) == built

    def test_workers_validation(self):
        cfg = SearchConfig(n=5, k=4, seed=1, restarts=1, max_iterations=1)
        for workers in (0, True, 1.5):
            with pytest.raises(InputError):
                search_extremal(cfg, workers=workers)

    def test_small_box_unsatisfiable(self):
        # 3x3 lattice cannot hold a strict 7-gon
        cfg = SearchConfig(n=7, k=4, seed=1, box=1, restarts=1, max_iterations=1)
        with pytest.raises(InputError):
            search_extremal(cfg)

    def test_certificate_when_objective_zero(self):
        # n = 5 extremal polygons are plentiful; a short run finds one
        cfg = SearchConfig(n=5, k=4, seed=1, restarts=20, max_iterations=800)
        result = search_extremal(cfg)
        if result.objective == 0:
            assert result.certificate is not None and result.certificate.verified
            assert count_convex_subgons(result.best, 4, oracle_only=True)[0] == 0
        else:
            assert result.certificate is None



@pytest.mark.parametrize(
    "n, k", [(5, 1), (5, 2), (6, 3), (7, 4), (8, 5), (8, 8), (9, 6), (10, 5)]
)
def test_sliced_counter_matches_recount(n, k):
    # random walk of single-vertex moves; after every committed move the
    # sliced count equals an independent recount, and a move that flips
    # no triple returns delta 0 with the counter's own T, untouched
    rng = random.Random(1000 * n + k)
    counter = _SubgonCounter(_sample_strict(rng, n, 30), k)
    assert counter.count == count_convex_subgons(Polygon(counter.coords), k)[0]
    assert len(counter.T) == max(3 * k - 8, 0)
    committed = still = 0
    while committed < 300:
        v = rng.randrange(n)
        x, y = counter.coords[v]
        p = (x + rng.randint(-8, 8), y + rng.randint(-8, 8))
        T = counter.T
        before = list(T)
        outcome = counter.propose(v, p)
        assert counter.T is T and T == before
        if outcome is None:
            continue
        delta, sign, new_T = outcome
        if sign == counter.sign:
            assert delta == 0 and new_T is T
            still += 1
        else:
            assert new_T is not T
        counter.commit(v, p, *outcome)
        committed += 1
        assert counter.count == count_convex_subgons(Polygon(counter.coords), k)[0]
    assert still > 0


@pytest.mark.parametrize("seed", [0, 1, 601, 2**40 + 3])
def test_move_draws_match_stdlib(seed):
    # _moves writes out the stdlib's getrandbits rejection sampler; any
    # change to it in a CPython release must fail here, not shift results
    for n in (1, 2, 5, 7, 8, 13):
        for radius in (1, 5, 40):
            mine, ref = random.Random(seed), random.Random(seed)
            draws = _moves(mine, n, radius)
            for _ in range(300):
                expected = (ref.randrange(n), ref.randint(-radius, radius), ref.randint(-radius, radius))
                assert next(draws) == expected
                assert mine.random() == ref.random()  # interleaved draws stay in step


PENTAGON = Polygon([(0, 0), (10, 0), (14, 8), (5, 14), (-4, 8)])

# (objective, best coords) of _run_restart for restart seeds derived from
# seed 601, recorded from the dict-based counter that preceded the sign
# bitmask; the counter must not change a single RNG draw or acceptance.
RESTART_GOLDENS = [
    ((7, 4), None, 0, 1,
     [(5, -14), (49, -34), (-44, 50), (10, 2), (17, 12), (30, 40), (-9, -28)]),
    ((7, 4), None, 1, 1,
     [(-26, -43), (28, 44), (23, 33), (-19, -1), (47, -34), (-1, 1), (7, -22)]),
    ((7, 4), None, 2, 1,
     [(35, -23), (-30, 41), (11, 14), (22, -23), (-28, -29), (43, 11), (10, -4)]),
    ((8, 5), None, 1, 0,
     [(-12, -8), (17, 14), (-14, 23), (-13, 32), (-18, -50), (13, -29), (25, -21), (-48, 49)]),
    ((8, 5), None, 3, 0,
     [(49, -48), (-49, 45), (5, -18), (32, 31), (13, 32), (-37, 35), (-29, 1), (34, 43)]),
    ((8, 5), None, 9, 0,
     [(34, 24), (-16, -49), (-9, 1), (46, 11), (-8, -20), (-31, -9), (-47, -35), (27, -12)]),
    ((5, 3), None, 0, 10, [(42, -41), (44, -34), (-29, -8), (-22, 12), (-27, 14)]),
    ((5, 3), None, 1, 10, [(-16, -20), (17, 21), (-3, 30), (-23, 29), (-18, -44)]),
    ((5, 5), PENTAGON, 0, 0, [(-4, 1), (10, 3), (11, 14), (9, 9), (-3, 10)]),
    ((5, 5), PENTAGON, 1, 0, [(1, 1), (17, -4), (16, 15), (5, 14), (-12, 4)]),
    ((5, 5), PENTAGON, 2, 0, [(-2, 3), (10, 0), (12, 6), (4, 15), (1, 5)]),
]


@pytest.mark.parametrize("nk, initial, index, objective, coords", RESTART_GOLDENS)
def test_restart_goldens(nk, initial, index, objective, coords):
    n, k = nk
    cfg = SearchConfig(n=n, k=k, seed=601, max_iterations=1500, initial=initial)
    assert _run_restart(cfg, index) == (objective, coords)


class TestGrow:
    def test_precondition(self, unit_square):
        cfg = SearchConfig(n=5, k=4, seed=1, restarts=1, max_iterations=5)
        with pytest.raises(PreconditionError):
            grow(unit_square, cfg)

    @pytest.mark.parametrize("n", [5, 9])
    def test_n_must_be_one_more_than_the_base(self, seven_gon, n):
        base = sub_polygon(seven_gon, range(5))
        cfg = SearchConfig(n=n, k=4, seed=4, restarts=1, max_iterations=40)
        with pytest.raises(InputError, match="n = "):
            grow(base, cfg)

    def test_n_is_checked_before_the_base(self, unit_square):
        # an uncertified base with the wrong n: the config is refused first
        cfg = SearchConfig(n=4, k=4, seed=1, restarts=1, max_iterations=5)
        with pytest.raises(InputError):
            grow(unit_square, cfg)

    def test_grow_from_certified_five_gon(self, seven_gon):
        base = sub_polygon(seven_gon, (0, 1, 2, 3, 4))
        assert verify_certificate(base, 4).verified
        cfg = SearchConfig(n=6, k=4, seed=4, restarts=1, max_iterations=40)
        grown = grow(base, cfg)
        if grown is not None:
            assert len(grown) == 6
            assert verify_certificate(grown, 4).verified

    def test_non_strict_base_grows_nothing(self):
        # a verified certificate, but no insertion into it can be strict
        base = Polygon([(0, 0), (2, 0), (1, 0), (0, 1)])
        assert verify_certificate(base, 4).verified
        cfg = SearchConfig(n=5, k=4, seed=1, restarts=1, max_iterations=5)
        assert grow(base, cfg) is None

    def test_grow_deterministic(self, seven_gon):
        base = sub_polygon(seven_gon, (0, 1, 2, 3, 4))
        cfg = SearchConfig(n=6, k=4, seed=4, restarts=1, max_iterations=40)
        assert grow(base, cfg) == grow(base, cfg)

    def test_grow_the_seven_gon(self, seven_gon):
        # an 8-gon extension is an open target; none is an acceptable
        # outcome, any hit must certify at n = 8
        cfg = SearchConfig(n=8, k=4, seed=1, restarts=1, max_iterations=30)
        grown = grow(seven_gon, cfg)
        if grown is not None:
            cert = verify_certificate(grown, 4)
            assert cert.verified and cert.claimed_bound == 9
