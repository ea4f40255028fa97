"""Lower-bound certificates and stochastic search for extremal polygons.

An n-gon exhaustively verified to contain no convex sub-k-gon proves
that the least forcing size for convex sub-k-gons is at least n+1.  The
classical 7-gon below witnesses the k = 4 bound of 8; the annealing
search tries to find (and grow) further such configurations.  Every
claim is re-checked against the definition: a supporting-line walk rules
subsets out by a lemma of the definition, and the definition-level
oracle judges each subset that survives, so a certificate never rests on
the sign route.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace

from .errors import CapabilityError, InputError, PreconditionError
from .geometry import COORD_BOUND, Polygon, _check_int, _is_strict, _sign_triples, _strict_through
from .subgons import (
    DEFAULT_BUDGET,
    _convex_subsets,
    _polygon_signs,
    _subset_total,
    count_convex_subgons,
    find_convex_subgon,
)

# 7 vertices with no convex sub-4-gon among all 35 index subsets
# (exhaustively verified); witnesses bound >= 8 for k = 4.
SEVEN_GON_CERTIFICATE = Polygon(
    [(-13, 0), (15, 0), (0, 16), (18, 39), (27, -15), (10, 20), (16, 30)]
)

_SAMPLE_ATTEMPTS = 256


@dataclass(frozen=True)
class BoundRecord:
    """Best known bounds on the least n forcing a convex sub-k-gon."""

    k: int
    lower: int
    lower_provenance: str
    upper: int | None = None
    upper_provenance: str | None = None
    symbolic_upper: str | None = None


@dataclass(frozen=True)
class Certificate:
    """Exhaustive non-convexity record: verified means none of the
    C(n, k) sub-k-gons is convex, each ruled out by the supporting-line
    lemma or by the definition-level oracle (verify_certificate),
    proving the bound claimed_bound = n + 1.  The constructor, so
    dataclasses.replace too, raises InputError unless k is an int in
    1..n, verified a bool, claimed_bound n + 1 and subgon_total C(n, k):
    no reader of a certificate checks these again."""

    polygon: Polygon
    k: int
    claimed_bound: int
    verified: bool
    subgon_total: int

    def __post_init__(self):
        n, k, bound, total = len(self.polygon), self.k, self.claimed_bound, self.subgon_total
        _check_int("k", k, 1, n, "n")
        if type(self.verified) is not bool:
            raise InputError(f"verified = {self.verified!r} is not true or false")
        if type(bound) is not int or bound != n + 1:
            raise InputError(f"claimed_bound = {bound!r} is not n + 1 = {n + 1}")
        if type(total) is not int or total != math.comb(n, k):
            raise InputError(f"subgon_total = {total!r} is not C({n}, {k}) = {math.comb(n, k)}")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "vertices": [[v.x, v.y] for v in self.polygon.vertices],
            "claimed_bound": self.claimed_bound,
            "verified": self.verified,
            "subgon_total": self.subgon_total,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        """Rebuild a record, parsing only: the bound is n + 1, never read
        from the record.  A missing key, a bad vertex and the
        constructor's InputError all raise InputError with the prefix
        "malformed certificate record: "."""
        try:
            polygon = Polygon(tuple(v) for v in d["vertices"])
            k, verified, subgon_total = d["k"], d["verified"], d["subgon_total"]
        except (KeyError, TypeError, InputError) as exc:
            raise InputError(f"malformed certificate record: {exc}") from exc
        try:
            return cls(polygon, k, len(polygon) + 1, verified, subgon_total)
        except InputError as exc:
            raise InputError(f"malformed certificate record: {exc}") from exc


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible annealing parameters.

    Restart r runs with a seed derived deterministically from (seed, r),
    so parallel and serial execution give bit-identical results.  When
    initial is set, every restart starts from that polygon instead of a
    random strict sample.  n, k, seed, box, max_iterations, restarts and
    radius must be plain ints (a bool, float or string raises
    InputError): n >= 1, 1 <= k <= n, seed >= 0, 1 <= box <= COORD_BOUND
    and the last three >= 1.  t0 > 0 and 0 < decay <= 1 must be an int
    or a float, not a bool, and initial a Polygon or None; anything else
    raises InputError too.
    """

    n: int
    k: int
    seed: int
    box: int = 50
    max_iterations: int = 5000
    restarts: int = 200
    t0: float = 2.0
    decay: float = 0.999
    radius: int = 5
    initial: Polygon | None = None

    def __post_init__(self):
        _check_int("n", self.n, 1)
        _check_int("k", self.k, 1, self.n, "n")
        _check_int("seed", self.seed, 0)
        _check_int("box", self.box, 1, COORD_BOUND, "COORD_BOUND")
        _check_int("max_iterations", self.max_iterations, 1)
        _check_int("restarts", self.restarts, 1)
        _check_int("radius", self.radius, 1)
        for name in ("t0", "decay"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise InputError(f"{name} = {value!r} is not a number")
        if not self.t0 > 0:
            raise InputError("t0 must be positive")
        if not 0 < self.decay <= 1:
            raise InputError("decay must be in (0, 1]")
        if self.initial is not None:
            if not isinstance(self.initial, Polygon):
                raise InputError(f"initial = {self.initial!r} is not a Polygon")
            if len(self.initial) != self.n:
                raise InputError(
                    f"initial polygon has {len(self.initial)} vertices, config says n = {self.n}"
                )
            if any(max(abs(x), abs(y)) > self.box for x, y in self.initial._xy):
                raise InputError("initial polygon leaves the coordinate box")
            if not _is_strict(self.initial._xy):
                raise InputError("initial polygon is not strict: it has a collinear vertex triple")


@dataclass(frozen=True)
class SearchResult:
    best: Polygon
    objective: int          # number of convex sub-k-gons of best
    certificate: Certificate | None


def bounds_for(k: int, certificates=()) -> BoundRecord:
    """Best known bounds for the least n forcing a convex sub-k-gon.

    k <= 3 is exact (every such polygon is convex).  k = 4 carries the
    built-in 7-gon lower bound of 8 and the Ramsey upper bound of 13.
    For k >= 5 the upper bound is only symbolic ("R(k,13;4)"), and the
    lower bound starts at the trivial k.

    A certificate marked verified lifts the lower bound only after
    verify_certificate re-verifies its polygon; its bound is then
    len(polygon) + 1, the claimed_bound the Certificate constructor
    checked.  Candidates above the built-in bound are tried in
    descending bound order until one re-verifies, so only the ones the
    answer needs are checked.  A candidate whose re-verified bound
    exceeds the exact upper bound raises InputError.  One that fails
    re-verification, or is over DEFAULT_BUDGET, is not folded, and
    lower_provenance names it by its position in certificates.
    """
    _check_int("k", k, 1)
    if k <= 3:
        prov = "every polygon with at most three vertices is convex"
        return BoundRecord(k=k, lower=k, lower_provenance=prov, upper=k, upper_provenance=prov)
    if k == 4:
        record = BoundRecord(
            k=4,
            lower=8,
            lower_provenance="built-in 7-gon certificate with no convex sub-4-gon",
            upper=13,
            upper_provenance=(
                "hypergraph Ramsey number R(4,4;3) = 13 via the orientation-sign "
                "triple coloring; carries over to non-strict polygons by perturbation"
            ),
        )
    else:
        record = BoundRecord(
            k=k,
            lower=k,
            lower_provenance=f"trivial: a {k - 1}-gon has no sub-{k}-gon",
            symbolic_upper=f"R({k},13;4)",
        )
    candidates = sorted(
        ((i, cert) for i, cert in enumerate(certificates)
         if cert.k == k and cert.verified and cert.claimed_bound > record.lower),
        key=lambda ic: -ic[1].claimed_bound,
    )
    skipped = []
    for i, cert in candidates:
        n = len(cert.polygon)
        try:
            verified = verify_certificate(cert.polygon, k).verified
        except CapabilityError as exc:
            skipped.append(f"certificates[{i}] ({n}-gon) was not re-verified: {exc}")
            continue
        if not verified:
            skipped.append(f"certificates[{i}] ({n}-gon) has a convex sub-{k}-gon")
            continue
        if record.upper is not None and n + 1 > record.upper:
            raise InputError(
                f"stored certificate claims bound {n + 1} for k={k}, "
                f"contradicting the exact upper bound {record.upper}; the store is corrupt"
            )
        record = replace(
            record,
            lower=n + 1,
            lower_provenance=f"verified certificate: {n}-gon with no convex sub-{k}-gon",
        )
        break
    if skipped:
        note = "; ".join(skipped)
        record = replace(record, lower_provenance=f"{record.lower_provenance}; not folded: {note}")
    return record


def verify_certificate(P: Polygon, k: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Test the sub-k-gons against the definition-level oracle.

    The sign route is deliberately not trusted here: a bound claim must
    not rest on the optimized path.  Subsets are instead walked by the
    supporting-line DFS of count_convex_subgons, which prunes by a lemma
    of the definition alone.  Let S be a convex sub-k-gon and (u, v) an
    edge of S with V_u != V_v.  The edge lies on the boundary of conv S,
    hence on a supporting line, so every vertex of S lies weakly on one
    side of line(u, v).  The consecutive pairs of an index prefix are
    edges of each of its completions, so a prefix that breaks the rule
    has no convex completion, and a leaf that breaks it on its last or
    closing edge is not convex.  Every leaf that survives, distinct
    points or not, goes to the oracle's witness-free core, and the first
    one it calls convex ends the test.  So a verified certificate rests
    on the lemma and the oracle, never on the sign route or on the
    sufficiency half of the edge rule.

    subgon_total is still C(n, k): each subset is judged, by the lemma
    at a prefix or by the oracle at a leaf.  The k-range and budget
    checks on C(n, k) raise before the walk starts, and they bound it
    too: a visited node is a prefix of t+1 indices with room for the
    k - t - 1 it lacks, a (t+1)-subset of range(n - k + t + 1), so the
    walk visits at most C(n+1, k) - 1 nodes, (n+1)/(n+1-k) times C(n, k).
    """
    total = _subset_total(len(P), k, budget)
    convex = next(_convex_subsets(P._xy, k, math.inf, oracle=True), None)
    return Certificate(P, k, len(P) + 1, convex is None, total)


def _derived_seed(seed: int, index: int) -> int:
    return (seed << 32) + index


def _sample_strict(rng: random.Random, n: int, box: int):
    for _ in range(_SAMPLE_ATTEMPTS):
        coords = [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(n)]
        if _is_strict(coords):
            return coords
    raise InputError(
        f"could not sample a strict {n}-gon in the box [-{box}, {box}]^2; "
        f"the box is too small for this n"
    )


# Cap on the annealing counter's tables, in bits (2**32 bits = 512 MiB).
# A build grows the process by about 1.2 to 1.3 bytes per table byte
# (ru_maxrss deltas, Python 3.11): 29 MiB at n = 20, k = 6, 175 MiB at
# n = 24, k = 6, 558 MiB at n = 27, k = 6 and 493 MiB at n = 32, k = 5.
# Within the cap: k = 4 up to n = 44, k = 5 up to n = 32, k = 6 up to
# n = 27, k = 7 up to n = 24.
_COUNTER_BITS_LIMIT = 2**32


def _counter_bits(n: int, k: int) -> int:
    """Total bit length of the ints in _SubgonCounter's tables for n
    points and k, exactly; the sum stops early once it passes
    _COUNTER_BITS_LIMIT.

    The fans hold the bit of every triple three times, 3 (1 + 2 + ...
    + C(n, 3)) bits.  slices[t] holds, for a slot (a, b, c), the mask of
    the k-subsets with t = (x, y, z) at places a, b, c; its length is
    one past the index of the last such subset in combinations order,
    the one filling every other place as high as it can.  Write
    x = a + p, y = b + q, z = c + r with 0 <= p <= q <= r <= n - k.  A
    subset s_0 < ... < s_{k-1} has index C(n, k) - 1 - sum_i
    C(n - 1 - s_i, k - i); in the last subset places up to a hold
    s_i = p + i, places a+1 .. b hold q + i, places b+1 .. c hold r + i
    and the rest contribute 0, so the sum splits into a part in p, in q
    and in r.
    """
    triples = math.comb(n, 3)
    bits = 3 * triples * (triples + 1) // 2
    total, m = math.comb(n, k), n - k

    def run(lo, hi):
        return [
            sum(math.comb(n - 1 - p - i, k - i) for i in range(lo, hi + 1)) for p in range(m + 1)
        ]

    for a, b, c in _sign_triples(k):
        if bits > _COUNTER_BITS_LIMIT:
            break
        X, Y = run(0, a), run(a + 1, b)
        Z = list(itertools.accumulate(run(b + 1, c), initial=0))
        for p in range(m + 1):
            for q in range(p, m + 1):
                bits += (m + 1 - q) * (total - X[p] - Y[q]) - (Z[m + 1] - Z[q])
    return bits


def _bitset(indices) -> int:
    # The int with exactly the given bits set; indices ascend.
    buf = bytearray(indices[-1] // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class _SubgonCounter:
    """Incremental count of convex sub-k-gons of a strict polygon.

    sign is one int with bit t set when the t-th index triple (in
    combinations order) turns left, read off the subgons sign table.
    fan[v] lists (u, w, bit) for every triple through v, rotated so that
    (v, u, w) has the triple's orientation, and through[v] ORs those
    bits.  The count is bit-sliced over the k-subsets, numbered in
    combinations order: slot j of _sign_triples(k) keeps one int T[j]
    with bit s set when subset s's j-th triple turns left, and
    slices[t] lists (j, mask of the subsets whose j-th triple is t).  A
    subset is convex exactly when its sign-condition triples share one
    sign, so the convex subsets are AND_j T[j] | AND_j ~T[j] (every
    subset for k <= 3, which has at most one such triple).  On a strict
    polygon that is exactly when the sub-k-gon is convex, so the count
    equals what count_convex_subgons reports; the caller passes a
    strict polygon.  Moving v recomputes the bits of fan[v] and XORs the
    slices of each triple whose sign flips into a copy of T.
    """

    def __init__(self, coords, k: int):
        n = len(coords)
        self.coords = list(coords)
        pos = _polygon_signs(self.coords)
        self.sign = 0
        self.fan = [[] for _ in range(n)]
        self.through = [0] * n
        index = {}
        for i, (a, b, c) in enumerate(itertools.combinations(range(n), 3)):
            index[a, b, c] = i
            bit = 1 << i
            self.sign |= bit if pos[a][b] >> c & 1 else 0
            for v, u, w in ((a, b, c), (b, c, a), (c, a, b)):
                self.fan[v].append((u, w, bit))
                self.through[v] |= bit
        slots = list(_sign_triples(k))
        members = {}
        for s, sub in enumerate(itertools.combinations(range(n), k)):
            for j, (a, b, c) in enumerate(slots):
                members.setdefault((index[sub[a], sub[b], sub[c]], j), []).append(s)
        self.slices = [[] for _ in index]
        for (t, j), subsets in members.items():
            self.slices[t].append((j, _bitset(subsets)))
        self.full = (1 << math.comb(n, k)) - 1
        self.T = [0] * len(slots)
        for t, slice_t in enumerate(self.slices):
            if self.sign >> t & 1:
                for j, m in slice_t:
                    self.T[j] |= m
        self.count = self._tally(self.T)

    def _tally(self, T) -> int:
        left = right = self.full
        for x in T:
            left &= x
            right &= ~x
        return (left | right).bit_count()

    def propose(self, v: int, point):
        """Evaluate moving vertex v to point: (delta, new sign, new T), or
        None if that breaks strictness.  A move that flips no triple
        returns delta 0 and the current sign and T themselves."""
        coords = self.coords
        px, py = point
        fresh = 0
        for u, w, bit in self.fan[v]:
            ux, uy = coords[u]
            wx, wy = coords[w]
            d = (ux - px) * (wy - py) - (wx - px) * (uy - py)
            if d > 0:
                fresh |= bit
            elif d == 0:
                return None
        old = self.sign
        flipped = (old ^ fresh) & self.through[v]
        if not flipped:
            return 0, old, self.T
        new = old ^ flipped
        T = self.T.copy()
        slices = self.slices
        while flipped:
            low = flipped & -flipped
            for j, m in slices[low.bit_length() - 1]:
                T[j] ^= m
            flipped ^= low
        return self._tally(T) - self.count, new, T

    def commit(self, v: int, point, delta: int, sign: int, T):
        self.coords[v] = tuple(point)
        self.sign = sign
        self.T = T
        self.count += delta


def _moves(rng: random.Random, n: int, radius: int):
    """Endless (v, dx, dy) stream, draw for draw what rng.randrange(n),
    rng.randint(-radius, radius), rng.randint(-radius, radius) return:
    the stdlib's getrandbits rejection sampler, written out."""
    getrandbits = rng.getrandbits
    width = 2 * radius + 1
    vbits, wbits = n.bit_length(), width.bit_length()
    while True:
        v = getrandbits(vbits)
        while v >= n:
            v = getrandbits(vbits)
        dx = getrandbits(wbits)
        while dx >= width:
            dx = getrandbits(wbits)
        dy = getrandbits(wbits)
        while dy >= width:
            dy = getrandbits(wbits)
        yield v, dx - radius, dy - radius


def _run_restart(cfg: SearchConfig, index: int):
    """One annealing restart; returns (objective, coords)."""
    rng = random.Random(_derived_seed(cfg.seed, index))
    if cfg.initial is not None:
        coords = list(cfg.initial._xy)
    else:
        coords = _sample_strict(rng, cfg.n, cfg.box)
    counter = _SubgonCounter(coords, cfg.k)
    best_count = counter.count
    best_coords = list(counter.coords)
    if best_count == 0:
        return best_count, best_coords
    box, decay, uniform, exp = cfg.box, cfg.decay, rng.random, math.exp
    propose, commit, points = counter.propose, counter.commit, counter.coords
    temperature = cfg.t0
    for _, (v, dx, dy) in zip(range(cfg.max_iterations), _moves(rng, cfg.n, cfg.radius)):
        x, y = points[v]
        p = (x + dx, y + dy)
        if -box <= p[0] <= box and -box <= p[1] <= box:
            outcome = propose(v, p)
            if outcome is not None:
                delta = outcome[0]
                if delta <= 0 or uniform() < exp(-delta / temperature):
                    commit(v, p, *outcome)
                    if counter.count < best_count:
                        best_count = counter.count
                        best_coords = list(points)
                        if best_count == 0:
                            break
        temperature *= decay
    return best_count, best_coords


def search_extremal(cfg: SearchConfig, workers: int = 1) -> SearchResult:
    """Annealing minimization of the convex sub-k-gon count over strict
    n-gons in the coordinate box.

    Moves jitter one vertex by an offset in [-radius, radius]^2; moves
    that leave the box or break strictness are rejected; worsening moves
    are accepted with probability exp(-delta/T) under a geometric
    temperature schedule.  Restarts are independent and deterministically
    seeded, and the winner is the minimum over (objective, encoding), so
    any worker count returns the identical result.  The reported
    objective is re-counted independently, and an objective of zero is
    turned into an exhaustively verified certificate.
    """
    _check_int("workers", workers, 1)
    if _counter_bits(cfg.n, cfg.k) > _COUNTER_BITS_LIMIT:
        raise CapabilityError(
            f"the annealing counter's tables for n = {cfg.n}, k = {cfg.k} would take more "
            f"than {_COUNTER_BITS_LIMIT} bits: they hold masks over all "
            f"C({cfg.n},{cfg.k}) = {math.comb(cfg.n, cfg.k)} subsets"
        )
    # A pool forks all its workers at the first submit, so it gets no
    # more of them than there are restarts.
    workers = min(workers, cfg.restarts)
    if workers == 1:
        outcomes = [_run_restart(cfg, r) for r in range(cfg.restarts)]
    else:
        # imported here, as it pulls in logging, which no other start-up needs
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    _run_restart,
                    itertools.repeat(cfg),
                    range(cfg.restarts),
                    chunksize=max(1, cfg.restarts // (4 * workers)),
                )
            )
    best_count, best_coords = min(
        outcomes, key=lambda oc: (oc[0], tuple(c for xy in oc[1] for c in xy))
    )
    best = Polygon(best_coords)
    recount, _ = count_convex_subgons(best, cfg.k)
    if recount != best_count:
        raise RuntimeError(
            f"internal inconsistency: search reported {best_count} convex "
            f"sub-{cfg.k}-gons but an independent recount found {recount}"
        )
    certificate = verify_certificate(best, cfg.k) if best_count == 0 else None
    return SearchResult(best=best, objective=best_count, certificate=certificate)


def grow(P: Polygon, cfg: SearchConfig) -> Polygon | None:
    """Extend a certified polygon by one vertex, keeping objective zero.

    cfg.n must be len(P) + 1, the size grown to (InputError otherwise).
    Tries cfg.max_iterations sampled coordinates, each at every insertion
    position; a candidate must stay strict and is accepted only after
    exhaustive re-verification.  Returns the first certified (n+1)-gon,
    or None -- absence of a hit proves nothing.
    """
    cert = _grow(P, cfg)
    return cert.polygon if cert is not None else None


def _grow(P: Polygon, cfg: SearchConfig) -> Certificate | None:
    # grow, returning the verified certificate of the grown polygon
    if cfg.n != len(P) + 1:
        raise InputError(f"grow makes a {len(P) + 1}-gon from a {len(P)}-gon, but n = {cfg.n}")
    base = verify_certificate(P, cfg.k)
    if not base.verified:
        raise PreconditionError(
            f"grow needs a verified certificate; the input {len(P)}-gon has "
            f"convex sub-{cfg.k}-gons"
        )
    if not _is_strict(P._xy):
        return None  # no insertion into a non-strict polygon can be strict
    n = len(P)
    vs = list(P._xy)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.max_iterations):
        p = (rng.randint(-cfg.box, cfg.box), rng.randint(-cfg.box, cfg.box))
        # strict base: only triples through p can be collinear, at any position
        if not _strict_through(p, vs):
            continue
        for pos in range(n + 1):
            poly = Polygon(vs[:pos] + [p] + vs[pos:])
            if find_convex_subgon(poly, cfg.k) is not None:
                continue
            cert = verify_certificate(poly, cfg.k)
            if cert.verified:
                return cert
    return None

