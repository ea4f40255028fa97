"""Lower-bound certificates and stochastic search for extremal polygons.

An n-gon exhaustively verified to contain no convex sub-k-gon proves
that the least forcing size for convex sub-k-gons is at least n+1.  The
classical 7-gon below witnesses the k = 4 bound of 8; the annealing
search tries to find (and grow) further such configurations.  Every
claim is re-checked by the definition-level oracle: a certificate never
rests on the optimized code path.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import random
from dataclasses import dataclass, replace

from .errors import InputError, PreconditionError
from .convexity import _sign_triples
from .geometry import COORD_BOUND, Polygon, _is_strict, _strict_through, classify
from .subgons import DEFAULT_BUDGET, _polygon_signs, count_convex_subgons, find_convex_subgon

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
    """Exhaustive non-convexity record: verified means every one of the
    C(n, k) sub-k-gons failed the definition-level convexity oracle,
    proving the bound claimed_bound = n + 1."""

    polygon: Polygon
    k: int
    claimed_bound: int
    verified: bool
    subgon_total: int

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
        """Rebuild a record.  The bound is derived as n + 1, never read
        from the record; a record with k outside 1..n, or whose
        subgon_total is not the integer C(n, k), is rejected."""
        try:
            polygon = Polygon(tuple(v) for v in d["vertices"])
            k = d["k"]
            verified = d["verified"]
            subgon_total = d["subgon_total"]
            int(subgon_total)  # a non-numeric value fails here with int()'s message
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed certificate record: {exc}") from exc
        if type(k) is not int:
            raise InputError(f"malformed certificate record: k = {k!r} is not an integer")
        if type(verified) is not bool:
            raise InputError(
                f"malformed certificate record: verified = {verified!r} is not true or false"
            )
        n = len(polygon)
        if k > n:
            raise InputError(f"malformed certificate record: k = {k} exceeds n = {n}")
        if k < 1:
            raise InputError(f"malformed certificate record: k = {k} is below 1")
        total = math.comb(n, k)
        if type(subgon_total) is not int or subgon_total != total:
            raise InputError(
                f"malformed certificate record: subgon_total = {subgon_total!r} "
                f"is not C({n}, {k}) = {total}"
            )
        return cls(
            polygon=polygon,
            k=k,
            claimed_bound=n + 1,
            verified=verified,
            subgon_total=subgon_total,
        )


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible annealing parameters.

    Restart r runs with a seed derived deterministically from (seed, r),
    so parallel and serial execution give bit-identical results.  When
    initial is set, every restart starts from that polygon instead of a
    random strict sample.
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
        if self.n < 1 or self.k < 1:
            raise InputError("n and k must be positive")
        if self.k > self.n:
            raise InputError(f"k = {self.k} exceeds n = {self.n}")
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if not 1 <= self.box <= COORD_BOUND:
            raise InputError(f"box must be in [1, {COORD_BOUND}]")
        if self.max_iterations < 1 or self.restarts < 1 or self.radius < 1:
            raise InputError("max_iterations, restarts and radius must be positive")
        if not self.t0 > 0:
            raise InputError("t0 must be positive")
        if not 0 < self.decay <= 1:
            raise InputError("decay must be in (0, 1]")
        if self.initial is not None:
            if len(self.initial) != self.n:
                raise InputError(
                    f"initial polygon has {len(self.initial)} vertices, config says n = {self.n}"
                )
            if any(max(abs(v.x), abs(v.y)) > self.box for v in self.initial.vertices):
                raise InputError("initial polygon leaves the coordinate box")
            if not _is_strict(self.initial.vertices):
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
    lower bound starts at the trivial k.  Verified certificates from the
    store raise lower bounds beyond the built-ins.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
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
    for cert in certificates:
        if cert.k == k and cert.verified and cert.claimed_bound > record.lower:
            if record.upper is not None and cert.claimed_bound > record.upper:
                raise InputError(
                    f"stored certificate claims bound {cert.claimed_bound} for k={k}, "
                    f"contradicting the exact upper bound {record.upper}; the store is corrupt"
                )
            record = replace(
                record,
                lower=cert.claimed_bound,
                lower_provenance=(
                    f"verified certificate: {len(cert.polygon)}-gon with no convex sub-{k}-gon"
                ),
            )
    return record


def verify_certificate(P: Polygon, k: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Exhaustively test every sub-k-gon with the definition-level oracle.

    The fast sign route is deliberately not trusted here: a bound claim
    must not rest on the optimized path.
    """
    count, _ = count_convex_subgons(P, k, budget=budget, oracle_only=True)
    return Certificate(
        polygon=P,
        k=k,
        claimed_bound=len(P) + 1,
        verified=(count == 0),
        subgon_total=math.comb(len(P), k),
    )


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


class _SubgonCounter:
    """Incremental count of convex sub-k-gons of a strict polygon.

    sign is one int with bit t set when the t-th index triple (in
    combinations order) turns left, read off the subgons sign table.
    fan[v] lists (u, w, bit) for every triple through v, rotated so that
    (v, u, w) has the triple's orientation, and through[v] ORs those
    bits.  Each k-subset is one mask m, the OR of the bits of its
    sign-condition triples; it is convex exactly when sign & m is 0 or
    m (for k <= 3, m is 0 or one bit, so every subset counts).  On a
    strict polygon that is exactly when the sub-k-gon is convex, so the
    count equals what count_convex_subgons reports; the caller passes a
    strict polygon.  Moving v recomputes the bits of fan[v] and rescores
    only masks[v], the subsets through v.
    """

    def __init__(self, coords, k: int):
        n = len(coords)
        self.coords = list(coords)
        pos = _polygon_signs(self.coords)
        self.sign = 0
        self.fan = [[] for _ in range(n)]
        self.through = [0] * n
        bits = {}
        for i, (a, b, c) in enumerate(itertools.combinations(range(n), 3)):
            bits[a, b, c] = bit = 1 << i
            self.sign |= bit if pos[a][b] >> c & 1 else 0
            for v, u, w in ((a, b, c), (b, c, a), (c, a, b)):
                self.fan[v].append((u, w, bit))
                self.through[v] |= bit
        self.masks = [[] for _ in range(n)]
        self.count = 0
        for s in itertools.combinations(range(n), k):
            m = 0
            for a, b, c in _sign_triples(k):
                m |= bits[s[a], s[b], s[c]]
            for v in s:
                self.masks[v].append(m)
            self.count += self.sign & m in (0, m)

    def propose(self, v: int, point):
        """Evaluate moving vertex v to point: (delta, new sign), or None
        if that breaks strictness."""
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
        new = old & ~self.through[v] | fresh
        delta = 0
        for m in self.masks[v]:
            delta += (new & m in (0, m)) - (old & m in (0, m))
        return delta, new

    def commit(self, v: int, point, delta: int, sign: int):
        self.coords[v] = tuple(point)
        self.sign = sign
        self.count += delta


def _run_restart(cfg: SearchConfig, index: int):
    """One annealing restart; returns (objective, coords)."""
    rng = random.Random(_derived_seed(cfg.seed, index))
    if cfg.initial is not None:
        coords = [(v.x, v.y) for v in cfg.initial.vertices]
    else:
        coords = _sample_strict(rng, cfg.n, cfg.box)
    counter = _SubgonCounter(coords, cfg.k)
    best_count = counter.count
    best_coords = list(counter.coords)
    temperature = cfg.t0
    for _ in range(cfg.max_iterations):
        if best_count == 0:
            break
        v = rng.randrange(cfg.n)
        dx = rng.randint(-cfg.radius, cfg.radius)
        dy = rng.randint(-cfg.radius, cfg.radius)
        x, y = counter.coords[v]
        p = (x + dx, y + dy)
        if abs(p[0]) <= cfg.box and abs(p[1]) <= cfg.box:
            outcome = counter.propose(v, p)
            if outcome is not None:
                delta, sign = outcome
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    counter.commit(v, p, delta, sign)
                    if counter.count < best_count:
                        best_count = counter.count
                        best_coords = list(counter.coords)
        temperature *= cfg.decay
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
    if workers < 1:
        raise InputError("workers must be >= 1")
    if workers == 1:
        outcomes = [_run_restart(cfg, r) for r in range(cfg.restarts)]
    else:
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

    Tries cfg.max_iterations sampled coordinates, each at every insertion
    position; a candidate must stay strict and is accepted only after
    exhaustive re-verification.  Returns the first certified (n+1)-gon,
    or None -- absence of a hit proves nothing.
    """
    cert = _grow(P, cfg)
    return cert.polygon if cert is not None else None


def _grow(P: Polygon, cfg: SearchConfig) -> Certificate | None:
    # grow, returning the verified certificate of the grown polygon
    base = verify_certificate(P, cfg.k)
    if not base.verified:
        raise PreconditionError(
            f"grow needs a verified certificate; the input {len(P)}-gon has "
            f"convex sub-{cfg.k}-gons"
        )
    if not classify(P).strict:
        return None  # no insertion into a non-strict polygon can be strict
    n = len(P)
    vs = [(v.x, v.y) for v in P.vertices]
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

