"""The four eszk benchmark workloads: input generation, op lists, output checks.

Every workload draws its inputs from the run seed alone and exposes

* ``warm_up()``   -- a few tiny untimed calls before the first timed op;
* ``run_pass(op)`` -- one closed-loop pass over the fixed op list.  Each
  call into the public API (or each CLI command) goes through ``op``,
  which times it and turns an exception into an ``Err`` answer;
* ``check(answers)`` -- the output gate: a list of (op index, message)
  for every answer that fails its check;
* ``census(answers)`` -- the measured share of each input property;
* ``PURE`` -- whether an op can be repeated at once with the same
  answer and no side effect (everything but the CLI's store writes).

Shares and sizes are stratified (fixed counts per category, n on a fixed
grid, subgon polygons drawn to quotas) so that the amount of work in a
pass varies little from seed to seed; the seed picks the points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from pathlib import Path


class Err:
    """Answer recorded when an op raised; always counts as a failed op."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def jsonable(answer):
    if isinstance(answer, Err):
        return ["error", answer.text]
    if isinstance(answer, (list, tuple)):
        return [jsonable(a) for a in answer]
    if isinstance(answer, dict):
        return {k: jsonable(v) for k, v in answer.items()}
    return answer


def _histogram(values, edges):
    """Counts per bin [edges[i], edges[i+1]); labels are 'lo-hi'."""
    out = {}
    for lo, hi in zip(edges, edges[1:]):
        out[f"{lo}-{hi - 1}"] = sum(1 for v in values if lo <= v < hi)
    return out


def _share(count, total):
    return round(count / total, 4) if total else 0.0


def _log_uniform_grid(m, lo, hi):
    # The midpoints of m equal strata of the log-uniform distribution on
    # [lo, hi]: n drives the cubic cost, so a fixed grid keeps the slowest
    # ops of a pass alike from seed to seed.
    span = math.log(hi / lo)
    return [round(lo * math.exp((i + 0.5) / m * span)) for i in range(m)]


def _random_points(rng, n, box):
    return [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(n)]


def _plant_duplicate(rng, pts):
    i, j = rng.sample(range(len(pts)), 2)
    pts[j] = pts[i]
    return pts


def _plant_collinear(pts, a, b, c):
    # Vertex c becomes the reflection of vertex a through vertex b.
    pts[c] = (2 * pts[b][0] - pts[a][0], 2 * pts[b][1] - pts[a][1])
    return pts


# --------------------------------------------------------------------- decide


class Decide:
    """classify + is_convex on polygons with log-uniform n in 4..256."""

    PURE = True

    POLYGONS = 30
    N_MAX = 256
    BOX = 10**6

    def __init__(self, E, seed, workdir, smoke):
        self.E = E
        rng = random.Random(f"decide/{seed}")
        total = 10 if smoke else self.POLYGONS
        n_max = 32 if smoke else self.N_MAX
        counts = {
            "convex": round(0.4 * total),
            "random": round(0.3 * total),
            "duplicate": round(0.1 * total),
            "collinear": round(0.1 * total),
        }
        counts["degenerate"] = total - sum(counts.values())
        items = []
        for kind, m in counts.items():
            if kind == "degenerate":
                # half with n <= 3, half collinear with n on the grid
                ns = [i % 3 + 1 for i in range(m // 2)] + _log_uniform_grid(m - m // 2, 4, n_max)
            else:
                ns = _log_uniform_grid(m, 4, n_max)
            items += [(kind, n) for n in ns]
        rng.shuffle(items)
        self.kinds = [kind for kind, _ in items]
        self.polygons = [E.Polygon(self._make(rng, kind, n)) for kind, n in items]

    def _make(self, rng, kind, n):
        if kind == "convex":
            # Points of a parabola are in strictly convex position; any
            # cyclic shift or reversal of their x-order is convex.
            xs = sorted(rng.sample(range(-30000, 30001), n))
            pts = [(x, x * x) for x in xs]
            shift = rng.randrange(n)
            pts = pts[shift:] + pts[:shift]
            return pts[::-1] if rng.random() < 0.5 else pts
        if kind == "degenerate":
            if n <= 3:
                return _random_points(rng, n, self.BOX)
            x0, y0 = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            dx, dy = rng.randint(-50, 50), rng.randint(1, 50)
            return [(x0 + t * dx, y0 + t * dy) for t in (rng.randint(-1000, 1000) for _ in range(n))]
        pts = _random_points(rng, n, self.BOX)
        if kind == "duplicate":
            return _plant_duplicate(rng, pts)
        if kind == "collinear":
            # A fixed place for the collinear triple, so that the strictness
            # scan, which stops at the first one, costs the same on every seed.
            return _plant_collinear(pts, 0, n // 2, n - 1)
        return pts

    def warm_up(self):
        P = self.E.Polygon([(0, 0), (4, 0), (4, 4), (0, 4), (2, 6)])
        self.E.classify(P)
        self.E.is_convex(P)

    def run_pass(self, op):
        E = self.E
        answers = []
        for P in self.polygons:
            rep = op(E.classify, P)
            answers.append(rep if isinstance(rep, Err) else
                           ["classify", rep.n, rep.strict, rep.ordinary, rep.dimension])
            v = op(E.is_convex, P)
            answers.append(v if isinstance(v, Err) else ["is_convex", v.convex, v.method, v.witness])
        return answers

    def check(self, answers):
        E = self.E
        bad = []
        for i, (kind, P) in enumerate(zip(self.kinds, self.polygons)):
            rep, v = answers[2 * i], answers[2 * i + 1]
            if isinstance(rep, Err) or isinstance(v, Err):
                bad += [(j, "raised") for j in (2 * i, 2 * i + 1) if isinstance(answers[j], Err)]
                continue
            _, n, strict, ordinary, dim = rep
            if n != len(P) or ordinary != (len(set(P.vertices)) == n):
                bad.append((2 * i, "classify reports the wrong n or ordinariness"))
            if (kind == "convex" and not strict) or (kind in ("duplicate", "collinear") and strict):
                bad.append((2 * i, f"classify strict={strict} on a {kind} polygon"))
            _, convex, method, _ = v
            if convex != E.oracle_test(P).convex:
                bad.append((2 * i + 1, "is_convex disagrees with oracle_test"))
            if kind == "convex" and not convex:
                bad.append((2 * i + 1, "a parabola polygon was judged non-convex"))
            expected = ("small_n" if n <= 3 else "dim_le_1" if dim <= 1
                        else "sign_test" if strict else "oracle")
            if method != expected:
                bad.append((2 * i + 1, f"route {method}, expected {expected}"))
        return bad

    def census(self, answers):
        reps = [a for a in answers[0::2] if not isinstance(a, Err)]
        verdicts = [a for a in answers[1::2] if not isinstance(a, Err)]
        routes = Counter(v[2] for v in verdicts)
        return {
            "polygons": len(self.polygons),
            "n_hist": _histogram([len(P) for P in self.polygons], [1, 4, 8, 16, 32, 64, 128, 257]),
            "kind": dict(Counter(self.kinds)),
            "strict_share": _share(sum(r[2] for r in reps), len(reps)),
            "non_strict_share": _share(sum(not r[2] for r in reps), len(reps)),
            "convex_share": _share(sum(v[1] for v in verdicts), len(verdicts)),
            "route_share": {m: _share(c, len(verdicts)) for m, c in sorted(routes.items())},
        }


# --------------------------------------------------------------------- subgon


def largest_convex_subset(pts):
    """Size of the largest convex sub-polygon of a strict polygon.

    For a strict polygon a sub-polygon is convex exactly when all its
    index triples share one orientation sign, so this is the largest
    monochromatic index set of the triple coloring (bitmask branch and
    bound).  It is the benchmark's own code, used only to stratify inputs.
    """
    n = len(pts)
    masks = {1: [[0] * n for _ in range(n)], -1: [[0] * n for _ in range(n)]}
    for a in range(n):
        ax, ay = pts[a]
        for b in range(a + 1, n):
            bx, by = pts[b]
            for c in range(b + 1, n):
                cx, cy = pts[c]
                d = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
                masks[1 if d > 0 else -1][a][b] |= 1 << c
    best = min(n, 2)

    def grow(chosen, cand, M):
        nonlocal best
        best = max(best, len(chosen))
        while cand and len(chosen) + bin(cand).count("1") > best:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            new = cand
            for a in chosen:
                new &= M[a][v]
            chosen.append(v)
            grow(chosen, new, M)
            chosen.pop()

    for color in (1, -1):
        grow([], (1 << n) - 1, masks[color])
    return best


class Subgon:
    """Largest convex sub-polygon by find_convex_subgon, then sign-route counts.

    The cost of a strict polygon is set by n and by the size of its largest
    convex sub-polygon: the "none" answer one size above it enumerates
    C(n, k) subsets.  Strict polygons are therefore drawn to fixed quotas
    per (n, largest size).  A polygon whose largest size is L makes L - 3
    quick hits and, above the k = 4 counts at n = 12, its k = 5 count, its
    none answer and (for n > 12) its k = 4 count; the quotas balance the
    two, so the median op of a pass sits in the middle of the block of
    eighteen k = 4 counts at n = 12, clear of the k = 5 counts above it.
    Below the four none answers at n = 16 and 18 and a few more slow ops
    come eight alike none answers at n = 14 (largest size 5), among which
    falls the 11th-slowest op, op_tail_ms.  The non-strict ones (the
    perturbation route, about 1/6) are drawn unconditioned at n = 12 and
    14 only, so that their random ladders move neither the slowest ops of
    a pass nor the median.  A pass is short (about 3 s) so that a run
    holds several.
    """

    PURE = True
    # n -> {largest convex sub-polygon size: count}, plus non-strict count
    QUOTAS = {12: {5: 9, 6: 9}, 14: {5: 8}, 16: {6: 2, 7: 1}, 18: {6: 1}}
    NON_STRICT = {12: 4, 14: 2}
    SMOKE_SIZES = (8, 9, 10, 11)
    BOX = 1000

    def __init__(self, E, seed, workdir, smoke):
        self.E = E
        rng = random.Random(f"subgon/{seed}")
        if smoke:
            items = [(_random_points(rng, n, self.BOX), None) for n in self.SMOKE_SIZES]
        else:
            items = self._stratified(rng)
        rng.shuffle(items)
        self.defects = [d for _, d in items]
        self.polygons = [E.Polygon(pts) for pts, _ in items]

    def _stratified(self, rng):
        items = []  # (points, defect)
        for n, quota in self.QUOTAS.items():
            left = dict(quota)
            while any(left.values()):
                pts = _random_points(rng, n, self.BOX)
                size = largest_convex_subset(pts)
                if left.get(size):
                    left[size] -= 1
                    items.append((pts, None))
            for i in range(self.NON_STRICT.get(n, 0)):
                defect = ("duplicate", "collinear")[i % 2]
                pts = _random_points(rng, n, self.BOX)
                items.append((_plant_duplicate(rng, pts) if defect == "duplicate"
                              else _plant_collinear(pts, *rng.sample(range(n), 3)), defect))
        return items

    def warm_up(self):
        P = self.E.Polygon([(0, 0), (5, 1), (3, 7), (-2, 4), (1, 2), (6, 6)])
        self.E.find_convex_subgon(P, 4)
        self.E.count_convex_subgons(P, 4)

    def run_pass(self, op):
        E = self.E
        answers = []
        for P in self.polygons:
            for k in range(4, len(P) + 1):
                hit = op(E.find_convex_subgon, P, k)
                answers.append(hit if isinstance(hit, Err) else ["find", k, hit and list(hit)])
                if hit is None or isinstance(hit, Err):
                    break
            for k in (4, 5):
                res = op(E.count_convex_subgons, P, k)
                answers.append(res if isinstance(res, Err) else ["count", k, res[0]])
        return answers

    def _per_polygon(self, answers):
        # Split the flat answer list back into one list per polygon.
        out, cur = [], []
        for a in answers:
            cur.append(a)
            if not isinstance(a, Err) and a[0] == "count" and a[1] == 5:
                out.append(cur)
                cur = []
        if cur:
            out.append(cur)
        return out

    def check(self, answers):
        E = self.E
        bad = []
        base = 0
        groups = self._per_polygon(answers)
        if len(groups) != len(self.polygons):
            return [(len(answers) - 1, "an op raised, the pass lost its structure")]
        for P, group in zip(self.polygons, groups):
            found = {}
            for j, a in enumerate(group, base):
                if isinstance(a, Err):
                    bad.append((j, "raised"))
                    continue
                kind, k, val = a
                if kind == "find":
                    found[k] = val
                    if val is None:
                        continue
                    if len(val) != k or sorted(set(val)) != val:
                        bad.append((j, f"find k={k} returned a malformed subset {val}"))
                    elif not E.oracle_test(E.sub_polygon(P, val)).convex:
                        bad.append((j, f"find k={k} hit {val} fails oracle_test"))
                elif (val > 0) != (found.get(k) is not None):
                    bad.append((j, f"count k={k} is {val} but find says {found.get(k)}"))
            base += len(group)
        return bad

    def census(self, answers):
        groups = self._per_polygon(answers)
        largest = []
        hits = nones = 0
        for group in groups:
            finds = [a for a in group if not isinstance(a, Err) and a[0] == "find"]
            hits += sum(a[2] is not None for a in finds)
            nones += sum(a[2] is None for a in finds)
            largest.append(max((a[1] for a in finds if a[2] is not None), default=3))
        return {
            "polygons": len(self.polygons),
            "n_hist": dict(sorted(Counter(len(P) for P in self.polygons).items())),
            "non_strict_share": _share(sum(d is not None for d in self.defects), len(self.defects)),
            "defect": dict(Counter(d for d in self.defects if d)),
            "find_hits": hits,
            "find_nones": nones,
            "hit_share": _share(hits, hits + nones),
            "largest_convex_subgon_hist": dict(sorted(Counter(largest).items())),
        }


# --------------------------------------------------------------------- anneal


class Anneal:
    """search_extremal(n=7, k=4, restarts=1) with the documented defaults."""

    PURE = True

    CALLS = 48
    SMOKE_CALLS = 3

    def __init__(self, E, seed, workdir, smoke):
        self.E = E
        # Disjoint restart seeds per run seed: seed s uses s*10**6 + i.
        base = seed * 10**6
        calls = self.SMOKE_CALLS if smoke else self.CALLS
        self.configs = [E.SearchConfig(n=7, k=4, seed=base + i, restarts=1) for i in range(calls)]

    def warm_up(self):
        self.E.search_extremal(self.E.SearchConfig(n=7, k=4, seed=0, restarts=1, max_iterations=50))

    def run_pass(self, op):
        answers = []
        for cfg in self.configs:
            r = op(self.E.search_extremal, cfg, 1)
            if isinstance(r, Err):
                answers.append(r)
                continue
            cert = r.certificate.to_dict() if r.certificate else None
            answers.append(["search", cfg.seed, r.objective,
                            [[v.x, v.y] for v in r.best.vertices], cert])
        return answers

    def check(self, answers):
        E = self.E
        bad = []
        for j, (cfg, a) in enumerate(zip(self.configs, answers)):
            if isinstance(a, Err):
                bad.append((j, "raised"))
                continue
            _, _, objective, vertices, cert = a
            best = E.Polygon(vertices)
            recount, _ = E.count_convex_subgons(best, cfg.k, oracle_only=True)
            if recount != objective:
                bad.append((j, f"objective {objective}, oracle recount {recount}"))
            if len(best) != cfg.n or any(max(abs(x), abs(y)) > cfg.box for x, y in vertices):
                bad.append((j, "best polygon has the wrong size or leaves the box"))
            if (cert is not None) != (objective == 0) or (cert and not cert["verified"]):
                bad.append((j, "certificate present/verified does not match objective 0"))
        return bad

    def census(self, answers):
        ok = [a for a in answers if not isinstance(a, Err)]
        return {
            "calls": len(self.configs),
            "objective_hist": dict(sorted(Counter(a[2] for a in ok).items())),
            "certified_share": _share(sum(a[2] == 0 for a in ok), len(ok)),
        }


# -------------------------------------------------------------------- certify


SEVEN_GON_TRANSFORMS = (
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
)


class Certify:
    """In-process eszk.cli.main commands against files and an explicit store."""

    PURE = False

    STORE = "store.json"
    SIZES = {"new": 150, "repeat": 40, "k5": 50, "bounds": 40, "check": 40, "classify": 40,
             "count": 30}
    SMOKE_SIZES = {"new": 6, "repeat": 3, "k5": 3, "bounds": 4, "check": 3, "classify": 3,
                   "count": 2}

    def __init__(self, E, seed, workdir, smoke):
        import eszk.cli

        self.E = E
        self.cli = eszk.cli
        self.workdir = Path(workdir)
        rng = random.Random(f"certify/{seed}")
        sizes = self.SMOKE_SIZES if smoke else self.SIZES
        (self.workdir / "in").mkdir()
        written = []

        def write(P):
            # input files alternate between the JSON and the text format
            as_json = len(written) % 2 == 0
            name = f"in/p{len(written):04d}.{'json' if as_json else 'txt'}"
            text = E.polygon_to_json(P) if as_json else E.polygon_to_text(P)
            (self.workdir / name).write_text(text, encoding="utf-8")
            written.append(name)
            return name

        seven = E.SEVEN_GON_CERTIFICATE.vertices
        seen = set()
        copies = []
        while len(copies) < sizes["new"]:
            f = rng.choice(SEVEN_GON_TRANSFORMS)
            dx, dy = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            P = E.Polygon(f(x, y) for x, y in ((x + dx, y + dy) for x, y in seven))
            if P.vertices not in seen:
                seen.add(P.vertices)
                copies.append(P)
        plan = [("new", i) for i in range(sizes["new"])]
        plan += [(tag, None) for tag in ("repeat", "k5", "bounds", "check", "classify", "count")
                 for _ in range(sizes[tag])]
        rng.shuffle(plan)
        # Sizes and styles of the check/classify/count polygons on a fixed
        # grid, in seeded order: a count costs C(n, 4) oracle tests, so
        # drawing n freely would change a pass's work from seed to seed.
        shapes = {}
        for tag in ("check", "classify", "count"):
            m = sizes[tag]
            shapes[tag] = [(4 + 13 * i // m, i % 3) for i in range(m)]
            rng.shuffle(shapes[tag])
        # the first command stores a copy, so every repeat has an earlier original
        first_new = next(i for i, (tag, _) in enumerate(plan) if tag == "new")
        plan.insert(0, plan.pop(first_new))

        self.commands = []  # (tag, argv, polygon or None)
        stored = []
        for tag, idx in plan:
            if tag == "new":
                name = write(copies[idx])
                stored.append(name)
                self.commands.append((tag, ["verify-cert", name, "-k", "4", "--store", self.STORE],
                                      copies[idx]))
            elif tag == "repeat":
                name = rng.choice(stored)
                self.commands.append((tag, ["verify-cert", name, "-k", "4", "--store", self.STORE],
                                      None))
            elif tag == "k5":
                P = E.Polygon(_random_points(rng, 8, 100))
                self.commands.append((tag, ["verify-cert", write(P), "-k", "5", "--store",
                                            self.STORE], P))
            elif tag == "bounds":
                k = rng.choice(("4", "5"))
                self.commands.append((tag, ["bounds", "-k", k, "--store", self.STORE], None))
            else:
                P = self._small_polygon(rng, *shapes[tag].pop())
                argv = {"check": ["check"], "classify": ["classify"],
                        "count": ["count-subgons"]}[tag] + [write(P)]
                if tag == "count":
                    argv += ["-k", "4"]
                self.commands.append((tag, argv, P))

    def _small_polygon(self, rng, n, style):
        if style == 0:  # convex: parabola points in x order
            xs = sorted(rng.sample(range(-300, 301), n))
            return self.E.Polygon((x, x * x) for x in xs)
        pts = _random_points(rng, n, 1000)
        if style == 1:
            _plant_duplicate(rng, pts)
        return self.E.Polygon(pts)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def warm_up(self):
        self._main(["bounds", "-k", "4", "--store", "warm-store.json"])
        name = self.commands[0][1][1]
        self._main(["verify-cert", name, "-k", "4", "--store", "warm-store.json"])

    def store_bytes(self):
        path = self.workdir / self.STORE
        return path.stat().st_size if path.exists() else 0

    def run_pass(self, op):
        # Every pass starts from an absent store, so a pass is the same work
        # however many passes a run makes.
        (self.workdir / self.STORE).unlink(missing_ok=True)
        answers = []
        for _, argv, _ in self.commands:
            res = op(self._main, argv)
            if isinstance(res, Err):
                answers.append(res)
                continue
            code, out, err = res
            try:
                report = json.loads(out)
                report.pop("timing_ms", None)
            except json.JSONDecodeError:
                report = out
            answers.append([argv, code, report, err])
        return answers

    def check(self, answers):
        E = self.E
        bad = []
        stored_keys = set()
        k5_lower = 5
        for j, ((tag, argv, P), a) in enumerate(zip(self.commands, answers)):
            if isinstance(a, Err):
                bad.append((j, "raised"))
                continue
            _, code, report, err = a
            if not isinstance(report, dict):
                bad.append((j, f"exit {code} without a JSON report: {err.strip()}"))
                continue
            result = report["result"]
            if tag in ("new", "repeat", "k5"):
                verified = result["verified"]
                if code != (0 if verified else 1):
                    bad.append((j, f"verify-cert exit {code} with verified={verified}"))
                if tag != "k5" and not verified:
                    bad.append((j, "a copy of the 7-gon certificate failed verification"))
                if tag == "k5" and verified != (E.find_convex_subgon(P, 5) is None):
                    bad.append((j, "verify-cert -k 5 disagrees with find_convex_subgon"))
                key = (result["k"], tuple(map(tuple, result["vertices"])))
                expect_store = verified and key not in stored_keys
                if expect_store != ("stored certificate" in err):
                    bad.append((j, f"store write {not expect_store}, expected {expect_store}"))
                if verified:
                    stored_keys.add(key)
                    if result["k"] == 5:
                        k5_lower = max(k5_lower, len(result["vertices"]) + 1)
            elif tag == "bounds":
                want = 8 if argv[2] == "4" else k5_lower
                if code != 0 or result["lower"] != want:
                    bad.append((j, f"bounds -k {argv[2]}: exit {code}, lower {result['lower']}, "
                                   f"expected {want}"))
            elif tag == "check":
                convex = E.oracle_test(P).convex
                if result["convex"] != convex or code != (0 if convex else 1):
                    bad.append((j, f"check: exit {code}, convex {result['convex']}, "
                                   f"oracle {convex}"))
            elif tag == "classify":
                if code != 0 or result["n"] != len(P):
                    bad.append((j, f"classify: exit {code}, n {result['n']}"))
            elif tag == "count":
                want, _ = E.count_convex_subgons(P, 4, oracle_only=True)
                if code != 0 or result["count"] != want:
                    bad.append((j, f"count-subgons: exit {code}, count {result['count']}, "
                                   f"oracle count {want}"))
        return bad

    def census(self, answers):
        tags = Counter(tag for tag, _, _ in self.commands)
        ok = [(tag, a) for (tag, _, _), a in zip(self.commands, answers) if not isinstance(a, Err)]
        writes = sum("stored certificate" in a[3] for _, a in ok)
        verify = [a for tag, a in ok if tag in ("new", "repeat", "k5")]
        return {
            "commands": len(self.commands),
            "mix": dict(sorted(tags.items())),
            "store_writes": writes,
            "store_duplicates": sum(a[2]["result"]["verified"] for a in verify) - writes,
            "store_reads": tags["bounds"],
            "k5_verified_share": _share(sum(a[2]["result"]["verified"]
                                            for t, a in ok if t == "k5"), tags["k5"]),
            "store_bytes": self.store_bytes(),
        }


WORKLOADS = {"decide": Decide, "subgon": Subgon, "anneal": Anneal, "certify": Certify}
