"""Span tracing for the traced benchmark run, from outside ``src/``.

The traced run replaces module-level names in the ``eszk`` modules with
thin wrappers that open a span around each call.  Besides the public
names the benchmark calls itself, it wraps the names one ``eszk`` module
uses to call another (``eszk.cli.parse_polygon``,
``eszk.extremal.verify_certificate``, ``eszk.subgons.perturb_to_strict``,
...), because a module resolves those globals at call time.  The
oracle decider is wrapped at ``_oracle_verdict``, the name both
``is_convex`` and ``count_convex_subgons`` reach it through.

Spans live in flat arrays until the pass ends; ``write_csv`` puts them
on disk and ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import csv
import importlib
import math
import statistics
import time
from array import array


def tail(values):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value, or the largest when there are fewer than 11."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[-11] if len(s) >= 11 else s[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.info: list = []
        self.stack: list[int] = []
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, note=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.info.append(None)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                self.info[idx] = note(args, kwargs, out)
            return out

        return traced

    def spans(self):
        """Per span name: list of (duration, self time, info)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {name: [] for name in self.names}
        for i in range(n):
            d = self.end[i] - self.start[i]
            out[self.names[self.name[i]]].append((d, d - child[i], self.info[i]))
        return out

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "op", "info"])
            for i in range(len(self.start)):
                out.writerow([i, self.names[self.name[i]], repr(self.start[i]), repr(self.end[i]),
                              self.parent[i], self.op[i], repr(self.info[i])])


def _count_note(strict):
    def note(args, kwargs, out):
        P, k = args[0], kwargs.get("k", args[1] if len(args) > 1 else None)
        oracle_only = kwargs.get("oracle_only", args[4] if len(args) > 4 else False)
        route = "oracle" if oracle_only or not strict(P) else "sign"
        return route, math.comb(len(P), k)

    return note


def install(tracer: Tracer):
    """Wrap every traced name; returns the list needed to undo it."""
    import eszk

    classify = eszk.classify  # unwrapped, for the count-route note
    spans = {
        "geometry.classify": (
            ["eszk", "eszk.geometry", "eszk.convexity", "eszk.subgons", "eszk.extremal",
             "eszk.cli"], "classify", lambda a, kw, out: out.strict),
        "geometry.perturb_to_strict": (
            ["eszk", "eszk.geometry", "eszk.subgons"], "perturb_to_strict", None),
        "convexity.is_convex": (
            ["eszk", "eszk.convexity", "eszk.cli"], "is_convex", lambda a, kw, out: out.method),
        "convexity.oracle_test": (["eszk.convexity", "eszk.subgons"], "_oracle_verdict", None),
        "subgons.find_convex_subgon": (
            ["eszk", "eszk.subgons", "eszk.cli"], "find_convex_subgon",
            lambda a, kw, out: out is not None),
        "subgons.count": (
            ["eszk", "eszk.subgons", "eszk.extremal", "eszk.cli"], "count_convex_subgons",
            _count_note(lambda P: classify(P).strict)),
        "extremal.search_extremal": (
            ["eszk", "eszk.extremal", "eszk.cli"], "search_extremal",
            lambda a, kw, out: (out.objective, a[0].max_iterations)),
        "extremal.verify_certificate": (
            ["eszk", "eszk.extremal", "eszk.store", "eszk.cli"], "verify_certificate",
            lambda a, kw, out: out.verified),
        "formats.parse_polygon": (
            ["eszk", "eszk.formats", "eszk.cli"], "parse_polygon", lambda a, kw, out: len(a[0])),
        "store.add_certificate": (["eszk.store", "eszk.cli"], "add_certificate",
                                  lambda a, kw, out: bool(out)),
        "store.load_certificates": (["eszk.store", "eszk.cli"], "load_certificates", None),
        "cli.main": (["eszk.cli"], "main", None),
    }
    undo = []
    for span, (modules, attr, note) in spans.items():
        tracer.name_id(span)
        for modname in modules:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            setattr(mod, attr, tracer.wrap(span, fn, note))
            undo.append((mod, attr, fn))
    return undo


def uninstall(undo):
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


def _basic(prefix, rows, *, self_time=False, p50=None, tail_unit=None):
    durs = [d for d, _, _ in rows]
    out = {f"{prefix}.calls": len(rows), f"{prefix}.busy_s": sum(durs)}
    if self_time:
        out[f"{prefix}.self_s"] = sum(s for _, s, _ in rows)
    scale = {"us": 1e6, "ms": 1e3}
    if p50:
        out[f"{prefix}.p50_{p50}"] = statistics.median(durs) * scale[p50] if durs else 0.0
    if tail_unit:
        out[f"{prefix}.tail_{tail_unit}"] = tail(durs) * scale[tail_unit]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, store_bytes: int) -> dict:
    """Per-layer metrics of the spans recorded in one traced pass."""
    sp = tracer.spans()
    m = {}
    rows = sp["geometry.classify"]
    m.update(_basic("geometry.classify", rows, p50="us"))
    m["geometry.strict_ratio"] = _ratio(sum(1 for *_, s in rows if s), len(rows))
    m.update(_basic("geometry.perturb_to_strict", sp["geometry.perturb_to_strict"]))

    rows = sp["convexity.is_convex"]
    m.update(_basic("convexity.is_convex", rows, p50="us", tail_unit="us"))
    for route in ("sign_test", "oracle", "small_n", "dim_le_1"):
        m[f"convexity.route.{route}"] = _ratio(sum(1 for *_, r in rows if r == route), len(rows))
    m.update(_basic("convexity.oracle_test", sp["convexity.oracle_test"]))

    rows = sp["subgons.find_convex_subgon"]
    m.update(_basic("subgons.find_convex_subgon", rows, self_time=True, p50="us", tail_unit="us"))
    m["subgons.find.hit_ratio"] = _ratio(sum(1 for *_, hit in rows if hit), len(rows))
    for route in ("sign", "oracle"):
        rows = [r for r in sp["subgons.count"] if r[2] and r[2][0] == route]
        m.update(_basic(f"subgons.count.{route}", rows))
        m[f"subgons.count.{route}.subsets_per_s"] = _ratio(
            sum(info[1] for *_, info in rows), m[f"subgons.count.{route}.busy_s"])

    rows = sp["extremal.search_extremal"]
    m.update(_basic("extremal.search_extremal", rows, self_time=True, p50="ms"))
    stalled = [d / info[1] * 1e6 for d, _, info in rows if info and info[0] > 0]
    m["extremal.stalled_us_per_iter"] = statistics.median(stalled) if stalled else 0.0
    m["extremal.certified_ratio"] = _ratio(
        sum(1 for *_, info in rows if info and info[0] == 0), len(rows))
    m.update(_basic("extremal.verify_certificate", sp["extremal.verify_certificate"]))

    rows = sp["formats.parse_polygon"]
    m.update(_basic("formats.parse_polygon", rows))
    m["formats.parse_polygon.bytes_per_s"] = _ratio(
        sum(info for *_, info in rows), m["formats.parse_polygon.busy_s"])

    rows = sp["store.add_certificate"]
    m.update(_basic("store.add_certificate", rows, p50="us", tail_unit="us"))
    m["store.added_ratio"] = _ratio(sum(1 for *_, added in rows if added), len(rows))
    m["store.file_bytes"] = store_bytes
    m.update(_basic("store.load_certificates", sp["store.load_certificates"]))
    m.update(_basic("cli.main", sp["cli.main"], self_time=True))
    return m
