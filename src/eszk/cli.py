"""Command-line front end.

One subcommand per library operation, one machine-parseable JSON report
on stdout (or flat text with --format text), diagnostics on stderr.  The
global flags --format and --svg go before or after the subcommand.
Exit codes: 0 success / positive verdict, 1 negative verdict (check,
pre-convex, find-subgon, verify-cert), 2 usage or input errors, 3
capability limits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

from .convexity import convex_permutations, is_convex, is_pre_convex
from .errors import CapabilityError, EszkError, ExhaustionError, InputError
from .extremal import SearchConfig, _grow, bounds_for, search_extremal, verify_certificate
from .formats import parse_polygon
from .geometry import Polygon, classify, convex_hull
from .store import add_certificate, load_certificates, resolve_store_path
from .subgons import count_convex_subgons, find_convex_subgon


def _read_polygon(path: str) -> tuple[Polygon, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_polygon(raw), raw


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _store_verified(cert, store):
    """Append a verified certificate to the store, noting a new record on stderr."""
    if cert is not None and cert.verified:
        path = resolve_store_path(store)
        if add_certificate(cert, path):
            print(f"stored certificate in {path}", file=sys.stderr)


def _cmd_classify(args):
    P, raw = _read_polygon(args.file)
    return dataclasses.asdict(classify(P)), 0, P, raw


def _cmd_check(args):
    P, raw = _read_polygon(args.file)
    verdict = is_convex(P)
    return dataclasses.asdict(verdict), 0 if verdict.convex else 1, P, raw


def _cmd_pre_convex(args):
    P, raw = _read_polygon(args.file)
    result = is_pre_convex(P)
    return {"pre_convex": result}, 0 if result else 1, P, raw


def _cmd_permutations(args):
    P, raw = _read_polygon(args.file)
    count, perms = convex_permutations(P)
    return {"count": count, "permutations": [list(p) for p in perms]}, 0, P, raw


def _cmd_count_subgons(args):
    P, raw = _read_polygon(args.file)
    count, _ = count_convex_subgons(P, args.k)
    return {"k": args.k, "count": count, "total": math.comb(len(P), args.k)}, 0, P, raw


def _cmd_find_subgon(args):
    P, raw = _read_polygon(args.file)
    found = find_convex_subgon(P, args.k)
    payload = {"k": args.k, "found": found is not None, "indices": list(found) if found else None}
    return payload, 0 if found is not None else 1, P, raw


def _cmd_verify_cert(args):
    P, raw = _read_polygon(args.file)
    cert = verify_certificate(P, args.k)
    _store_verified(cert, args.store)
    return cert.to_dict(), 0 if cert.verified else 1, P, raw


def _cmd_bounds(args):
    certs = load_certificates(args.store)
    return dataclasses.asdict(bounds_for(args.k, certs)), 0, None, f"k={args.k}".encode()


def _cmd_search(args):
    cfg = SearchConfig(
        n=args.n,
        k=args.k,
        seed=args.seed,
        box=args.box,
        max_iterations=args.iters,
        restarts=args.restarts,
        t0=args.temp,
        decay=args.decay,
        radius=args.radius,
    )
    result = search_extremal(cfg, workers=args.parallel)
    payload = {
        "n": cfg.n,
        "k": cfg.k,
        "objective": result.objective,
        "best": {"vertices": [[v.x, v.y] for v in result.best.vertices]},
        "certificate": result.certificate.to_dict() if result.certificate else None,
    }
    _store_verified(result.certificate, args.store)
    digest_src = json.dumps(
        {"n": cfg.n, "k": cfg.k, "seed": cfg.seed, "box": cfg.box, "iters": cfg.max_iterations,
         "restarts": cfg.restarts, "t0": cfg.t0, "decay": cfg.decay, "radius": cfg.radius},
        sort_keys=True,
    ).encode()
    return payload, 0, result.best, digest_src


def _cmd_grow(args):
    P, raw = _read_polygon(args.file)
    cfg = SearchConfig(n=len(P) + 1, k=args.k, seed=args.seed)
    cert = _grow(P, cfg)
    payload = {
        "k": args.k,
        "grown": cert is not None,
        "polygon": {"vertices": [[v.x, v.y] for v in cert.polygon.vertices]} if cert else None,
        "certificate": cert.to_dict() if cert else None,
    }
    return payload, 0 if cert else 1, cert.polygon if cert else P, raw


_SVG_SIZE = 800
_SVG_MARGIN = 20


def render_svg(P: Polygon) -> str:
    """Static picture: polygon edges in one stroke, hull boundary dashed."""
    size, margin = _SVG_SIZE, _SVG_MARGIN
    hull, _ = convex_hull(P.vertices)
    xs = [v.x for v in P.vertices]
    ys = [v.y for v in P.vertices]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny)
    scale = (size - 2 * margin) / span if span else 1.0
    offx = (size - 2 * margin - (maxx - minx) * scale) / 2
    offy = (size - 2 * margin - (maxy - miny) * scale) / 2

    def fx(x):
        return margin + offx + (x - minx) * scale

    def fy(y):
        # SVG y grows downward; flip so the picture matches the plane
        return size - (margin + offy + (y - miny) * scale)

    def path(points, close=True):
        steps = " L ".join(f"{fx(p.x):.2f} {fy(p.y):.2f}" for p in points)
        return f"M {steps}" + (" Z" if close and len(points) > 1 else "")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<path d="{path(hull)}" fill="none" stroke="#888" stroke-width="1.5" '
        f'stroke-dasharray="6 4"/>',
        f'<path d="{path(list(P.vertices))}" fill="none" stroke="#d22" stroke-width="2"/>',
    ]
    for v in P.vertices:
        parts.append(f'<circle cx="{fx(v.x):.2f}" cy="{fy(v.y):.2f}" r="3" fill="#222"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_svg(path: str, P: Polygon | None) -> None:
    if P is None:
        print("eszk: --svg ignored, this command has no polygon to draw", file=sys.stderr)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_svg(P))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    lines = [f"command: {report['command']}", f"input_digest: {report['input_digest']}"]
    for key, value in report["result"].items():
        if isinstance(value, (dict, list)):
            lines.append(f"{key}: {json.dumps(value)}")
        elif isinstance(value, bool):
            lines.append(f"{key}: {'true' if value else 'false'}")
        else:
            lines.append(f"{key}: {value}")
    lines.append(f"timing_ms: {report['timing_ms']}")
    print("\n".join(lines))


def _global_flags(p: argparse.ArgumentParser, fmt, svg) -> None:
    p.add_argument("--format", choices=["json", "text"], default=fmt,
                   help="report format (default json)")
    p.add_argument("--svg", metavar="OUT.svg", default=svg,
                   help="also write an SVG of the polygon and its hull")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eszk",
        description="Exact integer toolkit for ordered-polygon convexity.",
    )
    _global_flags(parser, "json", None)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def cmd(name, handler, help_text, *, file=True, k=True, store=False):
        p = sub.add_parser(name, help=help_text)
        # argparse copies a subcommand's namespace over the top-level one, so
        # the subcommand's copy of a global flag must have no default: an
        # absent flag then keeps the value given before the subcommand.
        _global_flags(p, argparse.SUPPRESS, argparse.SUPPRESS)
        p.set_defaults(handler=handler)
        if file:
            p.add_argument("file")
        if k:
            p.add_argument("-k", type=int, required=True)
        if store:
            p.add_argument("--store", default=None, help="certificate store path")
        return p

    cmd("classify", _cmd_classify, "vertex count, strictness, ordinariness, dimension", k=False)
    cmd("check", _cmd_check, "convexity verdict; exit 0 if convex, 1 if not", k=False)
    cmd("pre-convex", _cmd_pre_convex, "does some vertex order form a convex polygon; exit 0/1",
        k=False)
    cmd("permutations", _cmd_permutations, "census of convex vertex orders (n <= 8)", k=False)
    cmd("count-subgons", _cmd_count_subgons, "count convex sub-k-gons by an exhaustive search")
    cmd("find-subgon", _cmd_find_subgon, "find one convex sub-k-gon; exit 0 found, 1 none")
    cmd("verify-cert", _cmd_verify_cert,
        "exhaustively verify a no-convex-sub-k-gon certificate; exit 0/1", store=True)
    cmd("bounds", _cmd_bounds, "best known bounds on the least n forcing a convex sub-k-gon",
        file=False, store=True)

    p = cmd("search", _cmd_search, "annealing search for polygons with no convex sub-k-gon",
            file=False, store=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iters", type=int, default=SearchConfig.max_iterations)
    p.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    p.add_argument("--box", type=int, default=SearchConfig.box)
    p.add_argument("--temp", type=float, default=SearchConfig.t0)
    p.add_argument("--decay", type=float, default=SearchConfig.decay)
    p.add_argument("--radius", type=int, default=SearchConfig.radius)
    p.add_argument("--parallel", type=int, default=1, metavar="W",
                   help="worker processes for restarts (result is identical)")

    p = cmd("grow", _cmd_grow, "insert one vertex into a certified polygon, keeping objective zero")
    p.add_argument("--seed", type=int, required=True)

    return parser


# Built once: every parse_args call returns a fresh namespace.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    start = time.perf_counter()
    try:
        payload, code, svg_polygon, digest_src = args.handler(args)
        elapsed_ms = round((time.perf_counter() - start) * 1000, 3)
        if args.svg:
            _write_svg(args.svg, svg_polygon)
    except (CapabilityError, ExhaustionError) as exc:
        print(f"eszk {args.command}: {exc}", file=sys.stderr)
        return 3
    except EszkError as exc:
        print(f"eszk {args.command}: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "input_digest": _digest(digest_src),
        "result": payload,
        "timing_ms": elapsed_ms,
    }
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
