"""Command-line front end.

One subcommand per library operation, one machine-parseable JSON report
on stdout (or flat text with --format text), diagnostics on stderr.
Exit codes: 0 success / positive verdict, 1 negative verdict (check,
pre-convex, find-subgon, verify-cert), 2 usage or input errors, 3
capability limits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from .convexity import convex_permutations, is_convex, is_pre_convex
from .errors import (
    CapabilityError,
    EszkError,
    ExhaustionError,
    InputError,
    ParseError,
    PreconditionError,
)
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


def _cmd_classify(args):
    P, raw = _read_polygon(args.file)
    rep = classify(P)
    payload = {"n": rep.n, "strict": rep.strict, "ordinary": rep.ordinary, "dimension": rep.dimension}
    return payload, 0, P, raw


def _cmd_check(args):
    P, raw = _read_polygon(args.file)
    verdict = is_convex(P)
    payload = {"convex": verdict.convex, "method": verdict.method, "witness": verdict.witness}
    return payload, 0 if verdict.convex else 1, P, raw


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
    payload = cert.to_dict()
    if cert.verified:
        path = resolve_store_path(args.store)
        if add_certificate(cert, path):
            print(f"stored certificate in {path}", file=sys.stderr)
    return payload, 0 if cert.verified else 1, P, raw


def _cmd_bounds(args):
    certs = load_certificates(args.store)
    record = bounds_for(args.k, certs)
    payload = {
        "k": record.k,
        "lower": record.lower,
        "lower_provenance": record.lower_provenance,
        "upper": record.upper,
        "upper_provenance": record.upper_provenance,
        "symbolic_upper": record.symbolic_upper,
    }
    return payload, 0, None, f"k={args.k}".encode()


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
    if result.certificate and result.certificate.verified:
        path = resolve_store_path(args.store)
        if add_certificate(result.certificate, path):
            print(f"stored certificate in {path}", file=sys.stderr)
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


_COMMANDS = {
    "classify": _cmd_classify,
    "check": _cmd_check,
    "pre-convex": _cmd_pre_convex,
    "permutations": _cmd_permutations,
    "count-subgons": _cmd_count_subgons,
    "find-subgon": _cmd_find_subgon,
    "verify-cert": _cmd_verify_cert,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "grow": _cmd_grow,
}


def render_svg(P: Polygon, size: int = 800, margin: int = 20) -> str:
    """Static picture: polygon edges in one stroke, hull boundary dashed."""
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


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=["json", "text"], default="json",
                        help="report format (default json)")
    shared.add_argument("--svg", metavar="OUT.svg", default=None,
                        help="also write an SVG of the polygon and its hull")

    parser = argparse.ArgumentParser(
        prog="eszk",
        parents=[shared],
        description="Exact integer toolkit for ordered-polygon convexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def cmd(name, help_text, **kwargs):
        return sub.add_parser(name, parents=[shared], help=help_text, **kwargs)

    p = cmd("classify", "vertex count, strictness, ordinariness, dimension")
    p.add_argument("file")

    p = cmd("check", "convexity verdict; exit 0 if convex, 1 if not")
    p.add_argument("file")

    p = cmd("pre-convex", "does some vertex order form a convex polygon; exit 0/1")
    p.add_argument("file")

    p = cmd("permutations", "census of convex vertex orders (n <= 8)")
    p.add_argument("file")

    p = cmd("count-subgons", "count convex sub-k-gons by exhaustive enumeration")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)

    p = cmd("find-subgon", "find one convex sub-k-gon; exit 0 found, 1 none")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)

    p = cmd("verify-cert", "exhaustively verify a no-convex-sub-k-gon certificate; exit 0/1")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--store", default=None, help="certificate store path")

    p = cmd("bounds", "best known bounds on the least n forcing a convex sub-k-gon")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--store", default=None, help="certificate store path")

    p = cmd("search", "annealing search for polygons with no convex sub-k-gon")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--box", type=int, default=50)
    p.add_argument("--temp", type=float, default=2.0)
    p.add_argument("--decay", type=float, default=0.999)
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--store", default=None, help="certificate store path")
    p.add_argument("--parallel", type=int, default=1, metavar="W",
                   help="worker processes for restarts (result is identical)")

    p = cmd("grow", "insert one vertex into a certified polygon, keeping objective zero")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    handler = _COMMANDS[args.command]
    start = time.perf_counter()
    try:
        payload, code, svg_polygon, digest_src = handler(args)
    except (ParseError, InputError, PreconditionError) as exc:
        print(f"eszk {args.command}: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, ExhaustionError) as exc:
        print(f"eszk {args.command}: {exc}", file=sys.stderr)
        return 3
    except EszkError as exc:
        print(f"eszk {args.command}: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = round((time.perf_counter() - start) * 1000, 3)

    report = {
        "command": args.command,
        "input_digest": _digest(digest_src),
        "result": payload,
        "timing_ms": elapsed_ms,
    }
    _emit(report, args.format)

    if args.svg:
        if svg_polygon is None:
            print("eszk: --svg ignored, this command has no polygon to draw", file=sys.stderr)
        else:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_svg(svg_polygon))
    return code


if __name__ == "__main__":
    sys.exit(main())
