"""Polygon file formats.

JSON is the canonical interchange form: {"vertices": [[x, y], ...]} with
plain integers.  The text form is one "x y" pair per line in ASCII
decimal; blank lines and surrounding whitespace are tolerated.  Parsing
rejects non-integers, out-of-bound coordinates, and empty input with a
positioned message.
"""

from __future__ import annotations

import json
import re

from .errors import InputError, ParseError
from .geometry import COORD_BOUND, Polygon

_INT_TOKEN = re.compile(r"[+-]?[0-9]+\Z")

FORMAT_JSON = "json"
FORMAT_TEXT = "text"
FORMAT_AUTO = "auto"


def detect_format(text: str) -> str:
    head = text.lstrip()
    return FORMAT_JSON if head.startswith(("{", "[")) else FORMAT_TEXT


def _coordinate(value, where: str) -> int:
    if type(value) is not int:  # bool is not an acceptable coordinate either
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    if not -COORD_BOUND <= value <= COORD_BOUND:
        raise InputError(f"{where}: {value} exceeds the coordinate bound {COORD_BOUND}")
    return value


def _parse_json(text: str) -> Polygon:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict) or "vertices" not in data:
        raise ParseError('expected a JSON object with a "vertices" array')
    raw = data["vertices"]
    if not isinstance(raw, list) or not raw:
        raise ParseError('"vertices" must be a non-empty array of [x, y] pairs')
    pairs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"vertices[{i}]: expected a pair [x, y], got {entry!r}")
        x = _coordinate(entry[0], f"vertices[{i}][0]")
        y = _coordinate(entry[1], f"vertices[{i}][1]")
        pairs.append((x, y))
    return Polygon(pairs)


def _parse_text(text: str) -> Polygon:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two integers 'x y', got {stripped!r}")
        coords = []
        for tok in tokens:
            if not _INT_TOKEN.match(tok):
                raise ParseError(f"line {lineno}: {tok!r} is not an ASCII decimal integer")
            coords.append(int(tok, 10))
        x = _coordinate(coords[0], f"line {lineno}, x")
        y = _coordinate(coords[1], f"line {lineno}, y")
        pairs.append((x, y))
    if not pairs:
        raise ParseError("no vertices found in input")
    return Polygon(pairs)


def parse_polygon(data: bytes | str, fmt: str = FORMAT_AUTO) -> Polygon:
    """Parse a polygon from JSON or plain-text bytes."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 at byte {exc.start}") from exc
    else:
        text = data
    if fmt == FORMAT_AUTO:
        fmt = detect_format(text)
    if fmt == FORMAT_JSON:
        return _parse_json(text)
    if fmt == FORMAT_TEXT:
        return _parse_text(text)
    raise InputError(f"unknown polygon format {fmt!r}")


def polygon_to_json(P: Polygon) -> str:
    return json.dumps({"vertices": [[v.x, v.y] for v in P.vertices]})


def polygon_to_text(P: Polygon) -> str:
    return "".join(f"{v.x} {v.y}\n" for v in P.vertices)
