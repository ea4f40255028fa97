"""Certificate store: a single JSON file of verified bound certificates.

The file is created on demand and seeded with the built-in 7-gon
certificate, so a fresh store already backs the k = 4 lower bound of 8.
The environment variable ESZK_STORE overrides the default path; an
explicit path overrides both.

The file is one JSON document with one certificate record per line.  An
append encodes only the new record: a file in that layout keeps its
bytes and gains one line before the closing "]}".  A file in any other
layout (an older indented store, say) is encoded whole.  Either way the
new text goes through an fsynced temp file renamed into place; on POSIX,
appends to stores in one directory are serialized by an exclusive flock
on that directory.  An I/O failure raises InputError naming the store.

Each call reads the whole file, but the process does not parse again
the text it last read or wrote.  It keeps that text with each record's
dedupe key, whether the text is in the one-record-per-line layout and,
once a load has built them, its certificates (an append keeps the
caller's, equal to what its record loads as).  Everything kept is a
function of the text alone, so a call uses it only when the text it has
just read (under the flock, for an append) equals the kept text; any
other text (another store, a write by another process, an edit) is
parsed in full.  A failure is never kept: a malformed store raises the
same InputError on every call.  Only a process that makes several store
calls in a row gains; a single CLI command makes one.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

try:
    import fcntl
except ImportError:  # not POSIX: writers are not serialized
    fcntl = None

from .errors import InputError
from .extremal import Certificate, SEVEN_GON_CERTIFICATE, verify_certificate

STORE_ENV = "ESZK_STORE"
DEFAULT_STORE = "eszk-store.json"


def resolve_store_path(explicit: str | None = None) -> str:
    if explicit:
        return explicit
    return os.environ.get(STORE_ENV) or DEFAULT_STORE


def _seed_records() -> list[dict]:
    cert = verify_certificate(SEVEN_GON_CERTIFICATE, 4)
    return [cert.to_dict()]


def _read_text(path: str) -> str:
    # The store's text, read as stored (no newline translation).
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc


def _document(path: str, text: str) -> dict:
    # The store document the text holds.
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"store file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("certificates"), list):
        raise InputError(f"store file {path} has no certificate list")
    return data


_TAIL = "\n]}\n"


def _encode(data: dict) -> str:
    # Every other top-level key, then the certificate list last with one
    # record per line; json.dumps without indent runs the C encoder.
    rest = {key: value for key, value in data.items() if key != "certificates"}
    head = json.dumps({**rest, "certificates": []})[:-2]  # ends '"certificates": ['
    records = ",\n".join(map(json.dumps, data["certificates"]))
    return f"{head}\n{records}{_TAIL}"


def _dedupe_key(record):
    return record["k"], [list(v) for v in record["vertices"]]


def _certificates(path: str, records: list) -> tuple[Certificate, ...]:
    certs = []
    for i, rec in enumerate(records):
        try:
            certs.append(Certificate.from_dict(rec))
        except InputError as exc:
            raise InputError(f"store file {path}, certificates[{i}]: {exc}") from exc
    return tuple(certs)


@dataclass(frozen=True)
class _Snapshot:
    """A store text with what this process derived from it: each
    record's dedupe key, whether the text is in the layout _encode
    writes (so an append can add one line) and, once a load has built
    them, the records' certificates.  A snapshot is never changed; a
    new one replaces it."""

    text: str
    keys: tuple
    appendable: bool
    certs: tuple[Certificate, ...] | None = None


_last: _Snapshot | None = None  # the last store text this process read or wrote


def _snapshot(path: str, text: str, with_certs: bool) -> _Snapshot:
    # The snapshot of text, parsed unless it is the last one and holds
    # certificates if with_certs asks for them.  A record without a
    # (k, vertices) key raises InputError naming its position; with_certs
    # builds the certificates first, so a load reports a malformed record
    # as Certificate.from_dict words it.
    global _last
    snap = _last
    if snap is None or snap.text != text or (with_certs and snap.certs is None):
        data = _document(path, text)
        records = data["certificates"]
        certs = _certificates(path, records) if with_certs else None
        keys = []
        for i, rec in enumerate(records):
            try:
                keys.append(_dedupe_key(rec))
            except (KeyError, TypeError) as exc:
                raise InputError(
                    f"store file {path}, certificates[{i}]: malformed certificate record "
                    f"(no k and vertices): {exc!r}"
                ) from exc
        # The layout _encode writes: the list is the last key (of a
        # document without repeated keys) and non-empty, and the text
        # ends in "\n]}\n", so that "]" closes the list and the text
        # before the "\n" ends with its last record.
        appendable = (
            bool(records) and text.endswith(_TAIL) and next(reversed(data)) == "certificates"
        )
        snap = _Snapshot(text, tuple(keys), appendable, certs)
    _last = snap
    return snap


def _appended(snap: _Snapshot, record: dict) -> str:
    # The store text with record appended to its certificate list: one
    # more line for text in the layout _encode writes, else encoded whole.
    if snap.appendable:
        return f"{snap.text[:-len(_TAIL)]},\n{json.dumps(record)}{_TAIL}"
    data = json.loads(snap.text)
    data["certificates"].append(record)
    return _encode(data)


def _write(path: str, text: str) -> None:
    # Write a sibling temp file in one call, fsync it and rename it over
    # the store, so a crash mid-write leaves the previous store intact.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _writers_serialized(path: str):
    # Hold an exclusive flock on the store's directory: a lock on the
    # directory itself leaves no lock file beside the store.
    if fcntl is None:
        yield
        return
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def load_certificates(path: str | None = None) -> list[Certificate]:
    """Certificates from the store; an absent file is an empty store.
    A malformed record raises InputError naming the store and its
    position, certificates[i].  The list is the caller's own."""
    path = resolve_store_path(path)
    if not os.path.exists(path):
        return []
    return list(_snapshot(path, _read_text(path), with_certs=True).certs)


def add_certificate(cert: Certificate, path: str | None = None) -> bool:
    """Append a certificate, creating and seeding the store when missing.

    Returns True when the record is new, False when an identical
    (k, vertices) record is already present.  Only the (k, vertices) key
    of each stored record is read, not the whole record; a record that
    has no such key raises InputError naming the store and its position,
    certificates[i].  Appends are serialized on POSIX (see the module
    docstring), and an I/O failure raises InputError.
    """
    global _last
    path = resolve_store_path(path)
    record = cert.to_dict()
    key = _dedupe_key(record)
    try:
        with _writers_serialized(path):
            created = not os.path.exists(path)
            if created:
                seed = _seed_records()
                text = _encode({"version": 1, "certificates": seed})
                snap = _Snapshot(text, tuple(map(_dedupe_key, seed)), appendable=True)
            else:
                snap = _snapshot(path, _read_text(path), with_certs=False)
            added = key not in snap.keys
            if added:
                text = _appended(snap, record)
                certs = None if snap.certs is None else snap.certs + (cert,)
                _write(path, text)
                # Only now that the text is stored does the snapshot become it.
                _last = _Snapshot(text, snap.keys + (key,), True, certs)
            elif created:
                _write(path, snap.text)
                _last = snap
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    return added
