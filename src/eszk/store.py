"""Certificate store: a single JSON file of verified bound certificates.

The file is created on demand and seeded with the built-in 7-gon
certificate, so a fresh store already backs the k = 4 lower bound of 8.
The environment variable ESZK_STORE overrides the default path; an
explicit path overrides both.

The file is one JSON document with one certificate record per line.
An append still parses the whole file, since its duplicate check reads
every record's key, but encodes only the new record: a file in that
layout keeps its bytes and gains one line before the closing "]}".  A
file in any other layout (an older indented store, say) is encoded
whole.  Either way the new text goes through an fsynced temp file
renamed into place; on POSIX, appends to stores in one directory are
serialized by an exclusive flock on that directory.  An I/O failure
raises InputError naming the store.
"""

from __future__ import annotations

import contextlib
import json
import os

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


def _read(path: str) -> tuple[str, dict]:
    # The store's text, read as stored (no newline translation), and the
    # document it holds.
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"store file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("certificates"), list):
        raise InputError(f"store file {path} has no certificate list")
    return text, data


_TAIL = "\n]}\n"


def _encode(data: dict) -> str:
    # Every other top-level key, then the certificate list last with one
    # record per line; json.dumps without indent runs the C encoder.
    rest = {key: value for key, value in data.items() if key != "certificates"}
    head = json.dumps({**rest, "certificates": []})[:-2]  # ends '"certificates": ['
    records = ",\n".join(map(json.dumps, data["certificates"]))
    return f"{head}\n{records}{_TAIL}"


def _appended(text: str, data: dict, record: dict) -> str:
    # The store text with record appended to its certificate list.  Text
    # in the layout _encode writes keeps its bytes and gains one line:
    # when the list is the last key (of a document without repeated
    # keys) and non-empty, and the text ends in "\n]}\n", that "]"
    # closes the list and the text before the "\n" ends with its last
    # record.  Any other text is encoded whole.
    certs = data["certificates"]
    if certs and text.endswith(_TAIL) and next(reversed(data)) == "certificates":
        return f"{text[:-len(_TAIL)]},\n{json.dumps(record)}{_TAIL}"
    certs.append(record)
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
    position, certificates[i]."""
    path = resolve_store_path(path)
    if not os.path.exists(path):
        return []
    certs = []
    for i, rec in enumerate(_read(path)[1]["certificates"]):
        try:
            certs.append(Certificate.from_dict(rec))
        except InputError as exc:
            raise InputError(f"store file {path}, certificates[{i}]: {exc}") from exc
    return certs


def _dedupe_key(record):
    return record["k"], [list(v) for v in record["vertices"]]


def add_certificate(cert: Certificate, path: str | None = None) -> bool:
    """Append a certificate, creating and seeding the store when missing.

    Returns True when the record is new, False when an identical
    (k, vertices) record is already present.  Only the (k, vertices) key
    of each stored record is read, not the whole record; a record that
    has no such key raises InputError naming the store and its position,
    certificates[i].  Appends are serialized on POSIX (see the module
    docstring), and an I/O failure raises InputError.
    """
    path = resolve_store_path(path)
    record = cert.to_dict()
    key = _dedupe_key(record)
    try:
        with _writers_serialized(path):
            created = not os.path.exists(path)
            if created:
                text, data = "", {"version": 1, "certificates": _seed_records()}
            else:
                text, data = _read(path)
            added = True
            for i, existing in enumerate(data["certificates"]):
                try:
                    added &= _dedupe_key(existing) != key
                except (KeyError, TypeError) as exc:
                    raise InputError(
                        f"store file {path}, certificates[{i}]: malformed certificate record "
                        f"(no k and vertices): {exc!r}"
                    ) from exc
            if added:
                _write(path, _appended(text, data, record))
            elif created:
                _write(path, _encode(data))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    return added
