"""Certificate store: a single JSON file of verified bound certificates.

The file is created on demand and seeded with the built-in 7-gon
certificate, so a fresh store already backs the k = 4 lower bound of 8.
The environment variable ESZK_STORE overrides the default path; an
explicit path overrides both.
"""

from __future__ import annotations

import json
import os

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


def _read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"store file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("certificates"), list):
        raise InputError(f"store file {path} has no certificate list")
    return data


def _write(path: str, data: dict) -> None:
    # Write a sibling temp file and rename it over the store, so a crash
    # mid-write leaves the previous store intact.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_certificates(path: str | None = None) -> list[Certificate]:
    """Certificates from the store; an absent file is an empty store.
    A malformed record raises InputError naming the store and its
    position, certificates[i]."""
    path = resolve_store_path(path)
    if not os.path.exists(path):
        return []
    certs = []
    for i, rec in enumerate(_read(path)["certificates"]):
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
    certificates[i].
    """
    path = resolve_store_path(path)
    created = not os.path.exists(path)
    data = {"version": 1, "certificates": _seed_records()} if created else _read(path)
    record = cert.to_dict()
    key = _dedupe_key(record)
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
        data["certificates"].append(record)
    if added or created:
        _write(path, data)
    return added
