import json

import pytest

from eszk import InputError, Polygon, SEVEN_GON_CERTIFICATE, bounds_for, verify_certificate
from eszk.store import add_certificate, load_certificates, resolve_store_path


def test_missing_store_is_empty(tmp_path):
    assert load_certificates(str(tmp_path / "absent.json")) == []


def test_create_seeds_with_builtin_certificate(tmp_path, seven_gon):
    store = str(tmp_path / "s.json")
    fresh = verify_certificate(Polygon(seven_gon.vertices[i] for i in range(5)), 4)
    assert add_certificate(fresh, store)
    certs = load_certificates(store)
    assert len(certs) == 2
    assert any(c.polygon == SEVEN_GON_CERTIFICATE for c in certs)
    # store round-trip: every verified record re-verifies
    for c in certs:
        assert c.verified
        assert verify_certificate(c.polygon, c.k).verified


def test_duplicate_not_added(tmp_path):
    store = str(tmp_path / "s.json")
    cert = verify_certificate(SEVEN_GON_CERTIFICATE, 4)
    assert not add_certificate(cert, store)  # equals the seed record
    assert len(load_certificates(store)) == 1
    assert not add_certificate(cert, store)


def test_bounds_pick_up_store(tmp_path, seven_gon):
    store = str(tmp_path / "s.json")
    cert = verify_certificate(seven_gon, 4)
    add_certificate(cert, store)
    record = bounds_for(4, load_certificates(store))
    assert record.lower == 8


def test_forged_bound_is_derived_from_the_polygon(tmp_path, seven_gon):
    # a 5-gon record proves at most 6, whatever claimed_bound it carries
    store = tmp_path / "forged.json"
    record = {"k": 5, "vertices": [list(v) for v in seven_gon.vertices[:5]],
              "claimed_bound": 99, "verified": True, "subgon_total": 1}
    store.write_text(json.dumps({"version": 1, "certificates": [record]}))
    certs = load_certificates(str(store))
    assert certs[0].claimed_bound == 6
    assert bounds_for(5, certs).lower == 6


def test_corrupt_store_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputError):
        load_certificates(str(bad))
    bad.write_text(json.dumps({"certificates": "nope"}))
    with pytest.raises(InputError):
        load_certificates(str(bad))


def test_resolve_precedence(monkeypatch):
    monkeypatch.delenv("ESZK_STORE", raising=False)
    assert resolve_store_path() == "eszk-store.json"
    monkeypatch.setenv("ESZK_STORE", "/tmp/env.json")
    assert resolve_store_path() == "/tmp/env.json"
    assert resolve_store_path("/tmp/flag.json") == "/tmp/flag.json"
