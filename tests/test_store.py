import json

import pytest

from eszk import InputError, Polygon, SEVEN_GON_CERTIFICATE, bounds_for, verify_certificate
import eszk.store
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


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("vertices", [[0, 0], [1, 2, 3], [0, 1], [1, 1]], "(1, 2, 3)"),
        ("subgon_total", "many", "invalid literal for int()"),
        ("subgon_total", 35.9, "subgon_total = 35.9 is not C(7, 4) = 35"),
        ("subgon_total", "35", "subgon_total = '35' is not C(7, 4) = 35"),
        ("subgon_total", 34, "subgon_total = 34 is not C(7, 4) = 35"),
        ("k", 0, "k = 0 is below 1"),
        ("verified", "false", "verified = 'false'"),
        ("k", "4", "k = '4'"),
    ],
)
def test_malformed_record_error_gives_position(tmp_path, field, value, reason):
    good = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()
    store = tmp_path / "s.json"
    bad = dict(good, **{field: value})
    store.write_text(json.dumps({"version": 1, "certificates": [good, bad]}))
    with pytest.raises(InputError) as info:
        load_certificates(str(store))
    message = str(info.value)
    assert f"store file {store}, certificates[1]: " in message
    assert reason in message


@pytest.mark.parametrize(
    "bad, reason",
    [
        ({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], "verified": True}, "KeyError('k')"),
        ({"k": 4}, "KeyError('vertices')"),
        ([4, [[0, 0]]], "TypeError"),
        ("record", "TypeError"),
        ({"k": 4, "vertices": 7}, "TypeError"),
    ],
    ids=["no-k", "no-vertices", "list", "string", "int-vertices"],
)
def test_add_rejects_malformed_record_with_position(tmp_path, seven_gon, bad, reason):
    # the dedupe scan reads each record's (k, vertices) key; a record
    # without one is a corrupt store, not a crash, and the file is kept
    good = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()
    store = tmp_path / "s.json"
    text = json.dumps({"version": 1, "certificates": [good, bad]})
    store.write_text(text)
    with pytest.raises(InputError) as info:
        add_certificate(verify_certificate(Polygon(seven_gon.vertices[:5]), 4), str(store))
    message = str(info.value)
    assert f"store file {store}, certificates[1]: " in message
    assert reason in message
    assert store.read_text() == text


def test_crash_mid_write_keeps_previous_store(tmp_path, monkeypatch, seven_gon):
    store = str(tmp_path / "s.json")
    add_certificate(verify_certificate(Polygon(seven_gon.vertices[:5]), 4), store)
    before = load_certificates(store)

    def crashing_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:40])
        raise OSError("disk full")

    monkeypatch.setattr(eszk.store.json, "dump", crashing_dump)
    with pytest.raises(OSError):
        add_certificate(verify_certificate(Polygon(seven_gon.vertices[:6]), 4), store)
    monkeypatch.undo()
    assert load_certificates(store) == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_resolve_precedence(monkeypatch):
    monkeypatch.delenv("ESZK_STORE", raising=False)
    assert resolve_store_path() == "eszk-store.json"
    monkeypatch.setenv("ESZK_STORE", "/tmp/env.json")
    assert resolve_store_path() == "/tmp/env.json"
    assert resolve_store_path("/tmp/flag.json") == "/tmp/flag.json"
