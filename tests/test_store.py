import errno
import json
import multiprocessing
import os

import pytest

from eszk import (
    Certificate,
    InputError,
    Polygon,
    SEVEN_GON_CERTIFICATE,
    bounds_for,
    verify_certificate,
)
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
        ("subgon_total", "many", "subgon_total = 'many' is not C(7, 4) = 35"),
        ("subgon_total", 35.9, "subgon_total = 35.9 is not C(7, 4) = 35"),
        ("subgon_total", "35", "subgon_total = '35' is not C(7, 4) = 35"),
        ("subgon_total", 34, "subgon_total = 34 is not C(7, 4) = 35"),
        ("k", 0, "k = 0 is below 1"),
        ("verified", "false", "verified = 'false'"),
        ("k", "4", "k = '4'"),
        ("vertices", [[0, 0], [1, 0], [0, 1], [1, 1.5]],
         "certificates[1]: malformed certificate record: y = 1.5 is not an integer"),
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


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_crash_mid_write_keeps_previous_store(tmp_path, monkeypatch, seven_gon, step):
    # the crash comes after the temp file holds bytes: at its fsync, or at
    # the rename over the store
    store = str(tmp_path / "s.json")
    add_certificate(verify_certificate(Polygon(seven_gon.vertices[:5]), 4), store)
    before = load_certificates(store)
    written = []

    def crash(*args):
        written.extend(p.stat().st_size for p in tmp_path.glob("s.json.*.tmp"))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(eszk.store.os, step, crash)
    with pytest.raises(InputError, match=f"cannot write {store}: {os.strerror(errno.ENOSPC)}"):
        add_certificate(verify_certificate(Polygon(seven_gon.vertices[:6]), 4), store)
    monkeypatch.undo()
    assert written and written[0] > 0
    assert load_certificates(store) == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]
    # the process kept the stored text, not the one it failed to write
    cert = verify_certificate(Polygon(seven_gon.vertices[:6]), 4)
    assert add_certificate(cert, store)
    assert load_certificates(store) == before + [cert]


def _stored_dict(certs):
    # the document the writer must produce for these appends
    seed = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()
    return {"version": 1, "certificates": [seed] + [c.to_dict() for c in certs]}


def test_store_is_one_record_per_line(tmp_path, seven_gon):
    store = tmp_path / "s.json"
    certs = [verify_certificate(Polygon(seven_gon.vertices[:5]), 4),
             verify_certificate(Polygon(seven_gon.vertices[:6]), 4),
             verify_certificate(seven_gon, 5)]
    for cert in certs:
        assert add_certificate(cert, str(store))
    expected = _stored_dict(certs)
    lines = store.read_text().splitlines()
    assert len(lines) == len(expected["certificates"]) + 2
    assert lines[0] == '{"version": 1, "certificates": ['
    assert lines[-1] == "]}"
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == expected["certificates"]
    assert json.loads(store.read_text()) == expected


def test_append_keeps_the_old_bytes(tmp_path, seven_gon, monkeypatch):
    store = tmp_path / "s.json"
    encode = eszk.store._encode

    def translate(dx):
        return verify_certificate(Polygon((x + dx, y) for x, y in seven_gon.vertices), 4)

    assert add_certificate(translate(1), str(store))  # creates the store
    # from here on no stored record is encoded again
    monkeypatch.setattr(eszk.store, "_encode", None)
    text = store.read_text()
    for dx in range(2, 6):
        assert add_certificate(translate(dx), str(store))
        before, text = text, store.read_text()
        assert text.startswith(before[: -len("\n]}\n")] + ",\n")
        assert text == encode(json.loads(text))
        assert len(text.splitlines()) == dx + 3
    # a line in another spelling of JSON is kept as it is
    lines = text.splitlines()
    lines[1] = json.dumps(json.loads(lines[1].rstrip(",")), separators=(",", ":")) + ","
    store.write_text("\n".join(lines) + "\n")
    cert = translate(9)
    assert add_certificate(cert, str(store))
    assert store.read_text() == "\n".join(lines[:-1]) + f",\n{json.dumps(cert.to_dict())}\n]}}\n"


RECORD = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()


@pytest.mark.parametrize(
    "text, rest, kept",
    [
        # ends in "\n]}\n", but that "]" closes another list
        ('{"certificates": [\n%s\n], "note": [\n1\n]}\n' % json.dumps(RECORD), {"note": [1]},
         [RECORD]),
        ('{"version": 1, "certificates": [\n%s\n]}' % json.dumps(RECORD), {"version": 1},
         [RECORD]),
        ('{"version": 1, "certificates": [\n]}\n', {"version": 1}, []),
    ],
    ids=["certificates-not-last", "no-trailing-newline", "empty-list"],
)
def test_other_layouts_are_rewritten_whole(tmp_path, seven_gon, text, rest, kept):
    store = tmp_path / "s.json"
    store.write_text(text)
    cert = verify_certificate(Polygon(seven_gon.vertices[:5]), 4)
    assert add_certificate(cert, str(store))
    written = store.read_text()
    data = json.loads(written)
    assert data == {**rest, "certificates": kept + [cert.to_dict()]}
    assert written == eszk.store._encode(data)
    assert len(written.splitlines()) == len(data["certificates"]) + 2


# A store as the indent=2 writer left it, with a top-level key of its own.
INDENTED_STORE = """\
{
  "version": 1,
  "note": "kept",
  "certificates": [
    {
      "k": 4,
      "vertices": [
        [
          -13,
          0
        ],
        [
          15,
          0
        ],
        [
          0,
          16
        ],
        [
          18,
          39
        ],
        [
          27,
          -15
        ],
        [
          10,
          20
        ],
        [
          16,
          30
        ]
      ],
      "claimed_bound": 8,
      "verified": true,
      "subgon_total": 35
    }
  ]
}
"""


def test_indented_store_loads_and_is_rewritten_on_append(tmp_path, seven_gon):
    store = tmp_path / "s.json"
    store.write_text(INDENTED_STORE)
    assert load_certificates(str(store)) == [verify_certificate(SEVEN_GON_CERTIFICATE, 4)]
    cert = verify_certificate(Polygon(seven_gon.vertices[:5]), 4)
    assert add_certificate(cert, str(store))
    expected = dict(_stored_dict([cert]), note="kept")
    assert json.loads(store.read_text()) == expected
    assert len(store.read_text().splitlines()) == len(expected["certificates"]) + 2


def _translate(dx):
    return verify_certificate(Polygon((x + dx, y) for x, y in SEVEN_GON_CERTIFICATE.vertices), 4)


def _append_translates(store, first, count=20):
    certs = [_translate(dx) for dx in range(first, first + count)]
    for cert in certs:
        assert add_certificate(cert, store)


@pytest.mark.skipif(eszk.store.fcntl is None, reason="writers are serialized on POSIX only")
def test_concurrent_writers_lose_no_record(tmp_path):
    # The parent appends first, so the forked writers start out holding
    # its text; none of them, nor the parent, may miss another's records.
    store = str(tmp_path / "s.json")
    _append_translates(store, 41, 1)
    ctx = multiprocessing.get_context("fork")
    writers = [ctx.Process(target=_append_translates, args=(store, first)) for first in (1, 21)]
    for w in writers:
        w.start()
    for w in writers:
        w.join()
    assert [w.exitcode for w in writers] == [0, 0]
    _append_translates(store, 42, 1)
    certs = load_certificates(store)
    assert len(certs) == 43
    assert {c.polygon.vertices[0].x for c in certs} == set(range(-13, -13 + 43))
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_an_unchanged_store_is_parsed_once(tmp_path, monkeypatch):
    store = str(tmp_path / "s.json")
    assert add_certificate(_translate(1), store)
    certs = load_certificates(store)
    new = _translate(2)
    from_dict = Certificate.from_dict
    built = []

    def refuse(*args, **kwargs):
        raise AssertionError("the store text was parsed again")

    def record_builds(cls, record):
        built.append(record)
        return from_dict(record)

    monkeypatch.setattr(eszk.store.json, "loads", refuse)
    monkeypatch.setattr(Certificate, "from_dict", classmethod(record_builds))
    assert load_certificates(store) == certs
    assert not add_certificate(_translate(1), store)
    # an append keeps the caller's certificate: it builds none, not even its own
    assert add_certificate(new, store)
    assert load_certificates(store) == certs + [new]
    assert built == []


def test_a_rewritten_store_is_parsed_again(tmp_path):
    # Same byte length and the old mtime: only the text tells the stores apart.
    store = tmp_path / "s.json"
    old, new = _translate(1), _translate(2)
    assert add_certificate(old, str(store))
    assert load_certificates(str(store))[1] == old
    text = store.read_text()
    stat = os.stat(store)
    line = json.dumps(old.to_dict())
    store.write_text(text.replace(line, json.dumps(new.to_dict())))
    os.utime(store, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(store).st_size == stat.st_size
    assert os.stat(store).st_mtime_ns == stat.st_mtime_ns
    assert load_certificates(str(store))[1] == new
    assert not add_certificate(new, str(store))
    assert add_certificate(old, str(store))
    assert load_certificates(str(store))[1:] == [new, old]


def test_loaded_list_is_the_callers(tmp_path):
    store = str(tmp_path / "s.json")
    assert add_certificate(_translate(1), store)
    certs = load_certificates(store)
    expected = list(certs)
    certs.clear()
    assert load_certificates(store) == expected
    load_certificates(store).append(_translate(2))
    assert load_certificates(store) == expected


def test_a_bad_record_raises_on_every_load(tmp_path):
    # The record has a dedupe key, so appends go on, but no certificate:
    # every load reports it, before and after an append.
    good = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()
    bad = dict(_translate(1).to_dict(), verified="false")
    store = tmp_path / "s.json"
    store.write_text(eszk.store._encode({"version": 1, "certificates": [good, bad]}))
    messages = []
    for append in (False, False, True, False):
        if append:
            assert add_certificate(_translate(2), str(store))
        with pytest.raises(InputError) as info:
            load_certificates(str(store))
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert f"store file {store}, certificates[1]: " in messages[0]


def test_a_record_that_would_not_load_cannot_be_appended(tmp_path):
    # the certificate it would come from cannot be built, so the store never sees it
    store = tmp_path / "s.json"
    assert add_certificate(_translate(1), str(store))
    text = store.read_text()
    cert = _translate(2)
    with pytest.raises(InputError, match=r"^subgon_total = 1 is not C\(7, 4\) = 35$"):
        Certificate(cert.polygon, cert.k, cert.claimed_bound, True, subgon_total=1)
    assert store.read_text() == text
    assert len(load_certificates(str(store))) == 2


def test_resolve_precedence(monkeypatch):
    monkeypatch.delenv("ESZK_STORE", raising=False)
    assert resolve_store_path() == "eszk-store.json"
    monkeypatch.setenv("ESZK_STORE", "/tmp/env.json")
    assert resolve_store_path() == "/tmp/env.json"
    assert resolve_store_path("/tmp/flag.json") == "/tmp/flag.json"
