import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eszk
from eszk import Polygon, is_convex, parse_polygon
from eszk.cli import main, render_svg
from eszk.store import add_certificate, load_certificates
from eszk.extremal import SearchConfig, SearchResult, verify_certificate, SEVEN_GON_CERTIFICATE
from conftest import parabola_polygon

SEVEN_JSON = '{"vertices": [[-13,0],[15,0],[0,16],[18,39],[27,-15],[10,20],[16,30]]}'
SQUARE_TEXT = "0 0\n1 0\n1 1\n0 1\n"


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    # keep any default-path store writes inside the test sandbox
    monkeypatch.setenv("ESZK_STORE", str(tmp_path / "default-store.json"))


@pytest.fixture
def seven_file(tmp_path):
    path = tmp_path / "p7.json"
    path.write_text(SEVEN_JSON)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(out):
    data = json.loads(out)
    assert set(data) == {"command", "input_digest", "result", "timing_ms"}
    return data


def test_classify(capsys, seven_file):
    code, out, _ = run(capsys, ["classify", seven_file])
    assert code == 0
    rep = report_of(out)
    assert rep["result"] == {"n": 7, "strict": True, "ordinary": True, "dimension": 2}


def test_check_convex_exit_codes(capsys, square_file, seven_file):
    code, out, _ = run(capsys, ["check", square_file])
    assert code == 0 and report_of(out)["result"]["convex"] is True
    code, out, _ = run(capsys, ["check", seven_file])
    assert code == 1
    rep = report_of(out)
    assert rep["result"]["convex"] is False and rep["result"]["witness"]


def test_check_matches_library(capsys, seven_file):
    _, out, _ = run(capsys, ["check", seven_file])
    verdict = is_convex(parse_polygon(SEVEN_JSON))
    assert report_of(out)["result"]["convex"] == verdict.convex
    assert report_of(out)["result"]["method"] == verdict.method


def test_pre_convex(capsys, tmp_path):
    path = tmp_path / "scrambled.txt"
    path.write_text("0 0\n1 1\n1 0\n0 1\n")
    code, out, _ = run(capsys, ["pre-convex", str(path)])
    assert code == 0 and report_of(out)["result"]["pre_convex"] is True
    bad = tmp_path / "interior.txt"
    bad.write_text("0 0\n4 0\n1 1\n0 4\n")
    code, out, _ = run(capsys, ["pre-convex", str(bad)])
    assert code == 1


def test_permutations(capsys, square_file):
    code, out, _ = run(capsys, ["permutations", square_file])
    assert code == 0
    result = report_of(out)["result"]
    assert result["count"] == 8 and len(result["permutations"]) == 8


def test_permutations_text_format_one_line(capsys, square_file):
    code, out, _ = run(capsys, ["--format", "text", "permutations", square_file])
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("permutations: ")]
    assert len(lines) == 1 and lines[0].startswith("permutations: [[0, 1, 2, 3], ")
    assert "count: 8" in out.splitlines()


def test_count_subgons(capsys, seven_file):
    code, out, _ = run(capsys, ["count-subgons", seven_file, "-k", "4"])
    assert code == 0
    assert report_of(out)["result"] == {"k": 4, "count": 0, "total": 35}


def test_find_subgon_exit_codes(capsys, seven_file, square_file):
    code, out, _ = run(capsys, ["find-subgon", seven_file, "-k", "4"])
    assert code == 1 and report_of(out)["result"]["found"] is False
    code, out, _ = run(capsys, ["find-subgon", square_file, "-k", "4"])
    assert code == 0 and report_of(out)["result"]["indices"] == [0, 1, 2, 3]


def test_verify_cert_creates_and_seeds_store(capsys, seven_file, tmp_path):
    store = tmp_path / "store.json"
    code, out, _ = run(capsys, ["verify-cert", seven_file, "-k", "4", "--store", str(store)])
    assert code == 0
    result = report_of(out)["result"]
    assert result["verified"] is True and result["claimed_bound"] == 8
    certs = load_certificates(str(store))
    assert len(certs) == 1  # the built-in seed record is this same 7-gon
    assert certs[0].verified


def test_verify_cert_failure(capsys, square_file, tmp_path):
    store = tmp_path / "store.json"
    code, out, _ = run(capsys, ["verify-cert", square_file, "-k", "4", "--store", str(store)])
    assert code == 1
    assert not store.exists()  # nothing to record


def test_verify_cert_rejects_store_record_without_k(capsys, seven_file, tmp_path):
    store = tmp_path / "store.json"
    record = verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict()
    del record["k"]
    store.write_text(json.dumps({"version": 1, "certificates": [record]}))
    code, out, err = run(capsys, ["verify-cert", seven_file, "-k", "4", "--store", str(store)])
    assert code == 2 and out == ""
    assert f"store file {store}, certificates[0]: " in err


def test_check_strictly_convex_1000_gon(capsys, tmp_path):
    path = tmp_path / "p1000.txt"
    path.write_text("".join(f"{v.x} {v.y}\n" for v in parabola_polygon(1000)))
    code, out, _ = run(capsys, ["check", str(path)])
    assert code == 0
    assert report_of(out)["result"] == {"convex": True, "method": "sign_test", "witness": None}


def test_bounds(capsys, tmp_path):
    code, out, _ = run(capsys, ["bounds", "-k", "4", "--store", str(tmp_path / "none.json")])
    assert code == 0
    result = report_of(out)["result"]
    assert (result["lower"], result["upper"]) == (8, 13)
    code, out, _ = run(capsys, ["bounds", "-k", "5", "--store", str(tmp_path / "none.json")])
    result = report_of(out)["result"]
    assert result["upper"] is None and result["symbolic_upper"] == "R(5,13;4)"


def test_bounds_env_store(capsys, tmp_path, monkeypatch):
    store = tmp_path / "env-store.json"
    monkeypatch.setenv("ESZK_STORE", str(store))
    cert = verify_certificate(SEVEN_GON_CERTIFICATE, 4)
    added = add_certificate(cert)  # resolves the path from the environment
    assert store.exists()
    assert not added  # identical to the seed record written on creation
    code, out, _ = run(capsys, ["bounds", "-k", "4"])
    assert code == 0 and report_of(out)["result"]["lower"] == 8


def test_bounds_do_not_fold_a_forged_record(capsys, tmp_path):
    # every sub-5-gon of the parabola 10-gon is convex, whatever the record says
    store = tmp_path / "forged.json"
    record = {"k": 5, "vertices": [[x, x * x] for x in range(10)], "claimed_bound": 11,
              "verified": True, "subgon_total": 252}
    store.write_text(json.dumps({"version": 1, "certificates": [record]}))
    code, out, _ = run(capsys, ["bounds", "-k", "5", "--store", str(store)])
    assert code == 0
    result = report_of(out)["result"]
    assert result["lower"] == 5
    assert result["lower_provenance"] == (
        "trivial: a 4-gon has no sub-5-gon; not folded: certificates[0] (10-gon) has a convex "
        "sub-5-gon"
    )


def test_bounds_rejects_record_with_k_above_n(capsys, tmp_path):
    store = tmp_path / "forged.json"
    record = {"k": 5, "vertices": [[0, 0], [1, 0], [0, 1]], "claimed_bound": 99,
              "verified": True, "subgon_total": 0}
    store.write_text(json.dumps({"version": 1, "certificates": [record]}))
    code, out, err = run(capsys, ["bounds", "-k", "5", "--store", str(store)])
    assert code == 2 and out == ""
    assert "k = 5 exceeds n = 3" in err


def test_bounds_reports_position_of_malformed_record(capsys, tmp_path):
    store = tmp_path / "typed.json"
    record = dict(verify_certificate(SEVEN_GON_CERTIFICATE, 4).to_dict(), verified="false")
    store.write_text(json.dumps({"version": 1, "certificates": [record]}))
    code, out, err = run(capsys, ["bounds", "-k", "4", "--store", str(store)])
    assert code == 2 and out == ""
    assert f"store file {store}, certificates[0]: " in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-cert", "{seven}", "-k", "4", "--store", "{tmp}/none/x.json"],
         "cannot write {tmp}/none/x.json: No such file or directory"),
        (["verify-cert", "{seven}", "-k", "4", "--store", "{tmp}"], "cannot read {tmp}: "),
        (["bounds", "-k", "4", "--store", "{tmp}"], "cannot read {tmp}: "),
        (["bounds", "-k", "4", "--store", "{tmp}/latin1.json"], "cannot read {tmp}/latin1.json: "),
        (["classify", "{seven}", "--svg", "{tmp}/none/a.svg"],
         "cannot write {tmp}/none/a.svg: No such file or directory"),
    ],
    ids=["store-in-missing-dir", "verify-store-is-dir", "bounds-store-is-dir",
         "store-not-utf8", "svg-in-missing-dir"],
)
def test_store_and_svg_io_errors_exit_2(capsys, tmp_path, seven_file, argv, message):
    # exit 1 means "not verified", so an I/O failure must not crash with it
    (tmp_path / "latin1.json").write_bytes('{"certificates": ["\xe9"]}'.encode("latin-1"))
    names = {"seven": seven_file, "tmp": str(tmp_path)}
    code, out, err = run(capsys, [a.format(**names) for a in argv])
    assert code == 2
    assert out == ""
    assert message.format(**names) in err
    assert "Traceback" not in err


def test_search_cli_small(capsys, tmp_path):
    argv = [
        "search", "-n", "5", "-k", "4", "--seed", "1",
        "--iters", "300", "--restarts", "6",
        "--store", str(tmp_path / "store.json"),
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    result = report_of(out)["result"]
    assert len(result["best"]["vertices"]) == 5
    if result["objective"] == 0:
        assert result["certificate"]["verified"] is True


def test_search_cli_defaults_are_search_config_defaults(capsys, monkeypatch):
    seen = []

    def fake_search(cfg, workers):
        seen.append(cfg)
        return SearchResult(best=SEVEN_GON_CERTIFICATE, objective=1, certificate=None)

    monkeypatch.setattr(eszk.cli, "search_extremal", fake_search)
    code, _, _ = run(capsys, ["search", "-n", "7", "-k", "4", "--seed", "1"])
    assert code == 0
    assert seen == [SearchConfig(n=7, k=4, seed=1)]


def test_search_cli_parallel_identical(capsys, tmp_path):
    base = ["search", "-n", "5", "-k", "4", "--seed", "9", "--iters", "200", "--restarts", "4"]
    _, out_serial, _ = run(capsys, base)
    _, out_parallel, _ = run(capsys, base + ["--parallel", "2"])
    assert report_of(out_serial)["result"] == report_of(out_parallel)["result"]


def test_grow_cli(capsys, tmp_path, seven_gon):
    sub = Polygon(seven_gon.vertices[i] for i in (0, 1, 2, 3, 4))
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"vertices": [[v.x, v.y] for v in sub.vertices]}))
    code, out, _ = run(capsys, ["grow", str(path), "-k", "4", "--seed", "4"])
    result = report_of(out)["result"]
    if code == 0:
        assert result["grown"] is True
        assert result["certificate"]["verified"] is True
        assert len(result["polygon"]["vertices"]) == 6
    else:
        assert code == 1 and result["grown"] is False


def test_grow_cli_non_strict_base_exit_1(capsys, tmp_path):
    path = tmp_path / "non_strict.txt"
    path.write_text("0 0\n2 0\n1 0\n0 1\n")
    code, out, _ = run(capsys, ["grow", str(path), "-k", "4", "--seed", "1"])
    assert code == 1 and report_of(out)["result"]["grown"] is False


def test_grow_cli_precondition_exit_2(capsys, square_file):
    code, _, err = run(capsys, ["grow", square_file, "-k", "4", "--seed", "1"])
    assert code == 2 and "certificate" in err


def test_text_format(capsys, square_file):
    code, out, _ = run(capsys, ["check", square_file, "--format", "text"])
    assert code == 0
    assert "command: check" in out and "convex: true" in out


def test_svg_ignored_without_polygon(capsys, tmp_path):
    svg = tmp_path / "b.svg"
    store = tmp_path / "s.json"
    code, out, err = run(capsys, ["--svg", str(svg), "bounds", "-k", "4", "--store", str(store)])
    assert code == 0 and report_of(out)["result"]["lower"] == 8
    assert "--svg ignored" in err
    assert not svg.exists()


def test_svg_output(capsys, seven_file, tmp_path):
    svg = tmp_path / "p7.svg"
    code, _, _ = run(capsys, ["check", seven_file, "--svg", str(svg)])
    assert code == 1
    content = svg.read_text()
    assert content.startswith("<svg") and "stroke-dasharray" in content


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_format_before_or_after_command(capsys, square_file, before):
    flag = ["--format", "text"]
    argv = flag + ["classify", square_file] if before else ["classify", square_file] + flag
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("command: classify\n") and "strict: true" in out


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_svg_before_or_after_command(capsys, square_file, tmp_path, before):
    svg = tmp_path / "sq.svg"
    flag = ["--svg", str(svg)]
    argv = flag + ["classify", square_file] if before else ["classify", square_file] + flag
    code, out, _ = run(capsys, argv)
    assert code == 0 and report_of(out)["command"] == "classify"
    assert svg.read_text().startswith("<svg")


def test_global_flag_after_command_wins(capsys, square_file, tmp_path):
    code, out, _ = run(capsys, ["--format", "text", "check", square_file, "--format", "json"])
    assert code == 0 and report_of(out)["result"]["convex"] is True
    early, late = tmp_path / "early.svg", tmp_path / "late.svg"
    code, _, _ = run(capsys, ["--svg", str(early), "check", square_file, "--svg", str(late)])
    assert code == 0 and late.exists() and not early.exists()


def _alone(argv, cwd):
    """Exit code, stdout and stderr of one call in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(eszk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "eszk.cli", *argv], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=60)
    return res.returncode, res.stdout, res.stderr


def _untimed(result):
    code, out, err = result
    return code, [line for line in out.splitlines() if "timing_ms" not in line], err


@pytest.mark.parametrize(
    "first, second",
    [
        (["--format", "text", "check", "{square}"], ["check", "{square}"]),
        (["check", "{missing}"], ["check", "{square}"]),
        (["check"], ["--format", "text", "check", "{square}"]),
        (["--svg", "{svg}", "check", "{seven}"], ["check", "{seven}"]),
    ],
    ids=["format-then-default", "input-error-then-good", "usage-error-then-good",
         "svg-then-none"],
)
def test_calls_in_sequence_match_calls_alone(capsys, tmp_path, square_file, seven_file,
                                             first, second):
    # the parser is built once per process; no call may leak into the next
    names = {"square": square_file, "seven": seven_file,
             "missing": str(tmp_path / "missing.txt"), "svg": str(tmp_path / "out.svg")}
    first, second = ([a.format(**names) for a in argv] for argv in (first, second))
    svg = tmp_path / "out.svg"
    in_sequence = [_untimed(run(capsys, first))]
    svg.unlink(missing_ok=True)
    in_sequence.append(_untimed(run(capsys, second)))
    assert not svg.exists()
    assert in_sequence == [_untimed(_alone(argv, tmp_path)) for argv in (first, second)]


@pytest.mark.parametrize(
    "name",
    ["classify", "check", "pre-convex", "permutations", "count-subgons", "find-subgon",
     "verify-cert", "bounds", "search", "grow"],
)
def test_subcommand_help_exits_zero(capsys, name):
    assert main([name, "--help"]) == 0
    assert f"usage: eszk {name}" in capsys.readouterr().out


def test_svg_single_point(tmp_path):
    # degenerate extent must not divide by zero
    out = render_svg(Polygon([(5, 5)]))
    assert "<svg" in out


def test_usage_errors(capsys, tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["check"]) == 2
    assert main(["check", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [[0.5, 1]]}')
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()


def test_capability_exit_3(capsys, tmp_path):
    path = tmp_path / "many.txt"
    # strict 30-gon on a parabola; C(30, 15) is far over the budget
    path.write_text("".join(f"{i} {i * i}\n" for i in range(30)))
    code, _, err = run(capsys, ["count-subgons", str(path), "-k", "15"])
    assert code == 3 and "budget" in err


def test_non_strict_count_capability_exit_3(capsys, tmp_path):
    # the same 30-gon with its last vertex a copy of the first
    path = tmp_path / "many.txt"
    path.write_text("".join(f"{i} {i * i}\n" for i in range(29)) + "0 0\n")
    code, _, err = run(capsys, ["count-subgons", str(path), "-k", "15"])
    assert code == 3 and "budget" in err


def test_permutations_capability_exit_3(capsys, tmp_path):
    path = tmp_path / "nine.txt"
    path.write_text("".join(f"{i} {i * i}\n" for i in range(9)))
    code, _, _ = run(capsys, ["permutations", str(path)])
    assert code == 3


def test_search_capability_exit_3(capsys):
    # the counter's masks over C(30, 10) ~ 3e7 subsets are far past the
    # size cap: refused before any restart runs
    start = time.perf_counter()
    code, out, err = run(capsys, ["search", "-n", "30", "-k", "10", "--seed", "1"])
    assert code == 3 and "tables" in err and out == ""
    assert time.perf_counter() - start < 1.0


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
