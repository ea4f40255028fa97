#!/usr/bin/env python3
"""eszk benchmark: four closed-loop workloads over the public API and CLI.

    python3 perfbench/run.py --workload decide --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --smoke               # tiny sizes, both modes, asserts

Run from anywhere; the program under test is imported from ``src/`` of
the checkout that holds this file, never from an installed copy.

A run of one workload:

1. times ``SETUP_PROBES`` fresh child processes from spawn to the moment
   they would start the first timed op (import ``eszk``, build the
   inputs, write the input files, warm up); ``setup_s`` is their median;
2. builds the same inputs itself and repeats the workload's fixed op
   list (a *pass*) while the next pass still fits in ``--seconds``.
   One caller, closed loop: each op starts when the previous returns;
3. checks every answer of the first pass, and that later passes give
   the same answers; with the default seed, the answers' digest must
   equal the one in ``digests.json``;
4. reports each timing as its fastest over the passes: an op's latency
   is its fastest run (a quick op of a workload without side effects is
   also repeated at once, see ``Recorder``), wall_s is the sum of these
   over the op list, and cpu_s the sum of each op's least CPU time.
   The ops are deterministic and nothing in ``eszk`` caches between
   calls, so every pass does the same work; other tenants of a shared
   host only ever add time, in stretches of seconds, and the fastest
   repeat is the estimate of the op's cost they disturb least;
5. launches ``python -m eszk.cli bounds`` once untimed, then
   ``COLD_STARTS`` times, one at a time, a few before the first pass and
   after each pass and the rest at the end, for ``cold_start_ms``.

With ``--trace 1`` the run instead makes untraced passes for half of
``--seconds``, then the same number of passes with spans recorded
(``tracing.py``); it reports the per-layer metrics of the last traced
pass and the tracing overhead (fastest traced over fastest untraced pass).

Every run works in a temporary directory under ``perfbench/out/`` with
``ESZK_STORE`` unset and an explicit ``--store``, and removes it at the
end.  The spans of a traced run stay in ``perfbench/out/``.  The last
line of standard output is the JSON result; the lines before it hold the
run record, the input census and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, install, layer_metrics, tail, uninstall
from workloads import WORKLOADS, Err, jsonable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_PROBES = 5
COLD_STARTS = 15
COLD_BATCH = 3
SMOKE_PROBES = 2
REPEAT_S = 0.02
REPEAT_MAX = 20


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_eszk():
    """Import eszk from this checkout's src/, or exit non-zero without a result."""
    if not (SRC / "eszk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eszk sources under {SRC}; nothing to measure")
    sys.path.insert(0, str(SRC))
    import eszk

    if Path(eszk.__file__).resolve().parent != SRC / "eszk":
        sys.exit(f"perfbench: imported eszk from {eszk.__file__}, not from {SRC}")
    return eszk


# ------------------------------------------------------------------ timing


class Recorder:
    """Times each op of a pass; an exception becomes an Err answer.

    With ``repeat``, an op is called again at once while its calls so far
    and one more fit in ``REPEAT_S``, at most ``REPEAT_MAX`` times; its
    latency is its fastest call and its CPU time the least of its calls'.  A sub-millisecond op timed once reads
    whatever the shared host did in that instant; its fastest of a few
    dozen calls over a run is its cost.  Ops slower than ``REPEAT_S / 2``
    run once.
    """

    def __init__(self, tracer: Tracer | None = None, repeat: bool = False):
        self.lat: list[float] = []
        self.cpu: list[float] = []
        self.tracer = tracer
        self.repeat = repeat

    def op(self, fn, *args):
        if self.tracer is not None:
            self.tracer.current_op = len(self.lat)
        best = best_cpu = spent = math.inf
        for runs in range(1, REPEAT_MAX + 1):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # an op that raises is a failed op, the run goes on
                out = Err(exc)
            dt = time.perf_counter() - t0
            best_cpu = min(best_cpu, time.process_time() - c0)
            best = min(best, dt)
            spent = dt if runs == 1 else spent + dt
            if not self.repeat or isinstance(out, Err) or spent + best > REPEAT_S:
                break
        self.lat.append(best)
        self.cpu.append(best_cpu)
        return out


def timed_pass(wl, tracer=None, repeat=False):
    rec = Recorder(tracer, repeat)
    t0 = time.perf_counter()
    answers = wl.run_pass(rec.op)
    return {"answers": answers, "lat": rec.lat, "cpu": rec.cpu, "wall": time.perf_counter() - t0}


def digest(answers) -> str:
    text = json.dumps(jsonable(answers), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def setup_probe_s(args) -> float:
    """Seconds from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    t0 = time.monotonic()  # CLOCK_MONOTONIC: the same clock in parent and child
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if res.returncode != 0 or not res.stdout.startswith("ready "):
        raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
    return float(res.stdout.split()[1]) - t0


def cold_starts_ms(workdir: Path, count: int):
    """Wall ms of sequential `python -m eszk.cli bounds` launches, and failures."""
    env = dict(os.environ)
    env.pop("ESZK_STORE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "eszk.cli", "bounds", "-k", "4", "--store", "cold-store.json"]
    times, failed = [], 0
    for _ in range(count):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
        try:
            ok = res.returncode == 0 and json.loads(res.stdout)["result"]["lower"] == 8
        except (json.JSONDecodeError, KeyError, TypeError):
            ok = False
        failed += not ok
    return times, failed


# ------------------------------------------------------------------ record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eszk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ one workload


def compare_passes(first, later):
    """Indices of ops whose answer differs from the first pass."""
    a, b = jsonable(first), jsonable(later)
    if len(a) != len(b):
        return list(range(max(len(a), len(b))))
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


def run_workload(args) -> int:
    E = import_eszk()
    OUT.mkdir(exist_ok=True)
    os.environ.pop("ESZK_STORE", None)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    home = os.getcwd()
    os.chdir(workdir)
    try:
        if args.setup_probe:
            wl = WORKLOADS[args.workload](E, args.seed, workdir, args.smoke)
            wl.warm_up()
            print("ready", time.monotonic(), flush=True)
            return 0
        return measure(E, args, workdir)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(E, args, workdir: Path) -> int:
    spec = load_spec()
    probes = SMOKE_PROBES if args.smoke else SETUP_PROBES
    setups = [setup_probe_s(args) for _ in range(probes)] if not args.trace else []
    n_cold = 0 if args.trace else SMOKE_PROBES if args.smoke else COLD_STARTS
    colds: list[float] = []
    cold_failed = 0

    def cold_starts(count):
        # A few launches before the first pass and after each pass, the rest
        # at the end: they sample the machine at several moments of the run.
        nonlocal cold_failed
        times, failed = cold_starts_ms(workdir, min(count, n_cold - len(colds)))
        colds.extend(times)
        cold_failed += failed

    if n_cold:
        cold_starts_ms(workdir, 1)  # untimed warm-up launch
    cold_starts(COLD_BATCH)

    wl = WORKLOADS[args.workload](E, args.seed, workdir, args.smoke)
    wl.warm_up()

    budget = args.seconds / 2 if args.trace else args.seconds
    failures: dict[tuple, str] = {}  # (pass, op index) -> first message for that op
    passes = []
    start = time.perf_counter()
    # Repeats only where ops have no side effects, and not in a traced run,
    # whose spans count calls and whose overhead compares single calls.
    repeat = wl.PURE and not args.trace
    while True:
        p = timed_pass(wl, repeat=repeat)
        if not passes:
            found = wl.check(p["answers"])
        else:
            found = [(i, "answer differs from the first pass")
                     for i in compare_passes(passes[0]["answers"], p["answers"])]
        for i, msg in found:
            failures.setdefault((len(passes), i), msg)
        if passes:
            del p["answers"]  # checked; only the first pass's answers are kept
        passes.append(p)
        cold_starts(COLD_BATCH)
        if time.perf_counter() - start + p["wall"] > budget:
            break
    first = passes[0]["answers"]
    answers_digest = digest(first)
    key = f"{args.workload}/{'smoke' if args.smoke else 'full'}"
    recorded = json.loads((HERE / "digests.json").read_text()).get(key)
    if args.seed != DEFAULT_SEED:
        digest_check = "not recorded for this seed"
    elif answers_digest == recorded:
        digest_check = "match"
    else:
        digest_check = f"MISMATCH (recorded {recorded})"
        failures[("digest", 0)] = "answer digest differs from the recorded one"
    attempted = sum(len(p["lat"]) for p in passes)

    traced = []
    if args.trace:
        tracer = Tracer()
        undo = install(tracer)
        try:
            for _ in passes:
                tracer.reset()
                p = timed_pass(wl, tracer)
                for i in compare_passes(first, p["answers"]):
                    failures.setdefault((f"traced {len(traced)}", i),
                                        "traced answer differs from the untraced one")
                del p["answers"]
                traced.append(p)
        finally:
            uninstall(undo)
        attempted += sum(len(p["lat"]) for p in traced)
        tracer.write_csv(OUT / f"spans-{args.workload}.csv")
        metrics = layer_metrics(tracer, getattr(wl, "store_bytes", lambda: 0)())
        metrics["trace.overhead_ratio"] = (min(p["wall"] for p in traced)
                                           / min(p["wall"] for p in passes))
        names = spec["per_layer"]
    else:
        cold_starts(n_cold)
        attempted += len(colds)
        for i in range(cold_failed):
            failures[("cold start", i)] = "bounds command failed"
        # Fastest over passes (step 4 of the module docstring); the latency
        # metrics describe one pass however many passes fit in the run.
        per_op = [min(lat) for lat in zip(*(p["lat"] for p in passes))]
        wall = sum(per_op)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": sum(min(cpu) for cpu in zip(*(p["cpu"] for p in passes))),
            "ops_per_s": len(per_op) / wall,
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": tail(per_op) * 1e3,
            "ok_ratio": 1 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cold_start_ms": statistics.median(colds),
        }
        names = spec["end_to_end"]

    ops = len(passes[0]["lat"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "answers_digest": answers_digest, "digest_check": digest_check,
        "samples": {
            "setup_s": len(setups), "cold_start_ms": len(colds),
            "passes": len(passes), "traced_passes": len(traced), "ops_per_pass": ops,
            "op_latency": f"{ops} per-op fastest times over {len(passes)} passes",
            "op_tail_quantile": round((ops - 10) / ops, 4) if ops > 10 else 1.0,
        },
    }
    print("record", json.dumps(record))
    print("census", json.dumps(wl.census(first)))
    fail_ratio = len(failures) / attempted
    print(f"metric fail_ratio {fail_ratio!r} ratio ({len(failures)} of {attempted} ops)")
    for (pass_no, j), msg in list(failures.items())[:10]:
        print(f"failure in pass {pass_no}, op {j}: {msg}", file=sys.stderr)

    over = f"over {len(passes)} passes"
    notes = {
        "setup_s": f"(median of {len(setups)} fresh processes)",
        "wall_s": f"(sum of {ops} per-op fastest times {over})",
        "cpu_s": f"(sum of {ops} per-op least CPU times {over})",
        "op_p50_ms": f"(median of {ops} per-op fastest times {over})",
        "op_tail_ms": f"(quantile {record['samples']['op_tail_quantile']} of {ops} per-op fastest times "
                      f"{over})",
        "cold_start_ms": f"(median of {len(colds)} launches)",
        "trace.overhead_ratio": f"(fastest traced pass / fastest untraced pass, {len(traced)} each)",
    }
    out = {}
    for m in names:
        if m["name"] not in metrics:
            sys.exit(f"perfbench: metric {m['name']} named in BENCHMARK.json was not measured")
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value!r} {m['unit']} {notes.get(m['name'], '')}".rstrip())
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


# ------------------------------------------------------------------ all / smoke


def run_children(args, trace) -> list[dict]:
    results = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.smoke:
            cmd.append("--smoke")
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {res.returncode}")
        results.append(dict(json.loads(res.stdout.splitlines()[-1]), workload=name))
    return results


def run_all(args) -> int:
    spec = load_spec()
    ok = True
    for trace in (0, 1) if args.smoke else (args.trace,):
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        for r in run_children(args, trace):
            missing = [n for n in names if n not in r["metrics"]]
            good = r["correct"] and r["failed"] == 0 and not missing
            ok &= good
            print(f"summary {r['workload']} trace={trace} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} missing={missing or 'none'}")
    print("all workloads passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; with --workload all, run both modes and assert")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke and args.workload == "all":
        args.seconds = min(args.seconds, 1.0)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
