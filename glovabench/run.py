#!/usr/bin/env python3
"""Run one glovabench workload and print its metrics.

    python3 glovabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The script builds the workload
program from source (CMake, into .bench_build/glovabench), then:

  --trace 0  times set-up in several fresh processes (median), runs the
             workload once untraced in its own process, and reports every
             end-to-end metric listed in BENCHMARK.json;
  --trace 1  runs the workload untraced and then traced (two processes, same
             seed), checks that every session both runs share has the same
             (success, rl_iterations, n_simulations), and reports every
             per-layer metric, including the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code is
0 only when every output check passed; any build or run failure exits nonzero
without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_DIR = REPO_ROOT / ".bench_build" / "glovabench"
WORK_DIR = BUILD_DIR / "work"
BINARY = BUILD_DIR / "glovabench_workload"
WORKLOADS = ("table2-behavioral", "spice-signoff", "serve-jobs")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 75
COOLDOWN_S = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("glovabench: " + msg)
    sys.exit(code)


def build():
    """Configure once, then build incrementally.  Returns True when the
    workload program was (re)linked."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    before = BINARY.stat().st_mtime_ns if BINARY.exists() else None
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "glovabench_workload",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                out.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                log("\n".join(tail))
                fail(f"build failed ({' '.join(cmd[:2])}); log: {log_path}", 3)
    if not BINARY.exists():
        fail("build produced no workload program", 3)
    return BINARY.stat().st_mtime_ns != before


def child_args(workload, seed, seconds, trace, setup_only=False):
    args = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--workdir", str(WORK_DIR)]
    if setup_only:
        args.append("--setup-only")
    return args


def time_setup(workload, seed):
    """Median seconds from spawning a fresh process to its ready line."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(child_args(workload, seed, 0, False, setup_only=True),
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("set-up timed out")
        if proc.returncode != 0:
            fail(f"set-up process exited with {proc.returncode}")
        ready = [line for line in out.splitlines() if line.startswith("ready ")]
        if not ready:
            fail("set-up process printed no ready line")
        samples.append((int(ready[0].split()[1]) - t0) * 1e-9)
    return statistics.median(samples), samples


def run_child(workload, seed, seconds, trace):
    proc = subprocess.Popen(child_args(workload, seed, seconds, trace), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} run timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} run exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        fail(f"{workload} run printed no report")
    return json.loads(lines[-1])


def compare_outcomes(untraced, traced):
    """Every session both runs completed must have the same outcome (the runs
    are time-bounded, so one may have completed more sessions)."""
    a, b = untraced["outcomes"], traced["outcomes"]
    common = min(len(a), len(b))
    bad = [a[i][0] for i in range(common) if a[i] != b[i]]
    ok = common > 0 and not bad
    detail = f"{common} sessions compared" + (f"; differ: {' '.join(bad[:5])}" if bad else "")
    return {"name": "traced and untraced runs agree on every shared session", "ok": ok,
            "detail": detail}


def check_accounting(values, rounds):
    """Session wall time must be accounted for by session self time plus the
    circuits layer's covered time, to within the tracing overhead (the rest
    is session construction and result finalization)."""
    gap = values["session.wall_s"] - values["session.self_s"] - values["circuits.covered_s"]
    allowed = max(abs(values["trace.overhead_s"]) * rounds, 0.01 * values["session.wall_s"])
    return {"name": "session.self_s + circuits.covered_s accounts for session wall time",
            "ok": 0.0 <= gap <= allowed,
            "detail": f"unaccounted {gap:.4f} s, allowed {allowed:.4f} s"}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = REPO_ROOT / "BENCHMARK.json"
    if not (REPO_ROOT / "CMakeLists.txt").exists() or not (REPO_ROOT / "src").is_dir():
        fail("no GLOVA source tree next to the benchmark; run from a full checkout")
    spec = json.loads(spec_path.read_text())
    if build():
        # Let the cores settle after a full compile before timing anything.
        time.sleep(COOLDOWN_S)
    WORK_DIR.mkdir(parents=True, exist_ok=True)

    untraced = run_child(args.workload, args.seed, args.seconds, False)
    checks = [dict(c, name="untraced: " + c["name"]) for c in untraced["checks"]]
    if args.trace == 0:
        wanted = spec["end_to_end"]
        setup_s, setup_samples = time_setup(args.workload, args.seed)
        values = dict(untraced["metrics"])
        values["setup_s"] = setup_s
        report = untraced
        info = dict(untraced["info"])
        info["setup_samples_s"] = " ".join(f"{s:.4f}" for s in setup_samples)
    else:
        wanted = spec["per_layer"]
        traced = run_child(args.workload, args.seed, args.seconds, True)
        checks += [dict(c, name="traced: " + c["name"]) for c in traced["checks"]]
        if untraced["outcomes"] or traced["outcomes"]:
            checks.append(compare_outcomes(untraced, traced))
        values = dict(traced["metrics"])
        overhead = traced["metrics"]["wall_s"] - untraced["metrics"]["wall_s"]
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / untraced["metrics"]["wall_s"]
        if "session.self_s" in values:
            checks.append(check_accounting(values, traced["info"]["rounds"]))
        report = traced
        info = dict(traced["info"])

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None and args.trace == 0:
            fail(f"{args.workload} run did not measure {m['name']}")
        # A layer the workload does not exercise did no work: report 0.
        metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, v in metrics.items():
        print(f"  {name:32s} {v['value']:.6g} {v['unit']}")
    for key in sorted(info):
        print(f"  info {key} = {info[key]}")
    for c in checks:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}".rstrip())

    correct = all(c["ok"] for c in checks)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
