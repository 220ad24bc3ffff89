#!/usr/bin/env python3
"""Self-check: run the benchmark on the same code in two sets and report each
end-to-end metric's spread and median shift against its bound.

    python3 glovabench/selfcheck.py [--first-seed 1] [--json out.json]

Run from the root of a source checkout.  For every workload in BENCHMARK.json,
each set runs `glovabench/run.py --trace 0` once per seed (ten seeds from
--first-seed).  Per set and metric it reports the median and the spread
(interquartile distance over the median, from statistics.quantiles(values,
n=4)), and the second set's median shift from the first.  A metric passes when
each set's spread and the absolute shift are within its bound.  The sets are
reported side by side; the exit code is 0 only when every metric of every
workload passes and every run was correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SEEDS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last) if last.startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write every measured value here")
    args = parser.parse_args()

    seeds = range(args.first_seed, args.first_seed + SEEDS)
    everything = {}
    ok_all = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"  {workload} set {s + 1} seed {seed}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            sets.append(runs)
        everything[workload] = sets
        print(f"\n{workload}: medians and spreads per set (bound in brackets)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(r[name] for r in runs) for runs in sets]
            spreads = [spread([r[name] for r in runs]) for runs in sets]
            shift = (medians[1] - medians[0]) / medians[0]
            ok = all(sp <= bound for sp in spreads) and abs(shift) <= bound
            ok_all = ok_all and ok
            cols = "  ".join(f"set{i + 1} med={med:.5g} spread={sp:.3f}"
                             for i, (med, sp) in enumerate(zip(medians, spreads)))
            print(f"  {'ok  ' if ok else 'FAIL'} {name:16s} [{bound:.2f}] {cols}  "
                  f"shift={shift:+.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps(everything, indent=1))
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
