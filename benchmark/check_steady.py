#!/usr/bin/env python3
"""Is the benchmark steady enough to gate on? Run from the repository root.

Runs the BENCHMARK.json command `--runs` times on each workload, each time
with another seed, workloads interleaved so slow host drift is spread over all
of them, and prints per (workload, end-to-end metric) the median, the
inter-quartile range (statistics.quantiles, n=4) as a share of the median, and
the metric's bound. With `--sets 2` it does so twice and also prints how much
worse the second set's median is than the first's. Exits non-zero if a spread
(other than that of setup_s) or a set-to-set worsening exceeds its bound, if a
run reports a failed operation, or if an exact count differs between two
traced runs of one workload and seed (`--traced`).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def measure(spec, workloads, seeds):
    values = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            values[w].append(run(spec, w, seed, 0))
            print(f"  {w} seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in values[w][-1].items()),
                  flush=True)
    return values


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--traced", action="store_true",
                    help="instead: two traced runs per workload at --first-seed; exact counts must repeat")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    if args.traced:
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
        bad = 0
        for w in workloads:
            a, b = (run(spec, w, args.first_seed, 1) for _ in range(2))
            for m in spec["per_layer"]:
                n = m["name"]
                print(f"{w:<18} {n:<46} {a[n]:>16.6g} {b[n]:>16.6g} {m['unit']}")
            differ = [n for n in counts if a[n] != b[n]]
            if differ:
                print(f"{w}: exact counts differ between two traced runs: {differ}")
                bad += 1
        sys.exit(1 if bad else 0)

    sets = []
    for s in range(args.sets):
        seeds = [args.first_seed + s * args.runs + i for i in range(args.runs)]
        print(f"set {s + 1}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        sets.append(measure(spec, workloads, seeds))

    bad = 0
    print(f"\n{'workload':<18} {'metric':<14} {'unit':<5} {'better':<6} {'n':>3} {'median':>14} "
          f"{'iqr/median':>10} {'bound':>6}" + (f" {'median 2':>14} {'worse by':>9}" if args.sets == 2 else ""))
    for w in workloads:
        for m in spec["end_to_end"]:
            xs = [r[m["name"]] for r in sets[0][w]]
            med, sp = statistics.median(xs), spread(xs)
            over = sp > m["bound"] and m["name"] != "setup_s"
            line = (f"{w:<18} {m['name']:<14} {m['unit']:<5} {m['better']:<6} {len(xs):>3} {med:>14.6g} "
                    f"{sp:>10.4f} {m['bound']:>6}")
            if args.sets == 2:
                ys = [r[m["name"]] for r in sets[1][w]]
                med2 = statistics.median(ys)
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                over = over or worse > m["bound"] or (spread(ys) > m["bound"] and m["name"] != "setup_s")
                line += f" {med2:>14.6g} {worse:>+9.4f}"
            print(line + ("  OVER" if over else ""))
            bad += over
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
