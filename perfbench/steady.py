#!/usr/bin/env python3
"""Steadiness self-check: run sets of one workload and compare them.

Run from the repository root:

    python3 perfbench/steady.py --workload figures-quick --runs 10 --sets 2

Each set runs the workload once per seed (seeds 1..runs, the same seeds in
every set) with BENCHMARK.json's run length. With --save the runs are kept
in a file; --load compares sets saved earlier (say, one set now and another
an hour later) without running anything. For every end-to-end metric it
prints each set's median, quartiles (Python's statistics.quantiles, n=4) and
spread (interquartile distance over the median), the metric's bound, and the
drift of each later set's median from the first. A spread beyond its bound
is marked "!", and so is a drift beyond its bound in the worse direction. It
exits 1 when any spread exceeds its bound, when a median drifts by more than
its bound in the worse direction, or when the share of failed operations
differs between sets.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: correct=false")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--save", help="also write every run's result JSON to this file")
    ap.add_argument("--load", nargs="+", metavar="FILE",
                    help="compare sets saved earlier with --save instead of running")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    sets = []
    for path in args.load or []:
        with open(path) as f:
            saved = json.load(f)
        if saved["workload"] != args.workload:
            raise SystemExit(f"{path} holds {saved['workload']}, not {args.workload}")
        if saved["seconds"] != seconds:
            raise SystemExit(f"{path} ran {saved['seconds']} s, not run_seconds {seconds}")
        sets.extend(saved["sets"])
    for s in range(0 if args.load else args.sets):
        results = []
        for i in range(args.runs):
            seed = 1 + i
            results.append(run_once(args.workload, seed, seconds))
            print(f"set {s + 1} run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)
        sets.append(results)
    if args.save and not args.load:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "sets": sets}, f)

    ok = True
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
    print(f"workload {args.workload}: {len(sets)} set(s) x {len(sets[0])} runs of {seconds} s; "
          f"failed share per set {shares}")
    if len(set(shares)) > 1:
        ok = False
    header = f"{'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'drift':>8}"
    print(header)
    for m in metrics:
        name, bound = m["name"], m["bound"]
        first = None
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            drift = ""
            if first is None:
                first = med
            else:
                d = (med - first) / first
                worse = d if m["better"] == "lower" else -d
                drift = f"{d:+.3f}"
                if worse > bound:
                    ok = False
                    drift += "!"
            flag = ""
            if spread > bound:
                ok = False
                flag = "!"
            print(f"{name:<12} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f}{flag or ' '} {bound:>6} {drift:>8}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
