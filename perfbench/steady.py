#!/usr/bin/env python3
"""Steadiness report: run each workload K times with K different seeds
and print, for every end-to-end metric, the median, the quartiles and the
interquartile range as a share of the median. A metric whose spread
exceeds its BENCHMARK.json bound is flagged. Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fleet-mixed --save a.json
    python3 perfbench/steady.py --runs 10 --compare a.json

--save keeps the raw values; --compare also reports how far each median
moved from a saved set, flagging a move toward "worse" beyond the bound.
A later change uses the same report to mark a metric unresolved when its
spread is wider than the effect it claims. Exits 1 when anything is
flagged or a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys

# setup_s is measured and reported, but its spread is not held to the
# bound: only its median is (see README.md).
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {done.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"steady: {workload} seed {seed}: incorrect output or failed requests")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload (K)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--compare", help="compare medians with a file written by --save")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(w, seed, args.seconds))
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(runs[-1].items())),
                  file=sys.stderr)
        raw[w] = {name: [r[name] for r in runs] for name in metrics}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    base = json.load(open(args.compare)) if args.compare else {}

    flagged = 0
    print(f"{'workload':<12} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}  note")
    for w, vals in raw.items():
        for name, m in metrics.items():
            med, q1, q3, rel = spread(vals[name])
            notes = []
            if name not in SPREAD_EXEMPT and rel > m["bound"]:
                notes.append("SPREAD OVER BOUND")
            elif name not in SPREAD_EXEMPT and rel > m["bound"] / 3:
                notes.append("spread over bound/3")
            if w in base:
                old = statistics.median(base[w][name])
                move = (med - old) / old if old else 0.0
                worse = move if m["better"] == "lower" else -move
                notes.append(f"median moved {move:+.1%}")
                if worse > m["bound"]:
                    notes.append("WORSE BEYOND BOUND")
            flagged += any(n.isupper() for n in notes)
            print(f"{w:<12} {name:<15} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.3f} {m['bound']:>6}  {'; '.join(notes)}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
