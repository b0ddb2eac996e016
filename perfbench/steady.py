#!/usr/bin/env python3
"""Steadiness report: runs one workload N times and shows run-to-run spread.

    python3 perfbench/steady.py --workload tpch-sf1 --runs 10
    python3 perfbench/steady.py --workload tpch-sf1 --runs 10 --compare A.json

Each run uses its own seed (--first-seed, +1 per run). For every end-to-end
metric in BENCHMARK.json the report prints the median, the quartiles (as
Python's statistics.quantiles(n=4) gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound.
Per run it prints exec.seq_read_gbps and the load average at start and end,
so that a noisy-host run can be told apart from a real change. The raw
results are saved (--save, default .bench_build/steady/<workload>.json); with
--compare, each median is also set against the saved median of an earlier
set, as a share of that median, next to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"run with seed {seed} failed ({done.returncode})")
    fingerprint, detail = {}, {}
    for line in lines:
        if line.startswith("# fingerprint "):
            fingerprint = json.loads(line[len("# fingerprint "):])
        elif line.startswith("# metric "):
            _, _, name, value, _ = line.split(" ", 4)
            detail[name] = float(value)
    result = json.loads(lines[-1])
    return {"seed": seed, "fingerprint": fingerprint, "result": result,
            "detail": detail}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}

    runs = []
    print(f"{'seed':>5} {'seq_read_gbps':>13} {'load start':>10} {'load end':>9}"
          f" {'correct':>7}")
    for i in range(args.runs):
        run = run_once(args.workload, args.first_seed + i, seconds, 0)
        fp = run["fingerprint"]
        print(f"{run['seed']:>5} {fp.get('seq_read_gbps', 0):>13.2f}"
              f" {fp.get('loadavg_start', '?').split()[0]:>10}"
              f" {fp.get('loadavg_end', '?').split()[0]:>9}"
              f" {str(run['result']['correct']):>7}", flush=True)
        runs.append(run)

    save = args.save or os.path.join(ROOT, ".bench_build", "steady",
                                     f"{args.workload}.json")
    os.makedirs(os.path.dirname(save), exist_ok=True)
    with open(save, "w") as f:
        json.dump(runs, f, indent=1)
    before = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
        for name in bounds:
            before[name] = statistics.median(
                r["result"]["metrics"][name]["value"] for r in earlier)

    print(f"\n{args.workload}: {len(runs)} runs, {seconds} s each; raw runs in {save}")
    print(f"{'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
          f" {'bound':>6}  verdict" + ("   shift vs --compare" if before else ""))
    worst = "steady"
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3, rel = spread(values)
        if rel > bound:
            verdict, worst = "OVER BOUND", "over bound"
        elif rel > bound / 3:
            verdict = "over bound/3"
            worst = "over bound/3" if worst == "steady" else worst
        else:
            verdict = "ok"
        line = (f"{name:<16} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} {rel:>7.3f}"
                f" {bound:>6.2f}  {verdict:<12}")
        if name in before:
            worse = (before[name] - med if name in higher else med - before[name])
            shift = worse / before[name]
            line += f"  {shift:+.3f} worse" + (" OVER BOUND" if shift > bound else "")
        print(line)
    print(f"\nverdict: {worst}")


if __name__ == "__main__":
    main()
