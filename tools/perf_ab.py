#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark.

    python3 tools/perf_ab.py --a PARENT --b CHANGE --workload fuzz-observed \\
        --seed 1 --seconds 3 --pairs 10

A and B are two checkouts (the parent commit and the change). Each side
runs its own DIR/perfbench/run.py from DIR, building into
DIR/.bench_build, and the side that runs first alternates from pair to
pair so that a drift in host speed hits both equally. For every
end-to-end metric that A's BENCHMARK.json declares, it prints each
side's median and quartiles, how many pairs B won (ties count for
neither), and whether B's gain may be claimed: B wins at least nine
tenths of the pairs and the medians differ, in B's favour, by more than
the distance between A's quartiles.

It reads perfbench/ and BENCHMARK.json and writes nothing but the
build trees. Exits 1 if a run produces no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(root, workload, seed, seconds):
    """One benchmark run of checkout `root`; its parsed result line."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perf_ab: {root}: run.py exited "
                         f"{proc.returncode} without a result")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline checkout")
    ap.add_argument("--b", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    with open(os.path.join(sides["A"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    results = {"A": [], "B": []}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            r = run_side(sides[side], args.workload, args.seed, args.seconds)
            results[side].append(r)
            print(f"pair {i + 1}/{args.pairs} {side}: correct "
                  f"{r['correct']}, run_ms_p50 "
                  f"{r['metrics']['run_ms_p50']['value']:.3f}", flush=True)

    n = args.pairs
    print(f"\n{args.workload} seed {args.seed}, {n} pairs of "
          f"{args.seconds:g} s runs; A = {sides['A']}, B = {sides['B']}")
    print(f"{'metric':<20} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B/A':>6} {'B wins':>7}  gain")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in results["A"]]
        b = [r["metrics"][name]["value"] for r in results["B"]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        gap = (am - bm) if lower else (bm - am)
        gain = wins >= 0.9 * n and gap > a3 - a1
        ratio = f"{bm / am:.3f}" if am else "-"
        cell = "{:.5g} [{:.5g}, {:.5g}]".format
        print(f"{name:<20} {cell(am, a1, a3):<36} {cell(bm, b1, b3):<36} "
              f"{ratio:>6} {wins:>3}/{n:<3}  {'yes' if gain else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
