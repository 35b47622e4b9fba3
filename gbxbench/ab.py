#!/usr/bin/env python3
"""Interleaved A/B runs of gbxbench on two checkouts, then compare.py.

    python3 gbxbench/ab.py --parent DIR --change DIR --out DIR \\
        [--workloads a,b] [--pairs 10] [--first-seed 1]

PARENT and CHANGE are checkouts of the two commits, each holding the same
gbxbench/ (a change that claims a gain does not edit the benchmark). Pair
i runs seed FIRST_SEED + i on both sides, one after the other on the same
machine, alternating which side goes first; run length comes from
BENCHMARK.json. Each side builds into its own OUT/build-parent/ or
OUT/build-change/, whatever CARGO_TARGET_DIR says, so each side times its
own commit. Results land in OUT/parent/ and OUT/change/ as
WORKLOAD-seedN.json, and the comparison is printed at the end.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402


def side_env(out, side):
    """The environment one side's runs get: its own build directory."""
    return {**os.environ,
            "CARGO_TARGET_DIR": os.path.join(os.path.abspath(out), "build-" + side)}


def run_one(checkout, env, workload, seed, seconds, out_path):
    cmd = ["python3", "gbxbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ab.py: {workload} seed {seed} failed in {checkout}")
    with open(out_path, "w") as f:
        f.write(lines[-1] + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench_file = os.path.join(args.change, "BENCHMARK.json")
    with open(bench_file) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side in sides:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                path = os.path.join(args.out, side, f"{workload}-seed{seed}.json")
                run_one(sides[side], side_env(args.out, side), workload, seed,
                        bench["run_seconds"], path)
                print(f"pair {i + 1}/{args.pairs} {workload} {side} done",
                      flush=True)
    return compare.main([os.path.join(args.out, "parent"),
                         os.path.join(args.out, "change"),
                         "--benchmark", bench_file])


if __name__ == "__main__":
    sys.exit(main())
