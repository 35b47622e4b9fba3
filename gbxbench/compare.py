#!/usr/bin/env python3
"""Compares two sets of gbxbench results: a parent commit and a change.

    python3 gbxbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds one file per run, named WORKLOAD-seedN.json, whose
content is the result line gbxbench printed (gbxbench/ab.py writes them).
Runs of the same workload and seed on both sides form a pair.

For every end-to-end metric of BENCHMARK.json and every workload, one
verdict:

  gain        the change won at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range, in the metric's better
              direction;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  the parent's own spread (interquartile range over median)
              exceeds the bound, so a move within it cannot be told from
              noise, unless every change run beats every parent run;
  ok          none of the above.

A change that failed more operations than the parent is a problem of its
own, and none of its metrics counts as a gain. So is a metric without a
value. The exit status is 1 when any pairing regressed, any run was not
correct, or any problem was found, else 0. One row per workload is
printed, then the details.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: {seed: result}} from WORKLOAD-seedN.json files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*.json"))):
        name = os.path.basename(path)[: -len(".json")]
        workload, seed = name.rsplit("-seed", 1)
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if lines:
            runs.setdefault(workload, {})[int(seed)] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def gain(parent, change, direction):
    """The gain rule over paired runs. Returns (is_gain, wins, pairs)."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    if not pairs:
        return False, 0, 0
    q1, q3 = quartiles(list(parent))
    mp, mc = statistics.median(parent), statistics.median(change)
    moved = better(mc, mp, direction) and abs(mc - mp) > (q3 - q1)
    return wins * 10 >= 9 * len(pairs) and moved, wins, len(pairs)


def verdict(parent, change, direction, bound):
    """One metric on one workload: (verdict, detail dict)."""
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(list(parent))
    spread = (q3 - q1) / mp if mp else float("inf")
    gap = mc - mp if direction == "lower" else mp - mc
    worse = gap / mp if mp else (float("inf") if gap > 0 else 0.0)
    is_gain, wins, pairs = gain(parent, change, direction)
    detail = {"parent_median": mp, "parent_q1": q1, "parent_q3": q3,
              "change_median": mc, "worse_share": worse,
              "parent_spread": spread, "wins": wins, "pairs": pairs}
    if is_gain:
        return "gain", detail
    if spread > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return "ok", detail
        return "unresolved", detail
    if worse > bound:
        return "regressed", detail
    return "ok", detail


def compare(parent_runs, change_runs, metrics):
    """Rows of (workload, metric, verdict, detail) plus problems."""
    rows, problems = [], []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            problems.append(f"{workload}: no run with the same seed on both sides")
            continue
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            for seed in seeds:
                if not runs[seed].get("correct", False):
                    problems.append(f"{workload} seed {seed}: {side} run not correct")
        p_failed = sum(p_runs[s]["failed"] for s in seeds)
        c_failed = sum(c_runs[s]["failed"] for s in seeds)
        if c_failed > p_failed:
            problems.append(f"{workload}: change failed {c_failed} operations, "
                            f"parent {p_failed}")
        for m in metrics:
            name = m["name"]
            try:
                pv = [p_runs[s]["metrics"][name]["value"] for s in seeds]
                cv = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            except KeyError:
                problems.append(f"{workload}: metric {name} missing")
                continue
            if any(not isinstance(v, (int, float)) for v in pv + cv):
                problems.append(f"{workload}: metric {name} has no value "
                                "in some run")
                continue
            v, detail = verdict(pv, cv, m["better"], m["bound"])
            if v == "gain" and c_failed > p_failed:
                v = "ok"
                detail["note"] = "gain void: more failed operations"
            rows.append((workload, name, v, detail))
    return rows, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    rows, problems = compare(load_runs(args.parent), load_runs(args.change),
                             metrics)
    by_workload = {}
    for workload, name, v, _ in rows:
        by_workload.setdefault(workload, []).append(f"{name}={v}")
    for workload, cells in by_workload.items():
        print(f"{workload:14s} " + "  ".join(cells))
    print()
    for workload, name, v, d in rows:
        print(f"{workload:14s} {name:16s} {v:10s} parent {d['parent_median']:.6g} "
              f"[{d['parent_q1']:.6g}, {d['parent_q3']:.6g}] -> change "
              f"{d['change_median']:.6g} ({-d['worse_share']:+.1%} better), "
              f"wins {d['wins']}/{d['pairs']}, parent spread "
              f"{d['parent_spread']:.1%}{'; ' + d['note'] if 'note' in d else ''}")
    for p in problems:
        print(f"PROBLEM: {p}")
    bad = problems or any(v == "regressed" for _, _, v, _ in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
