#!/usr/bin/env python3
"""Alternating paired runs of the benchmark on two trees, summarized as JSON.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N --seconds S
           [--out BENCH_n.json]

For each workload W of CHANGE_DIR's ``BENCHMARK.json``, pair i (from 0) runs
``germbench/run.py --workload W --seed 101+i --seconds S --trace 0`` once from
each tree's root, one after the other, the side that runs first alternating
from pair to pair.  For every end-to-end metric that
CHANGE_DIR's ``BENCHMARK.json`` declares, the summary gives each side's runs,
median and quartiles (``statistics.quantiles(n=4, method='inclusive')``), the
parent's interquartile range, the relative change of the median and how
many pairs the change won.  It also records whether the two sides printed
the same output digest over the first ops in every pair, and each run's
failed-op count over those ops.  The JSON goes to ``--out``, or to stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
FIRST_SEED = 101  # above the seeds the benchmark's own tests and digests use


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its end-to-end metric values, prefix failures and digest."""
    cmd = [sys.executable, "germbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True,
                         timeout=20 * seconds + 600).stdout.splitlines()
    result = json.loads(out[-1])
    digest = next(line for line in out if line.startswith("digest ops="))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "digest": digest.rsplit("sha256=", 1)[1]}


def spread(runs: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(better: str, parent: list[float], change: list[float]) -> dict:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    return {"better": better, "parent": before, "change": after,
            "median_change_rel": (after["median"] - before["median"]) / before["median"]
            if before["median"] else None,
            "change_wins": wins, "ties": ties, "pairs": len(parent),
            "parent_iqr": before["q3"] - before["q1"],
            "parent_runs": parent, "change_runs": change}


def run_workload(trees: dict[str, str], workload: str, pairs: int, seconds: float,
                 better: dict[str, str]) -> dict:
    """The pairs of one workload, summarized for each metric named in `better`."""
    seeds = [FIRST_SEED + i for i in range(pairs)]
    first = [SIDES[i % 2] for i in range(pairs)]
    runs = {side: [] for side in SIDES}
    for seed, lead in zip(seeds, first):
        for side in (lead, "change" if lead == "parent" else "parent"):
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"{workload} seed={seed} {side}: op_p50_s="
                  f"{runs[side][-1]['metrics'].get('op_p50_s')}", file=sys.stderr)
    return {
        "seeds": seeds, "first": first,
        "digests_equal": all(p["digest"] == c["digest"]
                             for p, c in zip(runs["parent"], runs["change"])),
        "failed_prefix": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "metrics": {name: summarize(better[name],
                                    *([r["metrics"][name] for r in runs[side]]
                                      for side in SIDES))
                    for name in better}}


def revision(tree: str) -> str:
    """The short commit of a git checkout, or else the tree's directory name."""
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return os.path.basename(os.path.abspath(tree))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = {"parent": args.parent_dir, "change": args.change_dir}

    workloads = {w["name"]: run_workload(trees, w["name"], args.pairs, args.seconds, better)
                 for w in bench["workloads"]}

    summary = {
        "what": "Alternating pairs of germbench/run.py at the parent commit and at this change; "
                "each pair runs both trees on the same seed, one after the other, the side "
                "that runs first alternating from pair to pair.",
        "command": f"python3 germbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0 (run from each tree's root; end-to-end metrics from its last "
                   "stdout line)",
        "parent": revision(args.parent_dir),
        "window_s": args.seconds,
        "host": f"{os.cpu_count()}-CPU {platform.machine()}, {platform.system()} "
                f"{platform.release()}, {platform.python_implementation()} "
                f"{platform.python_version()}; times are the benchmark's host-speed-scaled "
                "seconds",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the pairs' runs",
        "workloads": workloads,
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
