"""Alternating benchmark pairs of two arwmass source trees.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload slice-mass \\
        --pairs 10 --seconds 12 --out BENCH_9.json

Runs ``perfbench/run.py --trace 0`` once from each tree per pair, in that
tree's directory and with ``PYTHONPATH`` unset, so that each side imports
its own ``src/``.  Pair i (from 0) uses seed 1 + i on both sides, and the
side that runs first alternates from pair to pair, so that drift of a
shared machine falls on both.  Prints each pair's end-to-end metrics, then
for each metric the pairs the change won (ties count for neither side),
both medians, the quartile distance of the parent's runs and the relative
move of the median.  Writes the pairs and that summary as JSON to
``--out``.  The metrics and their better direction are those the parent
tree's ``BENCHMARK.json`` declares as end to end.  Nothing is written into
either tree but perfbench's own run directory, ``perfbench/.runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run from ``tree``: its verdict,
    failed share and end-to-end metric values."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    args = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = {
        "correct": result["correct"],
        "failed_frac": result["failed"] / result["attempted"],
    }
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    return record


def summarize(pairs: list, better: dict) -> dict:
    """Per end-to-end metric: both sides' values in pair order, the pairs
    the change won, the medians, the parent's quartile distance and the
    median's relative move; and whether every run was correct, with the
    largest failed share of each side."""
    summary = {}
    for name, direction in better.items():
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        q1, q3 = np.percentile(parent, [25, 75])
        summary[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": float(q3 - q1),
            "median_move": statistics.median(change) / statistics.median(parent) - 1.0,
        }
    summary["correct"] = all(pair[side]["correct"] for pair in pairs for side in SIDES)
    for side in SIDES:
        summary[f"{side}_max_failed_frac"] = max(pair[side]["failed_frac"] for pair in pairs)
    return summary


def _declared_better(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_TREE")
    parser.add_argument("change", metavar="CHANGE_TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    better = _declared_better(trees["parent"])
    pairs = []
    for i in range(args.pairs):
        seed = 1 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        values = "  ".join(
            f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in better
        )
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {values}", flush=True)

    summary = summarize(pairs, better)
    for name in better:
        s = summary[name]
        print(f"{name}: change won {s['wins']} of {s['pairs']}, median "
              f"{s['parent_median']:.4g} -> {s['change_median']:.4g} "
              f"({100 * s['median_move']:+.1f}%), parent IQR {s['parent_iqr']:.3g}")
    print(f"all runs correct: {summary['correct']}; largest failed share "
          f"{summary['parent_max_failed_frac']} -> {summary['change_max_failed_frac']}")
    report = {"workload": args.workload, "seconds": args.seconds, "pairs": pairs,
              "summary": summary}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
