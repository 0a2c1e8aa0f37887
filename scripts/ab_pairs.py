#!/usr/bin/env python3
"""Alternating A/B pairs of benchmark runs between two checkouts.

    python3 scripts/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        [--pairs 10] [--seconds S] [--seed N]

Pair i runs ``perfbench/run.py --workload W --seed N+i --seconds S --trace 0``
from each tree, the parent first on even pairs and the change first on odd
ones, so a machine that drifts over minutes favours neither side. For each
end-to-end metric of the parent's ``BENCHMARK.json`` it then prints each
side's median and quartiles, the pairs the change wins (a tie counts for
neither), and whether the change's median is worse than the parent's by more
than the metric's bound, read as a fraction of the parent's median. Last come
the attempted and failed operations of each side. A run that prints no result
counts as one attempted and failed operation, and gives no metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run from ``tree``, as a dict."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{tree} seed {seed}: exited {proc.returncode}: {proc.stderr[-500:]}",
              file=sys.stderr)
        return {"attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def run_pairs(parent: str, change: str, workload: str, pairs: int, seconds: float,
              seed: int) -> list:
    """[{"parent": result, "change": result}] for seeds ``seed`` .. ``seed + pairs - 1``."""
    trees = dict(zip(SIDES, (parent, change)))
    out = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        out.append({side: run_side(trees[side], workload, seed + i, seconds) for side in order})
    return out


def _quartiles(values: list) -> tuple:
    """(q1, median, q3), inclusive of the extremes."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric: each side's (q1, median, q3), the change's wins over the pairs
    both sides measured, and whether its median is worse beyond the bound."""
    rows = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        measured = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                    for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
        if not measured:
            continue
        parent, change = (_quartiles([m[k] for m in measured]) for k in (0, 1))
        wins = sum(c < p if lower else c > p for p, c in measured)
        excess = (change[1] - parent[1]) / parent[1] * (1 if lower else -1)
        rows[name] = {"unit": metric["unit"], "parent": parent, "change": change,
                      "wins": wins, "pairs": len(measured), "bound": metric["bound"],
                      "worse_beyond_bound": excess > metric["bound"]}
    totals = {side: {key: sum(p[side][key] for p in pairs) for key in ("attempted", "failed")}
              for side in SIDES}
    return {"metrics": rows, "totals": totals}


def render(summary: dict, workload: str) -> str:
    """The summary as a markdown table and a totals line."""
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"`{workload}`: median [q1, q3]", "",
             "| metric | parent | change | change wins | worse beyond bound |",
             "| --- | --- | --- | --- | --- |"]
    for name, row in summary["metrics"].items():
        lines.append(f"| `{name}` ({row['unit']}) | {cell(row['parent'])} | "
                     f"{cell(row['change'])} | {row['wins']}/{row['pairs']} | "
                     f"{'yes' if row['worse_beyond_bound'] else 'no'} ({row['bound']:g}) |")
    totals = summary["totals"]
    lines += ["", "attempted/failed: " + ", ".join(
        f"{side} {totals[side]['attempted']}/{totals[side]['failed']}" for side in SIDES)]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent_tree, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    pairs = run_pairs(args.parent_tree, args.change_tree, args.workload, args.pairs,
                      seconds, args.seed)
    print(render(summarize(pairs, declared["end_to_end"]), args.workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
