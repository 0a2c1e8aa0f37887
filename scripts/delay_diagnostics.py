#!/usr/bin/env python3
"""Bucketed delay diagnostics on a simulated randomized coupon log.

Runs the default simulator RCT, buckets the round-1 log by attach delay and
purchase delay, and reports lift, sell-through, and order-value trends. Early
attach delays should show a larger lift than stale ones, and order value
should drift upward with purchase delay.
"""

import argparse
import os

from seqcoupon import fileio
from seqcoupon.config import RunConfig
from seqcoupon.evaluation import delay_analysis
from seqcoupon.simulator import GroundTruth, SimConfig, generate_catalog, run_rct


def show(label: str, rows, bucket_h: float, limit: int = 8) -> None:
    print(label)
    for row in rows[:limit]:
        value = "empty" if row.value is None else f"{row.value:.4f}"
        print(f"  [{row.bucket_start_h:6.1f}h, +{bucket_h:g}h)  {value:>8}  n={row.n}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--bucket-h", type=float, default=2.0)
    parser.add_argument("--out", default="runs/delay", help="output directory")
    args = parser.parse_args()

    menus = RunConfig()
    sim = SimConfig(n_items=args.items, rng_seed=args.seed)
    items = generate_catalog(sim)
    uniform = [1.0 / len(menus.round1_set)] * len(menus.round1_set)
    log1, _, _ = run_rct(
        GroundTruth(sim), items, menus.round1_set, menus.round2_set,
        uniform, uniform, seed=args.seed,
    )
    tables = delay_analysis(log1, args.bucket_h)

    show("lift by attach delay:", tables.lift_by_attach_delay, tables.bucket_h)
    show("sell-through by purchase delay:", tables.str_by_purchase_delay, tables.bucket_h)
    show("order value by purchase delay:", tables.aov_by_purchase_delay, tables.bucket_h)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "delay_buckets.csv")
    fileio.write_delay_tables(tables, path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
