#!/usr/bin/env python3
"""Traced memory of each stage of a training trial.

Runs the training trial that ``compare`` fits its pair on, under the shipped
``configs/default.cfg``: the catalog, the randomised two-round trial, the
first-round fit and the second-round fit on the survivors. For each stage it
prints the tracemalloc peak above the memory traced at the stage's entry, and
for each fit that peak in units of its own design matrix (rows x design
columns x 8 bytes). Run it from a checkout with ``PYTHONPATH=src``:

    PYTHONPATH=src python3 scripts/trial_memory.py --items 300000 [--seed S]

The seed defaults to the config's ``train_seed``.
"""

import argparse
import os
import tracemalloc
from dataclasses import replace

from seqcoupon.config import load_config
from seqcoupon.domain import N_COUPON_FEATURES, N_ITEM_FEATURES
from seqcoupon.simulator import GroundTruth, generate_catalog, run_rct
from seqcoupon.uplift import fit_first_round, fit_second_round

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs",
                      "default.cfg")
DESIGN_COLUMNS = N_ITEM_FEATURES + 1 + N_COUPON_FEATURES + 1
MB = 1024 * 1024


def traced(stage):
    """(``stage()``, its tracemalloc peak above entry, in bytes)."""
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    result = stage()
    return result, tracemalloc.get_traced_memory()[1] - entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    cfg = load_config(CONFIG)
    seed = cfg.evaluation.train_seed if args.seed is None else args.seed
    sim = replace(cfg.simulator, n_items=args.items, rng_seed=seed)
    r1, r2 = cfg.round1_set, cfg.round2_set

    tracemalloc.start()
    cat, catalog_peak = traced(lambda: generate_catalog(sim))
    (log1, _, log2), rct_peak = traced(lambda: run_rct(
        GroundTruth(sim), cat, r1, r2, None, None, seed=seed))
    first, first_peak = traced(lambda: fit_first_round(cat, log1, cfg.learner.base))
    _, second_peak = traced(lambda: fit_second_round(
        cat, log1, log2, first, r1, cfg.second_learner(), cfg.ipw_epsilon, cfg.ipw_variant))
    tracemalloc.stop()

    print(f"{args.items} items, seed {seed}: {len(log1)} round-1 and {len(log2)} round-2 rows")
    print(f"{'stage':<12} {'peak above entry':>17} {'design matrices':>16}")
    for name, peak, rows in (("catalog", catalog_peak, None), ("rct", rct_peak, None),
                             ("first fit", first_peak, len(log1)),
                             ("second fit", second_peak, len(log2))):
        ratio = "" if rows is None else f"{peak / (rows * DESIGN_COLUMNS * 8):.2f}"
        print(f"{name:<12} {peak / MB:>14.2f} MB {ratio:>16}")


if __name__ == "__main__":
    main()
