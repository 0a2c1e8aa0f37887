#!/usr/bin/env python3
"""Train on a simulated randomized log, then race the three allocation policies.

Generates a training-scale RCT, fits the two-round predictor pair, and rolls
out random / per-round-independent / sequential coupon policies on fresh
worlds with shared sale draws. The sequential policy should show a realized
ROI edge over the independent baseline at the same lift constraint.
"""

import argparse

from seqcoupon import fileio
from seqcoupon.config import RunConfig
from seqcoupon.decision import PolicyConstraint
from seqcoupon.evaluation import compare_strategies
from seqcoupon.learner import LearnerConfig
from seqcoupon.simulator import (
    GroundTruth,
    SimConfig,
    catalog_ids,
    generate_catalog_arrays,
    run_rct,
)
from seqcoupon.uplift import fit_predictor_pair


def train(args, menus):
    """Fit the pair on a training RCT; also lend its ids to the rollouts.

    The ids, seller ids and keys of the first ``--eval-items`` rows are all
    that outlive the training trial, and only when there are that many.
    """
    train_sim = SimConfig(n_items=args.train_items, rng_seed=args.train_seed)
    items = generate_catalog_arrays(train_sim)
    uniform = [1.0 / len(menus.round1_set)] * len(menus.round1_set)
    log1, _, log2 = run_rct(
        GroundTruth(train_sim), items, menus.round1_set, menus.round2_set,
        uniform, uniform, seed=args.train_seed,
    )
    print(f"training RCT: {len(items)} items, {len(log2)} survivors")

    pair = fit_predictor_pair(
        items, log1, log2, menus.round1_set, menus.round2_set,
        config_first=LearnerConfig(kind="logistic", learning_rate=1.0, epochs=args.epochs),
    )
    ids = catalog_ids(items, args.eval_items) if args.eval_items <= len(items) else None
    return pair, ids


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-items", type=int, default=300_000)
    parser.add_argument("--train-seed", type=int, default=1000)
    parser.add_argument("--eval-items", type=int, default=100_000)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--lift-threshold", type=float, default=0.01)
    parser.add_argument(
        "--epochs", type=int, default=1500,
        help="iteration cap for the logistic fits, which stop earlier once converged",
    )
    parser.add_argument("--out", default=None, help="optional path for the text report")
    args = parser.parse_args()

    pair, ids = train(args, RunConfig())
    report = compare_strategies(
        SimConfig(n_items=args.eval_items, rng_seed=0),
        pair,
        PolicyConstraint(lift_threshold=args.lift_threshold),
        tuple(args.seeds),
        same_ids_as=ids,
    )
    print(fileio.render_comparison_report(report), end="")
    if args.out:
        fileio.write_comparison_report(report, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
