"""Batch command-line entry point wiring all modules together.

Five subcommands form a pipeline over an output directory tree:

    simulate  — generate a catalog and randomized two-round logs
    train     — grid-search the first-round learner, fit both models
    allocate  — plan coupon pairs for every still-unsold catalog item
    evaluate  — ranking curve and delay diagnostics for a trained model
    compare   — train then roll out random / per-round / sequential policies

Every command reads one config file, writes into ``--out``, and stamps the
directory with a manifest (tool version, config hash, seed) after its last
artifact; each artifact appears whole or not at all. Re-running with the same
inputs reproduces every output byte for byte; resuming into a directory whose
manifest disagrees is refused rather than overwritten.

Exit codes: 0 success; 1 internal error; 2 unparseable config, invalid
input data, an input that is not UTF-8 or an input path the file system
encoding cannot encode; 3 IO failure or manifest mismatch; 4 unidentifiable
training log (single arm); 5 model/encoder schema mismatch; 6 missing
no-coupon holdout.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import traceback
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import __version__, fileio
from .config import RunConfig, load_config
from .decision import allocate_batch, materialize_plans
from .domain import item_feature_matrix
from .errors import (
    IdentifiabilityError,
    InputError,
    ManifestMismatchError,
    MissingHoldoutError,
    SchemaMismatchError,
)
from .evaluation import UpliftCurve, bootstrap_band, compare_strategies, cumulative_uplift, delay_analysis
from .learner import Model, grid_search
from .simulator import CatalogArrays, GroundTruth, SimConfig, generate_catalog, run_rct
from .uplift import (
    PredictorPair,
    check_round,
    fit_predictor_pair,
    predict_batch,
    round1_arm_probabilities,
    round1_training_dataset,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_IDENTIFIABILITY = 4
EXIT_SCHEMA = 5
EXIT_HOLDOUT = 6

CATALOG_FILE = "catalog.csv"
ROUND1_LOG_FILE = "round1_log.csv"
ROUND2_LOG_FILE = "round2_log.csv"
GRID_TABLE_FILE = "grid_search.csv"
PLANS_FILE = "plans.csv"
CURVE_FILE = "uplift_curve.csv"
BUCKETS_FILE = "delay_buckets.csv"
REPORT_FILE = "comparison.txt"


class _Run:
    """Shared per-invocation state: parsed config, output dir, effective seed."""

    def __init__(self, args: argparse.Namespace):
        # The bytes parsed are the bytes the manifest hashes: the config is read once.
        data = fileio.read_utf8(args.config)
        self.config: RunConfig = load_config(args.config, data)
        self.config_sha256: str = hashlib.sha256(data).hexdigest()
        self.command: str = args.command
        self.quiet: bool = args.quiet
        self.out: str = args.out
        self.seed_given: bool = args.seed is not None
        if self.seed_given and args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        default = (self.config.evaluation.train_seed if self.command == "compare"
                   else self.config.simulator.rng_seed)
        self.seed: int = args.seed if self.seed_given else default

    def start(self) -> None:
        """Make the output directory and refuse one stamped by another run."""
        os.makedirs(self.out, exist_ok=True)
        self.manifest = fileio.build_manifest(self.command, self.config_sha256, self.seed)
        fileio.check_manifest(self.out, self.manifest)

    def finish(self) -> None:
        """Stamp the directory once the command's last artifact is written, so
        a run that dies midway leaves no manifest beside its partial output."""
        fileio.ensure_manifest(self.out, self.manifest)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)


def _uniform_trial(cfg: RunConfig, sim: SimConfig):
    """(catalog, round-1 log, round-2 log): a catalog drawn from ``sim`` and a
    two-round trial on it that draws every arm of each menu with equal odds."""
    cat = generate_catalog(sim)
    log1, _, log2 = run_rct(GroundTruth(sim), cat, cfg.round1_set, cfg.round2_set, None, None,
                            seed=sim.rng_seed)
    return cat, log1, log2


def _fit_pair(cfg: RunConfig, cat: CatalogArrays, log1, log2, config_first) -> PredictorPair:
    """The predictor pair on a trial, ``config_first`` fitting the first round
    and the rest as ``cfg`` sets it."""
    return fit_predictor_pair(
        cat, log1, log2, cfg.round1_set, cfg.round2_set, config_first=config_first,
        config_second=cfg.second_learner(), epsilon=cfg.ipw_epsilon, variant=cfg.ipw_variant,
    )


def cmd_simulate(run: _Run) -> None:
    cfg = run.config
    cat, log1, log2 = _uniform_trial(cfg, replace(cfg.simulator, rng_seed=run.seed))
    fileio.write_catalog(cat, run.path(CATALOG_FILE))
    fileio.write_outcomes(log1, run.path(ROUND1_LOG_FILE))
    fileio.write_outcomes(log2, run.path(ROUND2_LOG_FILE))
    run.say(
        f"simulated {len(cat)} items -> {len(log1)} round-1 and "
        f"{len(log2)} round-2 records in {run.out}"
    )


def cmd_train(run: _Run) -> None:
    cfg = run.config
    cat = fileio.read_catalog(cfg.io.catalog)
    log1 = fileio.read_outcomes(cfg.io.round1_log)
    log2 = fileio.read_outcomes(cfg.io.round2_log)
    data = round1_training_dataset(cat, log1)
    best, results = grid_search(data, cfg.learner.grid, cfg.learner.k_folds, run.seed)
    fileio.write_grid_table(results, run.path(GRID_TABLE_FILE))
    run.say(
        f"grid search over {len(results)} configs; best mean loss "
        f"{min(r.mean_loss for r in results):.6f}"
    )
    pair = _fit_pair(cfg, cat, log1, log2, best)
    fileio.save_pair(pair, run.out)
    run.say(
        f"first-round model: {_fit_summary(pair.first)}; "
        f"second-round model: {_fit_summary(pair.second)}"
    )
    run.say(f"wrote model pair and {GRID_TABLE_FILE} in {run.out}")


def _fit_summary(model: Model) -> str:
    if model.iterations is None:
        return f"{len(model.stumps)} stumps"
    return f"{model.iterations} Newton steps, final |gradient| {model.grad_norm:.1e}"


def _sold_rows(cfg: RunConfig, cat: CatalogArrays) -> np.ndarray:
    """Catalog rows that either round log records as sold; a missing log raises OSError."""
    sold = np.zeros(len(cat), dtype=bool)
    for path in (cfg.io.round1_log, cfg.io.round2_log):
        log = fileio.read_outcomes(path)
        sold[cat.rows_of(log.item_ids)[log.sold]] = True
    return sold


def cmd_allocate(run: _Run) -> None:
    cfg = run.config
    pair = fileio.load_pair(cfg.io.model_dir)
    catalog = fileio.read_catalog(cfg.io.catalog)
    cat = catalog[~_sold_rows(cfg, catalog)]
    p1, _, p2, p_baseline = predict_batch(pair, cat, cfg.attach_delay_h)
    j, k, feasible = allocate_batch(
        p1, p2, p_baseline, cat.price, cat.ltv,
        pair.round1_set, pair.round2_set, cfg.constraint(),
    )
    plans = materialize_plans(
        cat.ids, j, k, feasible,
        p1, p2, p_baseline, cat.price, cat.ltv,
        pair.round1_set, pair.round2_set, cfg.constraint(), cfg.attach_delay_h,
    )
    fileio.write_plans(plans, run.path(PLANS_FILE))
    run.say(f"planned {len(plans)} unsold items -> {run.path(PLANS_FILE)}")


def cmd_evaluate(run: _Run) -> None:
    cfg = run.config
    pair = fileio.load_pair(cfg.io.model_dir)
    cat = fileio.read_catalog(cfg.io.catalog)
    log1 = fileio.read_outcomes(cfg.io.round1_log)
    if not len(log1):
        raise InputError(f"{cfg.io.round1_log}: log is empty; nothing to evaluate")
    check_round(log1, 1)
    treated = log1.discount_pct != 0
    if treated.all():
        raise MissingHoldoutError(
            f"{cfg.io.round1_log}: no no-coupon holdout records; lift is undefined"
        )

    p1 = round1_arm_probabilities(pair.first, item_feature_matrix(cat), pair.round1_set,
                                  log1.attach_delay_h, rows=cat.rows_of(log1.item_ids))
    scores = (p1[:, 1:] - p1[:, [0]]).mean(axis=1)
    sold = log1.sold

    deciles = cfg.evaluation.deciles
    curve = cumulative_uplift(scores, treated, sold, deciles)
    bands = bootstrap_band(scores, treated, sold, deciles, cfg.evaluation.bootstrap_b, run.seed)
    fileio.write_curve(
        UpliftCurve(points=curve.points, random_reference=curve.random_reference, bands=bands),
        run.path(CURVE_FILE),
    )
    fileio.write_delay_tables(
        delay_analysis(log1, cfg.evaluation.bucket_h), run.path(BUCKETS_FILE)
    )
    run.say(f"wrote {CURVE_FILE} and {BUCKETS_FILE} in {run.out}")


def _train_compare_pair(run: _Run) -> PredictorPair:
    """Fit the pair ``compare`` rolls out, on an in-memory training trial.

    The training catalog, its logs and the ground truth are locals here, so
    they are freed on return, before any rollout starts.
    """
    cfg = run.config
    train_sim = replace(
        cfg.simulator,
        n_items=cfg.evaluation.train_n_items,
        rng_seed=cfg.evaluation.train_seed,
    )
    cat, log1, log2 = _uniform_trial(cfg, train_sim)
    run.say(f"trained on {len(cat)} items ({len(log2)} survivors)")
    return _fit_pair(cfg, cat, log1, log2, cfg.learner.base)


def cmd_compare(run: _Run) -> None:
    cfg = run.config
    pair = _train_compare_pair(run)
    seeds = (run.seed,) if run.seed_given else cfg.evaluation.seeds
    report = compare_strategies(
        cfg.simulator, pair, cfg.constraint(), seeds, attach_delay_h=cfg.attach_delay_h
    )
    fileio.write_comparison_report(report, run.path(REPORT_FILE))
    run.say(f"compared {len(seeds)} seeds -> {run.path(REPORT_FILE)}")
    if not run.quiet:
        print(fileio.render_comparison_report(report), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcoupon",
        description="Two-round coupon allocation: simulate, train, allocate, evaluate, compare.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("simulate", cmd_simulate, "generate a catalog and randomized two-round logs"),
        ("train", cmd_train, "grid-search and fit the two propensity models"),
        ("allocate", cmd_allocate, "plan coupon pairs for unsold catalog items"),
        ("evaluate", cmd_evaluate, "ranking curve and delay diagnostics"),
        ("compare", cmd_compare, "train then roll out every compared strategy"),
    )
    for name, func, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the config's seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args)
        run.start()
        args.func(run)
        run.finish()
    except MissingHoldoutError as exc:
        return _fail(EXIT_HOLDOUT, exc)
    except SchemaMismatchError as exc:
        return _fail(EXIT_SCHEMA, exc)
    except IdentifiabilityError as exc:
        return _fail(EXIT_IDENTIFIABILITY, exc)
    except (ManifestMismatchError, OSError) as exc:
        return _fail(EXIT_IO, exc)
    except InputError as exc:
        return _fail(EXIT_CONFIG, exc)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


def _fail(code: int, exc: BaseException) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
