"""Measurement harness: lift metrics, delay diagnostics, uplift curves with
bootstrap bands, and the three-strategy realized-ROI comparison.

Everything here is pure: reports are deterministic functions of their inputs,
bootstrap resamples key off the shared counter-based generator, and per-seed
rollouts reuse the simulator's item substreams so strategies face common random
numbers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng
from .decision import (
    DEFAULT_ATTACH_DELAY_H,
    PolicyConstraint,
    allocate_batch,
    allocate_independent_batch,
)
from .domain import OutcomeLog, OutcomeRecord, _as_log
from .errors import ContractError, InputError
from .simulator import (
    GroundTruth,
    RolloutTotals,
    SimConfig,
    arm_draw,
    generate_catalog_arrays,
    rollout_arms,
    validate_probs,
)
from .uplift import PredictorPair, predict_arrays

STRATEGY_RANDOM = "random"
STRATEGY_INDEPENDENT = "independent"
STRATEGY_SEQUENTIAL = "sequential"
STRATEGY_ORDER = (STRATEGY_RANDOM, STRATEGY_INDEPENDENT, STRATEGY_SEQUENTIAL)

DEFAULT_BUCKET_H = 2.0
DEFAULT_DECILES = 10
DEFAULT_BOOTSTRAP_B = 200


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class UpliftCurve:
    """Cumulative uplift by predicted-score rank.

    ``points`` holds (population fraction, uplift) pairs; a slice that lacks
    one of the two groups carries ``None``. ``bands`` optionally holds a
    (lo, hi) bootstrap interval per point. ``random_reference`` is the overall
    average effect — the flat line an unranked targeting would trace.
    """

    points: tuple[tuple[float, Optional[float]], ...]
    random_reference: float
    bands: Optional[tuple[Optional[tuple[float, float]], ...]] = None

    def __post_init__(self):
        if not self.points:
            raise InputError("uplift curve needs at least one point")
        fracs = [f for f, _ in self.points]
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise InputError("curve fractions must be strictly increasing")
        if fracs[-1] != 1.0:
            raise InputError("the last curve fraction must be exactly 1.0")
        if any(not 0.0 < f <= 1.0 for f in fracs):
            raise InputError("curve fractions must lie in (0, 1]")
        if self.bands is not None and len(self.bands) != len(self.points):
            raise InputError("bands must align with curve points")


@dataclass(frozen=True)
class BucketRow:
    """One bucket of a delay table; ``value`` is None when the bucket is empty."""

    bucket_start_h: float
    value: Optional[float]
    n: int


@dataclass(frozen=True)
class DelayTables:
    """The three delay diagnostics, all bucketed at the same width."""

    bucket_h: float
    lift_by_attach_delay: tuple[BucketRow, ...]
    str_by_purchase_delay: tuple[BucketRow, ...]
    aov_by_purchase_delay: tuple[BucketRow, ...]


@dataclass(frozen=True)
class StrategyMetrics:
    sales_rate: float
    lift_str: float
    total_coupon_cost: int
    gmv: int
    roi_realized: float


@dataclass(frozen=True)
class ComparisonReport:
    """Realized outcomes of the three allocation strategies on shared seeds.

    ``strategies`` aggregates over all seeds; ``per_seed`` keeps one
    StrategyMetrics per seed in ``seeds`` order. All strategies within a seed
    run on the identical catalog and share sale-draw substreams.
    """

    strategies: dict[str, StrategyMetrics]
    per_seed: dict[str, tuple[StrategyMetrics, ...]]
    holdout_sales_rate: float
    seeds: tuple[int, ...]
    lift_threshold: float
    n_items_per_seed: int

    def __post_init__(self):
        for key in STRATEGY_ORDER:
            if key not in self.strategies or key not in self.per_seed:
                raise InputError(f"report is missing strategy {key!r}")
            if len(self.per_seed[key]) != len(self.seeds):
                raise InputError(f"per-seed metrics for {key!r} do not match seeds")


# ---------------------------------------------------------------------------
# lift estimation


def _prop_diff(sold_a: float, n_a: int, sold_b: float, n_b: int) -> float:
    """Difference of two proportions."""
    return sold_a / n_a - sold_b / n_b


# ---------------------------------------------------------------------------
# delay diagnostics


def _bucket_edges(max_value: float, bucket_h: float) -> np.ndarray:
    n_buckets = max(1, int(math.floor(max_value / bucket_h)) + 1)
    return np.arange(n_buckets, dtype=float) * bucket_h


def delay_analysis(
    records: Sequence[OutcomeRecord] | OutcomeLog, bucket_h: float = DEFAULT_BUCKET_H
) -> DelayTables:
    """Bucketed delay diagnostics over a log that includes a no-coupon holdout.

    Three tables, all at ``bucket_h`` resolution:
    - lift in sold-rate per attach-delay bucket (coupon arms vs the no-coupon
      records falling in the same delay bucket);
    - share of the whole log that sold within each post-attach bucket;
    - average order value among the sales of each post-attach bucket.
    Empty buckets are emitted with a null value rather than dropped.
    """
    if bucket_h <= 0:
        raise InputError("bucket_h must be > 0")
    log = _as_log(records)
    if not len(log):
        raise InputError("delay_analysis needs a non-empty log")
    treated = log.discount_pct != 0
    sold = log.sold
    attach = log.attach_delay_h
    purchase = log.purchase_delay_h
    price = log.sale_price_yen.astype(float)

    lift_rows = []
    for start in _bucket_edges(float(attach.max()), bucket_h):
        in_bucket = (attach >= start) & (attach < start + bucket_h)
        t = in_bucket & treated
        c = in_bucket & ~treated
        if t.any() and c.any():
            value = _prop_diff(
                float(sold[t].sum()), int(t.sum()), float(sold[c].sum()), int(c.sum())
            )
        else:
            value = None
        lift_rows.append(BucketRow(float(start), value, int(in_bucket.sum())))

    has_sale = sold & np.isfinite(purchase)
    max_purchase = float(purchase[has_sale].max()) if has_sale.any() else 0.0
    str_rows = []
    aov_rows = []
    for start in _bucket_edges(max_purchase, bucket_h):
        in_bucket = has_sale & (purchase >= start) & (purchase < start + bucket_h)
        n_bucket = int(in_bucket.sum())
        str_rows.append(
            BucketRow(float(start), n_bucket / len(log) if n_bucket else None, n_bucket)
        )
        aov_rows.append(
            BucketRow(
                float(start),
                float(price[in_bucket].mean()) if n_bucket else None,
                n_bucket,
            )
        )
    return DelayTables(
        bucket_h=float(bucket_h),
        lift_by_attach_delay=tuple(lift_rows),
        str_by_purchase_delay=tuple(str_rows),
        aov_by_purchase_delay=tuple(aov_rows),
    )


# ---------------------------------------------------------------------------
# cumulative uplift


def cumulative_uplift(
    scores: np.ndarray,
    treated: np.ndarray,
    sold: np.ndarray,
    deciles: int = DEFAULT_DECILES,
) -> UpliftCurve:
    """Cumulative uplift over score-ranked slices of the population.

    Items are ranked by descending score; at each fraction q the uplift is the
    sold-rate difference between treated and untreated items inside the top-q
    slice. The final point covers everything and therefore equals the overall
    effect, which doubles as the curve's random-targeting reference line.
    """
    scores = np.asarray(scores, dtype=float)
    treated = np.asarray(treated, dtype=bool)
    sold = np.asarray(sold, dtype=bool)
    if scores.ndim != 1 or scores.shape != treated.shape or scores.shape != sold.shape:
        raise InputError("scores, treated, and sold must be aligned 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    if deciles < 1:
        raise InputError("deciles must be >= 1")
    n = len(scores)
    if n == 0 or not treated.any() or treated.all():
        raise InputError("cumulative_uplift needs items from both treatment groups")

    order = np.argsort(-scores, kind="stable")
    t_sorted = treated[order]
    s_sorted = sold[order]
    cum_t = np.cumsum(t_sorted)
    cum_ts = np.cumsum(t_sorted & s_sorted)
    cum_c = np.cumsum(~t_sorted)
    cum_cs = np.cumsum(~t_sorted & s_sorted)

    points: list[tuple[float, Optional[float]]] = []
    for d in range(1, deciles + 1):
        count = n * d // deciles
        frac = d / deciles
        if count == 0:
            points.append((frac, None))
            continue
        n_t, n_c = int(cum_t[count - 1]), int(cum_c[count - 1])
        if n_t == 0 or n_c == 0:
            points.append((frac, None))
            continue
        value = _prop_diff(float(cum_ts[count - 1]), n_t, float(cum_cs[count - 1]), n_c)
        points.append((frac, value))
    ate = _prop_diff(float(cum_ts[-1]), int(cum_t[-1]), float(cum_cs[-1]), int(cum_c[-1]))
    return UpliftCurve(points=tuple(points), random_reference=ate)


def bootstrap_band(
    curve_fn: Callable[[np.ndarray], UpliftCurve],
    n_items: int,
    b_replicates: int,
    seed: int,
) -> tuple[Optional[tuple[float, float]], ...]:
    """Per-point 5th/95th percentile band over item-level bootstrap resamples.

    ``curve_fn`` maps an index array (a with-replacement resample of
    ``range(n_items)``) to an UpliftCurve; the band spans its ``points``
    values across ``b_replicates`` resamples. Points that were null in every
    replicate get a null band. Resampling is keyed off the shared counter
    generator, so the same seed always yields the same bands; with exactly two
    replicates the band degenerates to their min/max.
    """
    if b_replicates < 2:
        raise InputError("bootstrap needs at least 2 replicates")
    if n_items < 1:
        raise InputError("n_items must be >= 1")
    rows = np.arange(n_items, dtype=np.uint64)
    per_point: list[list[float]] = []
    n_points = None
    for b in range(b_replicates):
        u = rng.uniforms(seed, rows, rng.BOOTSTRAP, b)
        idx = np.minimum((u * n_items).astype(np.int64), n_items - 1)
        curve = curve_fn(idx)
        if n_points is None:
            n_points = len(curve.points)
            per_point = [[] for _ in range(n_points)]
        elif len(curve.points) != n_points:
            raise ContractError("bootstrap replicates produced differing curve lengths")
        for i, (_, value) in enumerate(curve.points):
            if value is not None:
                per_point[i].append(value)
    bands: list[Optional[tuple[float, float]]] = []
    for values in per_point:
        if not values:
            bands.append(None)
            continue
        lo = float(np.percentile(values, 5.0, method="lower"))
        hi = float(np.percentile(values, 95.0, method="higher"))
        bands.append((lo, hi))
    return tuple(bands)


# ---------------------------------------------------------------------------
# strategy comparison


def _metrics(
    totals: RolloutTotals, holdout_sales: int, n_items: int, mean_ltv: float
) -> StrategyMetrics:
    incremental = totals.sales_count - holdout_sales
    if totals.coupon_cost_yen == 0:
        roi = math.inf
    else:
        roi = incremental * mean_ltv / totals.coupon_cost_yen
    return StrategyMetrics(
        sales_rate=totals.sales_count / n_items,
        lift_str=incremental / n_items,
        total_coupon_cost=totals.coupon_cost_yen,
        gmv=totals.gmv_yen,
        roi_realized=roi,
    )


def compare_strategies(
    config: SimConfig,
    pair: PredictorPair,
    constraint: PolicyConstraint,
    seeds: Sequence[int],
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
    random_round1_probs: Optional[Sequence[float]] = None,
    random_round2_probs: Optional[Sequence[float]] = None,
) -> ComparisonReport:
    """Roll out random / per-round / sequential allocation on common seeds.

    For each seed one catalog is drawn straight into columns
    (``generate_catalog_arrays``: no per-item records, keys hashed once).
    Predictions come from those columns, and four
    columnar rollouts share that one catalog and its sale substreams: a
    no-coupon holdout plus the three strategies, each given as arm-index
    arrays. Realized ROI is incremental sales over the holdout times the
    catalog's mean seller LTV, divided by realized coupon spend (``inf`` when
    a strategy spends nothing).
    Plans below the lift threshold attach no coupons under both model-driven
    strategies. The random strategy draws arms uniformly unless explicit
    probabilities are given.
    """
    if not seeds:
        raise InputError("compare_strategies needs at least one seed")
    if config.n_items < 1:
        raise InputError("config.n_items must be >= 1 for a strategy comparison")
    if attach_delay_h < 0:
        raise InputError("attach_delay_h must be >= 0")
    r1_set, r2_set = pair.round1_set, pair.round2_set
    p_rand1 = list(random_round1_probs) if random_round1_probs is not None else None
    p_rand2 = list(random_round2_probs) if random_round2_probs is not None else None
    if p_rand1 is not None:
        validate_probs(p_rand1, len(r1_set), "random_round1_probs")
    if p_rand2 is not None:
        validate_probs(p_rand2, len(r2_set), "random_round2_probs")
    uniform1 = [1.0 / len(r1_set)] * len(r1_set)
    uniform2 = [1.0 / len(r2_set)] * len(r2_set)

    per_seed: dict[str, list[StrategyMetrics]] = {key: [] for key in STRATEGY_ORDER}
    totals_acc: dict[str, list[int]] = {key: [0, 0, 0] for key in STRATEGY_ORDER}
    holdout_sales_total = 0
    ltv_sum = 0.0
    n_total = 0

    for seed in seeds:
        cfg = dataclasses.replace(config, rng_seed=seed)
        gt = GroundTruth(cfg)
        cat = generate_catalog_arrays(cfg)
        n = len(cat)
        mean_ltv = float(cat.ltv.mean())

        p1, _, p2, p_baseline = predict_arrays(pair, cat.matrix, cat.age_days, attach_delay_h)
        j_seq, k_seq, feas_seq = allocate_batch(
            p1, p2, p_baseline, cat.price, cat.ltv, r1_set, r2_set, constraint
        )
        j_ind, k_ind, feas_ind = allocate_independent_batch(
            p1, p2, p_baseline, cat.price, cat.ltv, r1_set, r2_set, constraint
        )
        j_rand = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R1), p_rand1 or uniform1)
        k_rand = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R2), p_rand2 or uniform2)

        choices = {
            STRATEGY_RANDOM: (j_rand, k_rand, np.ones(n, dtype=bool)),
            STRATEGY_INDEPENDENT: (j_ind, k_ind, feas_ind),
            STRATEGY_SEQUENTIAL: (j_seq, k_seq, feas_seq),
        }

        no_coupon = np.zeros(n, dtype=np.int64)
        holdout_totals = rollout_arms(
            gt, cat, r1_set, r2_set, no_coupon, no_coupon, attach_delay_h, seed
        )
        holdout_sales_total += holdout_totals.sales_count

        for key in STRATEGY_ORDER:
            j, k, active = choices[key]
            # An inactive plan attaches no coupon in either round.
            totals = rollout_arms(
                gt, cat, r1_set, r2_set,
                np.where(active, j, 0), np.where(active, k, 0), attach_delay_h, seed,
            )
            per_seed[key].append(
                _metrics(totals, holdout_totals.sales_count, n, mean_ltv)
            )
            acc = totals_acc[key]
            acc[0] += totals.sales_count
            acc[1] += totals.coupon_cost_yen
            acc[2] += totals.gmv_yen
        ltv_sum += float(cat.ltv.sum())
        n_total += n

    overall_mean_ltv = ltv_sum / n_total
    aggregate = {
        key: _metrics(
            RolloutTotals(
                sales_count=totals_acc[key][0],
                coupon_cost_yen=totals_acc[key][1],
                gmv_yen=totals_acc[key][2],
            ),
            holdout_sales_total,
            n_total,
            overall_mean_ltv,
        )
        for key in STRATEGY_ORDER
    }
    return ComparisonReport(
        strategies=aggregate,
        per_seed={key: tuple(values) for key, values in per_seed.items()},
        holdout_sales_rate=holdout_sales_total / n_total,
        seeds=tuple(int(s) for s in seeds),
        lift_threshold=constraint.lift_threshold,
        n_items_per_seed=config.n_items,
    )
