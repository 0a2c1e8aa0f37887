"""Measurement harness: lift metrics, delay diagnostics, uplift curves with
bootstrap bands, and the realized-ROI comparison of the strategies in
``STRATEGIES``.

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
from .domain import OutcomeLog, _distinct
from .errors import InputError
from .simulator import (
    GroundTruth,
    RolloutTotals,
    SimConfig,
    generate_catalog,
    rollout_arms,
    trial_arms,
)
from .uplift import PredictorPair, predict_batch

DEFAULT_BUCKET_H = 2.0
DEFAULT_DECILES = 10
# The most buckets a delay table may hold, about a week of delays at 6-second buckets.
MAX_BUCKETS = 100_000


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
    """Realized outcomes of the allocation strategies on shared seeds.

    ``strategies`` aggregates over all seeds; ``per_seed`` keeps one
    StrategyMetrics per seed in ``seeds`` order. Both hold exactly the names
    of ``STRATEGIES``, in its order. All strategies within a seed run on the
    identical catalog and share sale-draw substreams.
    """

    strategies: dict[str, StrategyMetrics]
    per_seed: dict[str, tuple[StrategyMetrics, ...]]
    holdout_sales_rate: float
    seeds: tuple[int, ...]
    lift_threshold: float
    n_items_per_seed: int

    def __post_init__(self):
        names = list(STRATEGIES)
        for got in (list(self.strategies), list(self.per_seed)):
            if got != names:
                raise InputError(f"report strategies must be {names} in order, got {got}")
        for key, values in self.per_seed.items():
            if len(values) != len(self.seeds):
                raise InputError(f"per-seed metrics for {key!r} do not match seeds")


# ---------------------------------------------------------------------------
# lift estimation


def _prop_diff(sold_a: float, n_a: int, sold_b: float, n_b: int) -> float:
    """Difference of two proportions."""
    return sold_a / n_a - sold_b / n_b


# ---------------------------------------------------------------------------
# delay diagnostics


def _buckets(values: np.ndarray, max_value: float, bucket_h: float):
    """Bucket starts up to ``max_value``, and each value's bucket: the last start <= it.
    More than ``MAX_BUCKETS`` buckets are refused."""
    if not max_value / bucket_h < MAX_BUCKETS:
        raise InputError(f"a delay of {max_value} h at bucket_h = {bucket_h} h needs more "
                         f"than {MAX_BUCKETS} buckets")
    n_buckets = max(1, int(math.floor(max_value / bucket_h)) + 1)
    edges = np.arange(n_buckets, dtype=float) * bucket_h
    return edges, np.searchsorted(edges, values, side="right") - 1


def delay_analysis(
    records: OutcomeLog, bucket_h: float = DEFAULT_BUCKET_H
) -> DelayTables:
    """Bucketed delay diagnostics over a log that includes a no-coupon holdout.

    Three tables, all at ``bucket_h`` resolution:
    - lift in sold-rate per attach-delay bucket (coupon arms vs the no-coupon
      records falling in the same delay bucket);
    - share of the whole log that sold within each post-attach bucket;
    - average order value among the sales of each post-attach bucket.
    Empty buckets are emitted with a null value rather than dropped.
    """
    if not bucket_h > 0:
        raise InputError("bucket_h must be > 0")
    if not len(records):
        raise InputError("delay_analysis needs a non-empty log")
    treated = records.discount_pct != 0
    sold = records.sold
    attach = records.attach_delay_h
    purchase = records.purchase_delay_h

    edges, bucket = _buckets(attach, float(attach.max()), bucket_h)
    n_t, n_c, sold_t, sold_c = (np.bincount(bucket[rows], minlength=len(edges)).tolist()
                                for rows in (treated, ~treated, treated & sold, ~treated & sold))
    lift_rows = [
        BucketRow(float(start), _prop_diff(s_t, t, s_c, c) if t and c else None, t + c)
        for start, t, c, s_t, s_c in zip(edges, n_t, n_c, sold_t, sold_c)
    ]

    has_sale = sold & np.isfinite(purchase)
    max_purchase = float(purchase[has_sale].max()) if has_sale.any() else 0.0
    edges, bucket = _buckets(purchase[has_sale], max_purchase, bucket_h)
    # Sales and their yen per bucket: integer-yen sums are exact, so each mean
    # below is the one numpy would take.
    n_sold, gmv = (np.bincount(bucket, weights, len(edges)).tolist()
                   for weights in (None, records.sale_price_yen[has_sale]))
    str_rows = [BucketRow(float(start), n / len(records) if n else None, n)
                for start, n in zip(edges, n_sold)]
    aov_rows = [BucketRow(float(start), total / n if n else None, n)
                for start, n, total in zip(edges, n_sold, gmv)]
    return DelayTables(
        bucket_h=float(bucket_h),
        lift_by_attach_delay=tuple(lift_rows),
        str_by_purchase_delay=tuple(str_rows),
        aov_by_purchase_delay=tuple(aov_rows),
    )


# ---------------------------------------------------------------------------
# cumulative uplift


class _Ranking:
    """A scored log ranked once by descending score, ready to score any resample.

    A resample is given by its multiplicities ``w`` in rank order (how often
    each ranked row was drawn) and, when scores tie, by its row indices
    ``idx`` in draw order. ``uplift`` slices it at each decile cutoff exactly
    as a stable sort of the resample by descending score would.
    """

    def __init__(self, scores, treated, sold, deciles: int):
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
        self.n = n
        self.order = np.argsort(-scores, kind="stable")
        t, s = treated[self.order], sold[self.order]
        # Per ranked row: treated, treated and sold, untreated and sold.
        self.columns = np.stack([t, t & s, ~t & s])
        self.cutoffs = n * np.arange(1, deciles + 1, dtype=np.int64) // deciles
        self.live = self.cutoffs > 0
        # The tie group of each rank as the rank range [group_start, group_end);
        # None when no two scores tie.
        ranked = scores[self.order]
        new_group = np.ones(n, dtype=bool)
        new_group[1:] = ranked[1:] != ranked[:-1]
        self.group_start = self.group_end = None
        if not new_group.all():
            starts = np.flatnonzero(new_group)
            group = np.cumsum(new_group) - 1
            self.group_start = starts[group]
            self.group_end = np.append(starts[1:], n)[group]
        self._rank_of_row = None
        # Per-call buffers: draws up to each rank, and one column times ``w``.
        self._cum_w = np.zeros(n + 1, dtype=np.int64)
        self._product = np.empty(n, dtype=np.int64)

    def uplift(self, w: np.ndarray, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Uplift at every decile cutoff of a resample; NaN where a slice lacks a group."""
        cut = self.cutoffs[self.live]
        n_t, n_ts, n_cs = self._counts(w, idx, cut) if self.n else np.zeros((3, 0), int)
        n_c = cut - n_t
        # The last cutoff covers the whole resample.
        if not self.n or n_t[-1] == 0 or n_c[-1] == 0:
            raise InputError("cumulative_uplift needs items from both treatment groups")
        diff = n_ts / np.maximum(n_t, 1) - n_cs / np.maximum(n_c, 1)
        values = np.full(len(self.cutoffs), np.nan)
        values[self.live] = np.where((n_t > 0) & (n_c > 0), diff, np.nan)
        return values

    def _counts(self, w, idx, cut):
        """Per column, its count among the top ``cut`` draws of the resample.

        A slice holds whole rows up to the rank holding its last slot, plus
        some copies of that row, which all share its columns. When that row's
        score is tied and the slice ends inside its tie group, the stable sort
        fills the group in draw order, so such a cutoff takes the group's
        draws from ``idx`` in position order instead.
        """
        cum_w = self._cum_w
        np.cumsum(w, out=cum_w[1:])
        p = np.searchsorted(cum_w, cut, side="left") - 1
        at, ties = p, []
        if idx is not None and self.group_start is not None:
            start, end = self.group_start[p], self.group_end[p]
            straddled = np.flatnonzero((end - start > 1) & (cut < cum_w[end]))
            at = np.concatenate([p, start[straddled]])
            ties = [
                (i, self._tie_draws(idx, start[i], end[i], cut[i] - cum_w[start[i]]))
                for i in straddled
            ]
        # Whole-row sums are needed only before the ranks in ``at``: sum each
        # column times ``w`` over the segments between them.
        edges = _distinct(np.append(at, 0))
        through = np.zeros((len(self.columns), len(edges)), dtype=np.int64)
        for k, column in enumerate(self.columns):
            np.multiply(w, column, out=self._product)
            np.cumsum(np.add.reduceat(self._product, edges)[:-1], out=through[k, 1:])
        before = through[:, np.searchsorted(edges, at)]
        counts = before[:, : len(p)] + (cut - cum_w[p]) * self.columns[:, p]
        for j, (i, drawn) in enumerate(ties):
            counts[:, i] = before[:, len(p) + j] + self.columns[:, drawn].sum(axis=1)
        return counts

    def _tie_draws(self, idx, start, end, m):
        """Ranks of the first ``m`` draws, in ``idx`` order, from ranks [start, end)."""
        if self._rank_of_row is None:
            self._rank_of_row = np.empty(self.n, dtype=np.int64)
            self._rank_of_row[self.order] = np.arange(self.n)
        ranks = self._rank_of_row[idx]
        return ranks[np.flatnonzero((ranks >= start) & (ranks < end))[:m]]


def cumulative_uplift(
    scores: np.ndarray,
    treated: np.ndarray,
    sold: np.ndarray,
    deciles: int = DEFAULT_DECILES,
) -> UpliftCurve:
    """Cumulative uplift over score-ranked slices of the population.

    Items are ranked by descending score (ties in row order); at each fraction
    q the uplift is the sold-rate difference between treated and untreated
    items inside the top-q slice. The final point covers everything and
    therefore equals the overall effect, which doubles as the curve's
    random-targeting reference line. This is the counting core of
    ``bootstrap_band`` with every row drawn exactly once.
    """
    ranking = _Ranking(scores, treated, sold, deciles)
    values = ranking.uplift(np.ones(ranking.n, dtype=np.int64)).tolist()
    points = tuple(
        (d / deciles, None if math.isnan(v) else v) for d, v in enumerate(values, start=1)
    )
    return UpliftCurve(points=points, random_reference=values[-1])


def bootstrap_band(
    scores: np.ndarray,
    treated: np.ndarray,
    sold: np.ndarray,
    deciles: int,
    b_replicates: int,
    seed: int,
) -> tuple[Optional[tuple[float, float]], ...]:
    """Per-point 5th/95th percentile band of ``cumulative_uplift`` over resamples.

    Each of ``b_replicates`` item-level resamples (with replacement, keyed off
    the shared counter generator, so a seed always yields the same bands)
    gives one curve; the band spans its point values. Points that were null in
    every replicate get a null band; with exactly two replicates the band
    degenerates to their min/max. A replicate that draws no treated or no
    untreated row raises ``InputError``.

    The columns are ranked once. Each replicate is scored from its draw
    multiplicities in that rank order, which gives the same counts as
    re-sorting the resample, and only the last link of its generator chain
    is mixed per replicate.
    """
    if b_replicates < 2:
        raise InputError("bootstrap needs at least 2 replicates")
    ranking = _Ranking(scores, treated, sold, deciles)
    n = ranking.n
    prefix = rng.stream_words(seed, np.arange(n, dtype=np.uint64), rng.BOOTSTRAP)
    values = np.empty((b_replicates, deciles))
    for b in range(b_replicates):
        u = rng.words_to_uniforms(rng.extend_words(prefix, b))
        idx = np.minimum((u * n).astype(np.int64), n - 1)
        w = np.bincount(idx, minlength=n)[ranking.order]
        values[b] = ranking.uplift(w, idx)
    bands: list[Optional[tuple[float, float]]] = []
    for column in values.T:
        column = column[~np.isnan(column)]
        if not column.size:
            bands.append(None)
            continue
        lo = float(np.percentile(column, 5.0, method="lower"))
        hi = float(np.percentile(column, 95.0, method="higher"))
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


def _random_plan(seed, cat, preds, pair, constraint):
    """The arms a uniform ``run_rct`` on this catalog and seed would draw."""
    return trial_arms(seed, cat, pair.round1_set, pair.round2_set)


def _allocated(allocator, seed, cat, preds, pair, constraint):
    """The allocator's arm pairs; an infeasible row attaches no coupon in either round."""
    p1, _, p2, p_baseline = preds
    j, k, feasible = allocator(
        p1, p2, p_baseline, cat.price, cat.ltv, pair.round1_set, pair.round2_set, constraint
    )
    return np.where(feasible, j, 0), np.where(feasible, k, 0)


# The compared strategies, in report order. A plan rule maps (seed, catalog,
# ``predict_batch`` output, pair, constraint) to per-row (arm1, arm2) menu
# indices, arm 0 being no coupon. The lambdas look their allocator up at call
# time, so a wrapper installed on the module attribute sees every call.
STRATEGIES: dict[str, Callable[..., tuple[np.ndarray, np.ndarray]]] = {
    "random": _random_plan,
    "independent": lambda *args: _allocated(allocate_independent_batch, *args),
    "sequential": lambda *args: _allocated(allocate_batch, *args),
}


def compare_strategies(
    config: SimConfig,
    pair: PredictorPair,
    constraint: PolicyConstraint,
    seeds: Sequence[int],
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> ComparisonReport:
    """Roll out every strategy in ``STRATEGIES`` on common seeds.

    For each seed one catalog is drawn straight into columns
    (``generate_catalog``: no per-item records, and the ids and keys
    of the last catalog drawn are reused), and it is freed before the next
    is drawn. ``predict_batch`` predicts the catalog, each plan
    rule turns them into arm-index arrays, and one ``rollout_arms`` pass rolls
    out a no-coupon holdout and then every rule's plan on that catalog under
    shared sale draws. Realized ROI is incremental sales over the holdout
    times the catalog's mean seller LTV, divided by realized coupon spend
    (``inf`` when a strategy spends nothing).
    """
    if not seeds:
        raise InputError("compare_strategies needs at least one seed")
    if config.n_items < 1:
        raise InputError("config.n_items must be >= 1 for a strategy comparison")
    if not attach_delay_h >= 0:
        raise InputError("attach_delay_h must be >= 0")

    rows = []  # per seed: items, mean LTV, holdout sales, totals per strategy
    ltv_sum = 0.0
    for seed in seeds:
        cfg = dataclasses.replace(config, rng_seed=seed)
        cat = generate_catalog(cfg)
        preds = predict_batch(pair, cat, attach_delay_h)
        no_coupon = np.zeros(len(cat), dtype=np.int64)
        plans = [(no_coupon, no_coupon)]
        plans += [rule(seed, cat, preds, pair, constraint) for rule in STRATEGIES.values()]
        holdout, *totals = rollout_arms(
            GroundTruth(cfg), cat, pair.round1_set, pair.round2_set, plans, attach_delay_h, seed
        )
        rows.append((len(cat), float(cat.ltv.mean()), holdout.sales_count, totals))
        ltv_sum += float(cat.ltv.sum())
        del cat, preds, no_coupon, plans  # the next catalog is drawn without these alive

    n_total = sum(row[0] for row in rows)
    holdout_sales = sum(row[2] for row in rows)
    strategies, per_seed = {}, {}
    for i, name in enumerate(STRATEGIES):
        seed_totals = [totals[i] for *_, totals in rows]
        per_seed[name] = tuple(_metrics(t, sales, n, ltv)
                               for t, (n, ltv, sales, _) in zip(seed_totals, rows))
        summed = RolloutTotals(*map(sum, zip(*map(dataclasses.astuple, seed_totals))))
        strategies[name] = _metrics(summed, holdout_sales, n_total, ltv_sum / n_total)
    return ComparisonReport(
        strategies=strategies,
        per_seed=per_seed,
        holdout_sales_rate=holdout_sales / n_total,
        seeds=tuple(int(s) for s in seeds),
        lift_threshold=constraint.lift_threshold,
        n_items_per_seed=config.n_items,
    )
