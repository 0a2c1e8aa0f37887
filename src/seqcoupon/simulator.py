"""Synthetic C2C marketplace with a declared structural model of sale propensity.

The ground truth is a logistic model over the raw item features with a
multiplicative treatment term: discount size scaled by a per-item
responsiveness factor and an attach-delay multiplier that decays after a knee.
Buyer interest drops between rounds (lower round-2 base logit), purchase
timing slows with price, and a coupon sale landing outside the coupon's
validity window is recorded as unsold. Every downstream estimator in the
package can therefore be checked against exact propensities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import rng
from .domain import (
    N_ITEM_FEATURES,
    CouponConfig,
    CouponSet,
    ItemRecord,
    OutcomeLog,
    OutcomeRecord,
    _check_column,
    _check_unique_ids,
    _id_rows,
    coupon_cost_rows,
    coupon_costs,
    feature_matrix,
)
from .errors import InputError

# Delay multiplier bottoms out here; round-2 attaches never happen earlier,
# which keeps the true round-2 propensity independent of the round-1 arm.
DELAY_FLOOR_AT_H = 48.0
ROUND2_MIN_DELAY_H = 48.0

_KEY_ACTION_EPOCH_H = 473_000.0  # arbitrary base for key-action timestamps


@dataclass(frozen=True)
class SimConfig:
    """Structural-model and sampling parameters. Values are simulator inventions."""

    n_items: int = 50_000
    rng_seed: int = 42
    base_logit_r1: float = 1.1
    base_logit_r2: float = 0.3
    feature_weights: tuple[float, ...] = (-0.30, 0.15, -0.004, 0.06, 0.45, 0.12, 0.08)
    effect_scale: float = 0.045
    delay_knee_h: float = 10.0
    delay_floor: float = 0.3
    purchase_time_rate: float = 0.35
    ltv_lognormal_params: tuple[float, float] = (9.2, 0.6)
    price_lognormal_params: tuple[float, float] = (8.1, 0.75)
    likes_rate: float = 3.0
    max_age_days: int = 90
    rct_max_delay_h: float = 36.0

    def __post_init__(self):
        if self.n_items < 0:
            raise InputError("n_items must be >= 0")
        if self.base_logit_r2 >= self.base_logit_r1:
            raise InputError("base_logit_r2 must be < base_logit_r1 (interest decays)")
        if len(self.feature_weights) != N_ITEM_FEATURES:
            raise InputError(
                f"feature_weights needs {N_ITEM_FEATURES} entries, got {len(self.feature_weights)}"
            )
        if self.effect_scale <= 0:
            raise InputError("effect_scale must be > 0")
        if not 0 < self.delay_floor <= 1:
            raise InputError("delay_floor must be in (0, 1]")
        if not 0 < self.delay_knee_h < DELAY_FLOOR_AT_H:
            raise InputError(f"delay_knee_h must be in (0, {DELAY_FLOOR_AT_H})")
        if self.purchase_time_rate <= 0:
            raise InputError("purchase_time_rate must be > 0")


@dataclass(frozen=True)
class RolloutTotals:
    sales_count: int
    coupon_cost_yen: int
    gmv_yen: int


class GroundTruth:
    """Oracle over the structural model; a deterministic function of SimConfig."""

    def __init__(self, config: SimConfig):
        self.config = config
        self._w = np.asarray(config.feature_weights, dtype=float)

    def delay_multiplier(self, attach_delay_h):
        """1 up to the knee, linear down to the floor at 48h, flat after."""
        cfg = self.config
        d = np.asarray(attach_delay_h, dtype=float)
        span = DELAY_FLOOR_AT_H - cfg.delay_knee_h
        frac = np.clip((d - cfg.delay_knee_h) / span, 0.0, 1.0)
        return 1.0 + (cfg.delay_floor - 1.0) * frac

    @staticmethod
    def responsiveness(likes):
        """Heterogeneous coupon responsiveness: 0.5 + min(likes, 10) / 10."""
        return 0.5 + np.minimum(np.asarray(likes, dtype=float), 10.0) / 10.0

    def base_logit(self, round: int) -> float:
        if round == 1:
            return self.config.base_logit_r1
        if round == 2:
            return self.config.base_logit_r2
        raise InputError(f"round must be 1 or 2, got {round}")

    def propensity_arrays(
        self,
        item_matrix: np.ndarray,
        likes: np.ndarray,
        discount_pct: np.ndarray,
        round: int,
        attach_delay_h: np.ndarray,
    ) -> np.ndarray:
        """Vectorised true propensity; discount 0 gives the untreated propensity."""
        logit = self.base_logit(round) + item_matrix @ self._w
        shift = (
            self.config.effect_scale
            * np.asarray(discount_pct, dtype=float)
            * self.responsiveness(likes)
            * self.delay_multiplier(attach_delay_h)
        )
        p = _sigmoid(logit + shift)
        return np.clip(p, 1e-15, 1.0 - 1e-15)


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _draw_catalog(config: SimConfig) -> dict:
    """The catalog's columns, keyed by ``CatalogArrays`` field; deterministic per seed.

    Draws no keys and builds no features: both catalog generators start here.
    """
    n = config.n_items
    gen = np.random.default_rng([config.rng_seed, 0xCA7A])
    price_mu, price_sigma = config.price_lognormal_params
    ltv_mu, ltv_sigma = config.ltv_lognormal_params
    price = np.maximum(1, np.rint(gen.lognormal(price_mu, price_sigma, n))).astype(np.int64)
    condition = gen.integers(1, 6, n)
    age_days = gen.integers(0, config.max_age_days + 1, n).astype(float)
    likes = gen.poisson(config.likes_rate, n)
    demand = gen.normal(0.0, 1.0, n)
    season = gen.uniform(0.0, 1.0, n)
    ltv = np.maximum(1, np.rint(gen.lognormal(ltv_mu, ltv_sigma, n))).astype(np.int64)
    key_ts = _KEY_ACTION_EPOCH_H + gen.uniform(0.0, 8760.0, n)
    return dict(
        ids=tuple(f"it{i:07d}" for i in range(n)),
        seller_ids=tuple(f"sl{i:07d}" for i in range(n)),
        price=price,
        condition=condition,
        age_days=age_days,
        likes=likes,
        demand=demand,
        season=season,
        ltv=ltv,
        key_ts=key_ts,
        status=("unsold",) * n,
    )


def _item_records(ids, seller_ids, price, condition, age_days, likes, demand, season,
                  ltv, key_ts, status) -> list[ItemRecord]:
    """One validated ``ItemRecord`` per row of the catalog columns."""
    return [
        ItemRecord(*row)
        for row in zip(
            ids, seller_ids, price.tolist(), condition.tolist(), age_days.tolist(),
            likes.tolist(), demand.tolist(), season.tolist(), ltv.tolist(),
            key_ts.tolist(), status,
        )
    ]


def generate_catalog(config: SimConfig) -> list[ItemRecord]:
    """Draw a catalog from the declared distributions; deterministic per seed."""
    return _item_records(**_draw_catalog(config))


def generate_catalog_arrays(config: SimConfig) -> "CatalogArrays":
    """``generate_catalog`` drawn straight into columns, keys and feature matrix.

    ``generate_catalog_arrays(config).to_items() == generate_catalog(config)``.
    """
    return CatalogArrays.from_columns(**_draw_catalog(config))


@dataclass(frozen=True)
class CatalogArrays:
    """A catalog as columns, one per ``ItemRecord`` field, plus keys and features.

    Row i of every column describes the same item; ``matrix`` holds its raw
    item features and ``keys`` its ``rng.item_key``.
    """

    ids: tuple[str, ...]
    seller_ids: tuple[str, ...]
    price: np.ndarray  # int64 yen
    condition: np.ndarray  # int64, 1..5
    age_days: np.ndarray
    likes: np.ndarray  # int64
    demand: np.ndarray
    season: np.ndarray  # phase in [0, 1)
    ltv: np.ndarray  # int64 yen
    key_ts: np.ndarray
    status: tuple[str, ...]
    keys: np.ndarray
    matrix: np.ndarray  # n x N_ITEM_FEATURES, raw item features

    @classmethod
    def from_columns(cls, ids, seller_ids, price, condition, age_days, likes, demand,
                     season, ltv, key_ts, status) -> "CatalogArrays":
        """Validate the columns as ``ItemRecord`` would, then hash keys and featurise."""
        ids, seller_ids, status = tuple(ids), tuple(seller_ids), tuple(status)
        price = np.asarray(price, dtype=np.int64)
        condition = np.asarray(condition, dtype=np.int64)
        age_days = np.asarray(age_days, dtype=float)
        likes = np.asarray(likes, dtype=np.int64)
        demand = np.asarray(demand, dtype=float)
        season = np.asarray(season, dtype=float)
        ltv = np.asarray(ltv, dtype=np.int64)
        key_ts = np.asarray(key_ts, dtype=float)
        columns = (seller_ids, price, condition, age_days, likes, demand, season,
                   ltv, key_ts, status)
        if any(len(c) != len(ids) for c in columns):
            raise InputError(f"every catalog column needs one entry per id ({len(ids)})")
        _check_column(price <= 0, price, "price_yen must be > 0, got {}")
        _check_column(ltv <= 0, ltv, "seller_ltv_yen must be > 0, got {}")
        _check_column(~((1 <= condition) & (condition <= 5)), condition,
                      "condition must be in 1..5, got {}")
        _check_column(age_days < 0, age_days, "age_days must be >= 0")
        _check_column(likes < 0, likes, "likes must be >= 0")
        _check_column(~((0 <= season) & (season < 1)), season,
                      "season_phase must be in [0, 1), got {}")
        bad_status = set(status) - {"unsold", "sold"}
        if bad_status:
            raise InputError(f"status must be 'unsold' or 'sold', got {min(bad_status)!r}")
        _check_unique_ids(ids, "catalog")
        return cls(
            ids=ids, seller_ids=seller_ids, price=price, condition=condition,
            age_days=age_days, likes=likes, demand=demand, season=season, ltv=ltv,
            key_ts=key_ts, status=status,
            keys=rng.item_keys(ids),
            matrix=feature_matrix(price, condition, age_days, likes, demand, season),
        )

    @classmethod
    def from_items(cls, items: Sequence[ItemRecord]) -> "CatalogArrays":
        # Each column becomes an array before the next is gathered, so only one
        # per-item list is alive at a time.
        def column(field, dtype=None):
            values = [getattr(it, field) for it in items]
            return tuple(values) if dtype is None else np.array(values, dtype=dtype)

        return cls.from_columns(
            ids=column("item_id"),
            seller_ids=column("seller_id"),
            price=column("price_yen", np.int64),
            condition=column("condition", np.int64),
            age_days=column("age_days", float),
            likes=column("likes", np.int64),
            demand=column("demand_index", float),
            season=column("season_phase", float),
            ltv=column("seller_ltv_yen", np.int64),
            key_ts=column("key_action_ts", float),
            status=column("status"),
        )

    def to_items(self) -> list[ItemRecord]:
        """One ``ItemRecord`` per row, in row order."""
        return _item_records(
            self.ids, self.seller_ids, self.price, self.condition, self.age_days,
            self.likes, self.demand, self.season, self.ltv, self.key_ts, self.status,
        )

    def take(self, rows: np.ndarray) -> "CatalogArrays":
        """The catalog restricted to ``rows``, in that order; nothing is recomputed."""
        index = rows.tolist()
        ids, seller_ids, status = (
            tuple(c[i] for i in index) for c in (self.ids, self.seller_ids, self.status)
        )
        return CatalogArrays(
            ids=ids, seller_ids=seller_ids, price=self.price[rows],
            condition=self.condition[rows], age_days=self.age_days[rows],
            likes=self.likes[rows], demand=self.demand[rows], season=self.season[rows],
            ltv=self.ltv[rows], key_ts=self.key_ts[rows], status=status,
            keys=self.keys[rows], matrix=self.matrix[rows],
        )

    def rows_of(self, ids: Sequence[str]) -> np.ndarray:
        """The catalog row of each id, in the order given; an unknown id raises."""
        rows, found = _id_rows(self.ids, ids)
        _check_column(~found, tuple(ids), "log references unknown item {!r}")
        return rows

    def __len__(self) -> int:
        return len(self.ids)


def _as_catalog(items) -> CatalogArrays:
    """A ``CatalogArrays`` as is, or a sequence of ``ItemRecord``s converted to one."""
    return items if isinstance(items, CatalogArrays) else CatalogArrays.from_items(items)


def purchase_rate(config: SimConfig, price_yen) -> np.ndarray:
    """Exponential purchase-timing rate; pricier items take longer to sell."""
    price = np.asarray(price_yen, dtype=float)
    return config.purchase_time_rate / (1.0 + np.log(price / 1000.0 + 1.0))


def round2_attach_delay(round1_delay_h, round1_validity_h) -> np.ndarray:
    """Hours after the key action at which the round-2 coupon attaches."""
    d = np.asarray(round1_delay_h, dtype=float) + np.asarray(round1_validity_h, dtype=float)
    return np.maximum(ROUND2_MIN_DELAY_H, d)


def arm_draw(u: np.ndarray, probs: Sequence[float]) -> np.ndarray:
    cum = np.cumsum(np.asarray(probs, dtype=float))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def validate_probs(probs: Sequence[float], n_arms: int, label: str):
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (n_arms,):
        raise InputError(f"{label}: need one probability per arm ({n_arms})")
    if np.any(probs < 0):
        raise InputError(f"{label}: probabilities must be >= 0")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise InputError(f"{label}: probabilities must sum to 1, got {probs.sum()}")


def _coupon_columns(coupons: Iterable[CouponConfig]) -> tuple[np.ndarray, ...]:
    """(discount_pct, validity_hours, cap_yen) columns, one entry per coupon."""
    coupons = list(coupons)
    return (
        np.array([c.discount_pct for c in coupons], dtype=np.int64),
        np.array([c.validity_hours for c in coupons], dtype=float),
        np.array([c.cap_yen for c in coupons], dtype=np.int64),
    )


def _simulate_round(
    gt: GroundTruth,
    cat: CatalogArrays,
    idx: np.ndarray,
    discount_pct: np.ndarray,
    validity_hours: np.ndarray,
    attach_delay_h: np.ndarray,
    round: int,
    seed: int,
    sale_tag: int,
    ptime_tag: int,
):
    """Bernoulli sale draws plus purchase timing with validity truncation.

    ``discount_pct``, ``validity_hours`` and ``attach_delay_h`` align with the
    catalog rows ``idx``. Returns (sold, purchase_delay_h) for those rows;
    purchase_delay_h is NaN where unsold.
    """
    keys = cat.keys[idx]
    p = gt.propensity_arrays(cat.matrix[idx], cat.likes[idx], discount_pct, round, attach_delay_h)
    sold = rng.uniforms(seed, keys, sale_tag) < p

    u_t = rng.uniforms(seed, keys, ptime_tag)
    lam = purchase_rate(gt.config, cat.price[idx])
    t = -np.log1p(-u_t) / lam

    # A coupon sale drawn past the validity window is recorded as unsold.
    real = discount_pct > 0
    truncated = sold & real & (t > validity_hours)
    sold = sold & ~truncated
    t = np.where(sold, t, np.nan)
    return sold, t


def _simulate_rounds(
    gt: GroundTruth,
    cat: CatalogArrays,
    disc1: np.ndarray,
    validity1: np.ndarray,
    delay1: np.ndarray,
    disc2: np.ndarray,
    validity2: np.ndarray,
    seed: int,
):
    """Both rounds over the whole catalog; every input has one entry per row.

    Round 2 runs on the round-1 survivors only, attached once the round-1
    coupon's validity has run out (never before the round-2 floor). Returns
    (sold1, t1, surv_idx, delay2, sold2, t2); the round-2 arrays align with
    ``surv_idx``.
    """
    sold1, t1 = _simulate_round(
        gt, cat, np.arange(len(cat)), disc1, validity1, delay1, 1, seed,
        rng.SALE_R1, rng.PURCHASE_R1,
    )
    surv_idx = np.flatnonzero(~sold1)
    delay2 = round2_attach_delay(delay1[surv_idx], validity1[surv_idx])
    sold2, t2 = _simulate_round(
        gt, cat, surv_idx, disc2[surv_idx], validity2[surv_idx], delay2, 2, seed,
        rng.SALE_R2, rng.PURCHASE_R2,
    )
    return sold1, t1, surv_idx, delay2, sold2, t2


def _id_rank(cat: CatalogArrays) -> np.ndarray:
    """Each catalog row's position in item-id order."""
    ids = np.array(cat.ids)
    if (ids[1:] > ids[:-1]).all():
        return np.arange(len(ids))
    rank = np.empty(len(ids), dtype=np.intp)
    rank[np.argsort(ids)] = np.arange(len(ids))
    return rank


def _round_log(cat, rank, rows, round, disc, validity, cap, delay, sold, t) -> OutcomeLog:
    """One round's log over the catalog ``rows``, sorted by item id.

    Every other column aligns with ``rows``; ``t`` is NaN where unsold.
    """
    order = np.argsort(rank[rows], kind="stable")
    rows, disc, cap, sold = rows[order], disc[order], cap[order], sold[order]
    price = cat.price[rows]
    return OutcomeLog.from_columns(
        item_ids=[cat.ids[i] for i in rows.tolist()],
        round=np.full(len(rows), round),
        discount_pct=disc,
        validity_hours=validity[order],
        cap_yen=cap,
        attach_delay_h=delay[order],
        sold=sold,
        purchase_delay_h=t[order],
        sale_price_yen=np.where(sold, price, np.nan),
        coupon_cost_yen=np.where(sold, coupon_cost_rows(price, disc, cap), np.nan),
    )


def _round_logs(cat, coupons1, delay1, coupons2, sold1, t1, surv_idx, delay2, sold2, t2):
    """The logs of both rounds, each sorted by item id.

    ``coupons1``/``coupons2`` are (discount, validity, cap) columns and
    ``delay1`` a column, one entry per catalog row; the rest is the result of
    ``_simulate_rounds``.
    """
    rank = _id_rank(cat)
    log1 = _round_log(cat, rank, np.arange(len(cat)), 1, *coupons1, delay1, sold1, t1)
    disc2, validity2, cap2 = (c[surv_idx] for c in coupons2)
    log2 = _round_log(cat, rank, surv_idx, 2, disc2, validity2, cap2, delay2, sold2, t2)
    return log1, log2


def run_rct(
    gt: GroundTruth,
    items,
    round1_set: CouponSet,
    round2_set: CouponSet,
    round1_probs: Sequence[float],
    round2_probs: Sequence[float],
    seed: int,
) -> tuple[OutcomeLog, list[str], OutcomeLog]:
    """Randomised two-round trial: independent arm draws per round with holdout.

    ``items`` is a ``CatalogArrays`` or a sequence of ``ItemRecord``s. Returns
    (round1_log, survivor item ids, round2_log), each sorted by item_id.
    Survivors are exactly the items unsold after round 1.
    """
    validate_probs(round1_probs, len(round1_set), "round1_probs")
    validate_probs(round2_probs, len(round2_set), "round2_probs")
    cat = _as_catalog(items)

    # Draws are per item key, so drawing round-2 arms for every row and using
    # only the survivors' reproduces a survivor-only draw.
    arm1 = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R1), round1_probs)
    arm2 = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R2), round2_probs)
    delay1 = rng.uniforms(seed, cat.keys, rng.ATTACH_DELAY) * gt.config.rct_max_delay_h
    coupons1 = [c[arm1] for c in _coupon_columns(round1_set)]
    coupons2 = [c[arm2] for c in _coupon_columns(round2_set)]
    rounds = _simulate_rounds(
        gt, cat, coupons1[0], coupons1[1], delay1, coupons2[0], coupons2[1], seed
    )
    round1_log, round2_log = _round_logs(cat, coupons1, delay1, coupons2, *rounds)
    return round1_log, list(round2_log.item_ids), round2_log


PolicyFn = Callable[[ItemRecord], tuple[tuple[CouponConfig, float], CouponConfig]]


def rollout_policy(
    gt: GroundTruth,
    items: Sequence[ItemRecord],
    policy: PolicyFn,
    seed: int,
) -> tuple[list[OutcomeRecord], RolloutTotals]:
    """Simulate both rounds under a per-item policy and tally exact totals.

    ``policy(item)`` returns ((round1 coupon, round1 attach delay), round2 coupon).
    Sale draws share substreams with run_rct, so different policies on the same
    seed are compared under common random numbers. The rounds run on the same
    core as ``rollout_arms``; this entry point also returns the records of
    both rounds' logs, round 1 first.
    """
    if not items:
        return [], RolloutTotals(0, 0, 0)
    cat = CatalogArrays.from_items(items)

    plans = [policy(it) for it in items]
    coupons1 = _coupon_columns(p[0][0] for p in plans)
    coupons2 = _coupon_columns(p[1] for p in plans)
    delay1 = np.array([p[0][1] for p in plans], dtype=float)
    if np.any(delay1 < 0):
        raise InputError("policy produced a negative attach delay")
    rounds = _simulate_rounds(
        gt, cat, coupons1[0], coupons1[1], delay1, coupons2[0], coupons2[1], seed
    )
    logs = _round_logs(cat, coupons1, delay1, coupons2, *rounds)
    return logs[0].to_records() + logs[1].to_records(), RolloutTotals(
        sales_count=sum(int(log.sold.sum()) for log in logs),
        coupon_cost_yen=sum(int(log.coupon_cost_yen.sum()) for log in logs),
        gmv_yen=sum(int(log.sale_price_yen.sum()) for log in logs),
    )


def _check_arms(arms, n: int, coupon_set: CouponSet, label: str) -> np.ndarray:
    arms = np.asarray(arms)
    if arms.shape != (n,) or not np.issubdtype(arms.dtype, np.integer):
        raise InputError(f"{label}: need one integer arm index per catalog row ({n})")
    if n and (arms.min() < 0 or arms.max() >= len(coupon_set)):
        raise InputError(f"{label}: arm indices must lie in [0, {len(coupon_set)})")
    return arms


def rollout_arms(
    gt: GroundTruth,
    cat: CatalogArrays,
    round1_set: CouponSet,
    round2_set: CouponSet,
    arm1: np.ndarray,
    arm2: np.ndarray,
    attach_delay_h: float,
    seed: int,
) -> RolloutTotals:
    """Simulate both rounds under per-row arm indices and tally exact totals.

    ``arm1``/``arm2`` hold one menu index per catalog row, arm 0 being the
    no-coupon arm; round-1 coupons attach ``attach_delay_h`` hours after the
    key action. The draws are those of ``rollout_policy`` under the equivalent
    per-item policy, so the totals equal its totals, summed here over integer
    columns instead of per-item records.
    """
    if attach_delay_h < 0:
        raise InputError("attach_delay_h must be >= 0")
    n = len(cat)
    arm1 = _check_arms(arm1, n, round1_set, "arm1")
    arm2 = _check_arms(arm2, n, round2_set, "arm2")
    disc1, validity1, _ = _coupon_columns(round1_set)
    disc2, validity2, _ = _coupon_columns(round2_set)
    sold1, _, surv_idx, _, sold2, _ = _simulate_rounds(
        gt, cat, disc1[arm1], validity1[arm1], np.full(n, float(attach_delay_h)),
        disc2[arm2], validity2[arm2], seed,
    )
    rows = np.arange(n)
    cost1 = coupon_costs(cat.price, round1_set)[rows, arm1]
    cost2 = coupon_costs(cat.price, round2_set)[rows, arm2]
    sold2_rows = surv_idx[sold2]
    return RolloutTotals(
        sales_count=int(sold1.sum()) + len(sold2_rows),
        coupon_cost_yen=int(cost1[sold1].sum() + cost2[sold2_rows].sum()),
        gmv_yen=int(cat.price[sold1].sum() + cat.price[sold2_rows].sum()),
    )
