"""Synthetic C2C marketplace with a declared structural model of sale propensity.

The ground truth is a logistic model over the raw item features with a
multiplicative treatment term: discount size scaled by a per-item
responsiveness factor and an attach-delay multiplier that decays after a knee.
Buyer interest drops between rounds (lower round-2 base logit), purchase
timing slows with price, and a coupon sale landing outside the coupon's
validity window is recorded as unsold. Every downstream estimator in the
package can therefore be checked against exact propensities. The randomised
trial and every rollout run one two-round core, ``_two_rounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng
from .domain import (
    N_ITEM_FEATURES,
    CatalogArrays,
    CouponConfig,
    CouponSet,
    ItemRecord,
    OutcomeLog,
    OutcomeRecord,
    check_catalog,
    coupon_columns,
    coupon_cost_rows,
)
from .errors import InputError
from .learner import _sigmoid

# Delay multiplier bottoms out here; round-2 attaches never happen earlier,
# which keeps the true round-2 propensity independent of the round-1 arm.
DELAY_FLOOR_AT_H = 48.0
ROUND2_MIN_DELAY_H = DELAY_FLOOR_AT_H

_KEY_ACTION_EPOCH_H = 473_000.0  # arbitrary base for key-action timestamps
# The Poisson likes table spans about 24 sqrt(rate) + 200 entries; a mean above
# a million likes is refused rather than tabled.
MAX_LIKES_RATE = 1e6


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
        for name in ("n_items", "rng_seed", "likes_rate", "max_age_days", "rct_max_delay_h"):
            if not getattr(self, name) >= 0:
                raise InputError(f"{name} must be >= 0")
        for name in ("price_lognormal_params", "ltv_lognormal_params"):
            if not getattr(self, name)[1] >= 0:
                raise InputError(f"{name} sigma must be >= 0")
        if not self.likes_rate <= MAX_LIKES_RATE:
            raise InputError(f"likes_rate must be <= {MAX_LIKES_RATE:.0f}")
        if self.base_logit_r2 >= self.base_logit_r1:
            raise InputError("base_logit_r2 must be < base_logit_r1 (interest decays)")
        if len(self.feature_weights) != N_ITEM_FEATURES:
            raise InputError(
                f"feature_weights needs {N_ITEM_FEATURES} entries, got {len(self.feature_weights)}"
            )
        if not self.effect_scale > 0:
            raise InputError("effect_scale must be > 0")
        if not 0 < self.delay_floor <= 1:
            raise InputError("delay_floor must be in (0, 1]")
        if not 0 < self.delay_knee_h < DELAY_FLOOR_AT_H:
            raise InputError(f"delay_knee_h must be in (0, {DELAY_FLOOR_AT_H})")
        if not self.purchase_time_rate > 0:
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
        return self._treated(
            self.base_logit(round) + item_matrix @ self._w,
            discount_pct,
            self.responsiveness(likes),
            attach_delay_h,
        )

    def _treated(self, logit, discount_pct, responsiveness, attach_delay_h) -> np.ndarray:
        """``propensity_arrays`` from the untreated logit and the responsiveness."""
        shift = (
            self.config.effect_scale
            * np.asarray(discount_pct, dtype=float)
            * responsiveness
            * self.delay_multiplier(attach_delay_h)
        )
        p = _sigmoid(logit + shift)
        return np.clip(p, 1e-15, 1.0 - 1e-15)


def _serial_ids(prefix: str, numbers: range) -> np.ndarray:
    """``f"{prefix}{i:07d}"`` for a step-1 range of i >= 0, as an ``S`` array of UTF-8.

    Each id is one row of a zeroed ``uint8`` buffer, the prefix then the
    zero-padded digits, viewed as ``S`` rows, so no Python object is built per
    id. Numbers from 10**7 on take 8 digits (and so on); a shorter id ends in
    the NUL padding that ``S`` drops.
    """
    head = np.frombuffer(prefix.encode(), dtype=np.uint8)
    start, lo, stop = numbers.start, numbers.start, numbers.stop
    rows = np.zeros((stop - lo, len(head) + max(7, len(str(stop - 1)))), dtype=np.uint8)
    rows[:, : len(head)] = head
    while lo < stop:  # one pass per digit width
        width = max(7, len(str(lo)))
        hi = min(stop, 10**width)
        rest = np.arange(lo, hi, dtype=np.int64)
        for col in range(len(head) + width - 1, len(head) - 1, -1):
            rest, digit = np.divmod(rest, 10)
            rows[lo - start : hi - start, col] = digit + ord("0")
        lo = hi
    return rows.view(f"S{rows.shape[1]}").reshape(-1)


# The id, seller-id and key columns of the last catalog drawn; see ``_serial_columns``.
_kept: tuple = ()


def _serial_columns(n: int) -> tuple:
    """The id, seller-id and ``rng.item_keys`` columns of an ``n``-row simulated catalog.

    They depend on the row number alone, so those of the last catalog drawn
    are kept. A catalog of the same size gets the same arrays, and a smaller
    one a copy of their prefix, so the longer columns are freed with their
    catalog; only a larger one builds and hashes new columns. The arrays are
    read-only, since every catalog of their size shares them.
    """
    global _kept
    if not _kept or len(_kept[0]) < n:
        ids = _serial_ids("it", range(n))
        _kept = (ids, _serial_ids("sl", range(n)), rng.item_keys(ids))
    elif len(_kept[0]) > n:
        _kept = tuple(column[:n].copy() for column in _kept)
    for column in _kept:
        column.flags.writeable = False
    return _kept


def _box_muller(u_radius: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard normal columns from two uniform [0, 1) columns.

    ``r cos(2 pi v)`` and ``r sin(2 pi v)`` with ``r = sqrt(-2 log(1 - u))``,
    finite since ``u < 1``. The cosine and sine come from ``t = tan(pi v)`` as
    ``(1 - t**2) / (1 + t**2)`` and ``2t / (1 + t**2)``: over 10**6 angles
    they lie within 2**-52 of ``np.cos`` and ``np.sin``, and one ``np.tan``
    takes a fraction of the time of those two.
    Both inputs are consumed as scratch space.
    """
    r = np.log1p(np.negative(u_radius, out=u_radius), out=u_radius)
    r *= -2.0
    np.sqrt(r, out=r)
    t = np.tan(np.multiply(u_angle, math.pi, out=u_angle), out=u_angle)
    t_squared = t * t
    r /= t_squared + 1.0
    z_cos = np.subtract(1.0, t_squared, out=t_squared)
    z_cos *= r
    z_sin = np.multiply(t, 2.0, out=t)
    z_sin *= r
    return z_cos, z_sin


def _poisson_cdf(rate: float) -> tuple[int, np.ndarray]:
    """(lo, cdf): the Poisson(``rate``) CDF at lo, lo + 1, ..., its last entry 1.

    The table spans ``rate +- (12 sqrt(rate) + 100)``; the mass outside it is
    below 2**-100 on either side, far below the 2**-53 step of a uniform draw.
    It is built in log space from ``p(k) / p(k - 1) = rate / k``: log p(k) -
    log p(lo) is a running sum of ``log(rate / k)``, shifted by its maximum so
    that no term overflows, and the CDF is normalised by its last partial sum.
    That is within 4e-13 of the exact CDF, relative, up to ``MAX_LIKES_RATE``,
    where ``k log(rate) - lgamma(k + 1)`` loses 2e-9 to cancellation.
    """
    if rate == 0.0:
        return 0, np.ones(1)
    half = 12.0 * math.sqrt(rate) + 100.0
    lo = max(0, math.floor(rate - half))
    log_pmf = np.zeros(math.ceil(rate + half) + 1 - lo)
    np.cumsum(np.log(rate / np.arange(lo + 1.0, lo + len(log_pmf))), out=log_pmf[1:])
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    cdf /= cdf[-1]
    return lo, cdf


def _lognormal_yen(z: np.ndarray, params: tuple[float, float]) -> np.ndarray:
    """``max(1, rint(exp(mu + sigma z)))`` in place on ``z``, still as floats:
    ``from_columns`` refuses an amount past the yen range before it casts."""
    mu, sigma = params
    z *= sigma
    z += mu
    with np.errstate(over="ignore"):  # an infinite amount is refused by name
        np.exp(z, out=z)
    return np.maximum(1.0, np.rint(z, out=z), out=z)


def generate_catalog(config: SimConfig) -> CatalogArrays:
    """A catalog drawn straight into columns and the feature matrix; deterministic per seed.

    The ids, seller ids and keys come from ``_serial_columns``, so a caller
    drawing many catalogs builds and hashes them once; the keys are set. Each
    attribute of a row is drawn from its own ``rng`` substream, addressed by
    (``rng_seed``, the row's item key, the attribute's ``CATALOG_*`` tag)
    below one prefix mixed once per catalog. A row's draws therefore depend on
    its id alone: the first m rows of an M-row catalog are the m-row catalog.

    Condition is ``1 + floor(5u)`` and age ``floor((max_age_days + 1) u)``;
    price and LTV are lognormal through the two halves of one Box-Muller pair,
    and demand through a pair of its own; likes invert an exact Poisson CDF
    (``_poisson_cdf``); season is ``u`` and the key-action time falls
    uniformly within a year of a fixed epoch.
    """
    n = config.n_items
    ids, seller_ids, keys = _serial_columns(n)
    prefix = rng.stream_words(config.rng_seed, keys)

    def uniform(tag: int) -> np.ndarray:
        return rng.words_to_uniforms(rng.extend_words(prefix, tag))

    z_price, z_ltv = _box_muller(uniform(rng.CATALOG_PRICE), uniform(rng.CATALOG_LTV))
    z_demand, _ = _box_muller(uniform(rng.CATALOG_DEMAND), uniform(rng.CATALOG_DEMAND_ANGLE))
    lo, cdf = _poisson_cdf(config.likes_rate)
    key_ts = uniform(rng.CATALOG_KEY_TS)
    key_ts *= 8760.0
    key_ts += _KEY_ACTION_EPOCH_H
    cat = CatalogArrays.from_columns(
        ids=ids,
        seller_ids=seller_ids,
        price=_lognormal_yen(z_price, config.price_lognormal_params),
        condition=(5.0 * uniform(rng.CATALOG_CONDITION)).astype(np.int64) + 1,
        age_days=np.floor((config.max_age_days + 1.0) * uniform(rng.CATALOG_AGE)),
        likes=lo + np.searchsorted(cdf, uniform(rng.CATALOG_LIKES), side="right"),
        demand=z_demand,
        season=uniform(rng.CATALOG_SEASON),
        ltv=_lognormal_yen(z_ltv, config.ltv_lognormal_params),
        key_ts=key_ts,
    )
    cat.__dict__["keys"] = keys  # fills the cached property
    return cat


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


def trial_arms(seed: int, cat: CatalogArrays, round1_set: CouponSet, round2_set: CouponSet,
               round1_probs: Optional[Sequence[float]] = None,
               round2_probs: Optional[Sequence[float]] = None) -> tuple[np.ndarray, np.ndarray]:
    """The randomised trial's (arm1, arm2), one menu index per catalog row and
    round, each round from its own substream keyed by the item key, so a
    survivor's round-2 arm is the one a survivor-only draw gives. None
    probabilities give a menu's arms equal odds; both are checked before a draw."""
    probs = [[1.0 / len(menu)] * len(menu) if given is None else given
             for given, menu in ((round1_probs, round1_set), (round2_probs, round2_set))]
    validate_probs(probs[0], len(round1_set), "round1_probs")
    validate_probs(probs[1], len(round2_set), "round2_probs")
    return (arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R1), probs[0]),
            arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R2), probs[1]))


class _RoundDraws:
    """The part of both rounds that no coupon plan changes, over every catalog row.

    Per round and row: the sale uniform, the untreated logit and the purchase
    delay a sale would have; per row, the coupon responsiveness. A plan then
    adds only its discount shift and its validity truncation, so plans rolled
    out on one seed share these common random numbers and compute them once.
    """

    def __init__(self, gt: GroundTruth, cat: "CatalogArrays", seed: int):
        self.gt = gt
        words = rng.stream_words(seed, cat.keys)
        base = cat.matrix @ gt._w
        rate = purchase_rate(gt.config, cat.price)
        self.responsiveness = gt.responsiveness(cat.likes)
        self._columns = {}
        for round, sale_tag, ptime_tag in (
            (1, rng.SALE_R1, rng.PURCHASE_R1), (2, rng.SALE_R2, rng.PURCHASE_R2)
        ):
            u_sale = rng.words_to_uniforms(rng.extend_words(words, sale_tag))
            u_t = rng.words_to_uniforms(rng.extend_words(words, ptime_tag))
            self._columns[round] = (u_sale, gt.base_logit(round) + base, -np.log1p(-u_t) / rate)

    def round(self, round: int, rows, discount_pct, validity_hours, attach_delay_h):
        """(sold, purchase_delay_h) of the catalog rows ``rows`` in ``round``.

        ``rows`` is an index array or a slice; the other arguments align with
        it or broadcast. A coupon sale drawn past the validity window is
        recorded as unsold; ``purchase_delay_h`` is the drawn delay, sold or not.
        """
        u_sale, logit, t = (c[rows] for c in self._columns[round])
        p = self.gt._treated(logit, discount_pct, self.responsiveness[rows], attach_delay_h)
        sold = u_sale < p
        truncated = sold & (discount_pct > 0) & (t > validity_hours)
        return sold & ~truncated, t


def _two_rounds(draws: _RoundDraws, menu1, arm1, delay1, menu2, arm2):
    """Round 1 over every catalog row, then round 2 over its survivors.

    ``menu*`` are a menu's ``coupon_columns`` (cap unread), ``arm*`` one menu
    index per row and ``delay1`` one attach delay per row or one for all.
    Round 2 attaches once the round-1 coupon's validity has run out (never
    before the round-2 floor). Returns (sold1, t1, surv_idx, delay2, sold2,
    t2): round-2 arrays align with ``surv_idx``; ``t`` is drawn, sold or not.
    """
    (disc1, validity1, *_), (disc2, validity2, *_) = menu1, menu2
    validity1 = validity1[arm1]
    sold1, t1 = draws.round(1, slice(None), disc1[arm1], validity1, delay1)
    surv_idx = np.flatnonzero(~sold1)
    delay2 = round2_attach_delay(
        np.broadcast_to(delay1, len(arm1))[surv_idx], validity1[surv_idx]
    )
    arm2 = arm2[surv_idx]
    sold2, t2 = draws.round(2, surv_idx, disc2[arm2], validity2[arm2], delay2)
    return sold1, t1, surv_idx, delay2, sold2, t2


def _round_log(cat, round, rows, menu, arm, delay, sold, t) -> OutcomeLog:
    """One round's log over the catalog ``rows``, which ascend, so the log is in
    item-id order without a sort.

    ``menu`` is a menu's (discount, validity, cap) columns; ``arm``, ``delay``,
    ``sold`` and the drawn purchase delays ``t`` align with ``rows``.
    """
    disc, validity, cap = (c[arm] for c in menu)
    price = cat.price[rows]
    return OutcomeLog.from_columns(
        item_ids=cat.ids[rows],
        round=np.full(len(rows), round),
        discount_pct=disc,
        validity_hours=validity,
        cap_yen=cap,
        attach_delay_h=delay,
        sold=sold,
        purchase_delay_h=np.where(sold, t, np.nan),
        sale_price_yen=np.where(sold, price, np.nan),
        coupon_cost_yen=np.where(sold, coupon_cost_rows(price, disc, cap), np.nan),
    )


def _trial_logs(gt, cat, menu1, arm1, delay1, menu2, arm2, seed):
    """Both rounds over the whole catalog as two logs, each in item-id order.

    As ``_two_rounds``, but ``delay1`` has one entry per row and the caps are read.
    """
    sold1, t1, surv_idx, delay2, sold2, t2 = _two_rounds(
        _RoundDraws(gt, cat, seed), menu1, arm1, delay1, menu2, arm2
    )
    return (
        _round_log(cat, 1, np.arange(len(cat)), menu1, arm1, delay1, sold1, t1),
        _round_log(cat, 2, surv_idx, menu2, arm2[surv_idx], delay2, sold2, t2),
    )


def run_rct(
    gt: GroundTruth,
    items: CatalogArrays,
    round1_set: CouponSet,
    round2_set: CouponSet,
    round1_probs: Optional[Sequence[float]],
    round2_probs: Optional[Sequence[float]],
    seed: int,
) -> tuple[OutcomeLog, np.ndarray, OutcomeLog]:
    """Randomised two-round trial: independent ``trial_arms`` per round, None being equal odds.

    ``items`` is the catalog, a ``CatalogArrays`` whose rows are the
    ``ItemRecord``s. Returns (round1_log, survivor item ids, round2_log), each
    in item-id order as every log is. The survivors, exactly the items unsold
    after round 1, are ``round2_log.item_ids``, an ``S`` array of UTF-8 ids.
    """
    check_catalog(items)
    arm1, arm2 = trial_arms(seed, items, round1_set, round2_set, round1_probs, round2_probs)
    delay1 = rng.uniforms(seed, items.keys, rng.ATTACH_DELAY) * gt.config.rct_max_delay_h
    round1_log, round2_log = _trial_logs(
        gt, items, coupon_columns(round1_set), arm1, delay1,
        coupon_columns(round2_set), arm2, seed,
    )
    return round1_log, round2_log.item_ids, round2_log


PolicyFn = Callable[[ItemRecord], tuple[tuple[CouponConfig, float], CouponConfig]]


def rollout_policy(
    gt: GroundTruth,
    items: CatalogArrays,
    policy: PolicyFn,
    seed: int,
) -> tuple[list[OutcomeRecord], RolloutTotals]:
    """Simulate both rounds under a per-item policy and tally exact totals.

    ``items`` is the catalog, a ``CatalogArrays``; ``policy`` is called on each
    of its rows, an ``ItemRecord``, and returns ((round1 coupon, round1 attach
    delay), round2 coupon). Sale draws share substreams with run_rct, so
    different policies on the same seed are compared under common random
    numbers. The rounds run on the ``_two_rounds`` core of ``run_rct`` and
    ``rollout_arms``: each row gets a one-entry menu of its own coupons. This
    entry point also returns the records of both rounds' logs, round 1 first.
    """
    check_catalog(items)
    if not items:
        return [], RolloutTotals(0, 0, 0)

    plans = [policy(it) for it in items]
    delay1 = np.array([p[0][1] for p in plans], dtype=float)
    if not np.all(delay1 >= 0):
        raise InputError("policy produced a negative attach delay")
    own = np.arange(len(items))
    logs = _trial_logs(
        gt, items, coupon_columns(p[0][0] for p in plans), own, delay1,
        coupon_columns(p[1] for p in plans), own, seed,
    )
    return [*logs[0], *logs[1]], RolloutTotals(
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
    plans: Sequence[tuple[np.ndarray, np.ndarray]],
    attach_delay_h: float,
    seed: int,
) -> list[RolloutTotals]:
    """Simulate both rounds under each plan's per-row arm indices; exact totals per plan.

    Each plan is an (arm1, arm2) pair holding one menu index per catalog row,
    arm 0 being the no-coupon arm; round-1 coupons attach ``attach_delay_h``
    hours after the key action. Every plan is checked before any is rolled out.
    The plans share one seed's common random numbers: the sale uniforms of
    both rounds, the untreated logits, the responsiveness and the purchase
    delays are computed once, and each plan adds only its discount shift and
    validity truncation. Coupon costs are computed for the sold rows alone.
    Each plan runs the ``_two_rounds`` core of ``run_rct`` and
    ``rollout_policy``, so its totals equal those of ``rollout_policy`` under
    the equivalent per-item policy.
    """
    check_catalog(cat)
    if not attach_delay_h >= 0:
        raise InputError("attach_delay_h must be >= 0")
    n = len(cat)
    plans = [
        (_check_arms(arm1, n, round1_set, "arm1"), _check_arms(arm2, n, round2_set, "arm2"))
        for arm1, arm2 in plans
    ]
    draws = _RoundDraws(gt, cat, seed)
    menu1, menu2 = coupon_columns(round1_set), coupon_columns(round2_set)
    (disc1, _, cap1), (disc2, _, cap2) = menu1, menu2
    totals = []
    for arm1, arm2 in plans:
        sold1, _, surv_idx, _, sold2, _ = _two_rounds(
            draws, menu1, arm1, float(attach_delay_h), menu2, arm2
        )
        sold1_rows, sold2_rows = np.flatnonzero(sold1), surv_idx[sold2]
        a1, a2 = arm1[sold1_rows], arm2[sold2_rows]
        price1, price2 = cat.price[sold1_rows], cat.price[sold2_rows]
        totals.append(RolloutTotals(
            sales_count=len(sold1_rows) + len(sold2_rows),
            coupon_cost_yen=int(coupon_cost_rows(price1, disc1[a1], cap1[a1]).sum()
                                + coupon_cost_rows(price2, disc2[a2], cap2[a2]).sum()),
            gmv_yen=int(price1.sum() + price2.sum()),
        ))
    return totals
