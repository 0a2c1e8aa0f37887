"""Core record types, coupon cost arithmetic, and feature-vector encoding.

Everything here is immutable after construction and safe to share across
workers. Currency is integer yen throughout; probabilities are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InputError

# Schema identifiers for the two encoding layouts. Models remember which
# schema they were trained against; predict refuses a mismatched vector.
SCHEMA_ROUND1 = "r1/v1"
SCHEMA_ROUND2 = "r2/v1"

# Item-only coordinates shared by both layouts (order matters).
ITEM_FEATURE_NAMES = (
    "log_price",
    "condition",
    "age_days",
    "likes",
    "demand_index",
    "season_sin",
    "season_cos",
)
N_ITEM_FEATURES = len(ITEM_FEATURE_NAMES)

ROUND1_FEATURE_NAMES = ITEM_FEATURE_NAMES + (
    "attach_delay_h",
    "discount_pct",
    "discount_pct_sq",
    "log_validity_h",
    "cap_ky",
    "discount_x_delay",
)
ROUND2_FEATURE_NAMES = ITEM_FEATURE_NAMES + (
    "elapsed_age_h",
    "discount_pct",
    "discount_pct_sq",
    "log_validity_h",
    "cap_ky",
    "mean_p1",
)
N_COUPON_FEATURES = 4


@dataclass(frozen=True)
class CouponConfig:
    """One treatment arm: a percentage discount with a validity window and cost cap.

    ``discount_pct == 0`` denotes the no-coupon arm; its cap must be 0 and its
    validity is meaningless (normalised to 0 so equality behaves).
    """

    discount_pct: int
    validity_hours: float
    cap_yen: int

    def __post_init__(self):
        if not 0 <= self.discount_pct < 100:
            raise InputError(f"discount_pct must be in [0, 100), got {self.discount_pct}")
        if self.cap_yen < 0:
            raise InputError(f"cap_yen must be >= 0, got {self.cap_yen}")
        if self.discount_pct == 0:
            if self.cap_yen != 0:
                raise InputError("no-coupon arm must have cap_yen = 0")
            object.__setattr__(self, "validity_hours", 0.0)
        else:
            if self.validity_hours <= 0:
                raise InputError(f"validity_hours must be > 0, got {self.validity_hours}")

    @property
    def is_none(self) -> bool:
        return self.discount_pct == 0

    @classmethod
    def none(cls) -> "CouponConfig":
        return cls(discount_pct=0, validity_hours=0.0, cap_yen=0)


@dataclass(frozen=True)
class CouponSet:
    """Ordered treatment arms for one promotion round; arm 0 is always no-coupon."""

    arms: tuple[CouponConfig, ...]
    purpose: str  # "round1" or "round2"

    def __post_init__(self):
        arms = tuple(self.arms)
        object.__setattr__(self, "arms", arms)
        if self.purpose not in ("round1", "round2"):
            raise InputError(f"purpose must be 'round1' or 'round2', got {self.purpose!r}")
        if len(arms) < 2:
            raise InputError("a coupon set needs the no-coupon arm plus at least one coupon")
        if not arms[0].is_none:
            raise InputError("arm 0 must be the no-coupon arm")
        if sum(1 for a in arms if a.is_none) != 1:
            raise InputError("exactly one no-coupon arm allowed")
        if len(set(arms)) != len(arms):
            raise InputError("coupon set contains duplicate arms")

    def __len__(self) -> int:
        return len(self.arms)

    def __iter__(self):
        return iter(self.arms)

    def __getitem__(self, j: int) -> CouponConfig:
        return self.arms[j]


@dataclass(frozen=True)
class ItemRecord:
    """One listing with intrinsic and extrinsic features plus seller value."""

    item_id: str
    seller_id: str
    price_yen: int
    condition: int
    age_days: float
    likes: int
    demand_index: float
    season_phase: float
    seller_ltv_yen: int
    key_action_ts: float
    status: str = "unsold"

    def __post_init__(self):
        if self.price_yen <= 0:
            raise InputError(f"price_yen must be > 0, got {self.price_yen}")
        if self.seller_ltv_yen <= 0:
            raise InputError(f"seller_ltv_yen must be > 0, got {self.seller_ltv_yen}")
        if not 1 <= self.condition <= 5:
            raise InputError(f"condition must be in 1..5, got {self.condition}")
        if self.age_days < 0:
            raise InputError("age_days must be >= 0")
        if self.likes < 0:
            raise InputError("likes must be >= 0")
        if not 0 <= self.season_phase < 1:
            raise InputError(f"season_phase must be in [0, 1), got {self.season_phase}")
        if self.status not in ("unsold", "sold"):
            raise InputError(f"status must be 'unsold' or 'sold', got {self.status!r}")


@dataclass(frozen=True)
class FeatureVector:
    """A fixed-length real vector bound to an encoding schema."""

    values: np.ndarray
    schema_id: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise InputError("feature vector contains non-finite entries")
        expected = schema_length(self.schema_id)
        if values.shape != (expected,):
            raise InputError(
                f"schema {self.schema_id} expects length {expected}, got shape {values.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class OutcomeRecord:
    """One item-round observation from a promotion log."""

    item_id: str
    round: int
    coupon: CouponConfig
    attach_delay_h: float
    sold: bool
    purchase_delay_h: Optional[float] = None
    sale_price_yen: Optional[int] = None
    coupon_cost_yen: Optional[int] = None

    def __post_init__(self):
        if self.round not in (1, 2):
            raise InputError(f"round must be 1 or 2, got {self.round}")
        if self.attach_delay_h < 0:
            raise InputError("attach_delay_h must be >= 0")
        if self.sold:
            if self.purchase_delay_h is None or self.sale_price_yen is None:
                raise InputError("sold record requires purchase_delay_h and sale_price_yen")
            if self.purchase_delay_h < 0:
                raise InputError("purchase_delay_h must be >= 0")
            # A sale attributed to a real coupon must land inside its validity window.
            if not self.coupon.is_none and self.purchase_delay_h > self.coupon.validity_hours:
                raise InputError(
                    "coupon sale outside validity window: "
                    f"{self.purchase_delay_h} > {self.coupon.validity_hours}"
                )
            expected_cost = coupon_cost(self.coupon, self.sale_price_yen)
            if self.coupon_cost_yen != expected_cost:
                raise InputError(
                    f"coupon_cost_yen {self.coupon_cost_yen} != expected {expected_cost}"
                )
        else:
            if self.purchase_delay_h is not None or self.sale_price_yen is not None:
                raise InputError("unsold record must not carry sale fields")
            if self.coupon_cost_yen is not None:
                raise InputError("unsold record must not carry coupon_cost_yen")


def coupon_cost(coupon: CouponConfig, price_yen: int) -> int:
    """Redemption cost in yen of attaching ``coupon`` to an item at ``price_yen``.

    Percentage of the price, floored to whole yen, saturated at the cap.
    The no-coupon arm costs nothing.
    """
    if price_yen <= 0:
        raise InputError(f"price_yen must be > 0, got {price_yen}")
    if coupon.is_none:
        return 0
    return min((price_yen * coupon.discount_pct) // 100, coupon.cap_yen)


def coupon_costs(prices: np.ndarray, coupon_set: CouponSet) -> np.ndarray:
    """Vectorised ``coupon_cost``: an (n, arms) int64 grid, one column per arm.

    Row i, column j is the cost of arm j of ``coupon_set`` on an item priced
    ``prices[i]``; the no-coupon arm (discount 0, cap 0) costs nothing.
    """
    prices = np.asarray(prices, dtype=np.int64)
    disc = np.array([c.discount_pct for c in coupon_set], dtype=np.int64)
    cap = np.array([c.cap_yen for c in coupon_set], dtype=np.int64)
    return np.minimum(prices[:, None] * disc[None, :] // 100, cap[None, :])


def schema_length(schema_id: str) -> int:
    if schema_id == SCHEMA_ROUND1:
        return len(ROUND1_FEATURE_NAMES)
    if schema_id == SCHEMA_ROUND2:
        return len(ROUND2_FEATURE_NAMES)
    raise InputError(f"unknown schema id {schema_id!r}")


def item_features(item: ItemRecord) -> np.ndarray:
    """Item-only coordinates shared by both rounds (raw scale, no standardisation)."""
    return item_feature_matrix([item])[0]


def _coupon_features(coupon: CouponConfig) -> list[float]:
    # Discount enters both linearly and squared so arm-level response curves can
    # bend; validity log-scaled, cap in thousand-yen units; zeros for no-coupon.
    if coupon.is_none:
        return [0.0, 0.0, 0.0, 0.0]
    return [
        float(coupon.discount_pct),
        float(coupon.discount_pct) ** 2,
        math.log1p(coupon.validity_hours),
        coupon.cap_yen / 1000.0,
    ]


def encode_round1(item: ItemRecord, coupon: CouponConfig, attach_delay_h: float) -> FeatureVector:
    """First-round features: item coordinates, attach delay, coupon coordinates,
    and a discount-by-delay interaction (a coupon attached late may move the
    needle differently than the same coupon attached right after the key action)."""
    if attach_delay_h < 0:
        raise InputError("attach_delay_h must be >= 0")
    values = np.concatenate(
        [
            item_features(item),
            [float(attach_delay_h)],
            _coupon_features(coupon),
            [float(coupon.discount_pct) * float(attach_delay_h)],
        ]
    )
    return FeatureVector(values=values, schema_id=SCHEMA_ROUND1)


def encode_round2(item: ItemRecord, coupon: CouponConfig, mean_p1: float) -> FeatureVector:
    """Second-round features: round-1 layout with the attach-delay slot holding the
    item's elapsed age in hours, plus a trailing coordinate for the mean first-round
    propensity over all arms."""
    if not 0.0 <= mean_p1 <= 1.0:
        raise InputError(f"mean_p1 must be in [0, 1], got {mean_p1}")
    elapsed_age_h = float(item.age_days) * 24.0
    values = np.concatenate(
        [item_features(item), [elapsed_age_h], _coupon_features(coupon), [float(mean_p1)]]
    )
    return FeatureVector(values=values, schema_id=SCHEMA_ROUND2)


def encode_round1_batch(
    item_matrix: np.ndarray, coupon: CouponConfig, attach_delay_h: np.ndarray
) -> np.ndarray:
    """Vectorised encode_round1 over a precomputed item-feature matrix (n x 7)."""
    n = item_matrix.shape[0]
    out = np.empty((n, len(ROUND1_FEATURE_NAMES)))
    out[:, :N_ITEM_FEATURES] = item_matrix
    out[:, N_ITEM_FEATURES] = attach_delay_h
    out[:, N_ITEM_FEATURES + 1 : N_ITEM_FEATURES + 1 + N_COUPON_FEATURES] = _coupon_features(
        coupon
    )
    out[:, -1] = coupon.discount_pct * np.asarray(attach_delay_h, dtype=float)
    return out


def encode_round2_batch(
    item_matrix: np.ndarray,
    coupon: CouponConfig,
    elapsed_age_h: np.ndarray,
    mean_p1: np.ndarray,
) -> np.ndarray:
    """Vectorised encode_round2 over a precomputed item-feature matrix (n x 7)."""
    n = item_matrix.shape[0]
    out = np.empty((n, len(ROUND2_FEATURE_NAMES)))
    out[:, :N_ITEM_FEATURES] = item_matrix
    out[:, N_ITEM_FEATURES] = elapsed_age_h
    out[:, N_ITEM_FEATURES + 1 : N_ITEM_FEATURES + 1 + N_COUPON_FEATURES] = _coupon_features(
        coupon
    )
    out[:, -1] = mean_p1
    return out


def feature_matrix(price, condition, age_days, likes, demand, season) -> np.ndarray:
    """Item-only coordinates, one row per item, built column by column.

    Columns follow ``ITEM_FEATURE_NAMES``: log price, condition, age in days,
    likes, demand index, and the season phase as a point on the unit circle.
    ``log``, ``sin`` and ``cos`` go through ``math`` one value at a time: the
    SIMD kernels behind ``np.log``/``np.sin`` may differ from libm in the last
    bit, and every sale draw and artifact downstream depends on these values.
    """
    price = np.asarray(price, dtype=float)
    n = len(price)
    angle = (2.0 * math.pi * np.asarray(season, dtype=float)).tolist()
    out = np.empty((n, N_ITEM_FEATURES))
    out[:, 0] = np.fromiter(map(math.log, price.tolist()), float, n)
    out[:, 1] = condition
    out[:, 2] = age_days
    out[:, 3] = likes
    out[:, 4] = demand
    out[:, 5] = np.fromiter(map(math.sin, angle), float, n)
    out[:, 6] = np.fromiter(map(math.cos, angle), float, n)
    return out


def item_feature_matrix(items: Sequence[ItemRecord]) -> np.ndarray:
    """``feature_matrix`` over a list of records; rows follow the input order."""
    def column(field):
        return np.array([getattr(it, field) for it in items], dtype=float)

    return feature_matrix(
        column("price_yen"),
        column("condition"),
        column("age_days"),
        column("likes"),
        column("demand_index"),
        column("season_phase"),
    )
