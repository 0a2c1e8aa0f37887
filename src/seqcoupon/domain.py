"""Core record types and the columnar outcome log, coupon cost arithmetic, and
feature-vector encoding.

Everything here is immutable after construction and safe to share across
workers. Currency is integer yen throughout, below ``YEN_BOUND`` in magnitude;
probabilities are floats. Every function that reads a log takes an
``OutcomeLog``; ``OutcomeLog.from_records`` turns a list of ``OutcomeRecord``s
into one, and iterating a log yields its records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError

# Schema identifiers for the two encoding layouts. Models remember which
# schema they were trained against; a predictor pair refuses a mismatched model.
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

# Yen amounts are integers below 2**53, the largest a float column holds exactly.
YEN_BOUND = 2**53


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


def coupon_cost_rows(prices, discount_pct, cap_yen) -> np.ndarray:
    """Vectorised ``coupon_cost`` for aligned (or broadcastable) int64 columns.

    The no-coupon arm (discount 0, cap 0) costs nothing.
    """
    prices = np.asarray(prices, dtype=np.int64)
    return np.minimum(prices * np.asarray(discount_pct, dtype=np.int64) // 100,
                      np.asarray(cap_yen, dtype=np.int64))


def coupon_columns(coupons: Iterable[CouponConfig]) -> tuple[np.ndarray, ...]:
    """(discount_pct, validity_hours, cap_yen) columns, one entry per coupon."""
    coupons = list(coupons)
    return (
        np.array([c.discount_pct for c in coupons], dtype=np.int64),
        np.array([c.validity_hours for c in coupons], dtype=float),
        np.array([c.cap_yen for c in coupons], dtype=np.int64),
    )


def coupon_costs(prices: np.ndarray, coupon_set: CouponSet) -> np.ndarray:
    """``coupon_cost_rows`` over a menu: an (n, arms) int64 grid, one column per arm.

    Row i, column j is the cost of arm j of ``coupon_set`` on an item priced
    ``prices[i]``.
    """
    disc, _, cap = coupon_columns(coupon_set)
    return coupon_cost_rows(np.asarray(prices, dtype=np.int64)[:, None], disc, cap)


def _check_column(bad: np.ndarray, column, message: str) -> None:
    """Raise ``InputError(message.format(first bad value))`` if any row is bad."""
    if bad.any():
        value = column[int(np.argmax(bad))]
        raise InputError(message.format(value.item() if hasattr(value, "item") else value))


def _check_yen(column, name: str, rows=True) -> np.ndarray:
    """``column`` as an array, refusing a yen amount (or NaN) of ``rows`` outside
    (-2**53, 2**53). Runs before any cast to int64, which would overflow or
    wrap past 2**63."""
    column = np.asarray(column)
    inside = ((-YEN_BOUND < column) & (column < YEN_BOUND)).astype(bool, copy=False)
    _check_column(rows & ~inside, column,
                  f"{name} is out of range, |yen| must be below 2**53, got {{}}")
    return column


def _check_unique_ids(ids: Sequence[str], what: str) -> None:
    """Refuse a repeated id, naming the first row whose id was seen before."""
    if len(set(ids)) == len(ids):
        return
    seen = set()
    for item_id in ids:
        if item_id in seen:
            raise InputError(f"{what} repeats item id {item_id!r}")
        seen.add(item_id)


def _id_rows(own: Sequence[str], ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``ids``, a row of ``own`` holding that id, and whether one does.

    ``own`` must not repeat an id. One sort of ``own`` (skipped when it is
    already sorted) and one ``searchsorted`` join the whole sequence.
    """
    own, ids = tuple(own), tuple(ids)
    if ids == own:
        return np.arange(len(ids)), np.ones(len(ids), dtype=bool)
    if not ids or not own:
        return np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
    have, want = np.array(own), np.array(ids)
    order = None if (have[1:] > have[:-1]).all() else np.argsort(have, kind="stable")
    rows = np.minimum(np.searchsorted(have, want, sorter=order), len(have) - 1)
    if order is not None:
        rows = order[rows]
    return rows, have[rows] == want


def _coupon(discount_pct: int, validity_hours: float, cap_yen: int) -> CouponConfig:
    if discount_pct == 0:
        return CouponConfig.none()
    return CouponConfig(discount_pct, validity_hours, cap_yen)


@dataclass(frozen=True)
class OutcomeLog:
    """A promotion log as columns: row i of every column is one ``OutcomeRecord``.

    The coupon is split into ``discount_pct``/``validity_hours``/``cap_yen``
    (validity and cap are 0 on no-coupon rows). ``purchase_delay_h`` is NaN
    and ``sale_price_yen``/``coupon_cost_yen`` are 0 where the item did not
    sell. Iterating yields ``OutcomeRecord``s built on demand.
    """

    item_ids: tuple[str, ...]
    round: np.ndarray  # int64, 1 or 2
    discount_pct: np.ndarray  # int64
    validity_hours: np.ndarray
    cap_yen: np.ndarray  # int64
    attach_delay_h: np.ndarray
    sold: np.ndarray  # bool
    purchase_delay_h: np.ndarray
    sale_price_yen: np.ndarray  # int64
    coupon_cost_yen: np.ndarray  # int64

    @classmethod
    def from_columns(cls, item_ids, round, discount_pct, validity_hours, cap_yen,
                     attach_delay_h, sold, purchase_delay_h, sale_price_yen,
                     coupon_cost_yen) -> "OutcomeLog":
        """Validate the columns as ``CouponConfig`` and ``OutcomeRecord`` would.

        The last three columns are floats with NaN for a missing value (a
        record's None); yen amounts must be integers below 2**53.
        """
        item_ids = tuple(item_ids)
        round = np.asarray(round, dtype=np.int64)
        disc = np.asarray(discount_pct, dtype=np.int64)
        validity = np.asarray(validity_hours, dtype=float)
        cap = np.asarray(_check_yen(cap_yen, "cap_yen"), dtype=np.int64)
        attach = np.asarray(attach_delay_h, dtype=float)
        sold = np.asarray(sold, dtype=bool)
        purchase = np.asarray(purchase_delay_h, dtype=float)
        price = np.asarray(sale_price_yen, dtype=float)
        cost = np.asarray(coupon_cost_yen, dtype=float)
        columns = (round, disc, validity, cap, attach, sold, purchase, price, cost)
        if any(c.shape != (len(item_ids),) for c in columns):
            raise InputError(f"every log column needs one entry per id ({len(item_ids)})")

        _check_column(~((0 <= disc) & (disc < 100)), disc,
                     "discount_pct must be in [0, 100), got {}")
        _check_column(cap < 0, cap, "cap_yen must be >= 0, got {}")
        none = disc == 0
        _check_column(none & (cap != 0), cap, "no-coupon arm must have cap_yen = 0")
        validity = np.where(none, 0.0, validity)
        _check_column(~none & (validity <= 0), validity, "validity_hours must be > 0, got {}")

        _check_column((round != 1) & (round != 2), round, "round must be 1 or 2, got {}")
        _check_column(attach < 0, attach, "attach_delay_h must be >= 0")
        has_t, has_price, has_cost = ~np.isnan(purchase), ~np.isnan(price), ~np.isnan(cost)
        _check_yen(price, "sale_price_yen", has_price)
        _check_yen(cost, "coupon_cost_yen", has_cost)
        _check_column(sold & ~(has_t & has_price), sold,
                     "sold record requires purchase_delay_h and sale_price_yen")
        _check_column(sold & (purchase < 0), purchase, "purchase_delay_h must be >= 0")
        outside = sold & ~none & (purchase > validity)
        if outside.any():
            i = int(np.argmax(outside))
            raise InputError(
                f"coupon sale outside validity window: {purchase[i]} > {validity[i]}"
            )
        sale_price = np.where(sold, price, 1).astype(np.int64)
        _check_column(sold & (sale_price <= 0), sale_price, "price_yen must be > 0, got {}")
        expected = coupon_cost_rows(sale_price, disc, cap)
        wrong = sold & ~(has_cost & (cost == expected))
        if wrong.any():
            i = int(np.argmax(wrong))
            got = int(cost[i]) if has_cost[i] else None
            raise InputError(f"coupon_cost_yen {got} != expected {expected[i]}")
        _check_column(~sold & (has_t | has_price), sold, "unsold record must not carry sale fields")
        _check_column(~sold & has_cost, sold, "unsold record must not carry coupon_cost_yen")
        _check_unique_ids(item_ids, "log")
        return cls(
            item_ids=item_ids, round=round, discount_pct=disc, validity_hours=validity,
            cap_yen=cap, attach_delay_h=attach, sold=sold,
            purchase_delay_h=np.where(sold, purchase, np.nan),
            sale_price_yen=np.where(sold, sale_price, 0),
            coupon_cost_yen=np.where(sold, expected, 0),
        )

    @classmethod
    def from_records(cls, records: Sequence[OutcomeRecord]) -> "OutcomeLog":
        nan = math.nan
        return cls.from_columns(
            item_ids=[r.item_id for r in records],
            round=[r.round for r in records],
            discount_pct=[r.coupon.discount_pct for r in records],
            validity_hours=[r.coupon.validity_hours for r in records],
            cap_yen=[r.coupon.cap_yen for r in records],
            attach_delay_h=[r.attach_delay_h for r in records],
            sold=[r.sold for r in records],
            purchase_delay_h=[nan if r.purchase_delay_h is None else r.purchase_delay_h
                              for r in records],
            sale_price_yen=[nan if r.sale_price_yen is None else r.sale_price_yen
                            for r in records],
            coupon_cost_yen=[nan if r.coupon_cost_yen is None else r.coupon_cost_yen
                             for r in records],
        )

    def __iter__(self):
        coupons: dict[tuple, CouponConfig] = {}
        for row in zip(self.item_ids, self.round.tolist(), self.discount_pct.tolist(),
                       self.validity_hours.tolist(), self.cap_yen.tolist(),
                       self.attach_delay_h.tolist(), self.sold.tolist(),
                       self.purchase_delay_h.tolist(), self.sale_price_yen.tolist(),
                       self.coupon_cost_yen.tolist()):
            item_id, round_, disc, validity, cap, attach, sold, t, price, cost = row
            key = (disc, validity, cap)
            if key not in coupons:
                coupons[key] = _coupon(*key)
            yield OutcomeRecord(
                item_id=item_id, round=round_, coupon=coupons[key], attach_delay_h=attach,
                sold=sold, purchase_delay_h=t if sold else None,
                sale_price_yen=price if sold else None, coupon_cost_yen=cost if sold else None,
            )

    def __len__(self) -> int:
        return len(self.item_ids)


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


def _encode_batch(width: int, item_matrix: np.ndarray, slot, coupon: CouponConfig,
                  last) -> np.ndarray:
    """The layout both rounds share: item features, one ``slot`` column, the
    coupon's coordinates and a ``last`` column."""
    out = np.empty((item_matrix.shape[0], width))
    out[:, :N_ITEM_FEATURES] = item_matrix
    out[:, N_ITEM_FEATURES] = slot
    out[:, N_ITEM_FEATURES + 1 : -1] = _coupon_features(coupon)
    out[:, -1] = last
    return out


def encode_round1_batch(
    item_matrix: np.ndarray, coupon: CouponConfig, attach_delay_h: np.ndarray
) -> np.ndarray:
    """First-round features, one row per row of an item-feature matrix (n x 7).

    Item coordinates, attach delay, coupon coordinates, and a
    discount-by-delay interaction (a coupon attached late may move the needle
    differently than the same coupon attached right after the key action).
    """
    return _encode_batch(
        len(ROUND1_FEATURE_NAMES), item_matrix, attach_delay_h, coupon,
        coupon.discount_pct * np.asarray(attach_delay_h, dtype=float),
    )


def encode_round2_batch(
    item_matrix: np.ndarray,
    coupon: CouponConfig,
    elapsed_age_h: np.ndarray,
    mean_p1: np.ndarray,
) -> np.ndarray:
    """Second-round features, one row per row of an item-feature matrix (n x 7).

    The round-1 layout with the attach-delay slot holding the item's elapsed
    age in hours, plus a trailing coordinate for the mean first-round
    propensity over all arms.
    """
    return _encode_batch(len(ROUND2_FEATURE_NAMES), item_matrix, elapsed_age_h, coupon, mean_p1)


def feature_matrix(price, condition, age_days, likes, demand, season) -> np.ndarray:
    """Item-only coordinates, one row per item, built column by column.

    Columns follow ``ITEM_FEATURE_NAMES``: log price, condition, age in days,
    likes, demand index, and the season phase as a point on the unit circle.
    ``log``, ``sin`` and ``cos`` go through ``math`` one value at a time: the
    SIMD kernels behind ``np.log``/``np.sin`` may differ from libm in the last
    bit, and every sale draw and artifact downstream depends on these values.
    Prices repeat, so ``log`` runs once per distinct price.
    """
    price = np.asarray(price, dtype=float)
    n = len(price)
    angle = (2.0 * math.pi * np.asarray(season, dtype=float)).tolist()
    out = np.empty((n, N_ITEM_FEATURES))
    distinct, inverse = np.unique(price, return_inverse=True)
    out[:, 0] = np.fromiter(map(math.log, distinct.tolist()), float, len(distinct))[inverse]
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
