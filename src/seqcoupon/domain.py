"""Core record types, the columnar catalog and outcome log, coupon cost
arithmetic, and feature-vector encoding.

Everything here is immutable after construction and safe to share across
workers. Currency is integer yen throughout, below ``YEN_BOUND`` in magnitude;
probabilities are floats. The catalog is a ``CatalogArrays`` and a log an
``OutcomeLog``: columns whose rows are ``ItemRecord``s and ``OutcomeRecord``s,
built on demand by iteration. Records are plain values. Each row type has one
validator, the column class it enters: ``CatalogArrays.from_columns`` for
items and ``OutcomeLog.from_columns`` for outcomes. ``from_items`` and
``from_records`` feed hand-built records to them, and every computation takes
a catalog or a log, so no record reaches one unchecked. The two validators
also own row order: whatever order the columns come in, a catalog or a log
holds its rows in ascending item-id order, so no result depends on the order
of a file's rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rng
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

# Encoders that work row by row take a block of this many rows at a time, so
# their temporaries, Python floats among them, do not grow with the catalog.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class CouponConfig:
    """One treatment arm: a percentage discount with a validity window and cost cap.

    ``discount_pct == 0`` denotes the no-coupon arm; its cap must be 0 and its
    validity is meaningless (normalised to 0 so equality behaves). ``_check_coupons`` checks it.
    """

    discount_pct: int
    validity_hours: float
    cap_yen: int

    def __post_init__(self):
        checked = _check_coupons([self.discount_pct], [self.validity_hours], [self.cap_yen])
        for name, column in zip(("discount_pct", "validity_hours", "cap_yen"), checked):
            object.__setattr__(self, name, column[0].item())

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
    """One listing with intrinsic and extrinsic features plus seller value: one
    row of a ``CatalogArrays``.

    A plain value that checks nothing itself: ``CatalogArrays.from_items``
    checks it where it enters a catalog, and every computation takes one.
    """

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


@dataclass(frozen=True)
class OutcomeRecord:
    """One item-round observation from a promotion log.

    A plain value that checks nothing itself: ``OutcomeLog.from_records``
    checks it where it enters a log, and every computation takes one.
    """

    item_id: str
    round: int
    coupon: CouponConfig
    attach_delay_h: float
    sold: bool
    purchase_delay_h: Optional[float] = None
    sale_price_yen: Optional[int] = None
    coupon_cost_yen: Optional[int] = None


def coupon_cost_rows(prices, discount_pct, cap_yen) -> np.ndarray:
    """Redemption cost in yen of a coupon on an item, over aligned (or
    broadcastable) int64 columns.

    The discount percentage of the price, floored to whole yen and saturated
    at the cap. The no-coupon arm (discount 0, cap 0) costs nothing.
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


def _check_column(bad: np.ndarray, column, message: str) -> None:
    """Raise ``InputError(message.format(first bad value))`` if any row is bad (ids as str)."""
    if bad.any():
        value = column[int(np.argmax(bad))]
        value = value.item() if hasattr(value, "item") else value
        raise InputError(message.format(value.decode() if isinstance(value, bytes) else value))


def _check_yen(column, name: str, rows=True) -> np.ndarray:
    """``column`` as an array, refusing a yen amount (or NaN) of ``rows`` outside
    (-2**53, 2**53). Runs before any cast to int64, which would overflow or
    wrap past 2**63."""
    column = np.asarray(column)
    inside = ((-YEN_BOUND < column) & (column < YEN_BOUND)).astype(bool, copy=False)
    _check_column(rows & ~inside, column,
                  f"{name} is out of range, |yen| must be below 2**53, got {{}}")
    return column


def _check_integral(column, name: str, rows=True) -> np.ndarray:
    """``column`` as an array, refusing a value of ``rows`` that is not a whole number
    (NaN and infinities included) or lies outside int64, as ints past int64 do when
    numpy holds them as floats. Runs before any cast to int64, which truncates 4.5 to 4."""
    column = np.asarray(column)
    if column.dtype.kind not in "iu":
        _check_column(rows & (np.floor(column) != column), column,
                      f"{name} must be an integer, got {{}}")
        inside = (-(2**63) <= column) & (column < 2**63)
        _check_column(rows & ~inside, column, f"{name} is out of range, got {{}}")
    return column


def _int64(column, name: str) -> np.ndarray:
    """``column`` as int64, once ``_check_integral`` has passed every row."""
    return np.asarray(_check_integral(column, name), dtype=np.int64)


def _check_coupons(discount_pct, validity_hours, cap_yen) -> tuple[np.ndarray, ...]:
    """The coupon rule on aligned columns, ``CouponConfig``'s on one row and a log's
    on all: (discount_pct, validity_hours, cap_yen) as int64, float and int64 columns.

    A discount is a whole percentage in [0, 100) and a cap whole yen in [0, 2**53);
    a no-coupon row (discount 0) has cap 0 and gets validity 0, any other row a
    finite positive validity.
    """
    disc = _int64(discount_pct, "discount_pct")
    cap = _int64(_check_yen(cap_yen, "cap_yen"), "cap_yen")
    validity = np.asarray(validity_hours, dtype=float)
    _check_column(~((0 <= disc) & (disc < 100)), disc, "discount_pct must be in [0, 100), got {}")
    _check_column(cap < 0, cap, "cap_yen must be >= 0, got {}")
    none = disc == 0
    _check_column(none & (cap != 0), cap, "no-coupon arm must have cap_yen = 0")
    validity = np.where(none, 0.0, validity)
    _check_column(~none & (validity <= 0), validity, "validity_hours must be > 0, got {}")
    _check_column(~np.isfinite(validity), validity, "validity_hours must be finite, got {}")
    return disc, validity, cap


def _id_column(ids, name: str) -> np.ndarray:
    """Ids as one ``S`` array of their UTF-8 bytes: an ``S`` array as is, ``str``s encoded
    one at a time. ``S`` drops trailing NULs, so a ``str`` holding NUL is refused."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "S":
        return ids
    nul = np.fromiter(map(str.__contains__, ids, repeat("\0")), bool, len(ids))
    _check_column(nul, ids, f"{name} must not contain NUL, got {{!r}}")
    width = max(map(len, map(str.encode, ids)), default=0) or 1
    return np.fromiter(map(str.encode, ids), f"S{width}", len(ids))


def _id_order(ids: np.ndarray, what: str) -> Optional[np.ndarray]:
    """The stable argsort that puts ``ids`` in ascending order (UTF-8 byte order is
    ``str`` order), or None when they already ascend, as simulated catalogs, logs and
    the files written from them do. A repeated id is refused, naming the first row
    whose id was seen before."""
    if (ids[1:] > ids[:-1]).all():
        return None
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if len(repeats):
        raise InputError(f"{what} repeats item id {ids[repeats.min()].decode()!r}")
    return order


def _id_rows(own: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each ``S`` id of ``ids``, a row of ``own`` holding that id, and whether one does.

    ``own`` is a catalog's or a log's id column, so it ascends without a repeat,
    and one ``searchsorted`` joins the whole column.
    """
    if len(ids) == len(own) and (ids == own).all():
        return np.arange(len(ids)), np.ones(len(ids), dtype=bool)
    if not len(ids) or not len(own):
        return np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
    rows = np.minimum(np.searchsorted(own, ids), len(own) - 1)
    return rows, own[rows] == ids


@dataclass(frozen=True)
class OutcomeLog:
    """A promotion log as columns: row i of every column is one ``OutcomeRecord``.

    The coupon is split into ``discount_pct``/``validity_hours``/``cap_yen``
    (validity and cap are 0 on no-coupon rows). ``purchase_delay_h`` is NaN
    and ``sale_price_yen``/``coupon_cost_yen`` are 0 where the item did not
    sell. Ids are UTF-8 bytes (``S``), one per row, in ascending order. Iterating
    yields ``OutcomeRecord``s built on demand, in that order.
    """

    item_ids: np.ndarray  # S, UTF-8
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
        """Validate the columns, one ``OutcomeRecord`` field each, the coupon
        split into three that ``_check_coupons`` checks, and hold their rows in
        ascending item-id order, whatever order they come in.

        The last three columns are floats with NaN for a missing value (a
        record's None); yen amounts must be integers below 2**53.
        """
        item_ids = _id_column(item_ids, "item_id")
        columns = [np.asarray(c) for c in (round, discount_pct, validity_hours, cap_yen,
                                           attach_delay_h, sold, purchase_delay_h,
                                           sale_price_yen, coupon_cost_yen)]
        if any(c.shape != (len(item_ids),) for c in columns):
            raise InputError(f"every log column needs one entry per id ({len(item_ids)})")
        round, disc, validity, cap, attach, sold, purchase, price, cost = columns
        disc, validity, cap = _check_coupons(disc, validity, cap)
        none, round, sold = disc == 0, _int64(round, "round"), sold.astype(bool, copy=False)
        attach, purchase, price, cost = (c.astype(float, copy=False)
                                         for c in (attach, purchase, price, cost))

        _check_column((round != 1) & (round != 2), round, "round must be 1 or 2, got {}")
        _check_column(attach < 0, attach, "attach_delay_h must be >= 0")
        _check_column(~np.isfinite(attach), attach, "attach_delay_h must be finite, got {}")
        has_t, has_price, has_cost = ~np.isnan(purchase), ~np.isnan(price), ~np.isnan(cost)
        for column, name, present in ((price, "sale_price_yen", has_price),
                                      (cost, "coupon_cost_yen", has_cost)):
            _check_integral(_check_yen(column, name, present), name, sold & present)
        _check_column(sold & ~(has_t & has_price), sold,
                     "sold record requires purchase_delay_h and sale_price_yen")
        _check_column(sold & (purchase < 0), purchase, "purchase_delay_h must be >= 0")
        _check_column(sold & np.isinf(purchase), purchase, "purchase_delay_h must be finite, got {}")
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
        order = _id_order(item_ids, "log")
        columns = (item_ids, round, disc, validity, cap, attach, sold,
                   np.where(sold, purchase, np.nan), np.where(sold, sale_price, 0),
                   np.where(sold, expected, 0))
        return cls(*(c if order is None else c[order] for c in columns))

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
        for row in zip(map(bytes.decode, self.item_ids), self.round.tolist(),
                       self.discount_pct.tolist(), self.validity_hours.tolist(),
                       self.cap_yen.tolist(), self.attach_delay_h.tolist(), self.sold.tolist(),
                       self.purchase_delay_h.tolist(), self.sale_price_yen.tolist(),
                       self.coupon_cost_yen.tolist()):
            item_id, round_, disc, validity, cap, attach, sold, t, price, cost = row
            key = (disc, validity, cap)
            if key not in coupons:
                coupons[key] = CouponConfig(*key)
            yield OutcomeRecord(
                item_id=item_id, round=round_, coupon=coupons[key], attach_delay_h=attach,
                sold=sold, purchase_delay_h=t if sold else None,
                sale_price_yen=price if sold else None, coupon_cost_yen=cost if sold else None,
            )

    def __len__(self) -> int:
        return len(self.item_ids)


@dataclass(frozen=True)
class CatalogArrays:
    """A catalog as columns, one per ``ItemRecord`` field, plus keys and features.

    Row i of every column describes the same item, the rows in ascending id
    order; ``matrix`` holds its raw item features and ``keys`` its ``rng.item_key``.
    The keys are hashed on first use (a simulated catalog comes with them), so a
    catalog read to train, plan or evaluate hashes none.
    The ids and seller ids are UTF-8 bytes (``S``); records carry them as ``str``.
    Iterating yields ``ItemRecord``s built on demand, and an int index one row's.
    """

    ids: np.ndarray  # S, UTF-8
    seller_ids: np.ndarray  # S, UTF-8
    price: np.ndarray  # int64 yen
    condition: np.ndarray  # int64, 1..5
    age_days: np.ndarray
    likes: np.ndarray  # int64
    demand: np.ndarray
    season: np.ndarray  # phase in [0, 1)
    ltv: np.ndarray  # int64 yen
    key_ts: np.ndarray
    matrix: np.ndarray  # n x N_ITEM_FEATURES, raw item features

    @functools.cached_property
    def keys(self) -> np.ndarray:
        """``rng.item_key`` of each id, hashed on first use and then kept."""
        return rng.item_keys(self.ids)

    @classmethod
    def from_columns(cls, ids, seller_ids, price, condition, age_days, likes, demand,
                     season, ltv, key_ts) -> "CatalogArrays":
        """Validate the columns, one ``ItemRecord`` field each, put their rows in
        ascending item-id order, whatever order they come in, then featurise."""
        ids, seller_ids = _id_column(ids, "item_id"), _id_column(seller_ids, "seller_id")
        price = _int64(_check_yen(price, "price_yen"), "price_yen")
        condition = _int64(condition, "condition")
        age_days = np.asarray(age_days, dtype=float)
        likes = _int64(likes, "likes")
        demand = np.asarray(demand, dtype=float)
        season = np.asarray(season, dtype=float)
        ltv = _int64(_check_yen(ltv, "seller_ltv_yen"), "seller_ltv_yen")
        key_ts = np.asarray(key_ts, dtype=float)
        columns = (seller_ids, price, condition, age_days, likes, demand, season,
                   ltv, key_ts)
        if any(len(c) != len(ids) for c in columns):
            raise InputError(f"every catalog column needs one entry per id ({len(ids)})")
        _check_column(price <= 0, price, "price_yen must be > 0, got {}")
        _check_column(ltv <= 0, ltv, "seller_ltv_yen must be > 0, got {}")
        _check_column(~((1 <= condition) & (condition <= 5)), condition,
                      "condition must be in 1..5, got {}")
        _check_column(~((0 <= age_days) & (age_days < np.inf)), age_days,
                      "age_days must be finite and >= 0")
        _check_column(likes < 0, likes, "likes must be >= 0")
        _check_column(~((0 <= season) & (season < 1)), season,
                      "season_phase must be in [0, 1), got {}")
        for name, column in (("demand_index", demand), ("key_action_ts", key_ts)):
            _check_column(~np.isfinite(column), column, f"{name} must be finite, got {{}}")
        order = _id_order(ids, "catalog")
        if order is not None:
            ids, seller_ids, price, condition, age_days, likes, demand, season, ltv, key_ts = (
                c[order] for c in (ids, *columns))
        return cls(
            ids=ids, seller_ids=seller_ids, price=price, condition=condition,
            age_days=age_days, likes=likes, demand=demand, season=season, ltv=ltv,
            key_ts=key_ts,
            matrix=feature_matrix(price, condition, age_days, likes, demand, season),
        )

    @classmethod
    def from_items(cls, items: Sequence[ItemRecord]) -> "CatalogArrays":
        # Each column becomes an array before the next is gathered, so only one
        # per-item list is alive at a time. ``from_columns`` casts and checks them.
        def column(field, kind=np.array):
            return kind([getattr(it, field) for it in items])

        return cls.from_columns(
            ids=column("item_id", list),
            seller_ids=column("seller_id", list),
            price=column("price_yen"),
            condition=column("condition"),
            age_days=column("age_days"),
            likes=column("likes"),
            demand=column("demand_index"),
            season=column("season_phase"),
            ltv=column("seller_ltv_yen"),
            key_ts=column("key_action_ts"),
        )

    def __iter__(self):
        """One ``ItemRecord`` per row, in row order, each built on demand."""
        return map(ItemRecord, map(bytes.decode, self.ids), map(bytes.decode, self.seller_ids),
                   self.price.tolist(), self.condition.tolist(), self.age_days.tolist(),
                   self.likes.tolist(), self.demand.tolist(), self.season.tolist(),
                   self.ltv.tolist(), self.key_ts.tolist())

    def __getitem__(self, rows):
        """Row ``rows`` as an ``ItemRecord`` for an int; otherwise the catalog
        restricted to ``rows`` (a slice, an index array or a mask), with nothing
        recomputed. The rows are taken once each in ascending row order, whatever
        order ``rows`` names them in, so the result is in id order too. Keys
        already hashed are carried over; otherwise they stay unhashed.
        """
        if isinstance(rows, (int, np.integer)):
            return next(iter(self[[rows]]))
        rows = np.arange(len(self))[rows]
        if not (rows[1:] > rows[:-1]).all():
            rows = _distinct(rows)
        taken = CatalogArrays(
            ids=self.ids[rows], seller_ids=self.seller_ids[rows], price=self.price[rows],
            condition=self.condition[rows], age_days=self.age_days[rows],
            likes=self.likes[rows], demand=self.demand[rows], season=self.season[rows],
            ltv=self.ltv[rows], key_ts=self.key_ts[rows], matrix=self.matrix[rows],
        )
        if "keys" in self.__dict__:
            taken.__dict__["keys"] = self.keys[rows]
        return taken

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The catalog row of each ``S`` id, in the order given; an unknown id raises."""
        rows, found = _id_rows(self.ids, ids)
        _check_column(~found, ids, "log references unknown item {!r}")
        return rows

    def __len__(self) -> int:
        return len(self.ids)


def check_catalog(cat) -> None:
    """Refuse anything but a ``CatalogArrays`` where an entry point takes a catalog."""
    if not isinstance(cat, CatalogArrays):
        raise InputError(
            f"a catalog must be a CatalogArrays, got {type(cat).__name__}; "
            "build one from item records with CatalogArrays.from_items"
        )


def coupon_coordinates(out: np.ndarray, discount_pct, validity_hours, cap_yen) -> np.ndarray:
    """Write the coupon coordinates of both encodings into ``out`` (..., 4), one
    row per entry of the coupon columns (or one for scalars), and return it.

    Discount linear and squared (so arm-level response curves can bend), validity
    log-scaled by ``_by_math`` (as ``feature_matrix`` logs prices), cap in thousand
    yen; the no-coupon arm, all three 0, gets zeros.
    """
    out[..., 0] = discount_pct
    np.square(out[..., 0], out=out[..., 1])
    _by_math(math.log1p, validity_hours, out[..., 2])
    np.divide(cap_yen, 1000.0, out=out[..., 3])
    return out


def _distinct(values) -> np.ndarray:
    """The sorted distinct entries of ``values``, found by sorting and comparing
    neighbours: numpy's own ``unique`` imports ``numpy.ma`` on first use."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _by_math(function, values, out: np.ndarray) -> np.ndarray:
    """Write ``function`` (a ``math`` one: numpy's SIMD kernels may differ from libm
    in the last bit) of each entry of ``values`` into ``out``, or of a 0-d ``values``
    into all of ``out``, and return it. ``function`` runs once per distinct value,
    and each ``BLOCK_ROWS`` block of rows finds its values among those by
    ``searchsorted``, so no index column the size of ``out`` is made."""
    values = np.asarray(values, dtype=float)
    distinct = _distinct(values)
    mapped = np.empty(len(distinct))
    for lo in range(0, len(distinct), BLOCK_ROWS):
        part = distinct[lo:lo + BLOCK_ROWS].tolist()
        mapped[lo:lo + len(part)] = np.fromiter(map(function, part), float, len(part))
    if values.ndim == 0:
        out[...] = mapped[0]
        return out
    for lo in range(0, len(values), BLOCK_ROWS):
        part = values[lo:lo + BLOCK_ROWS]
        order = np.argsort(part)  # searches in ascending order branch predictably
        out[lo:lo + BLOCK_ROWS][order] = mapped[np.searchsorted(distinct, part[order])]
    return out


def encode_rows(item_matrix: np.ndarray, slot, discount_pct, validity_hours, cap_yen, last,
                rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows of the layout both rounds share: item features, one ``slot`` column
    (attach delay or elapsed age), the coupon coordinates and a ``last`` column.

    Row i holds the item in row ``rows[i]`` of ``item_matrix`` (row i when
    ``rows`` is None), gathered a column at a time so no second item matrix is
    built. Every other entry is a column with one value per row, or a scalar.
    """
    n = item_matrix.shape[0] if rows is None else len(rows)
    out = np.empty((n, N_ITEM_FEATURES + N_COUPON_FEATURES + 2))
    for c in range(N_ITEM_FEATURES):
        out[:, c] = item_matrix[:, c] if rows is None else item_matrix[rows, c]
    out[:, N_ITEM_FEATURES] = slot
    coupon_coordinates(out[:, N_ITEM_FEATURES + 1 : -1], discount_pct, validity_hours, cap_yen)
    out[:, -1] = last
    return out


def encode_round2_batch(
    item_matrix: np.ndarray,
    coupon: CouponConfig,
    elapsed_age_h: np.ndarray,
    mean_p1: np.ndarray,
) -> np.ndarray:
    """Second-round features, one row per row of an item-feature matrix (n x 7).

    The ``encode_rows`` layout with the slot holding the item's elapsed age in
    hours and a trailing coordinate for the mean first-round propensity over
    all arms.
    """
    return encode_rows(item_matrix, elapsed_age_h, coupon.discount_pct, coupon.validity_hours,
                       coupon.cap_yen, mean_p1)


def feature_matrix(price, condition, age_days, likes, demand, season) -> np.ndarray:
    """Item-only coordinates, one row per item, built column by column.

    Columns follow ``ITEM_FEATURE_NAMES``: log price, condition, age in days,
    likes, demand index, and the season phase as a point on the unit circle.
    The log price comes from libm by ``_by_math``. The bits of ``np.sin`` and
    ``np.cos`` depend on the host's kernels (glibc without FMA moves them), as
    ``math.log``'s do, so the catalogs that tests pin hold only on hosts that
    take the same kernels.
    """
    angle = 2.0 * math.pi * np.asarray(season, dtype=float)
    out = np.empty((len(price), N_ITEM_FEATURES))
    _by_math(math.log, price, out[:, 0])
    out[:, 1] = condition
    out[:, 2] = age_days
    out[:, 3] = likes
    out[:, 4] = demand
    np.sin(angle, out=out[:, 5])
    np.cos(angle, out=out[:, 6])
    return out


def item_feature_matrix(items: CatalogArrays) -> np.ndarray:
    """The raw item-feature matrix of a catalog, one row per item: how every
    entry point that encodes or predicts checks its catalog and reads the matrix."""
    check_catalog(items)
    return items.matrix
