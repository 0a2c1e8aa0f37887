"""Two-round sale-propensity predictors trained on randomized promotion logs.

The first-round model learns sale probability as a function of item, coupon and
attach delay from a randomized log. Unsold items re-enter a second round; the
second-round model is trained on those survivors only, which is a biased slice
of the catalog, so survivor samples carry inverse-propensity weights derived
from the first-round model's mean remain-unsold probability. The second model
also consumes that mean first-round propensity as an input feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import (
    BLOCK_ROWS,
    N_COUPON_FEATURES,
    N_ITEM_FEATURES,
    SCHEMA_ROUND1,
    SCHEMA_ROUND2,
    CatalogArrays,
    CouponSet,
    OutcomeLog,
    _check_column,
    _id_rows,
    coupon_columns,
    coupon_coordinates,
    encode_rows,
    item_feature_matrix,
)
from .errors import (
    DegenerateDataError,
    IdentifiabilityError,
    InputError,
    MissingHoldoutError,
    SchemaMismatchError,
)
from .learner import (
    Dataset,
    LearnerConfig,
    Model,
    _check_width,
    predict_matrix,
    predict_standardised,
    train,
)

IPW_EPSILON_DEFAULT = 1e-3
IPW_VARIANT_MEAN = "mean"
IPW_VARIANT_APPLIED = "applied"


@dataclass(frozen=True)
class PredictorPair:
    """Trained first- and second-round models with the coupon menus they cover."""

    first: Model
    second: Model
    round1_set: CouponSet
    round2_set: CouponSet
    ipw_epsilon: float = IPW_EPSILON_DEFAULT

    def __post_init__(self):
        if self.first.schema_id != SCHEMA_ROUND1:
            raise SchemaMismatchError(f"first model must use schema {SCHEMA_ROUND1!r}")
        if self.second.schema_id != SCHEMA_ROUND2:
            raise SchemaMismatchError(f"second model must use schema {SCHEMA_ROUND2!r}")
        check_ipw_epsilon(self.ipw_epsilon)


def check_ipw_epsilon(epsilon: float) -> None:
    """A pair's IPW clip floor lies in (0, 0.5); ``RunConfig`` checks it on load too."""
    if not 0.0 < epsilon < 0.5:
        raise InputError("ipw_epsilon must lie in (0, 0.5)")


@dataclass(frozen=True)
class ItemPredictions:
    """Per-arm propensities for one item: round 1, round 2, and the no-coupon path."""

    item_id: str
    p1: tuple[float, ...]
    mean_p1: float
    p2: tuple[float, ...]
    p_baseline: float

    def __post_init__(self):
        p1 = tuple(float(v) for v in self.p1)
        p2 = tuple(float(v) for v in self.p2)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        for name, vals in (("p1", p1), ("p2", p2), ("mean_p1", (self.mean_p1,)),
                           ("p_baseline", (self.p_baseline,))):
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise InputError(f"{name} entries must lie in [0, 1]")
        if abs(self.mean_p1 - sum(p1) / len(p1)) > 1e-9:
            raise InputError("mean_p1 must equal the arithmetic mean of p1")


def round1_training_dataset(
    cat: CatalogArrays,
    round1_log: OutcomeLog,
) -> Dataset:
    """Design matrix and labels for the first-round model, rows in log order.

    The log must span at least two coupon arms including the no-coupon arm;
    otherwise the per-arm effect is unidentifiable and training refuses.
    """
    item_matrix = item_feature_matrix(cat)
    if not len(round1_log):
        raise DegenerateDataError("round-1 log is empty")
    check_round(round1_log, 1)
    disc, delays = round1_log.discount_pct, round1_log.attach_delay_h
    if not (disc == 0).any():
        raise MissingHoldoutError(
            "round-1 log has no no-coupon records; effects are unidentifiable"
        )
    if (disc == 0).all():
        raise IdentifiabilityError(
            "round-1 log must cover >= 2 coupon arms including the no-coupon arm"
        )
    features = encode_rows(item_matrix, delays, disc, round1_log.validity_hours,
                           round1_log.cap_yen, disc * delays,
                           rows=cat.rows_of(round1_log.item_ids))
    return Dataset(features, round1_log.sold, schema_id=SCHEMA_ROUND1)


def fit_first_round(
    cat: CatalogArrays,
    round1_log: OutcomeLog,
    config: LearnerConfig,
) -> Model:
    """Train the first-round propensity model on a randomized round-1 log.

    The design matrix is built here and nowhere else referenced, so ``train``
    standardises it in place: the fit holds one n x d matrix, not two.
    """
    return train(round1_training_dataset(cat, round1_log), config, in_place=True)


def _arm_probabilities(model: Model, item_matrix, slot, coupon_set: CouponSet, last,
                       rows=None):
    """Probabilities of ``model`` under each arm of ``coupon_set``: (n, arms).

    Each arm's design matrix is the round's encoding: the item features, the
    ``slot`` column (attach delay or elapsed age), the coupon's coordinates and
    the last column ``last(coupon, block)`` of the rows ``block`` (a slice).
    Row i's item is row ``rows[i]`` of ``item_matrix`` (row i when ``rows`` is
    None), gathered per block. The rows are scored in blocks of ``BLOCK_ROWS``
    through one reused C-contiguous buffer (416 KiB at the 13 design columns),
    so its memory does not grow with n: a block's item and slot columns are
    standardised once, and per arm only the coupon and last columns are
    rewritten. Every entry equals ``predict_matrix`` on that arm's encoded
    matrix, bit for bit: the matrix-vector product rounds a row alike in any
    block that starts at a multiple of the block size, except a block of one
    row, which numpy scores by a dot product. So a lone last row is scored
    with the block before it.
    """
    width = N_ITEM_FEATURES + 1 + N_COUPON_FEATURES + 1
    n = item_matrix.shape[0] if rows is None else len(rows)
    _check_width(model, (n, width))
    mean, scale = model.feature_mean, model.feature_scale
    items, coupon = slice(0, N_ITEM_FEATURES), slice(N_ITEM_FEATURES + 1, width - 1)
    coordinates = coupon_coordinates(np.empty((len(coupon_set), N_COUPON_FEATURES)),
                                     *coupon_columns(coupon_set))
    coordinates -= mean[coupon]
    coordinates /= scale[coupon]
    probs = np.empty((n, len(coupon_set)))
    edges = [*range(0, n, BLOCK_ROWS), n]
    if len(edges) > 2 and n - edges[-2] == 1:
        del edges[-2]
    buffer = np.empty((min(n, BLOCK_ROWS + 1), width))
    for lo, hi in zip(edges, edges[1:]):
        block = slice(lo, hi)
        Xs = buffer[:hi - lo]
        item_rows = item_matrix[block] if rows is None else item_matrix[rows[block]]
        np.subtract(item_rows, mean[items], out=Xs[:, items])
        Xs[:, items] /= scale[items]
        Xs[:, N_ITEM_FEATURES] = (slot[block] - mean[N_ITEM_FEATURES]) / scale[N_ITEM_FEATURES]
        for a, arm in enumerate(coupon_set):
            Xs[:, coupon] = coordinates[a]
            Xs[:, -1] = (last(arm, block) - mean[-1]) / scale[-1]
            probs[block, a] = predict_standardised(model, Xs)
    return probs


def round1_arm_probabilities(
    first: Model,
    item_matrix: np.ndarray,
    round1_set: CouponSet,
    attach_delay_h,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Matrix of first-round propensities, one column per arm of the menu.

    Equal to ``predict_matrix`` on each arm's round-1 ``encode_rows`` matrix
    (with the same ``rows``); the item and delay columns are standardised once
    for all arms.
    """
    n = item_matrix.shape[0] if rows is None else len(rows)
    delays = np.broadcast_to(np.asarray(attach_delay_h, dtype=float), (n,))
    return _arm_probabilities(
        first, item_matrix, delays, round1_set,
        lambda arm, block: arm.discount_pct * delays[block], rows,
    )


def ipw_weights(
    first: Model,
    cat: CatalogArrays,
    round1_records: OutcomeLog,
    round1_set: CouponSet,
    epsilon: float = IPW_EPSILON_DEFAULT,
    variant: str = IPW_VARIANT_MEAN,
) -> np.ndarray:
    """Inverse-propensity weights for survivor samples: 1 / clamp(1 - p1, eps, 1).

    ``variant`` selects which first-round propensity is inverted: the mean over
    all round-1 arms (default) or the propensity of the arm each survivor
    actually received.
    """
    item_matrix = item_feature_matrix(cat)
    if len(cat) != len(round1_records):
        raise InputError("items and round-1 records must be aligned")
    if (cat.ids != round1_records.item_ids).any():
        raise InputError("items and round-1 records must be aligned by item_id")
    return _ipw(first, item_matrix, None, round1_records, None, round1_set, epsilon,
                variant)[0]


def _ipw(first, item_matrix, cat_rows, log1, r1_rows, round1_set, epsilon, variant):
    """(``ipw_weights``, mean round-1 propensity) for the round-1 rows ``r1_rows``.

    ``r1_rows`` selects rows of the round-1 log ``log1`` (None: all of them);
    the i-th selected row's item is row ``cat_rows[i]`` of ``item_matrix`` (row
    i when ``cat_rows`` is None). Only the ``applied`` variant reads the coupon
    columns.
    """
    if not 0.0 < epsilon <= 1.0:
        raise InputError("epsilon must lie in (0, 1]")
    if variant not in (IPW_VARIANT_MEAN, IPW_VARIANT_APPLIED):
        raise InputError(f"unknown IPW variant {variant!r}")

    def column(values):
        return values if r1_rows is None else values[r1_rows]

    delays = column(log1.attach_delay_h)
    mean_p1 = np.mean(round1_arm_probabilities(first, item_matrix, round1_set, delays,
                                               rows=cat_rows), axis=1)
    if variant == IPW_VARIANT_MEAN:
        p1 = mean_p1
    else:
        disc = column(log1.discount_pct)
        p1 = predict_matrix(first, encode_rows(
            item_matrix, delays, disc, column(log1.validity_hours), column(log1.cap_yen),
            disc * delays, rows=cat_rows))
    return 1.0 / np.clip(1.0 - p1, epsilon, 1.0), mean_p1


def check_round(log: OutcomeLog, round_no: int) -> None:
    """Refuse a log holding a record of a round other than ``round_no``."""
    _check_column(log.round != round_no, log.round,
                  f"round-{round_no} log contains a record from another round")


def _survivor_frames(
    cat: CatalogArrays, round1_log: OutcomeLog, round2_log: OutcomeLog
) -> tuple[np.ndarray, np.ndarray]:
    """(catalog rows, round-1 log rows) of each round-2 record's item.

    Every round-2 record must be a round-2 row of a catalog item whose
    round-1 record is unsold.
    """
    check_round(round2_log, 2)
    cat_rows = cat.rows_of(round2_log.item_ids)
    r1_rows, survivor = _id_rows(round1_log.item_ids, round2_log.item_ids)
    survivor[survivor] = ~round1_log.sold[r1_rows[survivor]]
    _check_column(~survivor, round2_log.item_ids,
                  "item {!r} in the round-2 log is not a round-1 survivor")
    return cat_rows, r1_rows


def fit_second_round(
    cat: CatalogArrays,
    round1_log: OutcomeLog,
    round2_log: OutcomeLog,
    first: Model,
    round1_set: CouponSet,
    config: LearnerConfig,
    epsilon: float = IPW_EPSILON_DEFAULT,
    variant: str = IPW_VARIANT_MEAN,
) -> Model:
    """Train the second-round model on survivors with inverse-propensity weights.

    The survivors' items are read from the catalog matrix through their row
    indices, so no gathered copy of their rows is made. As in
    ``fit_first_round``, ``train`` standardises the design in place.
    """
    matrix = item_feature_matrix(cat)
    if not len(round2_log):
        raise DegenerateDataError("round-2 survivor log is empty")
    cat_rows, r1_rows = _survivor_frames(cat, round1_log, round2_log)
    weights, mean_p1 = _ipw(first, matrix, cat_rows, round1_log, r1_rows, round1_set, epsilon,
                            variant)
    # Each O(n) column is freed once read: the design matrix, and then the
    # fit, hold only the columns they still need beside them.
    del r1_rows
    features = encode_rows(matrix, cat.age_days[cat_rows] * 24.0,
                           round2_log.discount_pct, round2_log.validity_hours,
                           round2_log.cap_yen, mean_p1, rows=cat_rows)
    del cat_rows, mean_p1
    data = Dataset(features, round2_log.sold, weights=weights, schema_id=SCHEMA_ROUND2)
    return train(data, config, in_place=True)


def fit_predictor_pair(
    cat: CatalogArrays,
    round1_log: OutcomeLog,
    round2_log: OutcomeLog,
    round1_set: CouponSet,
    round2_set: CouponSet,
    config_first: LearnerConfig,
    config_second: Optional[LearnerConfig] = None,
    epsilon: float = IPW_EPSILON_DEFAULT,
    variant: str = IPW_VARIANT_MEAN,
) -> PredictorPair:
    """Fit both rounds end to end from the two logs."""
    first = fit_first_round(cat, round1_log, config_first)
    second = fit_second_round(
        cat, round1_log, round2_log, first, round1_set,
        config_second or config_first, epsilon, variant,
    )
    return PredictorPair(
        first=first,
        second=second,
        round1_set=round1_set,
        round2_set=round2_set,
        ipw_epsilon=epsilon,
    )


def predict_batch(
    pair: PredictorPair,
    cat: CatalogArrays,
    attach_delay_h: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-arm predictions over a catalog: (p1 matrix, mean_p1, p2 matrix,
    p_baseline), one row per item.

    A negative or NaN attach delay is refused: the models never saw one. Each
    round standardises its item and delay (or age) columns once; per arm only
    the coupon columns and the last column are rewritten before scoring, which
    gives the bits of scoring each arm's encoded matrix with ``predict_matrix``.
    """
    item_matrix = item_feature_matrix(cat)
    if not attach_delay_h >= 0:
        raise InputError("attach_delay_h must be >= 0")
    p1 = round1_arm_probabilities(pair.first, item_matrix, pair.round1_set,
                                  attach_delay_h)
    mean_p1 = p1.mean(axis=1)
    p2 = _arm_probabilities(
        pair.second, item_matrix, cat.age_days * 24.0, pair.round2_set,
        lambda arm, rows: mean_p1[rows],
    )
    p_baseline = p1[:, 0] + (1.0 - p1[:, 0]) * p2[:, 0]
    return p1, mean_p1, p2, p_baseline
