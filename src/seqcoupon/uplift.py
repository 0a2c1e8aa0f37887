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
from typing import Optional, Sequence

import numpy as np

from .domain import (
    ROUND1_FEATURE_NAMES,
    ROUND2_FEATURE_NAMES,
    SCHEMA_ROUND1,
    SCHEMA_ROUND2,
    CouponConfig,
    CouponSet,
    ItemRecord,
    OutcomeRecord,
    encode_round1_batch,
    encode_round2_batch,
    item_feature_matrix,
)
from .errors import (
    ContractError,
    DegenerateDataError,
    IdentifiabilityError,
    InputError,
    MissingHoldoutError,
    SchemaMismatchError,
)
from .learner import Dataset, LearnerConfig, Model, predict_matrix, train

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
        if not 0.0 < self.ipw_epsilon < 0.5:
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


def _index_items(items: Sequence[ItemRecord]) -> dict[str, int]:
    return {it.item_id: i for i, it in enumerate(items)}


def _round1_training_matrix(
    item_matrix: np.ndarray,
    rows: np.ndarray,
    records: Sequence[OutcomeRecord],
) -> np.ndarray:
    """Assemble first-round features in log order, grouping rows by coupon arm."""
    delays = np.array([r.attach_delay_h for r in records], dtype=float)
    out = np.empty((len(records), len(ROUND1_FEATURE_NAMES)))
    by_arm: dict[CouponConfig, list[int]] = {}
    for i, r in enumerate(records):
        by_arm.setdefault(r.coupon, []).append(i)
    for coupon, idx in by_arm.items():
        idx = np.asarray(idx)
        out[idx] = encode_round1_batch(item_matrix[rows[idx]], coupon, delays[idx])
    return out


def round1_training_dataset(
    items: Sequence[ItemRecord],
    round1_log: Sequence[OutcomeRecord],
) -> Dataset:
    """Design matrix and labels for the first-round model.

    The log must span at least two coupon arms including the no-coupon arm;
    otherwise the per-arm effect is unidentifiable and training refuses.
    """
    if not round1_log:
        raise DegenerateDataError("round-1 log is empty")
    arms = {r.coupon for r in round1_log}
    if not any(c.is_none for c in arms):
        raise MissingHoldoutError(
            "round-1 log has no no-coupon records; effects are unidentifiable"
        )
    if len(arms) < 2:
        raise IdentifiabilityError(
            "round-1 log must cover >= 2 coupon arms including the no-coupon arm"
        )
    index = _index_items(items)
    try:
        rows = np.array([index[r.item_id] for r in round1_log])
    except KeyError as exc:
        raise InputError(f"log references unknown item {exc.args[0]!r}") from None
    features = _round1_training_matrix(item_feature_matrix(items), rows, round1_log)
    labels = np.array([r.sold for r in round1_log])
    return Dataset(features, labels, schema_id=SCHEMA_ROUND1)


def fit_first_round(
    items: Sequence[ItemRecord],
    round1_log: Sequence[OutcomeRecord],
    config: LearnerConfig,
) -> Model:
    """Train the first-round propensity model on a randomized round-1 log."""
    return train(round1_training_dataset(items, round1_log), config)


def round1_arm_probabilities(
    first: Model,
    item_matrix: np.ndarray,
    round1_set: CouponSet,
    attach_delay_h,
) -> np.ndarray:
    """Matrix of first-round propensities, one column per arm of the menu."""
    delays = np.broadcast_to(np.asarray(attach_delay_h, dtype=float),
                             (item_matrix.shape[0],))
    cols = [
        predict_matrix(first, encode_round1_batch(item_matrix, coupon, delays))
        for coupon in round1_set
    ]
    return np.column_stack(cols)


def ipw_weights(
    first: Model,
    items: Sequence[ItemRecord],
    round1_records: Sequence[OutcomeRecord],
    round1_set: CouponSet,
    epsilon: float = IPW_EPSILON_DEFAULT,
    variant: str = IPW_VARIANT_MEAN,
) -> np.ndarray:
    """Inverse-propensity weights for survivor samples: 1 / clamp(1 - p1, eps, 1).

    ``variant`` selects which first-round propensity is inverted: the mean over
    all round-1 arms (default) or the propensity of the arm each survivor
    actually received.
    """
    if not 0.0 < epsilon <= 1.0:
        raise InputError("epsilon must lie in (0, 1]")
    if variant not in (IPW_VARIANT_MEAN, IPW_VARIANT_APPLIED):
        raise InputError(f"unknown IPW variant {variant!r}")
    if len(items) != len(round1_records):
        raise InputError("items and round-1 records must be aligned")
    for it, rec in zip(items, round1_records):
        if it.item_id != rec.item_id:
            raise InputError("items and round-1 records must be aligned by item_id")
    item_matrix = item_feature_matrix(items)
    delays = np.array([r.attach_delay_h for r in round1_records], dtype=float)
    if variant == IPW_VARIANT_MEAN:
        p1 = np.mean(
            round1_arm_probabilities(first, item_matrix, round1_set, delays), axis=1
        )
    else:
        p1 = np.empty(len(items))
        by_arm: dict[CouponConfig, list[int]] = {}
        for i, r in enumerate(round1_records):
            by_arm.setdefault(r.coupon, []).append(i)
        for coupon, idx in by_arm.items():
            idx = np.asarray(idx)
            p1[idx] = predict_matrix(
                first, encode_round1_batch(item_matrix[idx], coupon, delays[idx])
            )
    return 1.0 / np.clip(1.0 - p1, epsilon, 1.0)


def _survivor_frames(
    items: Sequence[ItemRecord],
    round1_log: Sequence[OutcomeRecord],
    round2_log: Sequence[OutcomeRecord],
) -> tuple[list[ItemRecord], list[OutcomeRecord]]:
    """Match each round-2 record to its item and unsold round-1 record."""
    index = _index_items(items)
    r1_by_id = {r.item_id: r for r in round1_log}
    matched_items: list[ItemRecord] = []
    matched_r1: list[OutcomeRecord] = []
    for rec in round2_log:
        if rec.round != 2:
            raise InputError("round-2 log contains a record from another round")
        if rec.item_id not in index:
            raise InputError(f"log references unknown item {rec.item_id!r}")
        r1 = r1_by_id.get(rec.item_id)
        if r1 is None or r1.sold:
            raise InputError(
                f"item {rec.item_id!r} in the round-2 log is not a round-1 survivor"
            )
        matched_items.append(items[index[rec.item_id]])
        matched_r1.append(r1)
    return matched_items, matched_r1


def fit_second_round(
    items: Sequence[ItemRecord],
    round1_log: Sequence[OutcomeRecord],
    round2_log: Sequence[OutcomeRecord],
    first: Model,
    round1_set: CouponSet,
    config: LearnerConfig,
    epsilon: float = IPW_EPSILON_DEFAULT,
    variant: str = IPW_VARIANT_MEAN,
) -> Model:
    """Train the second-round model on survivors with inverse-propensity weights."""
    if not round2_log:
        raise DegenerateDataError("round-2 survivor log is empty")
    surv_items, surv_r1 = _survivor_frames(items, round1_log, round2_log)
    weights = ipw_weights(first, surv_items, surv_r1, round1_set, epsilon, variant)

    item_matrix = item_feature_matrix(surv_items)
    delays = np.array([r.attach_delay_h for r in surv_r1], dtype=float)
    mean_p1 = np.mean(
        round1_arm_probabilities(first, item_matrix, round1_set, delays), axis=1
    )
    elapsed_age_h = np.array([it.age_days * 24.0 for it in surv_items])

    features = np.empty((len(round2_log), len(ROUND2_FEATURE_NAMES)))
    by_arm: dict[CouponConfig, list[int]] = {}
    for i, r in enumerate(round2_log):
        by_arm.setdefault(r.coupon, []).append(i)
    for coupon, idx in by_arm.items():
        idx = np.asarray(idx)
        features[idx] = encode_round2_batch(
            item_matrix[idx], coupon, elapsed_age_h[idx], mean_p1[idx]
        )
    labels = np.array([r.sold for r in round2_log])
    data = Dataset(features, labels, weights=weights, schema_id=SCHEMA_ROUND2)
    return train(data, config)


def fit_predictor_pair(
    items: Sequence[ItemRecord],
    round1_log: Sequence[OutcomeRecord],
    round2_log: Sequence[OutcomeRecord],
    round1_set: CouponSet,
    round2_set: CouponSet,
    config_first: LearnerConfig,
    config_second: Optional[LearnerConfig] = None,
    epsilon: float = IPW_EPSILON_DEFAULT,
    variant: str = IPW_VARIANT_MEAN,
) -> PredictorPair:
    """Fit both rounds end to end from the two logs."""
    first = fit_first_round(items, round1_log, config_first)
    second = fit_second_round(
        items, round1_log, round2_log, first, round1_set,
        config_second or config_first, epsilon, variant,
    )
    return PredictorPair(
        first=first,
        second=second,
        round1_set=round1_set,
        round2_set=round2_set,
        ipw_epsilon=epsilon,
    )


def predict_arrays(
    pair: PredictorPair,
    item_matrix: np.ndarray,
    age_days: np.ndarray,
    attach_delay_h: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columnar predictions from an item-feature matrix and an ``age_days`` column.

    Returns (p1 matrix, mean_p1, p2 matrix, p_baseline), one row per matrix row.
    """
    p1 = round1_arm_probabilities(pair.first, item_matrix, pair.round1_set,
                                  attach_delay_h)
    mean_p1 = p1.mean(axis=1)
    elapsed_age_h = np.asarray(age_days, dtype=float) * 24.0
    p2 = np.column_stack(
        [
            predict_matrix(
                pair.second,
                encode_round2_batch(item_matrix, coupon, elapsed_age_h, mean_p1),
            )
            for coupon in pair.round2_set
        ]
    )
    p_baseline = p1[:, 0] + (1.0 - p1[:, 0]) * p2[:, 0]
    return p1, mean_p1, p2, p_baseline


def predict_batch(
    pair: PredictorPair,
    items: Sequence[ItemRecord],
    attach_delay_h: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``predict_arrays`` over a list of items: (p1 matrix, mean_p1, p2 matrix, p_baseline)."""
    return predict_arrays(
        pair,
        item_feature_matrix(items),
        np.array([it.age_days for it in items], dtype=float),
        attach_delay_h,
    )


def predict_item(
    pair: PredictorPair, item: ItemRecord, attach_delay_h: float
) -> ItemPredictions:
    """Full per-arm prediction bundle for one item at one attach delay.

    The no-coupon reference propensity composes the two rounds' no-coupon
    probabilities through the same survival chain as any coupon plan.
    """
    if attach_delay_h < 0:
        raise ContractError("attach_delay_h must be >= 0")
    p1, mean_p1, p2, p_baseline = predict_batch(pair, [item], attach_delay_h)
    return ItemPredictions(
        item_id=item.item_id,
        p1=tuple(float(v) for v in p1[0]),
        mean_p1=float(mean_p1[0]),
        p2=tuple(float(v) for v in p2[0]),
        p_baseline=float(p_baseline[0]),
    )


def predict_items(
    pair: PredictorPair, items: Sequence[ItemRecord], attach_delay_h: float
) -> list[ItemPredictions]:
    """``predict_item`` over a catalog using one vectorised pass."""
    if attach_delay_h < 0:
        raise ContractError("attach_delay_h must be >= 0")
    p1, mean_p1, p2, p_baseline = predict_batch(pair, items, attach_delay_h)
    return [
        ItemPredictions(
            item_id=it.item_id,
            p1=tuple(float(v) for v in p1[i]),
            mean_p1=float(mean_p1[i]),
            p2=tuple(float(v) for v in p2[i]),
            p_baseline=float(p_baseline[i]),
        )
        for i, it in enumerate(items)
    ]
