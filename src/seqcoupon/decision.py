"""Two-round coupon plan algebra and the constrained ROI-argmax allocator.

A plan couples a round-1 arm j with a round-2 arm k. The combined sale
probability chains the two rounds through survival; the expected coupon cost
conditions on the sale happening in either round; ROI relates the propensity
lift over the never-coupon baseline to that cost. The allocator enumerates
every (j, k) cell, filters by a minimum-lift constraint, and returns the
highest-ROI cell with deterministic tie-breaking. A per-round-greedy variant
serves as the comparison baseline. Both run on whole catalogs of arrays;
``allocate`` and ``allocate_independent`` are one-row views of them, and the
scalar ``combine_*``/``roi`` are the reference their array economics equal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import CouponConfig, CouponSet, ItemRecord, coupon_costs
from .errors import InputError
from .uplift import ItemPredictions

DEFAULT_ATTACH_DELAY_H = 2.0


@dataclass(frozen=True)
class PolicyConstraint:
    """Minimum acceptable propensity lift, plus an optional LTV override."""

    lift_threshold: float = 0.01
    ltv_override: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.lift_threshold < 1.0:
            raise InputError("lift_threshold must lie in [0, 1)")
        if self.ltv_override is not None and self.ltv_override <= 0:
            raise InputError("ltv_override must be positive")


@dataclass(frozen=True)
class AllocationPlan:
    """A chosen (round-1 arm, round-2 arm) pair with its predicted economics."""

    item_id: str
    j_index: int
    k_index: int
    round1_coupon: CouponConfig
    round2_coupon: CouponConfig
    attach_delay_h: float
    p_round1: float
    p_round2: float
    p_combined: float
    p_baseline: float
    lift: float
    expected_cost: float
    roi: float
    feasible: bool

    def __post_init__(self):
        for name in ("p_round1", "p_round2", "p_combined", "p_baseline"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {v}")
        expected = self.p_round1 + (1.0 - self.p_round1) * self.p_round2
        if abs(self.p_combined - expected) > 1e-12:
            raise InputError("p_combined inconsistent with the two per-round propensities")
        if abs(self.lift - (self.p_combined - self.p_baseline)) > 1e-12:
            raise InputError("lift inconsistent with p_combined - p_baseline")
        if self.expected_cost < 0:
            raise InputError("expected_cost must be >= 0")


def combine_propensity(p1: float, p2: float) -> float:
    """Probability the item sells in round 1, or survives it and sells in round 2."""
    if not 0.0 <= p1 <= 1.0 or not 0.0 <= p2 <= 1.0:
        raise InputError("probabilities must lie in [0, 1]")
    return p1 + (1.0 - p1) * p2


def combine_cost(p1: float, p2: float, cost_j: float, cost_k: float) -> float:
    """Expected coupon cost conditional on the item selling in either round.

    When the combined sale probability is zero the conditional is undefined;
    zero is returned by convention (such cells never win the argmax).
    """
    if not 0.0 <= p1 <= 1.0 or not 0.0 <= p2 <= 1.0:
        raise InputError("probabilities must lie in [0, 1]")
    if cost_j < 0 or cost_k < 0:
        raise InputError("costs must be >= 0")
    p_combined = p1 + (1.0 - p1) * p2
    if p_combined == 0.0:
        return 0.0
    if p_combined < sys.float_info.min:
        # Subnormal products lose relative precision, and dividing by a
        # subnormal p_combined would magnify that past the dearer coupon.
        w = p1 / p_combined
        return w * cost_j + (1.0 - w) * cost_k
    return (p1 * cost_j + (1.0 - p1) * p2 * cost_k) / p_combined


def roi(p_combined: float, p_baseline: float, ltv: float, expected_cost: float) -> float:
    """Expected incremental value per unit of expected coupon cost.

    A zero-cost plan with positive lift is infinitely efficient (+inf
    sentinel); zero cost without positive lift scores 0.
    """
    if not 0.0 <= p_combined <= 1.0 or not 0.0 <= p_baseline <= 1.0:
        raise InputError("probabilities must lie in [0, 1]")
    if ltv <= 0:
        raise InputError("ltv must be positive")
    if expected_cost < 0:
        raise InputError("expected_cost must be >= 0")
    lift = p_combined - p_baseline
    if expected_cost == 0.0:
        return math.inf if lift > 0.0 else 0.0
    return lift * ltv / expected_cost


def _resolve_ltvs(ltvs: np.ndarray, constraint: PolicyConstraint) -> np.ndarray:
    """Per-item LTVs as floats, or the constraint's override for every item."""
    if constraint.ltv_override is not None:
        return np.full(len(ltvs), float(constraint.ltv_override))
    return np.asarray(ltvs, dtype=float)


def _check_widths(p1: np.ndarray, p2: np.ndarray, round1_set: CouponSet, round2_set: CouponSet):
    if p1.shape[1] != len(round1_set) or p2.shape[1] != len(round2_set):
        raise InputError("predictions do not match the coupon menus")


def _roi(lift: np.ndarray, ltv: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Elementwise ``roi`` from a lift, with the same zero-cost sentinels."""
    free = cost == 0.0
    return np.where(
        free, np.where(lift > 0.0, np.inf, 0.0), lift * ltv / np.where(free, 1.0, cost)
    )


def _economics(p1, p2, p_baseline, cost1, cost2, ltv):
    """(p_combined, expected_cost, lift, roi) over broadcast arrays, equal bit for
    bit to ``combine_propensity``, ``combine_cost`` and ``roi`` elementwise."""
    pc = p1 + (1.0 - p1) * p2
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = np.where(pc == 0.0, 0.0, (p1 * cost1 + (1.0 - p1) * p2 * cost2) / pc)
        if pc.min(initial=1.0) < sys.float_info.min:
            subnormal = (pc > 0.0) & (pc < sys.float_info.min)
            w = p1 / pc
            cost = np.where(subnormal, w * cost1 + (1.0 - w) * cost2, cost)
    lift = pc - p_baseline
    return pc, cost, lift, _roi(lift, ltv, cost)


def _cascade(value: np.ndarray, cost: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, the masked argmax of value; ties go to the lower cost, then the lower index."""
    v = np.where(mask, value, -np.inf)
    tie = v == v.max(axis=1)[:, None]
    c = np.where(tie, cost, np.inf)
    tie &= c == c.min(axis=1)[:, None]
    return tie.argmax(axis=1)


def _pick(rois: np.ndarray, lift: np.ndarray, cost: np.ndarray, candidates: np.ndarray,
          threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row: (the highest-ROI candidate whose lift clears ``threshold``, else
    the highest-lift candidate; whether any candidate cleared it)."""
    feasible = candidates & (lift >= threshold)
    any_feasible = feasible.any(axis=1)
    choice = np.where(
        any_feasible, _cascade(rois, cost, feasible), _cascade(lift, cost, candidates)
    )
    return choice, any_feasible


def allocate_batch(
    p1: np.ndarray,
    p2: np.ndarray,
    p_baseline: np.ndarray,
    prices: np.ndarray,
    ltvs: np.ndarray,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, k, feasible) per item: the feasible pair with the highest ROI.

    Every cell except (none, none), the baseline the lift is measured against,
    is scored. Ties fall to the lower expected cost, then the lower flattened
    (j, k) index. An item with no cell clearing the lift threshold gets its
    maximum-lift cell flagged infeasible. ``constraint.ltv_override``, when
    set, replaces ``ltvs``.
    """
    _check_widths(p1, p2, round1_set, round2_set)
    n, M = p1.shape
    K = p2.shape[1]
    _, cost, lift, r = _economics(
        p1[:, :, None],
        p2[:, None, :],
        p_baseline[:, None, None],
        coupon_costs(prices, round1_set).astype(float)[:, :, None],
        coupon_costs(prices, round2_set).astype(float)[:, None, :],
        _resolve_ltvs(ltvs, constraint)[:, None, None],
    )
    candidates = np.ones((n, M * K), dtype=bool)
    candidates[:, 0] = False  # the (none, none) baseline never competes
    flat, feasible = _pick(
        r.reshape(n, M * K), lift.reshape(n, M * K), cost.reshape(n, M * K),
        candidates, constraint.lift_threshold,
    )
    return flat // K, flat % K, feasible


def _best_round_arm(probs: np.ndarray, costs: np.ndarray, ltvs: np.ndarray, threshold: float):
    """Greedy single-round pick over (n, arms) grids: max per-round ROI subject
    to the lift over the round's no-coupon arm."""
    lift = probs - probs[:, [0]]
    candidates = np.ones(lift.shape, dtype=bool)
    return _pick(_roi(lift, ltvs[:, None], costs), lift, costs, candidates, threshold)[0]


def allocate_independent_batch(
    p1: np.ndarray,
    p2: np.ndarray,
    p_baseline: np.ndarray,
    prices: np.ndarray,
    ltvs: np.ndarray,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, k, feasible) per item under the per-round greedy baseline.

    Each round's arm maximises that round's lift-to-cost ratio on its own; the
    flag refers to the pair's combined lift, as for ``allocate_batch``.
    ``constraint.ltv_override``, when set, replaces ``ltvs``.
    """
    _check_widths(p1, p2, round1_set, round2_set)
    ltvs = _resolve_ltvs(ltvs, constraint)
    threshold = constraint.lift_threshold
    cost1 = coupon_costs(prices, round1_set).astype(float)
    cost2 = coupon_costs(prices, round2_set).astype(float)
    j = _best_round_arm(p1, cost1, ltvs, threshold)
    k = _best_round_arm(p2, cost2, ltvs, threshold)
    rows = np.arange(len(j))
    _, _, lift, _ = _economics(
        p1[rows, j], p2[rows, k], p_baseline, cost1[rows, j], cost2[rows, k], ltvs
    )
    return j, k, lift >= threshold


def materialize_plans(
    item_ids: Sequence[str],
    j: np.ndarray,
    k: np.ndarray,
    feasible: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    p_baseline: np.ndarray,
    prices: np.ndarray,
    ltvs: np.ndarray,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> list[AllocationPlan]:
    """Expand batch arm choices into full per-item plan rows, pricing the
    chosen cells with the same array economics as the allocators."""
    rows = np.arange(len(item_ids))
    p_round1, p_round2 = p1[rows, j], p2[rows, k]
    pc, cost, lift, r = _economics(
        p_round1,
        p_round2,
        p_baseline,
        coupon_costs(prices, round1_set)[rows, j].astype(float),
        coupon_costs(prices, round2_set)[rows, k].astype(float),
        _resolve_ltvs(ltvs, constraint),
    )
    columns = zip(
        item_ids, j.tolist(), k.tolist(), p_round1.tolist(), p_round2.tolist(),
        pc.tolist(), p_baseline.tolist(), lift.tolist(), cost.tolist(), r.tolist(),
        feasible.tolist(),
    )
    return [
        AllocationPlan(
            item_id=item_id,
            j_index=jj,
            k_index=kk,
            round1_coupon=round1_set[jj],
            round2_coupon=round2_set[kk],
            attach_delay_h=attach_delay_h,
            p_round1=a,
            p_round2=b,
            p_combined=c,
            p_baseline=base,
            lift=up,
            expected_cost=spend,
            roi=value,
            feasible=ok,
        )
        for item_id, jj, kk, a, b, c, base, up, spend, value, ok in columns
    ]


def _one_row(allocator, preds, item, round1_set, round2_set, constraint, attach_delay_h):
    """Run a batch allocator on one item and return its materialised plan."""
    p1, p2 = np.array([preds.p1]), np.array([preds.p2])
    p_baseline = np.array([preds.p_baseline])
    prices, ltvs = np.array([item.price_yen]), np.array([item.seller_ltv_yen])
    j, k, feasible = allocator(
        p1, p2, p_baseline, prices, ltvs, round1_set, round2_set, constraint
    )
    return materialize_plans(
        [item.item_id], j, k, feasible, p1, p2, p_baseline, prices, ltvs,
        round1_set, round2_set, constraint, attach_delay_h,
    )[0]


def allocate(
    preds: ItemPredictions,
    item: ItemRecord,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> AllocationPlan:
    """``allocate_batch`` for one item: the feasible (j, k) plan with the highest ROI."""
    return _one_row(
        allocate_batch, preds, item, round1_set, round2_set, constraint, attach_delay_h
    )


def allocate_independent(
    preds: ItemPredictions,
    item: ItemRecord,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> AllocationPlan:
    """``allocate_independent_batch`` for one item: the per-round greedy plan,
    reported with the coupled economics of the resulting pair."""
    return _one_row(
        allocate_independent_batch, preds, item, round1_set, round2_set, constraint,
        attach_delay_h,
    )
