"""Two-round coupon plan algebra and the constrained ROI-argmax allocator.

A plan couples a round-1 arm j with a round-2 arm k. The combined sale
probability chains the two rounds through survival; the expected coupon cost
conditions on the sale happening in either round; ROI relates the propensity
lift over the never-coupon baseline to that cost. The allocator enumerates
every (j, k) cell, filters by a minimum-lift constraint, and returns the
highest-ROI cell with deterministic tie-breaking. A per-round-greedy variant
serves as the comparison baseline, and ``replan`` re-runs allocation for items
still unsold after a completed cycle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import CouponConfig, CouponSet, ItemRecord, OutcomeRecord, coupon_cost, coupon_costs
from .errors import ContractError, InputError
from .uplift import ItemPredictions, PredictorPair, predict_item

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


def _check_preds(preds: ItemPredictions, round1_set: CouponSet, round2_set: CouponSet):
    if len(preds.p1) != len(round1_set) or len(preds.p2) != len(round2_set):
        raise InputError("predictions do not match the coupon menus")


def _plan(item, preds, round1_set, round2_set, j, k, attach_delay_h, ltv, feasible):
    p1, p2 = preds.p1[j], preds.p2[k]
    cost_j = coupon_cost(round1_set[j], item.price_yen)
    cost_k = coupon_cost(round2_set[k], item.price_yen)
    pc = combine_propensity(p1, p2)
    cost = combine_cost(p1, p2, cost_j, cost_k)
    return AllocationPlan(
        item_id=item.item_id,
        j_index=j,
        k_index=k,
        round1_coupon=round1_set[j],
        round2_coupon=round2_set[k],
        attach_delay_h=attach_delay_h,
        p_round1=p1,
        p_round2=p2,
        p_combined=pc,
        p_baseline=preds.p_baseline,
        lift=pc - preds.p_baseline,
        expected_cost=cost,
        roi=roi(pc, preds.p_baseline, ltv, cost),
        feasible=feasible,
    )


def allocate(
    preds: ItemPredictions,
    item: ItemRecord,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> AllocationPlan:
    """Pick the feasible (j, k) pair with the highest ROI.

    Every cell of the two menus is scored except (none, none), which is the
    do-nothing baseline the lift is measured against. Ties fall to the lower
    expected cost, then the lexicographically smaller (j, k). When no cell
    clears the lift threshold the maximum-lift cell is returned flagged
    infeasible so batch callers can decide their own fallback.
    """
    _check_preds(preds, round1_set, round2_set)
    ltv = constraint.ltv_override if constraint.ltv_override is not None else item.seller_ltv_yen
    best = None  # (roi, cost, j, k)
    best_lift = None  # (lift, cost, j, k)
    for j in range(len(round1_set)):
        cost_j = coupon_cost(round1_set[j], item.price_yen)
        for k in range(len(round2_set)):
            if j == 0 and k == 0:
                continue
            p1, p2 = preds.p1[j], preds.p2[k]
            pc = combine_propensity(p1, p2)
            cost = combine_cost(p1, p2, cost_j, coupon_cost(round2_set[k], item.price_yen))
            lift = pc - preds.p_baseline
            r = roi(pc, preds.p_baseline, ltv, cost)
            if lift >= constraint.lift_threshold:
                if best is None or r > best[0] or (r == best[0] and cost < best[1]):
                    best = (r, cost, j, k)
            if best_lift is None or lift > best_lift[0] or (
                lift == best_lift[0] and cost < best_lift[1]
            ):
                best_lift = (lift, cost, j, k)
    if best is not None:
        _, _, j, k = best
        return _plan(item, preds, round1_set, round2_set, j, k, attach_delay_h, ltv, True)
    _, _, j, k = best_lift
    return _plan(item, preds, round1_set, round2_set, j, k, attach_delay_h, ltv, False)


def _best_round_arm(probs, costs, ltv, threshold):
    """Greedy single-round pick: max per-round ROI subject to the round's lift."""
    best = None  # (roi, cost, index)
    best_lift = None
    for j in range(len(probs)):
        lift = probs[j] - probs[0]
        cost = costs[j]
        if cost == 0.0:
            r = math.inf if lift > 0.0 else 0.0
        else:
            r = lift * ltv / cost
        if lift >= threshold:
            if best is None or r > best[0] or (r == best[0] and cost < best[1]):
                best = (r, cost, j)
        if best_lift is None or lift > best_lift[0] or (
            lift == best_lift[0] and cost < best_lift[1]
        ):
            best_lift = (lift, cost, j)
    return best[2] if best is not None else best_lift[2]


def allocate_independent(
    preds: ItemPredictions,
    item: ItemRecord,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> AllocationPlan:
    """Per-round greedy baseline: optimize each round on its own, then report
    the coupled economics of the resulting pair for comparability.

    The feasibility flag on the returned plan refers to the combined lift, so
    plans from this allocator and ``allocate`` are judged by the same rule.
    """
    _check_preds(preds, round1_set, round2_set)
    ltv = constraint.ltv_override if constraint.ltv_override is not None else item.seller_ltv_yen
    cost1 = [float(coupon_cost(c, item.price_yen)) for c in round1_set]
    cost2 = [float(coupon_cost(c, item.price_yen)) for c in round2_set]
    j = _best_round_arm(preds.p1, cost1, ltv, constraint.lift_threshold)
    k = _best_round_arm(preds.p2, cost2, ltv, constraint.lift_threshold)
    pc = combine_propensity(preds.p1[j], preds.p2[k])
    feasible = (pc - preds.p_baseline) >= constraint.lift_threshold
    return _plan(item, preds, round1_set, round2_set, j, k, attach_delay_h, ltv, feasible)


def replan(
    item: ItemRecord,
    history: Sequence[OutcomeRecord],
    pair: PredictorPair,
    constraint: PolicyConstraint,
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> AllocationPlan:
    """Fresh allocation for an item entering a new promotion cycle.

    The item's current record (age, likes, ...) is re-encoded from scratch;
    prior unsold rounds carry no state into the new plan. An item whose
    history already contains a sale must not be replanned.
    """
    for rec in history:
        if rec.item_id != item.item_id:
            raise InputError("history record belongs to a different item")
        if rec.sold:
            raise ContractError(f"item {item.item_id!r} already sold; nothing to replan")
    preds = predict_item(pair, item, attach_delay_h)
    return allocate(preds, item, pair.round1_set, pair.round2_set, constraint, attach_delay_h)


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
    """Vectorised arm choice for a whole catalog.

    Returns (j, k, feasible) per item, reproducing ``allocate``'s argmax and
    tie-breaking exactly: highest ROI, then lowest expected cost, then lowest
    flattened (j, k) index; infeasible items fall back to the maximum-lift
    cell. The full plan economics can then be recomputed per item.
    """
    n, M = p1.shape
    K = p2.shape[1]
    cost1 = coupon_costs(prices, round1_set).astype(float)
    cost2 = coupon_costs(prices, round2_set).astype(float)

    a = p1[:, :, None]  # (n, M, 1)
    b = p2[:, None, :]  # (n, 1, K)
    pc = a + (1.0 - a) * b
    num = a * cost1[:, :, None] + (1.0 - a) * b * cost2[:, None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = np.where(pc == 0.0, 0.0, num / pc)
    lift = pc - p_baseline[:, None, None]
    ltv3 = np.asarray(ltvs, dtype=float)[:, None, None]
    r = np.where(
        cost == 0.0,
        np.where(lift > 0.0, np.inf, 0.0),
        lift * ltv3 / np.where(cost == 0.0, 1.0, cost),
    )

    flat_cost = cost.reshape(n, M * K)
    flat_lift = lift.reshape(n, M * K)
    flat_roi = r.reshape(n, M * K)
    feasible = flat_lift >= constraint.lift_threshold
    feasible[:, 0] = False  # the (none, none) baseline never competes

    def cascade(value: np.ndarray, mask: np.ndarray) -> np.ndarray:
        # argmax of value, then min cost, then min flat index, within mask rows
        v = np.where(mask, value, -np.inf)
        vbest = v.max(axis=1)
        tie = v == vbest[:, None]
        c = np.where(tie, flat_cost, np.inf)
        cbest = c.min(axis=1)
        tie &= c == cbest[:, None]
        return tie.argmax(axis=1)

    any_feasible = feasible.any(axis=1)
    choice = cascade(flat_roi, feasible)
    all_mask = np.ones_like(feasible)
    all_mask[:, 0] = False
    fallback = cascade(flat_lift, all_mask)
    flat = np.where(any_feasible, choice, fallback)
    return flat // K, flat % K, any_feasible


def _best_round_arm_batch(
    probs: np.ndarray, costs: np.ndarray, ltvs: np.ndarray, threshold: float
) -> np.ndarray:
    """Vectorised ``_best_round_arm`` over (n, arms) probability/cost grids."""
    lift = probs - probs[:, [0]]
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(
            costs == 0.0,
            np.where(lift > 0.0, np.inf, 0.0),
            lift * ltvs[:, None] / np.where(costs == 0.0, 1.0, costs),
        )

    def cascade(value: np.ndarray, mask: np.ndarray) -> np.ndarray:
        v = np.where(mask, value, -np.inf)
        tie = v == v.max(axis=1)[:, None]
        c = np.where(tie, costs, np.inf)
        tie &= c == c.min(axis=1)[:, None]
        return tie.argmax(axis=1)

    feas = lift >= threshold
    all_mask = np.ones_like(feas)
    return np.where(feas.any(axis=1), cascade(r, feas), cascade(lift, all_mask))


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
    """Vectorised per-round greedy choice for a whole catalog.

    Returns (j, k, feasible) matching ``allocate_independent``: each round's arm
    maximises that round's lift-to-cost ratio on its own, and the feasibility
    flag reflects the combined lift of the resulting pair.
    """
    n = p1.shape[0]
    ltvs = np.asarray(ltvs, dtype=float)
    cost1 = coupon_costs(prices, round1_set).astype(float)
    cost2 = coupon_costs(prices, round2_set).astype(float)
    j = _best_round_arm_batch(p1, cost1, ltvs, constraint.lift_threshold)
    k = _best_round_arm_batch(p2, cost2, ltvs, constraint.lift_threshold)
    rows = np.arange(n)
    pc = p1[rows, j] + (1.0 - p1[rows, j]) * p2[rows, k]
    feasible = (pc - p_baseline) >= constraint.lift_threshold
    return j, k, feasible


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
    """Expand batch arm choices into full per-item plan rows.

    Recomputes each chosen cell's economics with the scalar helpers, so a row
    here equals the plan ``allocate`` would return for the same item.
    """
    plans = []
    for i, item_id in enumerate(item_ids):
        ltv = constraint.ltv_override if constraint.ltv_override is not None else float(ltvs[i])
        jj, kk = int(j[i]), int(k[i])
        price = int(prices[i])
        a, b = float(p1[i, jj]), float(p2[i, kk])
        pc = combine_propensity(a, b)
        cost = combine_cost(
            a, b, coupon_cost(round1_set[jj], price), coupon_cost(round2_set[kk], price)
        )
        pb = float(p_baseline[i])
        plans.append(
            AllocationPlan(
                item_id=item_id,
                j_index=jj,
                k_index=kk,
                round1_coupon=round1_set[jj],
                round2_coupon=round2_set[kk],
                attach_delay_h=attach_delay_h,
                p_round1=a,
                p_round2=b,
                p_combined=pc,
                p_baseline=pb,
                lift=pc - pb,
                expected_cost=cost,
                roi=roi(pc, pb, ltv, cost),
                feasible=bool(feasible[i]),
            )
        )
    return plans
