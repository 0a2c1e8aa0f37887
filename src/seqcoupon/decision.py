"""Two-round coupon plan algebra and the constrained ROI-argmax allocator.

A plan couples a round-1 arm j with a round-2 arm k. The combined sale
probability chains the two rounds through survival; the expected coupon cost
conditions on the sale happening in either round; ROI relates the propensity
lift over the never-coupon baseline to that cost. The allocator enumerates
every (j, k) cell, filters by a minimum-lift constraint, and returns the
highest-ROI cell with deterministic tie-breaking. A per-round-greedy variant
serves as the comparison baseline. Both run on whole catalogs of arrays, and
``materialize_plans`` prices their choices into one columnar ``PlanTable``,
which is what ``fileio.write_plans`` takes. ``allocate`` is the one-row view
that returns an ``AllocationPlan``, and the scalar ``combine_*``/``roi`` are
the reference the array economics equal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .domain import CatalogArrays, CouponConfig, CouponSet, ItemRecord, _check_column
from .domain import _id_column, coupon_columns, coupon_cost_rows
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
        if self.ltv_override is not None and not 0 < self.ltv_override < math.inf:
            raise InputError("ltv_override must be positive and finite")


@dataclass(frozen=True)
class AllocationPlan:
    """A chosen (round-1 arm, round-2 arm) pair with its predicted economics.

    A plain value that checks nothing itself: ``PlanTable`` checks plan rows,
    and ``allocate`` builds each plan from one row of a checked table.
    """

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


_ECONOMICS = ("p_round1", "p_round2", "p_combined", "p_baseline", "lift", "expected_cost")


@dataclass(frozen=True)
class PlanTable:
    """Allocation plans as columns: row i of every column is one ``AllocationPlan``.

    The ``j_*``/``k_*`` columns describe the round-1 and round-2 coupons as
    ``plans.csv`` does, beside the arms' menu positions. Construction checks
    that every plan's economics are consistent; it is the one validator of
    plan rows, and ``allocate`` takes its plan from a table.
    """

    item_ids: np.ndarray  # S, UTF-8
    j_index: np.ndarray
    k_index: np.ndarray
    j_discount_pct: np.ndarray
    j_validity_h: np.ndarray
    j_cap: np.ndarray
    k_discount_pct: np.ndarray
    k_validity_h: np.ndarray
    k_cap: np.ndarray
    attach_delay_h: np.ndarray
    p_round1: np.ndarray
    p_round2: np.ndarray
    p_combined: np.ndarray
    p_baseline: np.ndarray
    lift: np.ndarray
    expected_cost: np.ndarray
    roi: np.ndarray
    feasible: np.ndarray

    def __post_init__(self):
        if any(getattr(self, f.name).shape != (len(self),) for f in fields(self)[1:]):
            raise InputError(f"every plan column needs one entry per id ({len(self)})")
        for name in _ECONOMICS[:4]:
            v = getattr(self, name)
            _check_column(~((0.0 <= v) & (v <= 1.0)), v, f"{name} must lie in [0, 1], got {{}}")
        expected = self.p_round1 + (1.0 - self.p_round1) * self.p_round2
        _check_column(np.abs(self.p_combined - expected) > 1e-12, self.p_combined,
                      "p_combined inconsistent with the two per-round propensities")
        _check_column(np.abs(self.lift - (self.p_combined - self.p_baseline)) > 1e-12, self.lift,
                      "lift inconsistent with p_combined - p_baseline")
        _check_column(self.expected_cost < 0, self.expected_cost, "expected_cost must be >= 0")

    def __len__(self) -> int:
        return len(self.item_ids)


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
    if not (cost_j >= 0 and cost_k >= 0):
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
    if not ltv > 0:
        raise InputError("ltv must be positive")
    if not expected_cost >= 0:
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
    with np.errstate(invalid="ignore", divide="ignore"):
        r = lift * ltv
        r /= cost
    free = cost == 0.0
    if free.any():
        r[free] = np.where(lift[free] > 0.0, np.inf, 0.0)
    return r


def _combined(p1, p2, cost1, cost2, round1=None):
    """(p_combined, expected_cost) over equal-length columns, equal bit for bit
    to ``combine_propensity`` and ``combine_cost`` row by row.

    ``round1`` is ``_round1_terms(p1, cost1)``, for a caller pairing one
    round-1 arm with many round-2 arms; it is computed here when not given."""
    not_sold1, spent1 = _round1_terms(p1, cost1) if round1 is None else round1
    cost = not_sold1 * p2
    pc = p1 + cost
    with np.errstate(invalid="ignore", divide="ignore"):
        cost *= cost2
        cost += spent1
        cost /= pc
        cost[pc == 0.0] = 0.0
        if pc.min(initial=1.0) < sys.float_info.min:
            subnormal = (pc > 0.0) & (pc < sys.float_info.min)
            w = p1 / pc
            cost = np.where(subnormal, w * cost1 + (1.0 - w) * cost2, cost)
    return pc, cost


def _round1_terms(p1, cost1):
    """(1 - p1, p1 * cost1): the round-1 factors of ``_combined``."""
    return 1.0 - p1, p1 * cost1


def _economics(p1, p2, p_baseline, cost1, cost2, ltv):
    """(p_combined, expected_cost, lift, roi) over equal-length columns, equal bit
    for bit to ``combine_propensity``, ``combine_cost`` and ``roi`` row by row."""
    pc, cost = _combined(p1, p2, cost1, cost2)
    lift = pc - p_baseline
    return pc, cost, lift, _roi(lift, ltv, cost)


def _running_best(cells, n: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row: (the index of the best cell, whether its lift clears ``threshold``).

    ``cells`` yields ``(index, roi, lift, cost)`` columns in index order. A cell
    clearing the threshold beats one that does not; among those that clear it
    the higher ROI wins, among the rest the higher lift; ties go to the lower
    cost, then the earlier cell. Only the best so far is kept."""
    best = np.zeros(n, dtype=np.intp)
    best_feasible = np.zeros(n, dtype=bool)
    best_value = np.full(n, -np.inf)
    best_cost = np.full(n, np.inf)
    for index, r, lift, cost in cells:
        feasible = lift >= threshold
        value = np.where(feasible, r, lift)
        wins = (value > best_value) | ((value == best_value) & (cost < best_cost))
        # Between a cell and a best on different sides of the threshold, the feasible one wins.
        wins = np.where(feasible == best_feasible, wins, feasible)
        for column, new in ((best, index), (best_feasible, feasible),
                            (best_value, value), (best_cost, cost)):
            np.copyto(column, new, where=wins)
    return best, best_feasible


def _arm_costs(prices: np.ndarray, coupon_set: CouponSet):
    """Each arm's ``coupon_cost_rows`` on ``prices`` as floats, one arm at a time."""
    prices = np.asarray(prices, dtype=np.int64)
    for disc, _, cap in zip(*coupon_columns(coupon_set)):
        yield coupon_cost_rows(prices, disc, cap).astype(float)


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

    ``p1``/``p2`` hold one row per item. The cells are scored one at a time on
    whole columns, keeping only the best so far. Each round-2 arm's costs
    (one column per arm, kept throughout) and each round-1 arm's
    ``_round1_terms`` are computed once, not once per cell; beyond those,
    memory is O(n) for any menus.
    """
    _check_widths(p1, p2, round1_set, round2_set)
    K = p2.shape[1]
    ltvs = _resolve_ltvs(ltvs, constraint)
    costs2 = list(_arm_costs(prices, round2_set))

    def cells():
        for j, (p_round1, cost1) in enumerate(zip(p1.T, _arm_costs(prices, round1_set))):
            round1 = _round1_terms(p_round1, cost1)
            for k, (p_round2, cost2) in enumerate(zip(p2.T, costs2)):
                if j or k:  # the (none, none) baseline never competes
                    pc, cost = _combined(p_round1, p_round2, cost1, cost2, round1)
                    lift = np.subtract(pc, p_baseline, out=pc)  # p_combined is not needed again
                    yield j * K + k, _roi(lift, ltvs, cost), lift, cost

    flat, feasible = _running_best(cells(), len(p1), constraint.lift_threshold)
    return flat // K, flat % K, feasible


def _best_round_arm(probs, prices, coupon_set: CouponSet, ltvs, threshold: float):
    """Greedy single-round pick: max per-round ROI subject to the lift over the
    round's no-coupon arm."""
    def cells():
        for arm, (p, cost) in enumerate(zip(probs.T, _arm_costs(prices, coupon_set))):
            lift = p - probs[:, 0]
            yield arm, _roi(lift, ltvs, cost), lift, cost

    return _running_best(cells(), len(probs), threshold)[0]


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
    ``constraint.ltv_override``, when set, replaces ``ltvs``. Each round's
    arms, the no-coupon arm included, go through the same one-at-a-time
    running best as ``allocate_batch``'s cells.
    """
    _check_widths(p1, p2, round1_set, round2_set)
    ltvs = _resolve_ltvs(ltvs, constraint)
    threshold = constraint.lift_threshold
    j = _best_round_arm(p1, prices, round1_set, ltvs, threshold)
    k = _best_round_arm(p2, prices, round2_set, ltvs, threshold)
    rows = np.arange(len(j))
    _, _, lift, _ = _economics(
        p1[rows, j], p2[rows, k], p_baseline,
        *_chosen_costs(prices, j, k, round1_set, round2_set), ltvs,
    )
    return j, k, lift >= threshold


def _chosen_costs(prices, j, k, round1_set: CouponSet, round2_set: CouponSet):
    """Per row, the costs of its chosen round-1 arm ``j`` and round-2 arm ``k``, as floats."""
    (disc1, _, cap1), (disc2, _, cap2) = coupon_columns(round1_set), coupon_columns(round2_set)
    return (coupon_cost_rows(prices, disc1[j], cap1[j]).astype(float),
            coupon_cost_rows(prices, disc2[k], cap2[k]).astype(float))


def materialize_plans(
    item_ids,
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
) -> PlanTable:
    """Expand batch arm choices into a table of full plan rows (``item_ids``: ``S`` or
    ``str``s), pricing the chosen cells with the same array economics as the allocators."""
    rows = np.arange(len(item_ids))
    p_round1, p_round2 = p1[rows, j], p2[rows, k]
    pc, cost, lift, r = _economics(
        p_round1, p_round2, p_baseline, *_chosen_costs(prices, j, k, round1_set, round2_set),
        _resolve_ltvs(ltvs, constraint),
    )
    j_disc, j_validity, j_cap = (c[j] for c in coupon_columns(round1_set))
    k_disc, k_validity, k_cap = (c[k] for c in coupon_columns(round2_set))
    return PlanTable(
        item_ids=_id_column(item_ids, "item_id"), j_index=j, k_index=k,
        j_discount_pct=j_disc, j_validity_h=j_validity, j_cap=j_cap,
        k_discount_pct=k_disc, k_validity_h=k_validity, k_cap=k_cap,
        attach_delay_h=np.full(len(rows), float(attach_delay_h)),
        p_round1=p_round1, p_round2=p_round2, p_combined=pc, p_baseline=p_baseline,
        lift=lift, expected_cost=cost, roi=r, feasible=feasible,
    )


def allocate(
    preds: ItemPredictions,
    item: ItemRecord,
    round1_set: CouponSet,
    round2_set: CouponSet,
    constraint: PolicyConstraint,
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> AllocationPlan:
    """``allocate_batch`` for one item: the feasible (j, k) plan with the highest ROI.

    The plan is the one row of the ``PlanTable`` that ``materialize_plans``
    prices for this item. The item is checked as a one-row catalog.
    """
    p1, p2 = np.array([preds.p1]), np.array([preds.p2])
    p_baseline = np.array([preds.p_baseline])
    cat = CatalogArrays.from_items([item])
    prices, ltvs = cat.price, cat.ltv
    j, k, feasible = allocate_batch(
        p1, p2, p_baseline, prices, ltvs, round1_set, round2_set, constraint
    )
    table = materialize_plans(
        [item.item_id], j, k, feasible, p1, p2, p_baseline, prices, ltvs,
        round1_set, round2_set, constraint, attach_delay_h,
    )
    j0, k0 = int(j[0]), int(k[0])
    return AllocationPlan(
        item_id=item.item_id, j_index=j0, k_index=k0,
        round1_coupon=round1_set[j0], round2_coupon=round2_set[k0],
        attach_delay_h=float(attach_delay_h), feasible=bool(feasible[0]),
        **{name: float(getattr(table, name)[0]) for name in (*_ECONOMICS, "roi")},
    )
