"""Independent reference implementations used only to check the package.

Everything here is written directly from first principles (plain loops,
no vectorization, no reuse of package internals beyond data types) so that
agreement with the package is meaningful. The exceptions at the end are
earlier implementations kept as they were: the per-record and per-plan CSV
writers, the boosted-stump fit that re-buckets every feature in every round,
the uplift curve and bootstrap band that re-sort every resample, the
row-major allocators, the one-plan-per-call rollout, the trial's log
builder over the per-round draws, the per-arm prediction, the training
features and IPW weights built arm by arm by a one-coupon encoder, and the
one-f-string-per-item id builder. The package's faster paths must reproduce
their bytes and bits.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from seqcoupon import rng
from seqcoupon.domain import (
    N_ITEM_FEATURES,
    CouponConfig,
    OutcomeLog,
    coupon_columns,
    coupon_cost_rows,
)
from seqcoupon.errors import ContractError, InputError
from seqcoupon.decision import DEFAULT_ATTACH_DELAY_H
from seqcoupon.evaluation import (
    STRATEGIES,
    ComparisonReport,
    StrategyMetrics,
    UpliftCurve,
    _metrics,
)
from seqcoupon.learner import LEAF_CLIP, N_SPLIT_CANDIDATES, PROB_CLAMP, Stump, predict_matrix
from seqcoupon.simulator import (
    GroundTruth,
    RolloutTotals,
    arm_draw,
    generate_catalog_arrays,
    purchase_rate,
    round2_attach_delay,
)


def coupon_cost(coupon, price_yen: int) -> int:
    """Redemption cost in yen of attaching ``coupon`` to an item at ``price_yen``.

    Percentage of the price, floored to whole yen, saturated at the cap.
    The no-coupon arm costs nothing.
    """
    if price_yen <= 0:
        raise InputError(f"price_yen must be > 0, got {price_yen}")
    if coupon.is_none:
        return 0
    return min((price_yen * coupon.discount_pct) // 100, coupon.cap_yen)


def coupon_costs(prices, coupon_set) -> np.ndarray:
    """``coupon_cost_rows`` over a menu: an (n, arms) int64 grid, one column per arm.

    Row i, column j is the cost of arm j of ``coupon_set`` on an item priced
    ``prices[i]``. The row-major allocators and the one-plan rollout below
    read costs from this grid.
    """
    disc, _, cap = coupon_columns(coupon_set)
    return coupon_cost_rows(np.asarray(prices, dtype=np.int64)[:, None], disc, cap)


def brute_force_allocate(preds, price_yen, ltv, round1_set, round2_set, threshold):
    """Enumerate every (j, k) pair and return the winner by the decision rule.

    Returns (j, k, feasible). Scoring: highest ROI among pairs whose lift
    clears the threshold; ties by lower expected cost then lower (j, k);
    when nothing clears, the maximum-lift pair (same ties) flagged False.
    """
    best = None  # (roi, cost, j, k)
    best_lift = None  # (lift, cost, j, k)
    for j in range(len(round1_set)):
        for k in range(len(round2_set)):
            if j == 0 and k == 0:
                continue
            p1, p2 = preds.p1[j], preds.p2[k]
            pc = p1 + (1.0 - p1) * p2
            cj = coupon_cost(round1_set[j], price_yen)
            ck = coupon_cost(round2_set[k], price_yen)
            numerator = p1 * cj + (1.0 - p1) * p2 * ck
            cost = 0.0 if pc == 0.0 else numerator / pc
            lift = pc - preds.p_baseline
            if cost == 0.0:
                r = math.inf if lift > 0.0 else 0.0
            else:
                r = lift * ltv / cost
            if lift >= threshold:
                key = (r, -cost, -j, -k)
                if best is None or key > (best[0], -best[1], -best[2], -best[3]):
                    best = (r, cost, j, k)
            lift_key = (lift, -cost, -j, -k)
            if best_lift is None or lift_key > (
                best_lift[0], -best_lift[1], -best_lift[2], -best_lift[3]
            ):
                best_lift = (lift, cost, j, k)
    if best is not None:
        return best[2], best[3], True
    return best_lift[2], best_lift[3], False


def brute_force_round_arm(probs, costs, ltv, threshold):
    """Single-round greedy reference: best per-round ROI subject to the lift bar."""
    best = None
    best_lift = None
    for j in range(len(probs)):
        lift = probs[j] - probs[0]
        cost = costs[j]
        if cost == 0.0:
            r = math.inf if lift > 0.0 else 0.0
        else:
            r = lift * ltv / cost
        if lift >= threshold:
            key = (r, -cost, -j)
            if best is None or key > (best[0], -best[1], -best[2]):
                best = (r, cost, j)
        lift_key = (lift, -cost, -j)
        if best_lift is None or lift_key > (best_lift[0], -best_lift[1], -best_lift[2]):
            best_lift = (lift, cost, j)
    return best[2] if best is not None else best_lift[2]


def spearman(a, b):
    """Rank correlation via the ranks' Pearson coefficient (average-free form)."""
    n = len(a)
    ra = _ranks(a)
    rb = _ranks(b)
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def _ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    for rank, i in enumerate(order):
        ranks[i] = float(rank)
    return ranks


# One-sided critical value of Student's t at alpha = 0.05 for 9 degrees of
# freedom, from the standard t table.
T_CRIT_ONE_SIDED_05_DF9 = 1.8331


def paired_t_statistic(diffs):
    """t statistic for the mean of paired differences against zero."""
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    return mean / math.sqrt(var / n)


# ---------------------------------------------------------------------------
# earlier implementations


def _fmt(value):
    return "" if value is None else "%.12g" % value


def write_catalog_per_record(items, path):
    """The catalog writer as it was: one formatted line per ``ItemRecord``."""
    lines = ["item_id,seller_id,price_yen,condition,age_days,likes,"
             "demand_index,season_phase,seller_ltv_yen,key_action_ts"]
    for it in items:
        lines.append(",".join([
            it.item_id, it.seller_id, str(it.price_yen), str(it.condition),
            _fmt(it.age_days), str(it.likes), _fmt(it.demand_index),
            _fmt(it.season_phase), str(it.seller_ltv_yen), _fmt(it.key_action_ts),
        ]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outcomes_per_record(records, path):
    """The outcome-log writer as it was: one formatted line per ``OutcomeRecord``."""
    lines = ["item_id,round,discount_pct,validity_hours,cap_yen,attach_delay_h,"
             "sold,purchase_delay_h,sale_price_yen,coupon_cost_yen"]
    for r in records:
        lines.append(",".join([
            r.item_id, str(r.round), str(r.coupon.discount_pct),
            _fmt(r.coupon.validity_hours), str(r.coupon.cap_yen), _fmt(r.attach_delay_h),
            "1" if r.sold else "0", _fmt(r.purchase_delay_h),
            "" if r.sale_price_yen is None else str(r.sale_price_yen),
            "" if r.coupon_cost_yen is None else str(r.coupon_cost_yen),
        ]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plans_per_plan(plans, path):
    """The plan writer as it was: one formatted line per ``AllocationPlan``."""
    lines = ["item_id,j_discount_pct,j_validity_h,j_cap,k_discount_pct,k_validity_h,k_cap,"
             "attach_delay_h,p_round1,p_round2,p_combined,p_baseline,lift,expected_cost,"
             "roi,feasible"]
    for p in plans:
        j, k = p.round1_coupon, p.round2_coupon
        lines.append(",".join([
            p.item_id, str(j.discount_pct), _fmt(j.validity_hours), str(j.cap_yen),
            str(k.discount_pct), _fmt(k.validity_hours), str(k.cap_yen),
            _fmt(p.attach_delay_h), _fmt(p.p_round1), _fmt(p.p_round2), _fmt(p.p_combined),
            _fmt(p.p_baseline), _fmt(p.lift), _fmt(p.expected_cost), _fmt(p.roi),
            "1" if p.feasible else "0",
        ]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loss(p, y, w_norm):
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(w_norm @ np.where(y, -np.log(p), -np.log1p(-p)))


def _weighted_quantiles(x, w, qs):
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    cdf = np.cumsum(ws)
    cdf = cdf / cdf[-1]
    return xs[np.searchsorted(cdf, qs, side="left").clip(0, len(xs) - 1)]


def fit_boosted_per_round(Xs, y, w_norm, config):
    """Boosted stumps as first written: every round re-buckets every feature.

    Takes standardised features and normalised weights, like the package's
    ``learner._fit_boosted``; returns (intercept, stumps).
    """
    yf = y.astype(float)
    prior = float(np.clip(w_norm @ yf, PROB_CLAMP, 1.0 - PROB_CLAMP))
    base = float(np.log(prior / (1.0 - prior)))
    if not (y.any() and (~y).any()):
        return base, ()
    qs = np.linspace(0.0, 1.0, N_SPLIT_CANDIDATES + 2)[1:-1]
    candidates = [_weighted_quantiles(Xs[:, f], w_norm, qs) for f in range(Xs.shape[1])]
    F = np.full(len(yf), base)
    loss = _loss(_sigmoid(F), y, w_norm)
    stumps = []
    for _ in range(min(config.epochs, config.max_stumps)):
        p = _sigmoid(F)
        g = w_norm * (p - yf)
        h = w_norm * p * (1.0 - p)
        g_tot, h_tot = g.sum(), h.sum()
        best = None
        for f in range(Xs.shape[1]):
            cand = candidates[f]
            bucket = np.searchsorted(cand, Xs[:, f], side="left")
            gl = np.cumsum(np.bincount(bucket, weights=g, minlength=len(cand) + 1))[:-1]
            hl = np.cumsum(np.bincount(bucket, weights=h, minlength=len(cand) + 1))[:-1]
            gr, hr = g_tot - gl, h_tot - hl
            score = gl**2 / (hl + config.l2 + 1e-12) + gr**2 / (hr + config.l2 + 1e-12)
            c = int(np.argmax(score))
            if best is None or score[c] > best[0]:
                best = (float(score[c]), f, c)
        _, f, c = best
        threshold = float(candidates[f][c])
        left = Xs[:, f] <= threshold
        gl, hl = g[left].sum(), h[left].sum()
        gr, hr = g_tot - gl, h_tot - hl
        vl = float(np.clip(-config.learning_rate * gl / (hl + config.l2 + 1e-12),
                           -LEAF_CLIP, LEAF_CLIP))
        vr = float(np.clip(-config.learning_rate * gr / (hr + config.l2 + 1e-12),
                           -LEAF_CLIP, LEAF_CLIP))
        F_new = F + np.where(left, vl, vr)
        loss_new = _loss(_sigmoid(F_new), y, w_norm)
        if loss_new > loss + 1e-12:
            break
        F, loss = F_new, loss_new
        stumps.append(Stump(feature=f, threshold=threshold, left_value=vl, right_value=vr))
    return base, tuple(stumps)


def cumulative_uplift_sorting(scores, treated, sold, deciles=10):
    """The cumulative uplift curve as first written: one stable sort per call."""
    scores = np.asarray(scores, dtype=float)
    treated = np.asarray(treated, dtype=bool)
    sold = np.asarray(sold, dtype=bool)
    n = len(scores)
    if n == 0 or not treated.any() or treated.all():
        raise InputError("cumulative_uplift needs items from both treatment groups")

    order = np.argsort(-scores, kind="stable")
    t_sorted = treated[order]
    s_sorted = sold[order]
    cum_t = np.cumsum(t_sorted)
    cum_ts = np.cumsum(t_sorted & s_sorted)
    cum_c = np.cumsum(~t_sorted)
    cum_cs = np.cumsum(~t_sorted & s_sorted)

    points = []
    for d in range(1, deciles + 1):
        count = n * d // deciles
        frac = d / deciles
        if count == 0:
            points.append((frac, None))
            continue
        n_t, n_c = int(cum_t[count - 1]), int(cum_c[count - 1])
        if n_t == 0 or n_c == 0:
            points.append((frac, None))
            continue
        value = float(cum_ts[count - 1]) / n_t - float(cum_cs[count - 1]) / n_c
        points.append((frac, value))
    ate = float(cum_ts[-1]) / int(cum_t[-1]) - float(cum_cs[-1]) / int(cum_c[-1])
    return UpliftCurve(points=tuple(points), random_reference=ate)


def bootstrap_band_resorting(curve_fn, n_items, b_replicates, seed):
    """The bootstrap band as first written: ``curve_fn`` re-sorts every resample.

    ``curve_fn`` maps an index array (a with-replacement resample of
    ``range(n_items)``) to an UpliftCurve; the band spans its point values.
    """
    if b_replicates < 2:
        raise InputError("bootstrap needs at least 2 replicates")
    if n_items < 1:
        raise InputError("n_items must be >= 1")
    rows = np.arange(n_items, dtype=np.uint64)
    per_point = []
    n_points = None
    for b in range(b_replicates):
        u = rng.uniforms(seed, rows, rng.BOOTSTRAP, b)
        idx = np.minimum((u * n_items).astype(np.int64), n_items - 1)
        curve = curve_fn(idx)
        if n_points is None:
            n_points = len(curve.points)
            per_point = [[] for _ in range(n_points)]
        elif len(curve.points) != n_points:
            raise ContractError("bootstrap replicates produced differing curve lengths")
        for i, (_, value) in enumerate(curve.points):
            if value is not None:
                per_point[i].append(value)
    bands = []
    for values in per_point:
        if not values:
            bands.append(None)
            continue
        lo = float(np.percentile(values, 5.0, method="lower"))
        hi = float(np.percentile(values, 95.0, method="higher"))
        bands.append((lo, hi))
    return tuple(bands)


# ---------------------------------------------------------------------------
# The row-major allocators, kept as they were: (item, j, k) grids and a
# per-row argmax.

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


def allocate_batch_row_major(
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


def allocate_independent_batch_row_major(
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


# ---------------------------------------------------------------------------
# The rollout as it was: one call per plan, every draw and the base logit
# recomputed per call, round 2 drawn on the survivors only.

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
    """Each catalog row's position in item-id order, the ids sorted as ``str``s."""
    ids = id_strs(cat.ids)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _round_log(cat, rank, rows, round, disc, validity, cap, delay, sold, t) -> OutcomeLog:
    """One round's log over the catalog ``rows``, sorted by item id.

    Every other column aligns with ``rows``; ``t`` is NaN where unsold.
    """
    order = np.argsort(rank[rows], kind="stable")
    rows, disc, cap, sold = rows[order], disc[order], cap[order], sold[order]
    price = cat.price[rows]
    return OutcomeLog.from_columns(
        item_ids=list(map(id_strs(cat.ids).__getitem__, rows.tolist())),
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


def run_rct_logs(gt, cat, round1_set, round2_set, round1_probs, round2_probs, seed):
    """The two logs of ``run_rct`` on a ``CatalogArrays``, built as they were:
    per-row coupon columns into ``_simulate_rounds``, then ``_round_logs``."""
    arm1 = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R1), round1_probs)
    arm2 = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R2), round2_probs)
    delay1 = rng.uniforms(seed, cat.keys, rng.ATTACH_DELAY) * gt.config.rct_max_delay_h
    coupons1 = [c[arm1] for c in _coupon_columns(round1_set)]
    coupons2 = [c[arm2] for c in _coupon_columns(round2_set)]
    rounds = _simulate_rounds(
        gt, cat, coupons1[0], coupons1[1], delay1, coupons2[0], coupons2[1], seed
    )
    return _round_logs(cat, coupons1, delay1, coupons2, *rounds)


def _check_arms(arms, n: int, coupon_set: CouponSet, label: str) -> np.ndarray:
    arms = np.asarray(arms)
    if arms.shape != (n,) or not np.issubdtype(arms.dtype, np.integer):
        raise InputError(f"{label}: need one integer arm index per catalog row ({n})")
    if n and (arms.min() < 0 or arms.max() >= len(coupon_set)):
        raise InputError(f"{label}: arm indices must lie in [0, {len(coupon_set)})")
    return arms


def rollout_arms_per_plan(
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


# ---------------------------------------------------------------------------
# The one-coupon encoder as it was, which the per-arm prediction and training
# builders below use.

def coupon_features(coupon) -> list[float]:
    """One coupon's four coordinates, zeros for the no-coupon arm."""
    if coupon.is_none:
        return [0.0, 0.0, 0.0, 0.0]
    return [
        float(coupon.discount_pct),
        float(coupon.discount_pct) ** 2,
        math.log1p(coupon.validity_hours),
        coupon.cap_yen / 1000.0,
    ]


def encode_per_coupon(item_matrix, slot, coupon, last) -> np.ndarray:
    """Item features, one ``slot`` column, ``coupon``'s coordinates and a ``last`` column."""
    out = np.empty((item_matrix.shape[0], N_ITEM_FEATURES + 6))
    out[:, :N_ITEM_FEATURES] = item_matrix
    out[:, N_ITEM_FEATURES] = slot
    out[:, N_ITEM_FEATURES + 1 : -1] = coupon_features(coupon)
    out[:, -1] = last
    return out


def encode_round1_per_coupon(item_matrix, coupon, attach_delay_h) -> np.ndarray:
    delays = np.asarray(attach_delay_h, dtype=float)
    return encode_per_coupon(item_matrix, delays, coupon, coupon.discount_pct * delays)


# ---------------------------------------------------------------------------
# Prediction as it was: one encoded and standardised matrix per arm.

def round1_arm_probabilities_per_arm(
    first: Model,
    item_matrix: np.ndarray,
    round1_set: CouponSet,
    attach_delay_h,
) -> np.ndarray:
    """Matrix of first-round propensities, one column per arm of the menu."""
    delays = np.broadcast_to(np.asarray(attach_delay_h, dtype=float),
                             (item_matrix.shape[0],))
    cols = [
        predict_matrix(first, encode_round1_per_coupon(item_matrix, coupon, delays))
        for coupon in round1_set
    ]
    return np.column_stack(cols)


def predict_arrays_per_arm(
    pair: PredictorPair,
    item_matrix: np.ndarray,
    age_days: np.ndarray,
    attach_delay_h: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columnar predictions from an item-feature matrix and an ``age_days`` column.

    Returns (p1 matrix, mean_p1, p2 matrix, p_baseline), one row per matrix row.
    A negative attach delay is refused: the models never saw one.
    """
    if attach_delay_h < 0:
        raise ContractError("attach_delay_h must be >= 0")
    p1 = round1_arm_probabilities_per_arm(pair.first, item_matrix, pair.round1_set,
                                  attach_delay_h)
    mean_p1 = p1.mean(axis=1)
    elapsed_age_h = np.asarray(age_days, dtype=float) * 24.0
    p2 = np.column_stack(
        [
            predict_matrix(
                pair.second,
                encode_per_coupon(item_matrix, elapsed_age_h, coupon, mean_p1),
            )
            for coupon in pair.round2_set
        ]
    )
    p_baseline = p1[:, 0] + (1.0 - p1[:, 0]) * p2[:, 0]
    return p1, mean_p1, p2, p_baseline


# ---------------------------------------------------------------------------
# Training features as they were: the log regrouped by coupon arm, and each
# arm's rows encoded by the one-coupon encoder.

def rows_by_arm(log: OutcomeLog, rows=None):
    """Positions in ``log`` (or in its sub-log ``rows``) grouped by coupon arm.

    One stable ``lexsort`` over the three coupon columns: positions ascend
    within each arm, and arms come in (discount, validity, cap) order.
    """
    columns = [log.discount_pct, log.validity_hours, log.cap_yen]
    if rows is not None:
        columns = [c[rows] for c in columns]
    order = np.lexsort(columns[::-1])
    disc, validity, cap = (c[order] for c in columns)
    new_arm = np.zeros(len(order), dtype=bool)
    new_arm[:1] = True
    for c in (disc, validity, cap):
        new_arm[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new_arm)
    return [
        (CouponConfig(int(disc[i]), float(validity[i]), int(cap[i])), idx)
        for i, idx in zip(starts.tolist(), np.split(order, starts[1:]))
    ]


def round1_features_per_arm(cat, round1_log) -> np.ndarray:
    """The first-round design matrix, rows in log order, encoded arm by arm."""
    rows = cat.rows_of(round1_log.item_ids)
    features = np.empty((len(round1_log), N_ITEM_FEATURES + 6))
    for coupon, idx in rows_by_arm(round1_log):
        features[idx] = encode_round1_per_coupon(
            cat.matrix[rows[idx]], coupon, round1_log.attach_delay_h[idx]
        )
    return features


def ipw_per_arm(first, item_matrix, round1_log, rows, round1_set, epsilon, variant):
    """(IPW weights, mean round-1 propensity) of the round-1 rows ``rows`` (None:
    all), the ``applied`` variant scoring each arm's rows on their own."""
    delays = round1_log.attach_delay_h
    if rows is not None:
        delays = delays[rows]
    mean_p1 = np.mean(round1_arm_probabilities_per_arm(first, item_matrix, round1_set, delays),
                      axis=1)
    if variant == "mean":
        p1 = mean_p1
    else:
        p1 = np.empty(len(delays))
        for coupon, idx in rows_by_arm(round1_log, rows):
            p1[idx] = predict_matrix(
                first, encode_round1_per_coupon(item_matrix[idx], coupon, delays[idx])
            )
    return 1.0 / np.clip(1.0 - p1, epsilon, 1.0), mean_p1


def round2_features_per_arm(cat, round1_log, round2_log, first, round1_set, epsilon, variant):
    """(second-round design matrix, IPW weights), rows in round-2 log order,
    encoded arm by arm."""
    cat_rows = cat.rows_of(round2_log.item_ids)
    r1_position = {item_id: i for i, item_id in enumerate(round1_log.item_ids)}
    r1_rows = np.array([r1_position[i] for i in round2_log.item_ids], dtype=np.intp)
    item_matrix = cat.matrix[cat_rows]
    weights, mean_p1 = ipw_per_arm(first, item_matrix, round1_log, r1_rows, round1_set,
                                   epsilon, variant)
    elapsed_age_h = cat.age_days[cat_rows] * 24.0
    features = np.empty((len(round2_log), N_ITEM_FEATURES + 6))
    for coupon, idx in rows_by_arm(round2_log):
        features[idx] = encode_per_coupon(
            item_matrix[idx], elapsed_age_h[idx], coupon, mean_p1[idx]
        )
    return features, weights


# ---------------------------------------------------------------------------
# The strategy comparison as it was: a fresh catalog, ids and keys per seed,
# and the three kept paths above.

def compare_strategies_per_strategy(
    config: SimConfig,
    pair: PredictorPair,
    constraint: PolicyConstraint,
    seeds: Sequence[int],
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H,
) -> ComparisonReport:
    """Roll out random / per-round / sequential allocation on common seeds.

    For each seed one catalog is drawn straight into columns
    (``generate_catalog_arrays``: no per-item records, keys hashed once).
    Predictions come from those columns, and four
    columnar rollouts share that one catalog and its sale substreams: a
    no-coupon holdout plus the three strategies, each given as arm-index
    arrays. Realized ROI is incremental sales over the holdout times the
    catalog's mean seller LTV, divided by realized coupon spend (``inf`` when
    a strategy spends nothing).
    Plans below the lift threshold attach no coupons under both model-driven
    strategies. The random strategy draws arms uniformly.
    """
    if not seeds:
        raise InputError("compare_strategies needs at least one seed")
    if config.n_items < 1:
        raise InputError("config.n_items must be >= 1 for a strategy comparison")
    if attach_delay_h < 0:
        raise InputError("attach_delay_h must be >= 0")
    r1_set, r2_set = pair.round1_set, pair.round2_set
    uniform1 = [1.0 / len(r1_set)] * len(r1_set)
    uniform2 = [1.0 / len(r2_set)] * len(r2_set)

    per_seed: dict[str, list[StrategyMetrics]] = {key: [] for key in STRATEGIES}
    totals_acc: dict[str, list[int]] = {key: [0, 0, 0] for key in STRATEGIES}
    holdout_sales_total = 0
    ltv_sum = 0.0
    n_total = 0

    for seed in seeds:
        cfg = dataclasses.replace(config, rng_seed=seed)
        gt = GroundTruth(cfg)
        cat = generate_catalog_arrays(cfg)
        n = len(cat)
        mean_ltv = float(cat.ltv.mean())

        p1, _, p2, p_baseline = predict_arrays_per_arm(pair, cat.matrix, cat.age_days, attach_delay_h)
        j_seq, k_seq, feas_seq = allocate_batch_row_major(
            p1, p2, p_baseline, cat.price, cat.ltv, r1_set, r2_set, constraint
        )
        j_ind, k_ind, feas_ind = allocate_independent_batch_row_major(
            p1, p2, p_baseline, cat.price, cat.ltv, r1_set, r2_set, constraint
        )
        j_rand = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R1), uniform1)
        k_rand = arm_draw(rng.uniforms(seed, cat.keys, rng.ARM_R2), uniform2)

        # The random, independent and sequential strategies, in table order.
        choices = dict(zip(STRATEGIES, (
            (j_rand, k_rand, np.ones(n, dtype=bool)),
            (j_ind, k_ind, feas_ind),
            (j_seq, k_seq, feas_seq),
        ), strict=True))

        no_coupon = np.zeros(n, dtype=np.int64)
        holdout_totals = rollout_arms_per_plan(
            gt, cat, r1_set, r2_set, no_coupon, no_coupon, attach_delay_h, seed
        )
        holdout_sales_total += holdout_totals.sales_count

        for key in STRATEGIES:
            j, k, active = choices[key]
            # An inactive plan attaches no coupon in either round.
            totals = rollout_arms_per_plan(
                gt, cat, r1_set, r2_set,
                np.where(active, j, 0), np.where(active, k, 0), attach_delay_h, seed,
            )
            per_seed[key].append(
                _metrics(totals, holdout_totals.sales_count, n, mean_ltv)
            )
            acc = totals_acc[key]
            acc[0] += totals.sales_count
            acc[1] += totals.coupon_cost_yen
            acc[2] += totals.gmv_yen
        ltv_sum += float(cat.ltv.sum())
        n_total += n

    overall_mean_ltv = ltv_sum / n_total
    aggregate = {
        key: _metrics(
            RolloutTotals(
                sales_count=totals_acc[key][0],
                coupon_cost_yen=totals_acc[key][1],
                gmv_yen=totals_acc[key][2],
            ),
            holdout_sales_total,
            n_total,
            overall_mean_ltv,
        )
        for key in STRATEGIES
    }
    return ComparisonReport(
        strategies=aggregate,
        per_seed={key: tuple(values) for key, values in per_seed.items()},
        holdout_sales_rate=holdout_sales_total / n_total,
        seeds=tuple(int(s) for s in seeds),
        lift_threshold=constraint.lift_threshold,
        n_items_per_seed=config.n_items,
    )


def serial_ids_per_item(prefix, numbers):
    """The simulator's item and seller ids, one f-string per number."""
    return tuple(f"{prefix}{i:07d}" for i in numbers)


def id_strs(column):
    """An ``S`` id column's ids, each decoded from UTF-8 on its own."""
    return [value.decode("utf-8") for value in column.tolist()]
