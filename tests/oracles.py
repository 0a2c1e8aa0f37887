"""Independent reference implementations used only to check the package.

Everything here is written directly from first principles (plain loops,
no vectorization, no reuse of package internals beyond data types) so that
agreement with the package is meaningful. The exceptions at the end are
earlier implementations kept as they were: the per-record CSV writers and
the boosted-stump fit that re-buckets every feature in every round. The
package's faster paths must reproduce their bytes and bits.
"""

import math

import numpy as np

from seqcoupon.domain import coupon_cost
from seqcoupon.learner import LEAF_CLIP, N_SPLIT_CANDIDATES, PROB_CLAMP, Stump


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
