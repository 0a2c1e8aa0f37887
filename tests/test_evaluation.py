import dataclasses
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import seqcoupon

from seqcoupon import evaluation, fileio, rng
from seqcoupon.config import RunConfig
from seqcoupon.domain import CouponConfig, OutcomeLog, OutcomeRecord
from seqcoupon.errors import InputError
from seqcoupon.decision import DEFAULT_ATTACH_DELAY_H, PolicyConstraint, combine_cost, roi
from seqcoupon.evaluation import (
    BucketRow,
    ComparisonReport,
    STRATEGIES,
    UpliftCurve,
    bootstrap_band,
    compare_strategies,
    cumulative_uplift,
    delay_analysis,
)
from seqcoupon.simulator import (
    CatalogArrays,
    GroundTruth,
    SimConfig,
    generate_catalog,
    rollout_arms,
    rollout_policy,
)
from seqcoupon.learner import LearnerConfig
from seqcoupon.uplift import predict_batch

from oracles import bootstrap_band_resorting, cumulative_uplift_sorting


TEN_PCT = CouponConfig(10, 72.0, 1000)


def outcome(item_id, *, sold, coupon=None, attach=1.0, purchase=1.0, price=3000):
    coupon = coupon or CouponConfig.none()
    if not sold:
        return OutcomeRecord(
            item_id=item_id, round=1, coupon=coupon, attach_delay_h=attach, sold=False
        )
    cost = 0 if coupon.is_none else min(price * coupon.discount_pct // 100, coupon.cap_yen)
    return OutcomeRecord(
        item_id=item_id,
        round=1,
        coupon=coupon,
        attach_delay_h=attach,
        sold=True,
        purchase_delay_h=purchase,
        sale_price_yen=price,
        coupon_cost_yen=cost,
    )


def group(prefix, n, n_sold, coupon=None, **kw):
    return [
        outcome(f"{prefix}-{i}", sold=i < n_sold, coupon=coupon, **kw) for i in range(n)
    ]


class TestDelayAnalysis:
    def test_single_purchase_bucket(self):
        records = group("t", 40, 10, coupon=TEN_PCT, purchase=0.5) + group(
            "c", 40, 5, purchase=0.5
        )
        tables = delay_analysis(OutcomeLog.from_records(records), bucket_h=2.0)
        assert len(tables.str_by_purchase_delay) == 1
        row = tables.str_by_purchase_delay[0]
        assert row.bucket_start_h == 0.0
        assert row.n == 15
        assert row.value == pytest.approx(15 / 80)
        assert tables.aov_by_purchase_delay[0].value == pytest.approx(3000.0)

    def test_lift_rows_compare_arms_within_bucket(self):
        records = group("t", 100, 30, coupon=TEN_PCT, attach=1.0) + group(
            "c", 100, 10, attach=1.5
        )
        tables = delay_analysis(OutcomeLog.from_records(records), bucket_h=2.0)
        lift_row = tables.lift_by_attach_delay[0]
        assert lift_row.value == pytest.approx(0.30 - 0.10, abs=1e-12)
        assert lift_row.n == 200

    def test_one_sided_bucket_is_null(self):
        # bucket [2, 4) holds only treated records: no comparison possible
        records = (
            group("t", 30, 10, coupon=TEN_PCT, attach=1.0)
            + group("c", 30, 10, attach=1.0)
            + group("x", 10, 0, coupon=TEN_PCT, attach=3.0)
        )
        tables = delay_analysis(OutcomeLog.from_records(records), bucket_h=2.0)
        assert tables.lift_by_attach_delay[1].value is None
        assert tables.lift_by_attach_delay[1].n == 10

    def test_empty_middle_buckets_emitted(self):
        records = group("t", 20, 5, coupon=TEN_PCT, purchase=0.5) + group(
            "c", 20, 5, purchase=4.5
        )
        tables = delay_analysis(OutcomeLog.from_records(records), bucket_h=2.0)
        starts = [r.bucket_start_h for r in tables.str_by_purchase_delay]
        assert starts == [0.0, 2.0, 4.0]
        middle = tables.str_by_purchase_delay[1]
        assert middle.value is None and middle.n == 0
        assert tables.aov_by_purchase_delay[1].value is None

    def test_no_sales_yields_single_null_purchase_bucket(self):
        records = group("t", 20, 0, coupon=TEN_PCT) + group("c", 20, 0)
        tables = delay_analysis(OutcomeLog.from_records(records), bucket_h=2.0)
        assert len(tables.str_by_purchase_delay) == 1
        assert tables.str_by_purchase_delay[0].value is None

    def test_input_validation(self):
        with pytest.raises(InputError):
            delay_analysis(OutcomeLog.from_records([]), bucket_h=2.0)
        with pytest.raises(InputError):
            delay_analysis(
                OutcomeLog.from_records(group("t", 5, 1, coupon=TEN_PCT)), bucket_h=0.0
            )

    def test_a_delay_past_the_bucket_bound_is_refused(self):
        # One bucket per 2 h up to 1e20 h asked numpy for 5e19 bucket starts.
        records = group("t", 5, 1, coupon=TEN_PCT) + group("c", 5, 1, attach=1e20)
        with pytest.raises(InputError, match=r"a delay of 1e\+20 h at bucket_h = 2.0 h needs "
                                             f"more than {evaluation.MAX_BUCKETS} buckets"):
            delay_analysis(OutcomeLog.from_records(records), bucket_h=2.0)

    @pytest.mark.parametrize("bucket_h", [0.1, 0.3, 1.1, 2.0])
    def test_each_delay_lands_in_one_bucket(self, bucket_h):
        # Delays on the bucket edges, as products i * bucket_h and as the decimals
        # a file holds (3 * 0.1 != 0.3), where a test of start <= x < start +
        # bucket_h can put a delay in two buckets or in none.
        edges = [i * bucket_h for i in range(12)]
        delays = [*edges, *(float(f"{x:.12g}") for x in edges), 0.3, 0.6, 0.6, 0.7]
        log = OutcomeLog.from_records([
            outcome(f"r-{i}", sold=i % 3 != 0, coupon=TEN_PCT if i % 2 else None,
                    attach=d, purchase=d)
            for i, d in enumerate(delays)])
        tables = delay_analysis(log, bucket_h=bucket_h)
        assert sum(r.n for r in tables.lift_by_attach_delay) == len(log)
        for rows in (tables.str_by_purchase_delay, tables.aov_by_purchase_delay):
            assert sum(r.n for r in rows) == int(log.sold.sum())


class TestCumulativeUplift:
    def test_final_point_equals_overall_effect(self):
        gen = np.random.default_rng(4)
        n = 2000
        scores = gen.normal(size=n)
        treated = gen.uniform(size=n) < 0.5
        sold = gen.uniform(size=n) < np.where(treated, 0.4, 0.25)
        curve = cumulative_uplift(scores, treated, sold)
        assert curve.points[-1][0] == 1.0
        assert curve.points[-1][1] == curve.random_reference
        assert curve.random_reference == sold[treated].mean() - sold[~treated].mean()

    def test_nothing_sold_gives_flat_zero_curve(self):
        n = 100
        scores = np.linspace(1, 0, n)
        treated = np.arange(n) % 2 == 0
        curve = cumulative_uplift(scores, treated, np.zeros(n, dtype=bool))
        assert all(v == 0.0 for _, v in curve.points if v is not None)
        assert curve.random_reference == 0.0

    def test_uninformative_scores_trace_the_reference(self):
        gen = np.random.default_rng(12)
        n = 20_000
        scores = gen.normal(size=n)
        treated = gen.uniform(size=n) < 0.5
        sold = gen.uniform(size=n) < 0.3  # same rate in both groups
        curve = cumulative_uplift(scores, treated, sold)
        for _, value in curve.points:
            assert value is not None
            assert abs(value - curve.random_reference) < 0.06

    def test_missing_group_slice_is_null(self):
        scores = np.array([9.0, 8.0, 7.0] + [float(-i) for i in range(17)])
        treated = np.array([True, True, True] + [i % 2 == 0 for i in range(17)])
        sold = np.zeros(20, dtype=bool)
        curve = cumulative_uplift(scores, treated, sold, deciles=10)
        assert curve.points[0][1] is None  # top slice holds only treated items

    def test_single_slice(self):
        scores = np.array([3.0, 2.0, 1.0, 0.0])
        treated = np.array([True, False, True, False])
        sold = np.array([True, False, False, False])
        curve = cumulative_uplift(scores, treated, sold, deciles=1)
        assert len(curve.points) == 1
        assert curve.points[0] == (1.0, pytest.approx(0.5))

    def test_validation(self):
        scores = np.zeros(10)
        with pytest.raises(InputError):
            cumulative_uplift(scores, np.ones(10, dtype=bool), np.zeros(10, dtype=bool))
        with pytest.raises(InputError):
            cumulative_uplift(scores, np.zeros(10, dtype=bool), np.zeros(10, dtype=bool))
        with pytest.raises(InputError):
            cumulative_uplift(
                scores, np.array([True] * 5), np.zeros(10, dtype=bool)
            )
        bad = scores.copy()
        bad[0] = np.inf
        treated = np.arange(10) % 2 == 0
        with pytest.raises(InputError):
            cumulative_uplift(bad, treated, np.zeros(10, dtype=bool))
        with pytest.raises(InputError):
            cumulative_uplift(scores, treated, np.zeros(10, dtype=bool), deciles=0)


def synthetic_log(n, seed=6, effect=0.1):
    gen = np.random.default_rng(seed)
    scores = gen.normal(size=n)
    treated = gen.uniform(size=n) < 0.5
    sold = gen.uniform(size=n) < np.where(treated, 0.25 + effect, 0.25)
    return scores, treated, sold


def resorting_band(scores, treated, sold, deciles, b_replicates, seed):
    """The band as first written: every replicate re-sorts its resample."""

    def curve_fn(idx):
        return cumulative_uplift_sorting(scores[idx], treated[idx], sold[idx], deciles)

    return bootstrap_band_resorting(curve_fn, len(scores), b_replicates, seed)


class TestBootstrapBand:
    def test_two_replicates_degenerate_to_min_max(self):
        scores, treated, sold = synthetic_log(500)
        bands = bootstrap_band(scores, treated, sold, 10, 2, seed=11)
        values = []
        for b in range(2):
            u = rng.uniforms(11, np.arange(500, dtype=np.uint64), rng.BOOTSTRAP, b)
            idx = np.minimum((u * 500).astype(np.int64), 499)
            curve = cumulative_uplift(scores[idx], treated[idx], sold[idx])
            values.append([v for _, v in curve.points])
        for i, band in enumerate(bands):
            assert band == (
                min(values[0][i], values[1][i]),
                max(values[0][i], values[1][i]),
            )

    def test_deterministic_per_seed(self):
        log = synthetic_log(400)
        assert bootstrap_band(*log, 10, 20, seed=5) == bootstrap_band(*log, 10, 20, seed=5)
        assert bootstrap_band(*log, 10, 20, seed=5) != bootstrap_band(*log, 10, 20, seed=6)

    def test_bands_cover_the_point_estimate(self):
        log = synthetic_log(5000)
        full = cumulative_uplift(*log)
        bands = bootstrap_band(*log, 10, 100, seed=13)
        covered = 0
        for (_, value), band in zip(full.points, bands):
            assert band is not None
            lo, hi = band
            assert lo <= value <= hi
            covered += 1
        assert covered == len(full.points)

    def test_band_width_shrinks_like_root_n(self):
        n = 2000
        bands_small = bootstrap_band(*synthetic_log(n, seed=9), 10, 60, seed=2)
        bands_large = bootstrap_band(*synthetic_log(4 * n, seed=9), 10, 60, seed=2)
        width_small = np.mean([hi - lo for lo, hi in bands_small])
        width_large = np.mean([hi - lo for lo, hi in bands_large])
        assert 0.35 < width_large / width_small < 0.65

    def test_validation(self):
        scores, treated, sold = synthetic_log(50)
        with pytest.raises(InputError):
            bootstrap_band(scores, treated, sold, 10, 1, seed=0)
        empty = np.empty(0)
        with pytest.raises(InputError):
            bootstrap_band(empty, empty.astype(bool), empty.astype(bool), 10, 5, seed=0)
        with pytest.raises(InputError):
            bootstrap_band(scores, treated[:-1], sold, 10, 5, seed=0)
        with pytest.raises(InputError):
            bootstrap_band(scores, treated, sold, 0, 5, seed=0)
        bad = scores.copy()
        bad[3] = np.nan
        with pytest.raises(InputError):
            bootstrap_band(bad, treated, sold, 10, 5, seed=0)

    def test_replicate_without_a_holdout_row_refused(self):
        scores, _, sold = synthetic_log(50)
        treated = np.ones(50, dtype=bool)
        treated[7] = False
        with pytest.raises(InputError, match="both treatment groups"):
            bootstrap_band(scores, treated, sold, 10, 20, seed=0)


def tied_log(n=600, seed=3):
    """Scores rounded to one decimal, so most tie groups mix both groups and outcomes."""
    scores, treated, sold = synthetic_log(n, seed=seed)
    return np.round(scores, 1), treated, sold


def slice_lacking_a_group():
    scores = np.array([9.0, 8.0, 7.0] + [float(-i) for i in range(17)])
    treated = np.array([True, True, True] + [i % 2 == 0 for i in range(17)])
    sold = np.arange(20) % 3 == 0
    return scores, treated, sold


class TestBootstrapMatchesResorting:
    """The sort-once band equals the per-replicate re-sorting band bit for bit."""

    @pytest.mark.parametrize(
        "log, deciles, b_replicates",
        [
            pytest.param(synthetic_log(3000), 10, 40, id="continuous"),
            pytest.param(tied_log(), 10, 60, id="tied"),
            pytest.param(synthetic_log(40, seed=1), 50, 30, id="fewer-rows-than-deciles"),
            pytest.param(slice_lacking_a_group(), 10, 30, id="slice-lacking-a-group"),
            pytest.param(synthetic_log(300, seed=4), 10, 2, id="two-replicates"),
        ],
    )
    def test_band_is_bitwise_equal(self, log, deciles, b_replicates):
        for seed in (0, 1, 2):
            assert bootstrap_band(*log, deciles, b_replicates, seed) == resorting_band(
                *log, deciles, b_replicates, seed
            )

    def test_inputs_reach_the_edge_cases(self):
        assert None in resorting_band(*synthetic_log(40, seed=1), 50, 30, 0)
        assert cumulative_uplift(*slice_lacking_a_group()).points[0][1] is None
        scores, treated, sold = tied_log()
        _, group = np.unique(scores, return_inverse=True)
        mixed = [
            g for g in range(group.max() + 1)
            if treated[group == g].any() and not treated[group == g].all()
            and sold[group == g].any() and not sold[group == g].all()
        ]
        assert len(mixed) > 10

    @pytest.mark.parametrize("log", [synthetic_log(2000), tied_log(), slice_lacking_a_group()])
    def test_point_curve_is_bitwise_equal(self, log):
        assert cumulative_uplift(*log, 10) == cumulative_uplift_sorting(*log, 10)


def test_scoring_a_curve_does_not_import_numpy_ma():
    """``np.unique`` without ``return_*`` flags imports ``numpy.ma`` (15-18 ms);
    a fresh process that scores a curve and its band must not pay that."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from seqcoupon.evaluation import bootstrap_band, cumulative_uplift
        gen = np.random.default_rng(0)
        scores = np.round(gen.uniform(size=500), 1)
        treated, sold = gen.uniform(size=500) < 0.7, gen.uniform(size=500) < 0.4
        cumulative_uplift(scores, treated, sold, 10)
        bootstrap_band(scores, treated, sold, 10, 20, 3)
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(seqcoupon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]


class TestUpliftCurveValidation:
    def test_fraction_rules(self):
        with pytest.raises(InputError):
            UpliftCurve(points=(), random_reference=0.0)
        with pytest.raises(InputError):
            UpliftCurve(points=((0.5, 0.0), (0.5, 0.0), (1.0, 0.0)), random_reference=0.0)
        with pytest.raises(InputError):
            UpliftCurve(points=((0.5, 0.0), (0.9, 0.0)), random_reference=0.0)
        with pytest.raises(InputError):
            UpliftCurve(
                points=((0.5, 0.0), (1.0, 0.0)),
                random_reference=0.0,
                bands=((0.0, 0.0),),
            )

    def test_valid_curve_accepted(self):
        curve = UpliftCurve(
            points=((0.5, 0.1), (1.0, 0.05)),
            random_reference=0.05,
            bands=((0.0, 0.2), (0.0, 0.1)),
        )
        assert curve.points[1][0] == 1.0


@pytest.fixture(scope="module")
def light_report(trained_pair):
    return compare_strategies(
        SimConfig(n_items=2000, rng_seed=0),
        trained_pair,
        PolicyConstraint(lift_threshold=0.01),
        seeds=[7],
    )


class TestCompareStrategies:
    def test_report_shape(self, light_report):
        assert list(light_report.strategies) == list(STRATEGIES)
        for key in STRATEGIES:
            assert len(light_report.per_seed[key]) == 1
        assert light_report.seeds == (7,)
        assert light_report.n_items_per_seed == 2000
        assert 0.0 < light_report.holdout_sales_rate < 1.0

    def test_metrics_internally_consistent(self, light_report):
        for key in STRATEGIES:
            m = light_report.strategies[key]
            assert 0.0 <= m.sales_rate <= 1.0
            assert m.total_coupon_cost >= 0 and m.gmv >= 0
            assert m.lift_str == pytest.approx(
                m.sales_rate - light_report.holdout_sales_rate, abs=1e-12
            )

    def test_deterministic(self, trained_pair, light_report):
        again = compare_strategies(
            SimConfig(n_items=2000, rng_seed=0),
            trained_pair,
            PolicyConstraint(lift_threshold=0.01),
            seeds=[7],
        )
        assert again == light_report

    def test_validation(self, trained_pair):
        with pytest.raises(InputError):
            compare_strategies(
                SimConfig(n_items=1000), trained_pair, PolicyConstraint(), seeds=[]
            )
        with pytest.raises(InputError):
            compare_strategies(
                SimConfig(n_items=0), trained_pair, PolicyConstraint(), seeds=[1]
            )
        with pytest.raises(InputError):
            compare_strategies(
                SimConfig(n_items=100), trained_pair, PolicyConstraint(), seeds=[1],
                attach_delay_h=-1.0,
            )

    @pytest.mark.usefixtures("cleared_serial_columns")
    def test_one_catalog_build_per_seed(self, trained_pair, monkeypatch):
        builds, hashed = [], []
        real_keys = rng.item_keys
        real_from_columns = CatalogArrays.from_columns.__func__

        def counting_keys(item_ids):
            item_ids = list(item_ids)
            hashed.extend(item_ids)
            return real_keys(item_ids)

        def counting_from_columns(cls, ids, *args, **kwargs):
            builds.append(len(ids))
            return real_from_columns(cls, ids, *args, **kwargs)

        monkeypatch.setattr(rng, "item_keys", counting_keys)
        monkeypatch.setattr(CatalogArrays, "from_columns", classmethod(counting_from_columns))
        compare_strategies(
            SimConfig(n_items=500, rng_seed=0), trained_pair, PolicyConstraint(),
            seeds=[4, 5, 6],
        )
        # Ids do not depend on the seed: later seeds reuse the first one's keys.
        assert builds == [500, 500, 500]
        assert len(hashed) == 500 and len(set(hashed)) == 500

    @pytest.mark.parametrize("order", [slice(None, -1), slice(None, None, -1)])
    def test_report_requires_the_table_names_in_order(self, light_report, order):
        names = list(STRATEGIES)[order]
        with pytest.raises(InputError, match="report strategies must be"):
            ComparisonReport(
                strategies={name: light_report.strategies[name] for name in names},
                per_seed=light_report.per_seed,
                holdout_sales_rate=light_report.holdout_sales_rate,
                seeds=light_report.seeds,
                lift_threshold=light_report.lift_threshold,
                n_items_per_seed=light_report.n_items_per_seed,
            )

    def test_a_registered_strategy_is_rolled_out_and_reported(self, trained_pair, monkeypatch):
        def cheapest(seed, cat, preds, pair, constraint):
            ones = np.ones(len(cat), dtype=np.int64)
            return ones, ones

        monkeypatch.setitem(evaluation.STRATEGIES, "cheapest", cheapest)
        config, seeds = SimConfig(n_items=600, rng_seed=0), (3, 4)
        report = compare_strategies(config, trained_pair, PolicyConstraint(), seeds)
        assert list(report.strategies) == ["random", "independent", "sequential", "cheapest"]
        assert list(report.per_seed) == list(report.strategies)
        text = fileio.render_comparison_report(report)
        assert "[cheapest]\n" in text and text.count("\ncheapest: ") == 2
        for seed, metrics in zip(seeds, report.per_seed["cheapest"]):
            cfg = dataclasses.replace(config, rng_seed=seed)
            cat = generate_catalog(cfg)
            ones = np.ones(len(cat), dtype=np.int64)
            [totals] = rollout_arms(
                GroundTruth(cfg), cat, trained_pair.round1_set, trained_pair.round2_set,
                [(ones, ones)], DEFAULT_ATTACH_DELAY_H, seed,
            )
            assert metrics.sales_rate == totals.sales_count / len(cat)
            assert metrics.total_coupon_cost == totals.coupon_cost_yen > 0
            assert metrics.gmv == totals.gmv_yen


def _tiny_catalog(world):
    return CatalogArrays.from_items(world["items"][:50])


@pytest.mark.parametrize("value", [-1.0, math.nan])
@pytest.mark.parametrize("call,error,message", [
    (lambda v, pair, world: compare_strategies(
        SimConfig(n_items=50), pair, PolicyConstraint(), [1], attach_delay_h=v),
     InputError, "attach_delay_h must be >= 0"),
    (lambda v, pair, world: delay_analysis(world["log1"], v), InputError, "bucket_h must be > 0"),
    (lambda v, pair, world: rollout_arms(
        world["gt"], _tiny_catalog(world), pair.round1_set, pair.round2_set, [], v, 1),
     InputError, "attach_delay_h must be >= 0"),
    (lambda v, pair, world: rollout_policy(
        world["gt"], world["items"][:5],
        lambda item: ((CouponConfig.none(), v), CouponConfig.none()), 1),
     InputError, "policy produced a negative attach delay"),
    (lambda v, pair, world: predict_batch(pair, _tiny_catalog(world), v),
     InputError, "attach_delay_h must be >= 0"),
    (lambda v, pair, world: LearnerConfig(learning_rate=v), InputError,
     "learning_rate must be > 0"),
    (lambda v, pair, world: LearnerConfig(l2=v), InputError, "l2 must be >= 0"),
    (lambda v, pair, world: SimConfig(effect_scale=v), InputError, "effect_scale must be > 0"),
    (lambda v, pair, world: SimConfig(purchase_time_rate=v), InputError,
     "purchase_time_rate must be > 0"),
    (lambda v, pair, world: RunConfig(attach_delay_h=v), InputError,
     "attach_delay_h must be >= 0, got "),
    (lambda v, pair, world: roi(0.5, 0.4, v, 100.0), InputError, "ltv must be positive"),
    (lambda v, pair, world: roi(0.5, 0.4, 20000.0, v), InputError,
     "expected_cost must be >= 0"),
    (lambda v, pair, world: combine_cost(0.5, 0.5, v, 100.0), InputError,
     "costs must be >= 0"),
    (lambda v, pair, world: combine_cost(0.5, 0.5, 100.0, v), InputError,
     "costs must be >= 0"),
], ids=["compare_strategies", "delay_analysis", "rollout_arms", "rollout_policy",
        "predict_batch", "learning_rate", "l2", "effect_scale", "purchase_time_rate",
        "RunConfig.attach_delay_h", "roi.ltv", "roi.expected_cost", "combine_cost.cost_j",
        "combine_cost.cost_k"])
def test_nan_is_refused_as_a_negative_value_is(
        trained_pair, small_world, call, error, message, value):
    with pytest.raises(error) as info:
        call(value, trained_pair, small_world)
    assert type(info.value) is error
    assert str(info.value) == message + (repr(value) if message.endswith("got ") else "")
