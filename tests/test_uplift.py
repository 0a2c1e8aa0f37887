import math
import tracemalloc

import numpy as np
import pytest

from seqcoupon.domain import (
    BLOCK_ROWS,
    ROUND1_FEATURE_NAMES,
    ROUND2_FEATURE_NAMES,
    SCHEMA_ROUND1,
    SCHEMA_ROUND2,
    CouponConfig,
    OutcomeLog,
    OutcomeRecord,
)
from seqcoupon.errors import (
    DegenerateDataError,
    IdentifiabilityError,
    InputError,
    MissingHoldoutError,
    SchemaMismatchError,
)
from seqcoupon.learner import KIND_BOOSTED, KIND_LOGISTIC, LearnerConfig, Model, PROB_CLAMP
from seqcoupon.simulator import CatalogArrays, GroundTruth, SimConfig, generate_catalog, run_rct
from seqcoupon.uplift import (
    IPW_EPSILON_DEFAULT,
    IPW_VARIANT_APPLIED,
    IPW_VARIANT_MEAN,
    ItemPredictions,
    PredictorPair,
    fit_first_round,
    fit_second_round,
    ipw_weights,
    predict_batch,
    round1_arm_probabilities,
    round1_training_dataset,
)

from test_domain import make_item


def flat_model(schema_id: str, intercept: float) -> Model:
    """A model that predicts sigmoid(intercept) regardless of features."""
    width = len(ROUND1_FEATURE_NAMES if schema_id == SCHEMA_ROUND1 else ROUND2_FEATURE_NAMES)
    return Model(
        kind=KIND_LOGISTIC,
        schema_id=schema_id,
        feature_mean=np.zeros(width),
        feature_scale=np.ones(width),
        intercept=intercept,
        coef=np.zeros(width),
    )


def unsold(item_id: str, coupon=None, delay: float = 2.0) -> OutcomeRecord:
    return OutcomeRecord(
        item_id=item_id,
        round=1,
        coupon=coupon or CouponConfig.none(),
        attach_delay_h=delay,
        sold=False,
    )


@pytest.fixture()
def three_items():
    return CatalogArrays.from_items(
        [make_item(item_id=f"ipw-{i}", likes=i, price_yen=2000 + 500 * i) for i in range(3)])


class TestIpwWeights:
    def test_known_survival_inverts_exactly(self, three_items, round1_menu):
        first = flat_model(SCHEMA_ROUND1, math.log(0.2 / 0.8))  # p1 = 0.2 on all arms
        records = OutcomeLog.from_records([unsold(it.item_id) for it in three_items])
        w = ipw_weights(first, three_items, records, round1_menu)
        np.testing.assert_allclose(w, 1.25, rtol=1e-12)

    def test_near_zero_propensity_gives_unit_weight(self, three_items, round1_menu):
        first = flat_model(SCHEMA_ROUND1, -37.0)
        records = OutcomeLog.from_records([unsold(it.item_id) for it in three_items])
        w = ipw_weights(first, three_items, records, round1_menu)
        np.testing.assert_allclose(w, 1.0, rtol=0, atol=1e-5)

    def test_near_certain_sale_clipped_to_epsilon(self, three_items, round1_menu):
        first = flat_model(SCHEMA_ROUND1, 37.0)
        records = OutcomeLog.from_records([unsold(it.item_id) for it in three_items])
        w = ipw_weights(first, three_items, records, round1_menu, epsilon=1e-3)
        np.testing.assert_allclose(w, 1000.0, rtol=1e-12)

    def test_bounds_for_trained_model(self, trained_pair, small_world, round1_menu):
        by_id = {r.item_id.encode(): r for r in small_world["log1"]}
        surv = small_world["survivors"][:500].tolist()
        index = {it.item_id.encode(): it for it in small_world["items"]}
        items = CatalogArrays.from_items([index[i] for i in surv])
        records = OutcomeLog.from_records([by_id[i] for i in surv])
        for variant in (IPW_VARIANT_MEAN, IPW_VARIANT_APPLIED):
            w = ipw_weights(
                trained_pair.first, items, records, round1_menu,
                epsilon=1e-3, variant=variant,
            )
            assert np.all(w >= 1.0) and np.all(w <= 1000.0)

    def test_epsilon_one_disables_weighting(self, three_items, round1_menu):
        first = flat_model(SCHEMA_ROUND1, 2.0)
        records = OutcomeLog.from_records([unsold(it.item_id) for it in three_items])
        w = ipw_weights(first, three_items, records, round1_menu, epsilon=1.0)
        assert np.all(w == 1.0)

    def test_applied_variant_uses_the_received_arm(self, three_items, round1_menu):
        # With a flat model both variants agree; misalignment checks still apply.
        first = flat_model(SCHEMA_ROUND1, 0.0)
        records = OutcomeLog.from_records(
            [unsold(it.item_id, coupon=round1_menu[1]) for it in three_items]
        )
        w_mean = ipw_weights(first, three_items, records, round1_menu, variant=IPW_VARIANT_MEAN)
        w_applied = ipw_weights(
            first, three_items, records, round1_menu, variant=IPW_VARIANT_APPLIED
        )
        np.testing.assert_allclose(w_mean, 2.0, rtol=1e-12)
        np.testing.assert_allclose(w_applied, 2.0, rtol=1e-12)

    def test_rejects_bad_epsilon_and_variant(self, three_items, round1_menu):
        first = flat_model(SCHEMA_ROUND1, 0.0)
        records = OutcomeLog.from_records([unsold(it.item_id) for it in three_items])
        with pytest.raises(InputError):
            ipw_weights(first, three_items, records, round1_menu, epsilon=0.0)
        with pytest.raises(InputError):
            ipw_weights(first, three_items, records, round1_menu, variant="median")

    def test_rejects_misalignment(self, three_items, round1_menu):
        first = flat_model(SCHEMA_ROUND1, 0.0)
        # Same length, but one id is not the catalog's.
        records = [unsold(i) for i in ("ipw-0", "ipw-1", "ipw-9")]
        with pytest.raises(InputError, match="aligned by item_id"):
            ipw_weights(first, three_items, OutcomeLog.from_records(records), round1_menu)
        with pytest.raises(InputError, match="must be aligned$"):
            ipw_weights(first, three_items, OutcomeLog.from_records(records[:2]), round1_menu)
        # A log given in reverse is held in id order, so it aligns.
        reversed_log = OutcomeLog.from_records([unsold(it.item_id) for it in reversed(three_items)])
        forward_log = OutcomeLog.from_records([unsold(it.item_id) for it in three_items])
        np.testing.assert_array_equal(ipw_weights(first, three_items, reversed_log, round1_menu),
                                      ipw_weights(first, three_items, forward_log, round1_menu))


class TestRound1TrainingDataset:
    def test_shape_and_labels(self, small_world):
        data = round1_training_dataset(small_world["items"], small_world["log1"])
        assert data.schema_id == SCHEMA_ROUND1
        assert data.features.shape == (len(small_world["log1"]), len(ROUND1_FEATURE_NAMES))
        assert np.array_equal(data.labels, [r.sold for r in small_world["log1"]])

    def test_records_columns_and_row_order_give_the_same_bits(self, small_world):
        cat, log1 = small_world["items"], small_world["log1"]
        items = list(cat)
        records = CatalogArrays.from_items(items)
        shuffled = CatalogArrays.from_items(
            [items[i] for i in np.random.default_rng(1).permutation(len(cat))])
        want = round1_training_dataset(cat, log1)
        for got in (round1_training_dataset(records, log1),
                    round1_training_dataset(shuffled, log1)):
            assert got.features.tobytes() == want.features.tobytes()
            assert np.array_equal(got.labels, want.labels)

    def test_empty_log_refused(self, small_world):
        with pytest.raises(DegenerateDataError):
            round1_training_dataset(small_world["items"], OutcomeLog.from_records([]))

    def test_missing_holdout_refused(self, small_world):
        treated_only = OutcomeLog.from_records(
            [r for r in small_world["log1"] if not r.coupon.is_none]
        )
        with pytest.raises(MissingHoldoutError):
            round1_training_dataset(small_world["items"], treated_only)

    def test_single_arm_refused(self, small_world):
        none_only = OutcomeLog.from_records([r for r in small_world["log1"] if r.coupon.is_none])
        with pytest.raises(IdentifiabilityError):
            round1_training_dataset(small_world["items"], none_only)

    def test_unknown_item_refused(self, small_world):
        log = list(small_world["log1"])
        log[0] = unsold("no-such-item")
        with pytest.raises(InputError):
            round1_training_dataset(small_world["items"], OutcomeLog.from_records(log))

    def test_all_unsold_log_trains_a_flat_booster(self, small_world, round1_menu):
        items = small_world["items"][:60]
        log = OutcomeLog.from_records(
            [unsold(it.item_id, coupon=round1_menu[i % 2]) for i, it in enumerate(items)]
        )
        model = fit_first_round(items, log, LearnerConfig(kind=KIND_BOOSTED, max_stumps=5))
        probs = round1_arm_probabilities(
            model,
            np.vstack([np.zeros(7)]),  # any point; the model is the clamped prior
            round1_menu,
            2.0,
        )
        assert np.all(probs <= 1e-4)
        with pytest.raises(DegenerateDataError):
            fit_first_round(items, log, LearnerConfig(kind=KIND_LOGISTIC))


class TestFitSecondRound:
    def test_empty_round2_log_refused(self, small_world, trained_pair, round1_menu):
        with pytest.raises(DegenerateDataError):
            fit_second_round(
                small_world["items"], small_world["log1"], OutcomeLog.from_records([]),
                trained_pair.first, round1_menu, LearnerConfig(),
            )

    def test_non_survivor_refused(self, small_world, trained_pair, round1_menu):
        sold_id = next(r.item_id for r in small_world["log1"] if r.sold)
        bad = OutcomeLog.from_records([
            OutcomeRecord(
                item_id=sold_id, round=2, coupon=CouponConfig.none(),
                attach_delay_h=48.0, sold=False,
            )
        ])
        with pytest.raises(InputError):
            fit_second_round(
                small_world["items"], small_world["log1"], bad,
                trained_pair.first, round1_menu, LearnerConfig(),
            )

    def test_wrong_round_refused(self, small_world, trained_pair, round1_menu):
        bad = OutcomeLog.from_records([unsold(small_world["survivors"][0].decode())])
        with pytest.raises(InputError):
            fit_second_round(
                small_world["items"], small_world["log1"], bad,
                trained_pair.first, round1_menu, LearnerConfig(),
            )


def predict_one(pair, item, attach_delay_h):
    """(p1 row, mean_p1, p2 row, p_baseline) of one item, from a one-row batch."""
    return tuple(a[0] for a in predict_batch(pair, CatalogArrays.from_items([item]), attach_delay_h))


class TestPredictions:
    def test_internal_consistency(self, trained_pair, fixture_item):
        p1, mean_p1, p2, p_baseline = predict_one(trained_pair, fixture_item, 2.0)
        assert p1.shape == (len(trained_pair.round1_set),)
        assert p2.shape == (len(trained_pair.round2_set),)
        assert mean_p1 == pytest.approx(sum(p1) / len(p1), abs=1e-9)
        expected_baseline = p1[0] + (1.0 - p1[0]) * p2[0]
        assert p_baseline == pytest.approx(expected_baseline, abs=1e-15)

    def test_clamped_range(self, trained_pair, small_world):
        p1, mean_p1, p2, p_baseline = predict_batch(
            trained_pair, small_world["items"][:300], 2.0
        )
        for arr in (p1, p2):
            assert np.all(arr >= PROB_CLAMP) and np.all(arr <= 1.0 - PROB_CLAMP)
        assert np.all((p_baseline > 0.0) & (p_baseline < 1.0))

    def test_pure_and_vectorised_paths_agree(self, trained_pair, small_world):
        items = small_world["items"][:40]
        once = predict_batch(trained_pair, items, 2.0)
        again = predict_batch(trained_pair, items, 2.0)
        for a, b in zip(once, again):
            np.testing.assert_array_equal(a, b)
        p1, mean_p1, p2, p_baseline = once
        # One-row and many-row matrix products may differ in the last ulp, so the
        # one-row batch agrees to floating-point noise rather than bit-for-bit.
        for i, item in enumerate(items):
            one_p1, one_mean_p1, one_p2, one_baseline = predict_one(trained_pair, item, 2.0)
            np.testing.assert_allclose(one_p1, p1[i], rtol=1e-12)
            np.testing.assert_allclose(one_p2, p2[i], rtol=1e-12)
            assert one_mean_p1 == pytest.approx(mean_p1[i], rel=1e-12)
            assert one_baseline == pytest.approx(p_baseline[i], rel=1e-12)

    def test_negative_delay_refused(self, trained_pair, fixture_item):
        with pytest.raises(InputError, match="attach_delay_h must be >= 0"):
            predict_batch(trained_pair, CatalogArrays.from_items([fixture_item]), -0.5)

    def test_frozen_regression_bundle(self, trained_pair, fixture_item):
        p1, _, p2, p_baseline = predict_one(trained_pair, fixture_item, 2.0)
        expected_p1 = (
            0.46509035782014485,
            0.5248624468148181,
            0.5676271813078543,
            0.609617890987598,
        )
        expected_p2 = (
            0.2973781189147556,
            0.32230174586905924,
            0.32230174586905924,
            0.3437233967910272,
        )
        np.testing.assert_allclose(p1, expected_p1, rtol=1e-6)
        np.testing.assert_allclose(p2, expected_p2, rtol=1e-6)
        assert p_baseline == pytest.approx(0.6241607810009552, rel=1e-6)


def traced_peak(call):
    """(result of ``call()``, its tracemalloc peak above the memory live before it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTrainingMemory:
    def test_the_first_fit_holds_one_design_matrix(self, round1_menu, round2_menu):
        """The fit standardises the design matrix it builds in place, so its
        peak above its inputs is that matrix plus O(n) columns. Standardising a
        copy beside an n x d squared-deviation temporary needed three."""
        n = 20_000
        sim = SimConfig(n_items=n, rng_seed=5)
        cat = generate_catalog(sim)
        log1, _, _ = run_rct(GroundTruth(sim), cat, round1_menu, round2_menu,
                             [0.25] * 4, [0.25] * 4, seed=5)
        config = LearnerConfig(learning_rate=1.0, epochs=50)
        _, peak = traced_peak(lambda: fit_first_round(cat, log1, config))
        assert peak < 2 * n * len(ROUND1_FEATURE_NAMES) * 8, peak

    def test_each_fit_holds_its_design_matrix_and_a_few_columns(self, round1_menu,
                                                                 round2_menu):
        """Above entry, each fit peaks at its own design matrix plus a few
        O(n) columns. The second reads the survivors' items through their
        catalog rows; a gathered copy of them took it to 2.37 survivor design
        matrices here, and the Newton loop's float labels and third sigmoid
        column took the first to 1.59."""
        sim = SimConfig(n_items=20_000, rng_seed=5)
        cat = generate_catalog(sim)
        log1, _, log2 = run_rct(GroundTruth(sim), cat, round1_menu, round2_menu,
                                [0.25] * 4, [0.25] * 4, seed=5)
        config = LearnerConfig(learning_rate=1.0, epochs=50)
        first, first_peak = traced_peak(lambda: fit_first_round(cat, log1, config))
        _, second_peak = traced_peak(lambda: fit_second_round(cat, log1, log2, first,
                                                              round1_menu, config))
        row_bytes = len(ROUND1_FEATURE_NAMES) * 8
        assert first_peak <= 1.40 * len(log1) * row_bytes, first_peak / (len(log1) * row_bytes)
        assert second_peak <= 1.50 * len(log2) * row_bytes, second_peak / (len(log2) * row_bytes)

    def test_arm_scoring_peak_does_not_grow_with_n(self, trained_pair):
        """Beyond its (n, arms) output, scoring holds one block of rows."""
        block_bytes = BLOCK_ROWS * len(ROUND1_FEATURE_NAMES) * 8
        extra = {}
        for blocks in (2, 8):
            n = blocks * BLOCK_ROWS
            cat = generate_catalog(SimConfig(n_items=n, rng_seed=blocks))
            delays = np.random.default_rng(blocks).uniform(0, 36, n)
            probs, peak = traced_peak(lambda: round1_arm_probabilities(
                trained_pair.first, cat.matrix, trained_pair.round1_set, delays))
            extra[blocks] = peak - probs.nbytes
        assert extra[8] < 3 * block_bytes, extra
        assert extra[8] < 1.1 * extra[2], extra


class TestPairValidation:
    def test_schema_binding_enforced(self, round1_menu, round2_menu):
        r1 = flat_model(SCHEMA_ROUND1, 0.0)
        r2 = flat_model(SCHEMA_ROUND2, 0.0)
        PredictorPair(first=r1, second=r2, round1_set=round1_menu, round2_set=round2_menu)
        with pytest.raises(SchemaMismatchError):
            PredictorPair(first=r2, second=r2, round1_set=round1_menu, round2_set=round2_menu)
        with pytest.raises(SchemaMismatchError):
            PredictorPair(first=r1, second=r1, round1_set=round1_menu, round2_set=round2_menu)

    def test_epsilon_domain(self, round1_menu, round2_menu):
        r1 = flat_model(SCHEMA_ROUND1, 0.0)
        r2 = flat_model(SCHEMA_ROUND2, 0.0)
        with pytest.raises(InputError):
            PredictorPair(
                first=r1, second=r2, round1_set=round1_menu, round2_set=round2_menu,
                ipw_epsilon=0.5,
            )

    def test_item_predictions_validation(self):
        with pytest.raises(InputError):
            ItemPredictions(
                item_id="x", p1=(0.2, 0.4), mean_p1=0.9, p2=(0.1, 0.1), p_baseline=0.2
            )
        with pytest.raises(InputError):
            ItemPredictions(
                item_id="x", p1=(0.2, 1.4), mean_p1=0.8, p2=(0.1, 0.1), p_baseline=0.2
            )
