import math

import numpy as np
import pytest

from seqcoupon.domain import (
    ROUND1_FEATURE_NAMES,
    ROUND2_FEATURE_NAMES,
    SCHEMA_ROUND1,
    SCHEMA_ROUND2,
    CouponConfig,
    OutcomeLog,
    OutcomeRecord,
)
from seqcoupon.errors import (
    ContractError,
    DegenerateDataError,
    IdentifiabilityError,
    InputError,
    MissingHoldoutError,
    SchemaMismatchError,
)
from seqcoupon.learner import KIND_BOOSTED, KIND_LOGISTIC, LearnerConfig, Model, PROB_CLAMP
from seqcoupon.simulator import CatalogArrays
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
    predict_item,
    round1_arm_probabilities,
    round1_training_dataset,
    _rows_by_arm,
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
    return [make_item(item_id=f"ipw-{i}", likes=i, price_yen=2000 + 500 * i) for i in range(3)]


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
        by_id = {r.item_id: r for r in small_world["log1"]}
        surv = small_world["survivors"][:500]
        index = {it.item_id: it for it in small_world["items"]}
        items = [index[i] for i in surv]
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
        records = [unsold(it.item_id) for it in reversed(three_items)]
        with pytest.raises(InputError):
            ipw_weights(first, three_items, OutcomeLog.from_records(records), round1_menu)
        with pytest.raises(InputError):
            ipw_weights(first, three_items, OutcomeLog.from_records(records[:2]), round1_menu)


class TestRowsByArm:
    def test_arms_differing_in_any_coupon_field_are_apart(self):
        arms = [
            CouponConfig.none(),
            CouponConfig(10, 72.0, 2000),
            CouponConfig(10, 48.0, 2000),
            CouponConfig(10, 72.0, 1000),
        ]
        pattern = [1, 0, 2, 3, 1, 2, 0, 3, 1]
        log = OutcomeLog.from_records(
            [unsold(f"it{i}", coupon=arms[a]) for i, a in enumerate(pattern)]
        )
        got = {coupon: idx.tolist() for coupon, idx in _rows_by_arm(log)}
        assert got == {arms[a]: [i for i, p in enumerate(pattern) if p == a] for a in range(4)}
        # With a row subset, positions index the subset: rows 8, 2, 5, 0 hold arms 1, 2, 2, 1.
        got = {coupon: idx.tolist() for coupon, idx in _rows_by_arm(log, np.array([8, 2, 5, 0]))}
        assert got == {arms[1]: [0, 3], arms[2]: [1, 2]}
        assert _rows_by_arm(OutcomeLog.from_records([])) == []


class TestRound1TrainingDataset:
    def test_shape_and_labels(self, small_world):
        data = round1_training_dataset(small_world["items"], small_world["log1"])
        assert data.schema_id == SCHEMA_ROUND1
        assert data.features.shape == (len(small_world["log1"]), len(ROUND1_FEATURE_NAMES))
        assert np.array_equal(data.labels, [r.sold for r in small_world["log1"]])

    def test_records_columns_and_row_order_give_the_same_bits(self, small_world):
        items, log1 = small_world["items"], small_world["log1"]
        cat = CatalogArrays.from_items(items)
        shuffled = cat.take(np.random.default_rng(1).permutation(len(cat)))
        want = round1_training_dataset(items, log1)
        for got in (round1_training_dataset(cat, log1), round1_training_dataset(shuffled, log1)):
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
        bad = OutcomeLog.from_records([unsold(small_world["survivors"][0])])
        with pytest.raises(InputError):
            fit_second_round(
                small_world["items"], small_world["log1"], bad,
                trained_pair.first, round1_menu, LearnerConfig(),
            )


class TestPredictions:
    def test_internal_consistency(self, trained_pair, fixture_item):
        pred = predict_item(trained_pair, fixture_item, 2.0)
        assert pred.item_id == fixture_item.item_id
        assert len(pred.p1) == len(trained_pair.round1_set)
        assert len(pred.p2) == len(trained_pair.round2_set)
        assert pred.mean_p1 == pytest.approx(sum(pred.p1) / len(pred.p1), abs=1e-9)
        expected_baseline = pred.p1[0] + (1.0 - pred.p1[0]) * pred.p2[0]
        assert pred.p_baseline == pytest.approx(expected_baseline, abs=1e-15)

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
        # one-row path agrees to floating-point noise rather than bit-for-bit.
        for i, item in enumerate(items):
            one = predict_item(trained_pair, item, 2.0)
            assert one.item_id == item.item_id
            np.testing.assert_allclose(one.p1, p1[i], rtol=1e-12)
            np.testing.assert_allclose(one.p2, p2[i], rtol=1e-12)
            assert one.mean_p1 == pytest.approx(mean_p1[i], rel=1e-12)
            assert one.p_baseline == pytest.approx(p_baseline[i], rel=1e-12)

    def test_negative_delay_refused(self, trained_pair, fixture_item):
        with pytest.raises(ContractError):
            predict_item(trained_pair, fixture_item, -0.5)
        with pytest.raises(ContractError):
            predict_batch(trained_pair, [fixture_item], -0.5)

    def test_frozen_regression_bundle(self, trained_pair, fixture_item):
        pred = predict_item(trained_pair, fixture_item, 2.0)
        expected_p1 = (
            0.4272136395879707,
            0.4532796202286531,
            0.5087238398819603,
            0.5463279475885882,
        )
        expected_p2 = (
            0.2685561827639355,
            0.2685561827639355,
            0.2685561827639355,
            0.28610479727727894,
        )
        np.testing.assert_allclose(pred.p1, expected_p1, rtol=1e-6)
        np.testing.assert_allclose(pred.p2, expected_p2, rtol=1e-6)
        assert pred.p_baseline == pytest.approx(0.581038958079473, rel=1e-6)


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
