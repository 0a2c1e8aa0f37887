import dataclasses
import math
import re

import numpy as np
import pytest

from seqcoupon import rng
from seqcoupon.domain import CouponConfig, ItemRecord, item_feature_matrix
from seqcoupon.errors import InputError
from seqcoupon.simulator import (
    DELAY_FLOOR_AT_H,
    CatalogArrays,
    GroundTruth,
    ROUND2_MIN_DELAY_H,
    RolloutTotals,
    SimConfig,
    arm_draw,
    catalog_ids,
    generate_catalog,
    generate_catalog_arrays,
    purchase_rate,
    rollout_arms,
    rollout_policy,
    round2_attach_delay,
    run_rct,
    validate_probs,
)

from test_domain import make_item

# chi-square critical value, df=3, p=0.001
CHI2_CRIT_DF3_P001 = 16.266


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def true_propensity(gt, item, coupon, round, attach_delay_h) -> float:
    """The exact propensity of one (item, coupon, round, delay): a one-row
    ``GroundTruth.propensity_arrays``."""
    return float(gt.propensity_arrays(
        item_feature_matrix([item]),
        np.array([item.likes]),
        np.array([float(coupon.discount_pct)]),
        round,
        np.array([float(attach_delay_h)]),
    )[0])


def manual_logit(config: SimConfig, item: ItemRecord, round: int) -> float:
    z = [
        math.log(item.price_yen),
        float(item.condition),
        item.age_days,
        float(item.likes),
        item.demand_index,
        math.sin(2 * math.pi * item.season_phase),
        math.cos(2 * math.pi * item.season_phase),
    ]
    base = config.base_logit_r1 if round == 1 else config.base_logit_r2
    return base + sum(w * v for w, v in zip(config.feature_weights, z))


class TestSimConfig:
    def test_rejects_negative_n_items(self):
        with pytest.raises(InputError):
            SimConfig(n_items=-1)

    def test_round2_base_must_be_lower(self):
        with pytest.raises(InputError):
            SimConfig(base_logit_r1=0.5, base_logit_r2=0.5)

    def test_weight_vector_length_checked(self):
        with pytest.raises(InputError):
            SimConfig(feature_weights=(1.0, 2.0))


class TestGroundTruth:
    def test_untreated_propensity_matches_plain_formula(self):
        config = SimConfig()
        gt = GroundTruth(config)
        item = make_item()
        expected = sigmoid(manual_logit(config, item, 1))
        got = true_propensity(gt, item, CouponConfig.none(), 1, 5.0)
        assert got == pytest.approx(expected, rel=1e-12)
        # the untreated arm is delay-invariant
        assert true_propensity(gt, item, CouponConfig.none(), 1, 40.0) == got

    def test_treated_propensity_matches_plain_formula(self, fixture_item):
        config = SimConfig()
        gt = GroundTruth(config)
        coupon = CouponConfig(10, 72.0, 2000)
        # delay 6h is before the knee, so the delay multiplier is 1
        responsiveness = 0.5 + min(fixture_item.likes, 10) / 10
        shift = config.effect_scale * 10 * responsiveness * 1.0
        expected = sigmoid(manual_logit(config, fixture_item, 1) + shift)
        got = true_propensity(gt, fixture_item, coupon, 1, 6.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bigger_discount_lifts_more(self):
        gt = GroundTruth(SimConfig())
        item = make_item()
        p5 = true_propensity(gt, item, CouponConfig(5, 72.0, 1000), 1, 2.0)
        p15 = true_propensity(gt, item, CouponConfig(15, 72.0, 3000), 1, 2.0)
        p0 = true_propensity(gt, item, CouponConfig.none(), 1, 2.0)
        assert p0 < p5 < p15
        assert 0.0 < p0 and p15 < 1.0

    def test_treated_propensity_non_increasing_in_delay(self):
        gt = GroundTruth(SimConfig())
        item = make_item()
        coupon = CouponConfig(15, 72.0, 3000)
        delays = [0.0, 5.0, 10.0, 20.0, 48.0, 80.0]
        probs = [true_propensity(gt, item, coupon, 1, d) for d in delays]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[-2] == probs[-1]  # flat past the floor

    def test_second_round_interest_is_lower(self):
        gt = GroundTruth(SimConfig())
        item = make_item()
        coupon = CouponConfig(10, 72.0, 2000)
        assert true_propensity(gt, item, coupon, 2, 2.0) < true_propensity(
            gt, item, coupon, 1, 2.0
        )

    def test_delay_multiplier_shape(self):
        gt = GroundTruth(SimConfig())
        got = gt.delay_multiplier(np.array([0.0, 10.0, 29.0, 48.0, 200.0]))
        np.testing.assert_allclose(got, [1.0, 1.0, 0.65, 0.3, 0.3], rtol=0, atol=1e-12)

    def test_responsiveness_saturates(self):
        assert GroundTruth.responsiveness(0) == 0.5
        assert GroundTruth.responsiveness(10) == 1.5
        assert GroundTruth.responsiveness(25) == 1.5

    def test_round_must_be_1_or_2(self):
        with pytest.raises(InputError):
            GroundTruth(SimConfig()).base_logit(3)


class TestGenerateCatalog:
    def test_zero_items(self):
        assert generate_catalog(SimConfig(n_items=0)) == []

    def test_same_seed_identical(self):
        a = generate_catalog(SimConfig(n_items=50, rng_seed=9))
        b = generate_catalog(SimConfig(n_items=50, rng_seed=9))
        assert a == b
        c = generate_catalog(SimConfig(n_items=50, rng_seed=10))
        assert a != c

    def test_price_distribution_location(self):
        config = SimConfig(n_items=1000, rng_seed=42)
        items = generate_catalog(config)
        mean_log_price = np.mean([math.log(it.price_yen) for it in items])
        mu, sigma = config.price_lognormal_params
        assert abs(mean_log_price - mu) < 3 * sigma / math.sqrt(1000)

    def test_field_ranges(self):
        items = generate_catalog(SimConfig(n_items=200, rng_seed=1))
        assert len({it.item_id for it in items}) == 200
        for it in items:
            assert it.price_yen >= 1 and it.seller_ltv_yen >= 1
            assert 1 <= it.condition <= 5
            assert 0 <= it.age_days <= 90
            assert it.likes >= 0
            assert 0.0 <= it.season_phase < 1.0


# CatalogArrays fields that hold one ItemRecord field each
CATALOG_COLUMNS = tuple(
    f.name for f in dataclasses.fields(CatalogArrays) if f.name not in ("keys", "matrix")
)


class TestCatalogArrays:
    @pytest.mark.parametrize("seed,n", [(1, 300), (9, 50), (42, 1), (3, 0)])
    def test_arrays_are_the_records(self, seed, n):
        config = SimConfig(n_items=n, rng_seed=seed)
        cat = generate_catalog_arrays(config)
        assert len(cat) == n and cat.matrix.shape == (n, 7)
        assert cat.to_items() == generate_catalog(config)

    def test_from_items_columns_match_generated(self):
        config = SimConfig(n_items=500, rng_seed=8)
        drawn = generate_catalog_arrays(config)
        gathered = CatalogArrays.from_items(generate_catalog(config))
        for name in CATALOG_COLUMNS + ("keys", "matrix"):
            a, b = getattr(drawn, name), getattr(gathered, name)
            if isinstance(a, tuple):
                assert a == b, name
            else:
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_matrix_is_libm_on_a_generated_catalog(self):
        cat = generate_catalog_arrays(SimConfig(n_items=20_000, rng_seed=2))
        angle = [2.0 * math.pi * s for s in cat.season.tolist()]
        for col, expected in (
            (0, [math.log(p) for p in cat.price.tolist()]),
            (5, [math.sin(a) for a in angle]),
            (6, [math.cos(a) for a in angle]),
        ):
            assert cat.matrix[:, col].tolist() == expected

    @pytest.mark.parametrize(
        "column,field,value",
        [
            ("price", "price_yen", 0),
            ("ltv", "seller_ltv_yen", -3),
            ("condition", "condition", 0),
            ("condition", "condition", 6),
            ("age_days", "age_days", -0.5),
            ("likes", "likes", -1),
            ("season", "season_phase", 1.0),
            ("season", "season_phase", -0.25),
            ("season", "season_phase", math.nan),
            ("status", "status", "gone"),
        ],
    )
    def test_out_of_range_column_rejected(self, column, field, value):
        cat = generate_catalog_arrays(SimConfig(n_items=20, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        bad = list(columns[column]) if column == "status" else columns[column].copy()
        bad[7] = value
        columns[column] = bad
        record = dataclasses.asdict(cat.to_items()[7])
        with pytest.raises(InputError) as expected:
            ItemRecord(**{**record, field: value})
        with pytest.raises(InputError, match=f"^{re.escape(str(expected.value))}$"):
            CatalogArrays.from_columns(**columns)

    @pytest.mark.parametrize(
        "column,first,later",
        [
            ("price", 0, -1),
            ("ltv", -3, 0),
            ("condition", 9, 0),
            ("age_days", -0.5, -9.0),
            ("likes", -1, -7),
            ("season", 2.0, 1.0),
            ("status", "zzz", "aaa"),
        ],
    )
    def test_the_first_bad_row_is_named(self, column, first, later):
        cat = generate_catalog_arrays(SimConfig(n_items=20, rng_seed=5))

        def message(bad_rows):
            columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
            bad = list(columns[column]) if column == "status" else columns[column].copy()
            for row, value in bad_rows.items():
                bad[row] = value
            columns[column] = bad
            with pytest.raises(InputError) as error:
                CatalogArrays.from_columns(**columns)
            return str(error.value)

        assert message({7: first, 12: later}) == message({7: first})

    @pytest.mark.parametrize("value", [2**53 - 1, 2**53, 2**63, 2**70])
    @pytest.mark.parametrize("column,field", [("price", "price_yen"), ("ltv", "seller_ltv_yen")])
    def test_yen_past_2_53_is_refused_before_any_cast(self, column, field, value):
        cat = generate_catalog_arrays(SimConfig(n_items=20, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        columns[column] = columns[column].tolist()
        columns[column][7] = value
        items = cat.to_items()
        items[7] = dataclasses.replace(items[7], **{field: value})
        for build in (lambda: CatalogArrays.from_columns(**columns),
                      lambda: CatalogArrays.from_items(items)):
            if value < 2**53:
                assert getattr(build(), column)[7] == value
            else:
                with pytest.raises(InputError, match=rf"^{field} is out of range, "
                                                     rf"\|yen\| must be below 2\*\*53, got "):
                    build()

    def test_column_lengths_must_agree(self):
        cat = generate_catalog_arrays(SimConfig(n_items=5, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        columns["likes"] = columns["likes"][:4]
        with pytest.raises(InputError):
            CatalogArrays.from_columns(**columns)


    def test_repeated_id_is_named(self):
        cat = generate_catalog_arrays(SimConfig(n_items=6, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        columns["ids"] = cat.ids[:4] + (cat.ids[1], cat.ids[0])
        with pytest.raises(InputError, match="catalog repeats item id 'it0000001'"):
            CatalogArrays.from_columns(**columns)

    def test_rows_of_joins_any_order(self):
        cat = generate_catalog_arrays(SimConfig(n_items=40, rng_seed=5))
        order = np.random.default_rng(4).permutation(40)
        shuffled = cat.take(order)
        assert shuffled.to_items() == [cat.to_items()[i] for i in order]
        ids = [cat.ids[i] for i in (7, 3, 39, 0, 7)]
        np.testing.assert_array_equal(cat.rows_of(ids), [7, 3, 39, 0, 7])
        rows = shuffled.rows_of(ids)
        assert [shuffled.ids[i] for i in rows] == ids
        np.testing.assert_array_equal(cat.rows_of(cat.ids), np.arange(40))
        assert len(cat.rows_of([])) == 0

    def test_keys_are_hashed_on_first_use_and_taken_as_they_are(self, monkeypatch):
        hashed = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys",
                            lambda ids: hashed.append(len(ids)) or real_keys(ids))
        cat = generate_catalog_arrays(SimConfig(n_items=40, rng_seed=5))
        rows = np.arange(39, -1, -3)
        unhashed = cat.take(rows)
        assert hashed == []
        np.testing.assert_array_equal(cat.keys, real_keys(cat.ids))
        assert cat.keys is cat.keys and hashed == [40]
        np.testing.assert_array_equal(cat.take(rows).keys, cat.keys[rows])
        assert hashed == [40]
        np.testing.assert_array_equal(unhashed.keys, cat.keys[rows])
        assert hashed == [40, len(rows)]

    @pytest.mark.parametrize("hashed", [False, True])
    def test_same_ids_as_lends_ids_and_keys_to_another_seed(self, hashed, monkeypatch):
        lender = generate_catalog_arrays(SimConfig(n_items=40, rng_seed=5))
        if hashed:
            lender.keys
        fresh = generate_catalog_arrays(SimConfig(n_items=40, rng_seed=6))
        fresh.keys
        calls = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: calls.append(1) or real_keys(ids))
        drawn = generate_catalog_arrays(SimConfig(n_items=40, rng_seed=6), same_ids_as=lender)
        assert drawn.ids is lender.ids and drawn.seller_ids is lender.seller_ids
        assert drawn.to_items() == fresh.to_items()
        np.testing.assert_array_equal(drawn.matrix, fresh.matrix)
        np.testing.assert_array_equal(drawn.keys, fresh.keys)
        # Keys the lender had hashed are shared; otherwise the catalog hashes its own.
        assert len(calls) == (0 if hashed else 1)
        assert (drawn.keys is lender.__dict__.get("keys")) == hashed
        # A longer lender lends its first n_items rows; a shorter one is refused.
        calls.clear()
        shorter = generate_catalog_arrays(SimConfig(n_items=39, rng_seed=6), same_ids_as=lender)
        fresh39 = generate_catalog_arrays(SimConfig(n_items=39, rng_seed=6))
        assert shorter.to_items() == fresh39.to_items()
        assert shorter.ids == lender.ids[:39] and shorter.status == lender.status[:39]
        np.testing.assert_array_equal(shorter.keys, fresh.keys[:39])
        assert len(calls) == (0 if hashed else 1)
        with pytest.raises(InputError, match="same_ids_as has 40 items, config.n_items is 41"):
            generate_catalog_arrays(SimConfig(n_items=41, rng_seed=6), same_ids_as=lender)

    @pytest.mark.parametrize("n", [0, 1, 25, 40])
    @pytest.mark.parametrize("by_ids", [False, True])
    def test_a_longer_hashed_lender_lends_its_first_rows(self, n, by_ids, monkeypatch):
        lender = generate_catalog_arrays(SimConfig(n_items=40, rng_seed=5))
        lender.keys
        if by_ids:
            lender = catalog_ids(lender, 40)
        fresh = generate_catalog_arrays(SimConfig(n_items=n, rng_seed=6))
        calls = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: calls.append(len(ids)) or real_keys(ids))
        drawn = generate_catalog_arrays(SimConfig(n_items=n, rng_seed=6), same_ids_as=lender)
        assert drawn.to_items() == fresh.to_items()
        np.testing.assert_array_equal(drawn.matrix, fresh.matrix)
        assert calls == []
        np.testing.assert_array_equal(drawn.keys, real_keys(fresh.ids))
        assert drawn.keys.dtype == np.uint64 and calls == []

    def test_catalog_ids_keeps_no_row_past_the_prefix(self):
        cat = generate_catalog_arrays(SimConfig(n_items=40, rng_seed=5))
        unhashed = catalog_ids(cat, 25)
        assert unhashed.keys is None and len(unhashed) == 25
        cat.keys
        whole, head = catalog_ids(cat, 40), catalog_ids(cat, 25)
        assert whole.ids is cat.ids and whole.seller_ids is cat.seller_ids
        assert whole.status is cat.status and whole.keys is cat.keys
        assert head.ids == cat.ids[:25] and head.seller_ids == cat.seller_ids[:25]
        np.testing.assert_array_equal(head.keys, cat.keys[:25])
        # A copy, not a view that would keep all 40 keys alive.
        assert head.keys.base is None
        assert catalog_ids(head, 10).ids == cat.ids[:10]

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_rows_of_refuses_an_unknown_id(self, n):
        cat = generate_catalog_arrays(SimConfig(n_items=n, rng_seed=5))
        for missing in ("it9999999", "a", "zz"):
            with pytest.raises(InputError, match=f"unknown item '{missing}'"):
                cat.rows_of(list(cat.ids[:1]) + [missing])


class TestHelpers:
    def test_purchase_rate_decreasing_in_price(self):
        rates = purchase_rate(SimConfig(), np.array([500.0, 1000.0, 5000.0, 50000.0]))
        assert np.all(np.diff(rates) < 0)
        assert np.all(rates > 0)

    def test_round2_attach_delay_floor(self):
        np.testing.assert_array_equal(
            round2_attach_delay(np.array([0.0, 10.0]), np.array([24.0, 72.0])),
            [ROUND2_MIN_DELAY_H, 82.0],
        )
        assert DELAY_FLOOR_AT_H == ROUND2_MIN_DELAY_H

    def test_arm_draw_covers_all_arms(self):
        u = np.linspace(0.0, 0.999, 100)
        arms = arm_draw(u, [0.5, 0.5])
        assert set(arms) == {0, 1}
        assert np.all(arm_draw(np.array([0.0, 0.5, 0.999999]), [1.0, 0.0]) == 0)

    def test_validate_probs(self):
        with pytest.raises(InputError):
            validate_probs([0.5, 0.5], 3, "p")
        with pytest.raises(InputError):
            validate_probs([0.7, 0.6], 2, "p")
        with pytest.raises(InputError):
            validate_probs([-0.1, 1.1], 2, "p")
        validate_probs([0.25, 0.75], 2, "p")


class TestRunRct:
    def test_empty_catalog(self, round1_menu, round2_menu):
        gt = GroundTruth(SimConfig(n_items=0))
        log1, survivors, log2 = run_rct(
            gt, [], round1_menu, round2_menu, [1, 0, 0, 0], [1, 0, 0, 0], 1
        )
        assert (len(log1), survivors, len(log2)) == (0, [], 0)

    def test_partition_and_sorting(self, small_world):
        log1 = small_world["log1"]
        survivors = small_world["survivors"]
        log2 = small_world["log2"]
        ids = {it.item_id for it in small_world["items"]}
        sold1 = {r.item_id for r in log1 if r.sold}
        assert sold1 | set(survivors) == ids
        assert sold1 & set(survivors) == set()
        assert [r.item_id for r in log2] == survivors
        assert [r.item_id for r in log1] == sorted(r.item_id for r in log1)
        assert survivors == sorted(survivors)

    def test_round2_delay_floor_respected(self, small_world):
        assert all(r.attach_delay_h >= ROUND2_MIN_DELAY_H for r in small_world["log2"])

    def test_arm_frequencies_uniform(self, small_world):
        counts = {}
        for r in small_world["log1"]:
            counts[r.coupon.discount_pct] = counts.get(r.coupon.discount_pct, 0) + 1
        n = len(small_world["log1"])
        expected = n / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert len(counts) == 4
        assert chi2 < CHI2_CRIT_DF3_P001

    def test_sale_rate_matches_truth_when_untreated(self, round1_menu, round2_menu):
        config = SimConfig(n_items=5000, rng_seed=17)
        gt = GroundTruth(config)
        items = generate_catalog(config)
        log1, _, _ = run_rct(
            gt, items, round1_menu, round2_menu, [1, 0, 0, 0], [1, 0, 0, 0], 17
        )
        probs = np.array(
            [true_propensity(gt, it, CouponConfig.none(), 1, 0.0) for it in items]
        )
        expected = probs.sum()
        sd = math.sqrt(np.sum(probs * (1 - probs)))
        observed = sum(r.sold for r in log1)
        assert abs(observed - expected) < 4 * sd

    def test_repeat_run_identical(self, small_world, round1_menu, round2_menu):
        probs = [0.25] * 4
        again = run_rct(
            small_world["gt"],
            small_world["items"],
            round1_menu,
            round2_menu,
            probs,
            probs,
            seed=3,
        )
        assert again[1] == small_world["survivors"]
        for got, want in ((again[0], small_world["log1"]), (again[2], small_world["log2"])):
            assert list(got) == list(want)

    def test_coupon_sales_respect_validity(self, small_world):
        checked = 0
        for r in [*small_world["log1"], *small_world["log2"]]:
            if r.sold and not r.coupon.is_none:
                assert r.purchase_delay_h <= r.coupon.validity_hours
                assert r.coupon_cost_yen == min(
                    (r.sale_price_yen * r.coupon.discount_pct) // 100, r.coupon.cap_yen
                )
                checked += 1
        assert checked > 100


class TestRolloutPolicy:
    def test_empty(self):
        gt = GroundTruth(SimConfig(n_items=0))
        records, totals = rollout_policy(gt, [], lambda it: ((CouponConfig.none(), 0.0), CouponConfig.none()), 1)
        assert records == [] and totals == RolloutTotals(0, 0, 0)

    def test_never_coupon_costs_nothing(self, small_world):
        policy = lambda it: ((CouponConfig.none(), 2.0), CouponConfig.none())
        records, totals = rollout_policy(small_world["gt"], small_world["items"], policy, 3)
        assert totals.coupon_cost_yen == 0
        assert totals.sales_count == sum(r.sold for r in records)
        assert totals.gmv_yen == sum(r.sale_price_yen for r in records if r.sold)

    def test_same_seed_identical(self, small_world):
        policy = lambda it: ((CouponConfig(10, 72.0, 2000), 2.0), CouponConfig(5, 48.0, 1000))
        first = rollout_policy(small_world["gt"], small_world["items"], policy, 3)
        second = rollout_policy(small_world["gt"], small_world["items"], policy, 3)
        assert first == second

    def test_generous_policy_sells_more(self, small_world):
        never = lambda it: ((CouponConfig.none(), 2.0), CouponConfig.none())
        always = lambda it: ((CouponConfig(15, 72.0, 3000), 2.0), CouponConfig(15, 48.0, 3000))
        _, totals_never = rollout_policy(small_world["gt"], small_world["items"], never, 3)
        _, totals_always = rollout_policy(small_world["gt"], small_world["items"], always, 3)
        assert totals_always.sales_count > totals_never.sales_count
        assert totals_always.coupon_cost_yen > 0

    def test_negative_delay_rejected(self, small_world):
        policy = lambda it: ((CouponConfig.none(), -1.0), CouponConfig.none())
        with pytest.raises(InputError):
            rollout_policy(small_world["gt"], small_world["items"], policy, 3)


class TestRolloutArms:
    @pytest.mark.parametrize("delay", [2.0, 30.0])
    def test_totals_match_record_rollout(self, small_world, round1_menu, round2_menu, delay):
        items = small_world["items"]
        gen = np.random.default_rng(11)
        n = len(items)
        active = gen.uniform(size=n) < 0.7
        arm1 = np.where(active, gen.integers(0, len(round1_menu), n), 0)
        arm2 = np.where(active, gen.integers(0, len(round2_menu), n), 0)
        row = {it.item_id: i for i, it in enumerate(items)}

        def policy(item):
            i = row[item.item_id]
            return (round1_menu[arm1[i]], delay), round2_menu[arm2[i]]

        records, expected = rollout_policy(small_world["gt"], items, policy, 3)
        assert expected.coupon_cost_yen > 0 and any(r.round == 2 and r.sold for r in records)
        cat = CatalogArrays.from_items(items)
        got = rollout_arms(
            small_world["gt"], cat, round1_menu, round2_menu, [(arm1, arm2)], delay, 3
        )
        assert got == [expected]

    def test_empty_catalog(self, round1_menu, round2_menu):
        gt = GroundTruth(SimConfig(n_items=0))
        none = np.zeros(0, dtype=np.int64)
        cat = CatalogArrays.from_items([])
        assert rollout_arms(gt, cat, round1_menu, round2_menu, [(none, none)], 2.0, 1) == [
            RolloutTotals(0, 0, 0)
        ]

    def test_input_validation(self, small_world, round1_menu, round2_menu):
        cat = CatalogArrays.from_items(small_world["items"][:10])
        gt = small_world["gt"]
        ok = np.zeros(10, dtype=np.int64)
        for arm1, arm2, delay in (
            (ok, ok, -1.0),
            (ok[:9], ok, 2.0),
            (ok, np.full(10, len(round2_menu)), 2.0),
            (np.full(10, -1), ok, 2.0),
            (ok.astype(float), ok, 2.0),
        ):
            with pytest.raises(InputError):
                rollout_arms(gt, cat, round1_menu, round2_menu, [(arm1, arm2)], delay, 3)
