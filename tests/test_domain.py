import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcoupon.config import RunConfig
from seqcoupon.domain import (
    CouponConfig,
    CouponSet,
    ItemRecord,
    N_ITEM_FEATURES,
    OutcomeLog,
    OutcomeRecord,
    ROUND1_FEATURE_NAMES,
    coupon_cost,
    coupon_costs,
    encode_round1_batch,
    encode_round2_batch,
    feature_matrix,
    item_feature_matrix,
)
from seqcoupon.errors import InputError

from conftest import load_golden


def make_item(**overrides) -> ItemRecord:
    base = dict(
        item_id="it-1",
        seller_id="s-1",
        price_yen=3000,
        condition=4,
        age_days=2.0,
        likes=3,
        demand_index=0.1,
        season_phase=0.5,
        seller_ltv_yen=50000,
        key_action_ts=473100.0,
    )
    base.update(overrides)
    return ItemRecord(**base)


def encode_round1(item, coupon, attach_delay_h):
    """One item's first-round feature row, through the batch encoder."""
    delays = np.array([attach_delay_h])
    return encode_round1_batch(item_feature_matrix([item]), coupon, delays)[0]


def encode_round2(item, coupon, mean_p1):
    """One item's second-round feature row, through the batch encoder."""
    elapsed_age_h = np.array([item.age_days * 24.0])
    return encode_round2_batch(
        item_feature_matrix([item]), coupon, elapsed_age_h, np.array([mean_p1])
    )[0]


class TestCouponCost:
    def test_percentage_of_price(self):
        assert coupon_cost(CouponConfig(10, 72.0, 1000), 3000) == 300

    def test_cap_binds(self):
        assert coupon_cost(CouponConfig(15, 72.0, 1000), 10000) == 1000

    def test_no_coupon_costs_nothing(self):
        assert coupon_cost(CouponConfig.none(), 5000) == 0

    def test_rejects_non_positive_price(self):
        with pytest.raises(InputError):
            coupon_cost(CouponConfig(10, 72.0, 1000), 0)

    def test_vectorised_grid_matches_scalar_on_default_menus(self):
        # Prices straddle each cap's saturation point (cap * 100 / discount).
        prices = np.array(
            [1, 19, 20, 99, 100, 13_333, 13_334, 19_999, 20_000, 20_001, 20_020, 250_000]
        )
        cfg = RunConfig()
        for menu in (cfg.round1_set, cfg.round2_set):
            grid = coupon_costs(prices, menu)
            assert grid.shape == (len(prices), len(menu))
            assert grid.dtype == np.int64
            for i, price in enumerate(prices):
                for j, coupon in enumerate(menu):
                    assert grid[i, j] == coupon_cost(coupon, int(price))
            assert not grid[:, 0].any()
            caps = np.array([c.cap_yen for c in menu])[1:]
            assert (grid[:, 1:] == caps).any(axis=0).all()
            assert (grid[:, 1:] < caps).any(axis=0).all()

    @given(
        disc_lo=st.integers(1, 50),
        disc_hi=st.integers(1, 49),
        price=st.integers(100, 500_000),
        cap=st.integers(1, 5000),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_discount_and_price_and_capped(self, disc_lo, disc_hi, price, cap):
        hi = min(disc_lo + disc_hi, 99)
        lo_coupon = CouponConfig(disc_lo, 72.0, cap)
        hi_coupon = CouponConfig(hi, 72.0, cap)
        assert coupon_cost(lo_coupon, price) <= coupon_cost(hi_coupon, price)
        assert coupon_cost(lo_coupon, price) <= coupon_cost(lo_coupon, price + 1000)
        assert coupon_cost(hi_coupon, price) <= cap


class TestCouponTypes:
    def test_none_arm_flag(self):
        assert CouponConfig.none().is_none
        assert not CouponConfig(5, 72.0, 1000).is_none

    def test_none_arm_must_have_zero_cap(self):
        with pytest.raises(InputError):
            CouponConfig(0, 0.0, 500)

    def test_discount_bounds(self):
        with pytest.raises(InputError):
            CouponConfig(100, 72.0, 1000)
        with pytest.raises(InputError):
            CouponConfig(-5, 72.0, 1000)

    def test_real_coupon_needs_positive_validity(self):
        with pytest.raises(InputError):
            CouponConfig(10, 0.0, 1000)

    def test_set_requires_leading_none_arm(self):
        with pytest.raises(InputError):
            CouponSet(
                arms=(CouponConfig(5, 72.0, 1000), CouponConfig.none()),
                purpose="round1",
            )

    def test_set_rejects_duplicates(self):
        arm = CouponConfig(5, 72.0, 1000)
        with pytest.raises(InputError):
            CouponSet(arms=(CouponConfig.none(), arm, arm), purpose="round1")

    def test_set_needs_a_real_arm(self):
        with pytest.raises(InputError):
            CouponSet(arms=(CouponConfig.none(),), purpose="round1")

    def test_set_purpose_tag(self):
        with pytest.raises(InputError):
            CouponSet(
                arms=(CouponConfig.none(), CouponConfig(5, 72.0, 1000)),
                purpose="round3",
            )


class TestItemAndOutcomeRecords:
    def test_item_requires_positive_price_and_ltv(self):
        with pytest.raises(InputError):
            make_item(price_yen=0)
        with pytest.raises(InputError):
            make_item(seller_ltv_yen=0)

    def test_sold_outcome_requires_sale_fields(self):
        with pytest.raises(InputError):
            OutcomeRecord(
                item_id="it-1",
                round=1,
                coupon=CouponConfig.none(),
                attach_delay_h=1.0,
                sold=True,
            )

    def test_coupon_sale_must_fall_inside_validity(self):
        coupon = CouponConfig(10, 24.0, 1000)
        with pytest.raises(InputError):
            OutcomeRecord(
                item_id="it-1",
                round=1,
                coupon=coupon,
                attach_delay_h=1.0,
                sold=True,
                purchase_delay_h=30.0,
                sale_price_yen=3000,
                coupon_cost_yen=300,
            )

    def test_organic_sale_has_no_validity_bound(self):
        record = OutcomeRecord(
            item_id="it-1",
            round=1,
            coupon=CouponConfig.none(),
            attach_delay_h=1.0,
            sold=True,
            purchase_delay_h=300.0,
            sale_price_yen=3000,
            coupon_cost_yen=0,
        )
        assert record.sold

    def test_recorded_cost_must_match_the_arithmetic(self):
        with pytest.raises(InputError):
            OutcomeRecord(
                item_id="it-1",
                round=1,
                coupon=CouponConfig(10, 24.0, 1000),
                attach_delay_h=1.0,
                sold=True,
                purchase_delay_h=2.0,
                sale_price_yen=3000,
                coupon_cost_yen=999,
            )


def sample_records() -> list[OutcomeRecord]:
    """Ten valid rows: sold and unsold, coupon and no-coupon, both rounds."""
    coupon = CouponConfig(10, 72.0, 2000)
    out = []
    for i in range(10):
        arm = coupon if i % 2 else CouponConfig.none()
        if i % 3:
            out.append(OutcomeRecord(f"it{i:07d}", 1 + i % 2, arm, 1.5 * i, False))
        else:
            price = 1000 + 700 * i
            out.append(OutcomeRecord(
                f"it{i:07d}", 1 + i % 2, arm, 1.5 * i, True, purchase_delay_h=0.25 * i,
                sale_price_yen=price, coupon_cost_yen=coupon_cost(arm, price),
            ))
    return out


def log_columns(log: OutcomeLog) -> dict:
    """``from_columns`` arguments that rebuild ``log``: NaN marks a missing value."""
    columns = {f.name: getattr(log, f.name) for f in dataclasses.fields(OutcomeLog)}
    for name in ("sale_price_yen", "coupon_cost_yen"):
        columns[name] = np.where(log.sold, columns[name], np.nan)
    return {name: list(c) if isinstance(c, tuple) else c.copy() for name, c in columns.items()}


class TestOutcomeLog:
    def test_records_round_trip(self):
        records = sample_records()
        log = OutcomeLog.from_records(records)
        assert len(log) == 10
        assert list(log) == records
        assert list(OutcomeLog.from_records(list(log))) == records

    def test_columns_of_unsold_rows(self):
        log = OutcomeLog.from_records(sample_records())
        unsold = ~log.sold
        assert np.isnan(log.purchase_delay_h[unsold]).all()
        assert (log.sale_price_yen[unsold] == 0).all()
        assert (log.coupon_cost_yen[unsold] == 0).all()
        assert (log.validity_hours[log.discount_pct == 0] == 0.0).all()

    def test_empty_log(self):
        log = OutcomeLog.from_records([])
        assert len(log) == 0 and list(log) == []

    # (changes to row 4, a sold coupon row; None means the cell is missing)
    @pytest.mark.parametrize(
        "change",
        [
            {"discount_pct": 150},
            {"discount_pct": -5},
            {"cap_yen": -1},
            {"discount_pct": 0, "cap_yen": 100},
            {"validity_hours": 0.0},
            {"round": 3},
            {"attach_delay_h": -0.5},
            {"purchase_delay_h": None},
            {"sale_price_yen": None},
            {"purchase_delay_h": -1.0},
            {"purchase_delay_h": 80.0},
            {"sale_price_yen": 0, "coupon_cost_yen": 0},
            {"coupon_cost_yen": 5},
            {"coupon_cost_yen": None},
            {"sold": False},
            {"sold": False, "purchase_delay_h": None, "sale_price_yen": None},
        ],
    )
    def test_every_record_check_fires_with_the_same_message(self, change):
        records = sample_records()
        row = records[3]
        fields = dict(
            item_id=row.item_id, round=row.round, discount_pct=10, validity_hours=72.0,
            cap_yen=2000, attach_delay_h=row.attach_delay_h, sold=True,
            purchase_delay_h=row.purchase_delay_h, sale_price_yen=row.sale_price_yen,
            coupon_cost_yen=row.coupon_cost_yen,
        )
        fields.update(change)
        coupon_fields = ("discount_pct", "validity_hours", "cap_yen")
        with pytest.raises(InputError) as expected:
            OutcomeRecord(
                coupon=CouponConfig(*(fields[f] for f in coupon_fields)),
                **{k: v for k, v in fields.items() if k not in coupon_fields},
            )
        columns = log_columns(OutcomeLog.from_records(records))
        for name, value in change.items():
            columns[name][3] = math.nan if value is None else value
        with pytest.raises(InputError, match=f"^{re.escape(str(expected.value))}$"):
            OutcomeLog.from_columns(**columns)

    @pytest.mark.parametrize("value", [2**53, 2**63, float(2**63), -(2**53)])
    @pytest.mark.parametrize("name", ["cap_yen", "sale_price_yen", "coupon_cost_yen"])
    def test_yen_past_2_53_is_refused_before_any_cast(self, name, value):
        columns = log_columns(OutcomeLog.from_records(sample_records()))
        columns[name] = columns[name].tolist()
        columns[name][3] = value  # a sold coupon row
        with pytest.raises(InputError, match=rf"^{name} is out of range, "
                                             rf"\|yen\| must be below 2\*\*53, got "):
            OutcomeLog.from_columns(**columns)

    @pytest.mark.parametrize("name,cost", [("cap_yen", 310), ("sale_price_yen", 2000)])
    def test_yen_just_below_2_53_is_taken(self, name, cost):
        columns = log_columns(OutcomeLog.from_records(sample_records()))
        columns[name] = columns[name].tolist()
        columns[name][3] = 2**53 - 1  # a sold coupon row: 10% off, capped at 2000
        columns["coupon_cost_yen"][3] = cost
        log = OutcomeLog.from_columns(**columns)
        assert getattr(log, name)[3] == 2**53 - 1 and log.coupon_cost_yen[3] == cost

    def test_no_coupon_validity_is_normalised(self):
        columns = log_columns(OutcomeLog.from_records(sample_records()))
        columns["validity_hours"][0] = 5.0  # row 0 is a no-coupon row
        log = OutcomeLog.from_columns(**columns)
        assert log.validity_hours[0] == 0.0
        assert list(log)[0].coupon == CouponConfig.none()

    def test_column_lengths_must_agree(self):
        columns = log_columns(OutcomeLog.from_records(sample_records()))
        columns["round"] = columns["round"][:9]
        with pytest.raises(InputError, match="one entry per id"):
            OutcomeLog.from_columns(**columns)

    def test_repeated_id_is_named(self):
        records = sample_records()
        records[5] = dataclasses.replace(records[5], item_id=records[2].item_id)
        records[8] = dataclasses.replace(records[8], item_id=records[1].item_id)
        with pytest.raises(InputError, match="log repeats item id 'it0000002'"):
            OutcomeLog.from_records(records)


class TestEncoding:
    def test_deterministic(self):
        item = make_item()
        coupon = CouponConfig(10, 72.0, 2000)
        a = encode_round1(item, coupon, 2.0)
        b = encode_round1(item, coupon, 2.0)
        assert np.array_equal(a, b)
        assert a.shape == (len(ROUND1_FEATURE_NAMES),)

    def test_discount_change_touches_only_discount_coordinates(self):
        item = make_item()
        a = encode_round1(item, CouponConfig(5, 72.0, 2000), 2.0)
        b = encode_round1(item, CouponConfig(10, 72.0, 2000), 2.0)
        differing = {
            name
            for name, va, vb in zip(ROUND1_FEATURE_NAMES, a, b)
            if va != vb
        }
        assert differing == {"discount_pct", "discount_pct_sq", "discount_x_delay"}

    def test_round1_golden_vector(self, fixture_item):
        golden = load_golden("encodings.json")["round1"]
        coupon = CouponConfig(
            golden["discount_pct"], golden["validity_hours"], golden["cap_yen"]
        )
        got = encode_round1(fixture_item, coupon, golden["attach_delay_h"])
        np.testing.assert_allclose(got, golden["values"], rtol=0, atol=1e-15)

    def test_round2_golden_vector(self, fixture_item):
        golden = load_golden("encodings.json")["round2"]
        coupon = CouponConfig(
            golden["discount_pct"], golden["validity_hours"], golden["cap_yen"]
        )
        got = encode_round2(fixture_item, coupon, golden["mean_p1"])
        np.testing.assert_allclose(got, golden["values"], rtol=0, atol=1e-15)

    def test_round2_trailing_coordinate_is_mean_p1(self):
        item = make_item()
        coupon = CouponConfig(10, 72.0, 2000)
        assert encode_round2(item, coupon, 0.0)[-1] == 0.0
        assert encode_round2(item, coupon, 0.73)[-1] == 0.73

    def test_injective_over_menu(self, round1_menu):
        item = make_item()
        vectors = [tuple(encode_round1(item, c, 2.0)) for c in round1_menu]
        assert len(set(vectors)) == len(round1_menu)

    @given(
        price=st.integers(100, 1_000_000),
        condition=st.integers(1, 5),
        age=st.floats(0, 365, allow_nan=False),
        likes=st.integers(0, 500),
        demand=st.floats(-5, 5, allow_nan=False),
        season=st.floats(0, 1, exclude_max=True, allow_nan=False),
        delay=st.floats(0, 96, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_encodings_always_finite(self, price, condition, age, likes, demand, season, delay):
        item = make_item(
            price_yen=price,
            condition=condition,
            age_days=age,
            likes=likes,
            demand_index=demand,
            season_phase=season,
        )
        v1 = encode_round1(item, CouponConfig(15, 72.0, 3000), delay)
        v2 = encode_round2(item, CouponConfig(15, 72.0, 3000), 0.5)
        assert np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))

    def test_item_features_layout(self):
        item = make_item(price_yen=3000, season_phase=0.0)
        values = item_feature_matrix([item])[0]
        assert values[0] == math.log(3000)
        assert values[5] == 0.0 and values[6] == 1.0
        assert len(values) == N_ITEM_FEATURES

    def test_feature_matrix_is_libm_where_simd_log_differs(self):
        # np.log's SIMD kernel may round log(9170) and log(19143) differently from
        # libm; the feature matrix must hold the libm values, bit for bit.
        price = np.array([9170, 19143, 3000], dtype=np.int64)
        season = np.array([0.1, 0.37, 0.999])
        matrix = feature_matrix(
            price, np.array([1, 3, 5]), np.array([0.0, 2.5, 90.0]),
            np.array([0, 4, 12]), np.array([-1.5, 0.0, 2.25]), season,
        )
        for i in range(3):
            angle = 2.0 * math.pi * season[i]
            assert matrix[i, 0] == math.log(int(price[i]))
            assert matrix[i, 5] == math.sin(angle) and matrix[i, 6] == math.cos(angle)

    def test_log_price_once_per_distinct_price_is_per_item_libm(self):
        # Repeated prices, unsorted, including the ones np.log's SIMD kernel rounds
        # differently: logging each distinct price once and scattering it back
        # must give the per-item libm column bit for bit.
        gen = np.random.default_rng(3)
        price = gen.choice(np.array([9170, 19143, 3000, 1, 299, 250_000]), 500)
        n = len(price)
        matrix = feature_matrix(
            price, np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n), gen.uniform(0, 1, n)
        )
        assert len(np.unique(price)) < n
        expected = [math.log(p) for p in price.tolist()]
        assert matrix[:, 0].view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()
