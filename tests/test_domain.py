import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqcoupon
from seqcoupon import rng
from seqcoupon.config import RunConfig
from seqcoupon.domain import (
    BLOCK_ROWS,
    CouponConfig,
    CouponSet,
    ItemRecord,
    N_ITEM_FEATURES,
    OutcomeLog,
    OutcomeRecord,
    ROUND1_FEATURE_NAMES,
    CatalogArrays,
    _by_math,
    _distinct,
    encode_round2_batch,
    encode_rows,
    feature_matrix,
    item_feature_matrix,
)
from seqcoupon.decision import PolicyConstraint, allocate
from seqcoupon.errors import InputError
from seqcoupon.fileio import write_catalog
from seqcoupon.learner import LearnerConfig
from seqcoupon.simulator import (
    GroundTruth,
    SimConfig,
    generate_catalog,
    rollout_arms,
    rollout_policy,
    run_rct,
)
from seqcoupon.uplift import (
    ItemPredictions,
    fit_first_round,
    fit_predictor_pair,
    fit_second_round,
    ipw_weights,
    predict_batch,
    round1_training_dataset,
)

from conftest import load_golden
from oracles import coupon_cost, coupon_costs


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


# The catalog column that holds each ItemRecord field.
CATALOG_FIELDS = dict(zip(
    (f.name for f in dataclasses.fields(ItemRecord)),
    (f.name for f in dataclasses.fields(CatalogArrays) if f.name != "matrix"),
))


def encode_round1(item, coupon, attach_delay_h):
    """One item's first-round feature row, encoded as ``round1_training_dataset`` does."""
    delays = np.array([attach_delay_h])
    return encode_rows(CatalogArrays.from_items([item]).matrix, delays, coupon.discount_pct,
                       coupon.validity_hours, coupon.cap_yen, coupon.discount_pct * delays)[0]


def encode_round2(item, coupon, mean_p1):
    """One item's second-round feature row, through the batch encoder."""
    elapsed_age_h = np.array([item.age_days * 24.0])
    return encode_round2_batch(
        CatalogArrays.from_items([item]).matrix, coupon, elapsed_age_h, np.array([mean_p1])
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

    @pytest.mark.parametrize("validity", [math.nan, math.inf])
    def test_real_coupon_needs_finite_validity(self, validity):
        with pytest.raises(InputError, match=f"^validity_hours must be finite, got {validity}$"):
            CouponConfig(10, validity, 1000)

    @pytest.mark.parametrize("fields,message", [
        ((10.5, 72.0, 1000.7), "discount_pct must be an integer, got 10.5"),
        ((10, 72.0, 1000.7), "cap_yen must be an integer, got 1000.7"),
        ((10, 72.0, 2**53), "cap_yen is out of range, |yen| must be below 2**53, got "),
    ])
    def test_discount_and_cap_are_whole_before_any_cast(self, fields, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            CouponConfig(*fields)

    def test_fields_are_normalised_to_their_types(self):
        coupon = CouponConfig(10.0, 72, 1000.0)
        assert coupon == CouponConfig(10, 72.0, 1000)
        assert tuple(map(type, dataclasses.astuple(coupon))) == (int, float, int)

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
    """Records are plain values: a catalog or a log refuses an invalid one."""

    def test_item_requires_positive_price_and_ltv(self):
        for bad in (make_item(price_yen=0), make_item(seller_ltv_yen=0)):
            with pytest.raises(InputError):
                CatalogArrays.from_items([bad])

    @pytest.mark.parametrize("bad", ["it-1\0", "\0", "i\0t"])
    @pytest.mark.parametrize("field", ["item_id", "seller_id"])
    def test_an_id_holding_nul_is_refused(self, field, bad):
        """``S`` columns drop trailing NULs, so such an id would come back changed."""
        items = [make_item(item_id="it-0"), make_item(**{"item_id": "it-2", field: bad})]
        columns = {name: [getattr(it, f) for it in items] for f, name in CATALOG_FIELDS.items()}
        message = f"{field} must not contain NUL, got {bad!r}"
        for build in (lambda: CatalogArrays.from_columns(**columns),
                      lambda: CatalogArrays.from_items(items)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                build()
        if field == "item_id":
            record = OutcomeRecord(item_id=bad, round=1, coupon=CouponConfig.none(),
                                   attach_delay_h=1.0, sold=False)
            with pytest.raises(InputError, match="item_id must not contain NUL"):
                OutcomeLog.from_records([record])

    def test_ids_are_utf8_byte_columns(self):
        ids = ["é1", "日本-2", "it-3", ""]
        cat = CatalogArrays.from_items([make_item(item_id=i, seller_id=i * 2) for i in ids])
        # Rows are held in id order: UTF-8 byte order, which is ``str`` order.
        ids = sorted(ids)
        assert cat.ids.dtype.kind == "S" and cat.ids.tolist() == [i.encode() for i in ids]
        assert [it.item_id for it in cat] == ids
        assert cat.keys.tolist() == [rng.item_key(i) for i in ids]
        np.testing.assert_array_equal(cat.rows_of(cat.ids[::-1]), [3, 2, 1, 0])

    def test_sold_outcome_requires_sale_fields(self):
        record = OutcomeRecord(
            item_id="it-1",
            round=1,
            coupon=CouponConfig.none(),
            attach_delay_h=1.0,
            sold=True,
        )
        with pytest.raises(InputError):
            OutcomeLog.from_records([record])

    def test_coupon_sale_must_fall_inside_validity(self):
        coupon = CouponConfig(10, 24.0, 1000)
        record = OutcomeRecord(
            item_id="it-1",
            round=1,
            coupon=coupon,
            attach_delay_h=1.0,
            sold=True,
            purchase_delay_h=30.0,
            sale_price_yen=3000,
            coupon_cost_yen=300,
        )
        with pytest.raises(InputError):
            OutcomeLog.from_records([record])

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
        assert list(OutcomeLog.from_records([record])) == [record]

    def test_recorded_cost_must_match_the_arithmetic(self):
        record = OutcomeRecord(
            item_id="it-1",
            round=1,
            coupon=CouponConfig(10, 24.0, 1000),
            attach_delay_h=1.0,
            sold=True,
            purchase_delay_h=2.0,
            sale_price_yen=3000,
            coupon_cost_yen=999,
        )
        with pytest.raises(InputError):
            OutcomeLog.from_records([record])


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
            {"attach_delay_h": math.nan},
            {"attach_delay_h": math.inf},
            {"validity_hours": math.nan},
            {"validity_hours": math.inf},
            {"discount_pct": 0, "validity_hours": 0.0, "cap_yen": 0, "coupon_cost_yen": 0,
             "purchase_delay_h": math.inf},
        ],
    )
    def test_every_record_check_fires_with_the_same_message(self, change):
        # A bad coupon is refused by ``CouponConfig``, a bad record where
        # ``from_records`` takes it into a log; either way with the message
        # ``from_columns`` gives for the same cells.
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
            record = OutcomeRecord(
                coupon=CouponConfig(*(fields[f] for f in coupon_fields)),
                **{k: v for k, v in fields.items() if k not in coupon_fields},
            )
            OutcomeLog.from_records(records[:3] + [record] + records[4:])
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

    @pytest.mark.parametrize("name,value", [
        ("round", 1.5), ("discount_pct", 10.5), ("cap_yen", 1000.5),
        ("sale_price_yen", 3000.5), ("coupon_cost_yen", 300.5),
    ])
    def test_non_integral_value_refused_before_any_cast(self, name, value):
        columns = log_columns(OutcomeLog.from_records(sample_records()))
        columns[name] = columns[name].astype(float)
        columns[name][3] = value  # a sold coupon row
        message = f"{name} must be an integer, got {value}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            OutcomeLog.from_columns(**columns)

    # (column, row, value, message): row 3 is a sold coupon row, row 0 a sold
    # no-coupon row, which no validity window bounds.
    @pytest.mark.parametrize("name,row,value,message", [
        ("attach_delay_h", 3, math.nan, "attach_delay_h must be finite, got nan"),
        ("attach_delay_h", 3, math.inf, "attach_delay_h must be finite, got inf"),
        ("validity_hours", 3, math.nan, "validity_hours must be finite, got nan"),
        ("purchase_delay_h", 0, math.inf, "purchase_delay_h must be finite, got inf"),
    ])
    def test_non_finite_delays_and_validities_are_refused(self, name, row, value, message):
        columns = log_columns(OutcomeLog.from_records(sample_records()))
        columns[name][row] = value
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            OutcomeLog.from_columns(**columns)
        records = sample_records()
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            if name == "validity_hours":
                coupon = records[row].coupon
                records[row] = dataclasses.replace(
                    records[row], coupon=CouponConfig(coupon.discount_pct, value, coupon.cap_yen))
            else:
                records[row] = dataclasses.replace(records[row], **{name: value})
            OutcomeLog.from_records(records)

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


CATALOG_COLUMNS = tuple(CATALOG_FIELDS.values())
CATALOG_ARRAYS = CATALOG_COLUMNS + ("matrix", "keys")
LOG_FIELDS = tuple(f.name for f in dataclasses.fields(OutcomeLog))


def same_bits(got, want, names) -> None:
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestIdOrder:
    """A catalog or a log holds its rows in ascending id order, whatever order
    its columns, its records or the rows taken from it come in."""

    @pytest.fixture(scope="class")
    def world(self, round1_menu, round2_menu):
        config = SimConfig(n_items=40, rng_seed=5)
        cat = generate_catalog(config)
        log1, _, log2 = run_rct(GroundTruth(config), cat, round1_menu, round2_menu,
                                [0.25] * 4, [0.25] * 4, seed=5)
        return cat, log1, log2

    @given(perm=st.permutations(range(40)))
    @settings(max_examples=50, deadline=None)
    def test_any_permutation_gives_the_same_catalog(self, world, perm):
        cat, perm = world[0], list(perm)
        columns = {name: getattr(cat, name)[perm] for name in CATALOG_COLUMNS}
        records = list(cat)
        for got in (CatalogArrays.from_columns(**columns),
                    CatalogArrays.from_items([records[i] for i in perm])):
            same_bits(got, cat, CATALOG_ARRAYS)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_permutation_gives_the_same_log(self, world, data):
        for log in world[1:]:
            perm = list(data.draw(st.permutations(range(len(log)))))
            columns = {name: column[perm] for name, column in log_columns(log).items()}
            records = list(log)
            for got in (OutcomeLog.from_columns(**columns),
                        OutcomeLog.from_records([records[i] for i in perm])):
                same_bits(got, log, LOG_FIELDS)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_repeat_is_refused_with_the_same_message(self, world, data):
        cat, log1, _ = world
        repeat = data.draw(st.integers(0, 39))
        rows = np.append(np.arange(40), repeat)[list(data.draw(st.permutations(range(41))))]
        message = re.escape(f"repeats item id {cat[repeat].item_id!r}") + "$"
        with pytest.raises(InputError, match="^catalog " + message):
            CatalogArrays.from_columns(
                **{name: getattr(cat, name)[rows] for name in CATALOG_COLUMNS})
        with pytest.raises(InputError, match="^log " + message):
            OutcomeLog.from_columns(
                **{name: column[rows] for name, column in log_columns(log1).items()})

    @given(perm=st.permutations(range(40)), mask=st.lists(st.booleans(), min_size=40,
                                                           max_size=40), k=st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_taken_in_id_order(self, world, perm, mask, k):
        cat, perm, mask = world[0], np.array(perm, dtype=np.intp), np.array(mask)
        same_bits(cat[perm], cat, CATALOG_ARRAYS)
        same_bits(cat[::-1], cat, CATALOG_ARRAYS)
        for rows, want in ((mask, np.flatnonzero(mask)), (perm[:k], np.sort(perm[:k])),
                           (np.append(perm[:k], perm[:k]), np.sort(perm[:k]))):
            taken = cat[rows]
            assert (taken.ids[1:] > taken.ids[:-1]).all()
            assert taken.ids.tolist() == cat.ids[want].tolist()
            assert taken.matrix.tobytes() == cat.matrix[want].tobytes()
            assert taken.keys.tobytes() == cat.keys[want].tobytes()


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
        values = item_feature_matrix(CatalogArrays.from_items([item]))[0]
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

    @pytest.mark.parametrize("values", [[], [3], [5, 1, 5, 2, 1, 1], [9, 7, 5, 3]])
    def test_distinct_values_ascend_once_each(self, values):
        assert _distinct(np.array(values, dtype=np.int64)).tolist() == sorted(set(values))

    @pytest.mark.parametrize("function", [math.log, math.log1p])
    @pytest.mark.parametrize("n", [0, 1, 2 * BLOCK_ROWS + 5])
    def test_by_math_is_libm_entry_by_entry(self, function, n):
        # Repeated values out of order, among them prices whose log np.log's SIMD
        # kernel rounds differently, over more than one block of rows.
        gen = np.random.default_rng(n)
        values = gen.choice(np.array([9170.0, 19143.0, 72.0, 0.5, 1.0, 250_000.0]), n)
        out = _by_math(function, values, np.full(n, np.nan))
        expected = np.array([function(v) for v in values.tolist()], dtype=float)
        assert out.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize("function", [math.log, math.log1p])
    def test_by_math_of_a_scalar_fills_out(self, function):
        out = _by_math(function, np.float64(19143.0), np.full((BLOCK_ROWS + 3, 2), np.nan))
        assert (out.view(np.int64) == np.float64(function(19143.0)).view(np.int64)).all()


def test_featurising_and_taking_rows_do_not_import_numpy_ma():
    """numpy's ``unique`` imports ``numpy.ma`` on first use (15-18 ms): a fresh
    process that draws a catalog and takes its rows out of order must not pay it."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from seqcoupon.simulator import SimConfig, generate_catalog
        cat = generate_catalog(SimConfig(n_items=50, rng_seed=1))
        taken = cat[np.arange(len(cat))[::-2]]
        assert (taken.ids[1:] > taken.ids[:-1]).all() and len(taken) == 25
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(seqcoupon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]


# Each public entry point that takes a catalog, reached from records that hold
# one invalid record the one way records reach it: through
# ``CatalogArrays.from_items``. ``allocate`` takes one record and validates it
# itself. ``ctx`` carries the small world, the trained pair and the menus.
def _from(items):
    return CatalogArrays.from_items(items)


RECORD_ENTRY_POINTS = {
    "run_rct": lambda ctx, items: run_rct(
        ctx.gt, _from(items), ctx.menu1, ctx.menu2, [0.25] * 4, [0.25] * 4, seed=3),
    "fit_first_round": lambda ctx, items: fit_first_round(
        _from(items), ctx.log1, LearnerConfig(epochs=5)),
    "round1_training_dataset": lambda ctx, items: round1_training_dataset(
        _from(items), ctx.log1),
    "ipw_weights": lambda ctx, items: ipw_weights(
        ctx.pair.first, _from(items), ctx.log1, ctx.menu1),
    "write_catalog": lambda ctx, items: write_catalog(_from(items), ctx.path),
    "item_feature_matrix": lambda ctx, items: item_feature_matrix(_from(items)),
    "predict_batch": lambda ctx, items: predict_batch(ctx.pair, _from(items), 2.0),
    "allocate": lambda ctx, items: allocate(
        ItemPredictions(items[0].item_id, (0.2, 0.3, 0.4, 0.5), 0.35, (0.1, 0.2, 0.3, 0.4), 0.3),
        *items, ctx.menu1, ctx.menu2, PolicyConstraint()),
    "rollout_policy": lambda ctx, items: rollout_policy(
        ctx.gt, _from(items), lambda it: ((CouponConfig.none(), 2.0), CouponConfig.none()), 3),
}
# Each public entry point that takes a catalog, called with ``cat`` as the
# catalog and every other argument valid.
CATALOG_ENTRY_POINTS = {
    "run_rct": lambda ctx, cat: run_rct(
        ctx.gt, cat, ctx.menu1, ctx.menu2, [0.25] * 4, [0.25] * 4, seed=3),
    "rollout_policy": lambda ctx, cat: rollout_policy(
        ctx.gt, cat, lambda it: ((CouponConfig.none(), 2.0), CouponConfig.none()), 3),
    "rollout_arms": lambda ctx, cat: rollout_arms(
        ctx.gt, cat, ctx.menu1, ctx.menu2, [], 2.0, 3),
    "write_catalog": lambda ctx, cat: write_catalog(cat, ctx.path),
    "round1_training_dataset": lambda ctx, cat: round1_training_dataset(cat, ctx.log1),
    "fit_first_round": lambda ctx, cat: fit_first_round(cat, ctx.log1, LearnerConfig(epochs=5)),
    "fit_second_round": lambda ctx, cat: fit_second_round(
        cat, ctx.log1, ctx.log2, ctx.pair.first, ctx.menu1, LearnerConfig(epochs=5)),
    "fit_predictor_pair": lambda ctx, cat: fit_predictor_pair(
        cat, ctx.log1, ctx.log2, ctx.menu1, ctx.menu2, LearnerConfig(epochs=5)),
    "ipw_weights": lambda ctx, cat: ipw_weights(ctx.pair.first, cat, ctx.log1, ctx.menu1),
    "predict_batch": lambda ctx, cat: predict_batch(ctx.pair, cat, 2.0),
    "item_feature_matrix": lambda ctx, cat: item_feature_matrix(cat),
}
# One invalid item: a cell out of range, or (for several items) a repeated id.
ITEM_DEFECTS = {
    "condition": (7, {"condition": 0}),
    "season_phase": (7, {"season_phase": 1.0}),
    "price_yen": (7, {"price_yen": 0}),
    "repeated_id": (7, {"item_id": "it0000002"}),
}


class TestOneValidatorPerRowType:
    """Every entry point reached from item records refuses an invalid one with
    the message of ``CatalogArrays.from_columns``. The one entry point for
    outcome records, ``OutcomeLog.from_records``, is held to
    ``OutcomeLog.from_columns``'s messages by
    ``TestOutcomeLog.test_every_record_check_fires_with_the_same_message``."""

    @pytest.fixture()
    def ctx(self, small_world, trained_pair, round1_menu, round2_menu, tmp_path):
        return SimpleNamespace(
            gt=small_world["gt"], log1=small_world["log1"], log2=small_world["log2"],
            pair=trained_pair,
            menu1=round1_menu, menu2=round2_menu, path=str(tmp_path / "catalog.csv"),
        )

    @pytest.mark.parametrize("entry,defect", [
        (entry, defect) for entry in sorted(RECORD_ENTRY_POINTS) for defect in sorted(ITEM_DEFECTS)
        if (entry, defect) != ("allocate", "repeated_id")  # one item repeats no id
    ])
    def test_an_invalid_item_gets_the_catalog_message(self, ctx, small_world, entry, defect):
        row, change = ITEM_DEFECTS[defect]
        items = list(small_world["items"])
        items[row] = dataclasses.replace(items[row], **change)
        if entry == "allocate":
            items, row = items[row:row + 1], 0
        columns = {name: [getattr(it, field) for it in small_world["items"][:len(items)]]
                   for field, name in CATALOG_FIELDS.items()}
        for field, value in change.items():
            columns[CATALOG_FIELDS[field]][row] = value
        with pytest.raises(InputError) as expected:
            CatalogArrays.from_columns(**columns)
        with pytest.raises(InputError, match=f"^{re.escape(str(expected.value))}$"):
            RECORD_ENTRY_POINTS[entry](ctx, items)

    @pytest.mark.parametrize("entry", sorted(CATALOG_ENTRY_POINTS))
    def test_a_list_of_records_is_refused_naming_from_items(self, ctx, small_world, entry):
        records = list(small_world["items"])
        with pytest.raises(InputError, match=r"got list; .*CatalogArrays\.from_items"):
            CATALOG_ENTRY_POINTS[entry](ctx, records)
