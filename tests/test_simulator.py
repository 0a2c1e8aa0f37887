import dataclasses
import decimal
import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from seqcoupon import rng, simulator
from seqcoupon.domain import CouponConfig, CouponSet, ItemRecord, item_feature_matrix
from seqcoupon.errors import InputError
from seqcoupon.simulator import (
    DELAY_FLOOR_AT_H,
    CatalogArrays,
    GroundTruth,
    ROUND2_MIN_DELAY_H,
    RolloutTotals,
    SimConfig,
    arm_draw,
    generate_catalog,
    purchase_rate,
    rollout_arms,
    rollout_policy,
    round2_attach_delay,
    run_rct,
    trial_arms,
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
        item_feature_matrix(CatalogArrays.from_items([item])),
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

    @pytest.mark.parametrize("field,value", [
        ("rng_seed", -1), ("likes_rate", -1.0), ("likes_rate", math.nan),
        ("max_age_days", -1), ("rct_max_delay_h", -1.0), ("rct_max_delay_h", math.nan),
    ])
    def test_refuses_a_negative_seed_or_sampling_parameter(self, field, value):
        with pytest.raises(InputError, match=f"^{field} must be >= 0$"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["price_lognormal_params", "ltv_lognormal_params"])
    def test_refuses_a_negative_lognormal_sigma(self, field):
        with pytest.raises(InputError, match=f"^{field} sigma must be >= 0$"):
            SimConfig(**{field: (8.0, -0.1)})
        assert getattr(SimConfig(**{field: (8.0, 0.0)}), field) == (8.0, 0.0)


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
        cat = generate_catalog(SimConfig(n_items=0))
        assert len(cat) == 0 and list(cat) == []

    def test_same_seed_identical(self):
        a = generate_catalog(SimConfig(n_items=50, rng_seed=9))
        b = generate_catalog(SimConfig(n_items=50, rng_seed=9))
        assert list(a) == list(b)
        c = generate_catalog(SimConfig(n_items=50, rng_seed=10))
        assert list(a) != list(c)

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


def within(sample_mean: float, expected: float, sd: float, n: int, z: float = 5.0) -> bool:
    """Whether a sample mean lies within ``z`` standard errors of its expectation."""
    return abs(sample_mean - expected) < z * sd / math.sqrt(n)


class TestCatalogDraws:
    """Each column's law, and the rule that a row's draws depend on its id alone."""

    N = 100_000

    @pytest.fixture(scope="class")
    def big(self):
        return generate_catalog(SimConfig(n_items=self.N, rng_seed=7))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_catalog_is_the_prefix_of_a_longer_one(self, seed, cleared_serial_columns):
        short = generate_catalog(SimConfig(n_items=40, rng_seed=seed))
        long = generate_catalog(SimConfig(n_items=400, rng_seed=seed))
        for column in CATALOG_COLUMNS + ("keys", "matrix"):
            a, b = getattr(short, column), getattr(long, column)[:40]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column

    def test_integer_columns(self, big):
        n = self.N
        assert big.condition.dtype == np.int64 and big.likes.dtype == np.int64
        assert set(np.unique(big.condition).tolist()) == {1, 2, 3, 4, 5}
        for value in range(1, 6):  # 1 + floor(5u): each value a fifth of the rows
            assert within((big.condition == value).mean(), 0.2, math.sqrt(0.16), n)
        age = big.age_days
        assert (np.floor(age) == age).all() and age.min() == 0 and age.max() == 90
        m = 91  # floor(91 u) is uniform on 0..90
        assert within(age.mean(), (m - 1) / 2, math.sqrt((m * m - 1) / 12), n)

    @pytest.mark.parametrize("column,params", [
        ("price", "price_lognormal_params"), ("ltv", "ltv_lognormal_params"),
    ])
    def test_yen_columns_are_rounded_lognormals(self, big, column, params):
        mu, sigma = getattr(SimConfig(), params)
        yen = getattr(big, column)
        assert yen.dtype == np.int64 and yen.min() >= 1
        log_yen = np.log(yen)
        assert within(log_yen.mean(), mu, sigma, self.N)
        # the sample variance of a normal has standard error sigma**2 sqrt(2 / n)
        assert within(log_yen.var(), sigma**2, sigma**2 * math.sqrt(2), self.N)

    def test_demand_is_standard_normal(self, big):
        z = big.demand
        assert within(z.mean(), 0.0, 1.0, self.N)
        assert within(z.var(), 1.0, math.sqrt(2), self.N)
        assert within((z**4).mean(), 3.0, math.sqrt(96), self.N)  # Var(z**4) = 105 - 9
        assert within((z < -1.96).mean(), 0.025, math.sqrt(0.025 * 0.975), self.N)

    def test_the_box_muller_pair_is_independent(self, big):
        """Price and LTV share one radius: their squares would correlate if the
        two halves of the pair were not independent normals."""
        mu_p, s_p = SimConfig().price_lognormal_params
        mu_l, s_l = SimConfig().ltv_lognormal_params
        zp, zl = (np.log(big.price) - mu_p) / s_p, (np.log(big.ltv) - mu_l) / s_l
        assert within(np.corrcoef(zp, zl)[0, 1], 0.0, 1.0, self.N)
        assert within(np.corrcoef(zp**2, zl**2)[0, 1], 0.0, 1.0, self.N)
        assert within(np.corrcoef(zp**2, big.demand**2)[0, 1], 0.0, 1.0, self.N)

    def test_uniform_columns(self, big):
        n, sd = self.N, math.sqrt(1 / 12)
        assert 0.0 <= big.season.min() and big.season.max() < 1.0
        assert within(big.season.mean(), 0.5, sd, n)
        phase = (big.key_ts - simulator._KEY_ACTION_EPOCH_H) / 8760.0
        assert 0.0 <= phase.min() and phase.max() < 1.0
        assert within(phase.mean(), 0.5, sd, n)
        assert within(np.corrcoef(phase, big.season)[0, 1], 0.0, 1.0, n)

    @pytest.mark.parametrize("rate", [0.0, 3.0, 1000.0])
    def test_likes_are_poisson(self, rate):
        n = 50_000
        likes = generate_catalog(SimConfig(n_items=n, rng_seed=2, likes_rate=rate)).likes
        if rate == 0.0:
            assert (likes == 0).all()
            return
        assert within(likes.mean(), rate, math.sqrt(rate), n)
        # Var of the sample variance of a Poisson is (2 rate**2 + rate) / n
        assert within(likes.var(), rate, math.sqrt(2 * rate * rate + rate), n)
        for k in (0, 1, 3, 6) if rate == 3.0 else (950, 1000, 1050):
            pmf = math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))
            assert within((likes == k).mean(), pmf, math.sqrt(pmf * (1 - pmf)), n)

    @pytest.mark.parametrize("rate", [0.0, 0.5, 3.0, 1000.0, 123456.7, 1e6])
    def test_the_poisson_table_is_the_exact_cdf(self, rate):
        """Against a 50-digit recurrence ``p(k) = p(k - 1) rate / k`` over the table."""
        lo, cdf = simulator._poisson_cdf(rate)
        if rate == 0.0:
            assert (lo, cdf.tolist()) == (0, [1.0])
            return
        assert cdf.dtype == np.float64 and cdf[-1] == 1.0 and (np.diff(cdf) >= 0).all()
        assert lo <= rate < lo + len(cdf) - 1
        with decimal.localcontext(decimal.Context(prec=50)):
            weight, exact_rate, running = decimal.Decimal(1), decimal.Decimal(repr(rate)), []
            for k in range(lo + 1, lo + len(cdf) + 1):
                running.append(weight if not running else running[-1] + weight)
                weight = weight * exact_rate / k
            exact = np.array([float(r / running[-1]) for r in running])
        np.testing.assert_allclose(cdf, exact, rtol=4e-13, atol=0)

    def test_rates_past_the_table_bound_are_refused(self):
        assert SimConfig(likes_rate=simulator.MAX_LIKES_RATE).likes_rate == 1e6
        for rate in (1.5e6, math.inf):
            with pytest.raises(InputError, match=r"^likes_rate must be <= 1000000$"):
                SimConfig(likes_rate=rate)

    @pytest.mark.parametrize("column", ["price_lognormal_params", "ltv_lognormal_params"])
    @pytest.mark.parametrize("mu,shown", [(60.0, r"\d\.\d+e\+2\d"), (1000.0, "inf")])
    def test_a_drawn_amount_past_the_yen_range_is_refused_before_any_cast(
        self, column, mu, shown
    ):
        """The refusal names the drawn amount, and no cast warns on the way."""
        name = {"price_lognormal_params": "price_yen",
                "ltv_lognormal_params": "seller_ltv_yen"}[column]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=rf"^{name} is out of range.*, got {shown}$"):
                generate_catalog(SimConfig(n_items=5, **{column: (mu, 1.0)}))


# CatalogArrays fields that hold one ItemRecord field each
CATALOG_COLUMNS = tuple(
    f.name for f in dataclasses.fields(CatalogArrays) if f.name not in ("keys", "matrix")
)


class TestCatalogArrays:
    @pytest.mark.parametrize("seed,n", [(1, 300), (9, 50), (42, 1), (3, 0)])
    def test_arrays_are_the_records(self, seed, n):
        config = SimConfig(n_items=n, rng_seed=seed)
        cat = generate_catalog(config)
        assert len(cat) == n and cat.matrix.shape == (n, 7)
        records = list(cat)
        assert len(records) == n and [cat[i] for i in range(n)] == records
        for column, field in zip(CATALOG_COLUMNS, dataclasses.fields(ItemRecord)):
            values = getattr(cat, column).tolist()
            if column in ("ids", "seller_ids"):
                values = [v.decode() for v in values]
            got = [getattr(it, field.name) for it in records]
            assert got == values, field.name
            assert all(type(g) is type(v) for g, v in zip(got, values)), field.name

    def test_from_items_columns_match_generated(self):
        config = SimConfig(n_items=500, rng_seed=8)
        drawn = generate_catalog(config)
        gathered = CatalogArrays.from_items(list(drawn))
        for name in CATALOG_COLUMNS + ("keys", "matrix"):
            a, b = getattr(drawn, name), getattr(gathered, name)
            if isinstance(a, tuple):
                assert a == b, name
            else:
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_matrix_is_libm_on_a_generated_catalog(self):
        cat = generate_catalog(SimConfig(n_items=20_000, rng_seed=2))
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
            ("age_days", "age_days", math.nan),
            ("age_days", "age_days", math.inf),
            ("demand", "demand_index", math.nan),
            ("demand", "demand_index", -math.inf),
            ("key_ts", "key_action_ts", math.nan),
            ("key_ts", "key_action_ts", math.inf),
        ],
    )
    def test_out_of_range_column_rejected(self, column, field, value):
        cat = generate_catalog(SimConfig(n_items=20, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        bad = columns[column].copy()
        bad[7] = value
        columns[column] = bad
        # The record is built as given and refused where it enters a catalog.
        items = list(cat)
        items[7] = dataclasses.replace(items[7], **{field: value})
        with pytest.raises(InputError) as expected:
            CatalogArrays.from_items(items)
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
            ("demand", math.inf, math.nan),
            ("key_ts", math.nan, -math.inf),
        ],
    )
    def test_the_first_bad_row_is_named(self, column, first, later):
        cat = generate_catalog(SimConfig(n_items=20, rng_seed=5))

        def message(bad_rows):
            columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
            bad = columns[column].copy()
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
        cat = generate_catalog(SimConfig(n_items=20, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        columns[column] = columns[column].tolist()
        columns[column][7] = value
        items = list(cat)
        items[7] = dataclasses.replace(items[7], **{field: value})
        for build in (lambda: CatalogArrays.from_columns(**columns),
                      lambda: CatalogArrays.from_items(items)):
            if value < 2**53:
                assert getattr(build(), column)[7] == value
            else:
                with pytest.raises(InputError, match=rf"^{field} is out of range, "
                                                     rf"\|yen\| must be below 2\*\*53, got "):
                    build()

    @pytest.mark.parametrize(
        "column,field,value,message",
        [
            ("price", "price_yen", 3000.9, "price_yen must be an integer, got 3000.9"),
            ("condition", "condition", 4.5, "condition must be an integer, got 4.5"),
            ("likes", "likes", 2.7, "likes must be an integer, got 2.7"),
            ("likes", "likes", math.nan, "likes must be an integer, got nan"),
            ("ltv", "seller_ltv_yen", 5000.5, "seller_ltv_yen must be an integer, got 5000.5"),
            ("condition", "condition", 2.0**63, f"condition is out of range, got {2.0**63}"),
        ],
    )
    def test_non_integral_value_refused_before_any_cast(self, column, field, value, message):
        cat = generate_catalog(SimConfig(n_items=20, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        columns[column] = columns[column].astype(float)
        columns[column][7] = value
        items = list(cat)
        items[7] = dataclasses.replace(items[7], **{field: value})
        for build in (lambda: CatalogArrays.from_columns(**columns),
                      lambda: CatalogArrays.from_items(items)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                build()

    def test_whole_floats_are_taken_as_integers(self):
        cat = generate_catalog(SimConfig(n_items=20, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        for name in ("price", "condition", "likes", "ltv"):
            columns[name] = columns[name].astype(float)
        again = CatalogArrays.from_columns(**columns)
        for name in ("price", "condition", "likes", "ltv"):
            assert getattr(again, name).dtype == np.int64
            assert np.array_equal(getattr(again, name), getattr(cat, name))

    def test_column_lengths_must_agree(self):
        cat = generate_catalog(SimConfig(n_items=5, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        columns["likes"] = columns["likes"][:4]
        with pytest.raises(InputError):
            CatalogArrays.from_columns(**columns)


    def test_repeated_id_is_named(self):
        cat = generate_catalog(SimConfig(n_items=6, rng_seed=5))
        columns = {name: getattr(cat, name) for name in CATALOG_COLUMNS}
        columns["ids"] = cat.ids[[0, 1, 2, 3, 1, 0]]
        with pytest.raises(InputError, match="catalog repeats item id 'it0000001'"):
            CatalogArrays.from_columns(**columns)

    def test_rows_of_joins_any_order(self):
        cat = generate_catalog(SimConfig(n_items=40, rng_seed=5))
        order = np.random.default_rng(4).permutation(40)
        shuffled = CatalogArrays.from_columns(
            **{name: getattr(cat, name)[order] for name in CATALOG_COLUMNS})
        assert list(shuffled) == list(cat) == list(cat[order])
        ids = [cat.ids[i] for i in (7, 3, 39, 0, 7)]
        np.testing.assert_array_equal(cat.rows_of(ids), [7, 3, 39, 0, 7])
        rows = shuffled.rows_of(ids)
        assert [shuffled.ids[i] for i in rows] == ids
        np.testing.assert_array_equal(cat.rows_of(cat.ids), np.arange(40))
        assert len(cat.rows_of([])) == 0

    def test_an_int_is_one_record_and_a_slice_a_catalog(self):
        cat = generate_catalog(SimConfig(n_items=40, rng_seed=5))
        records = list(cat)
        assert cat[3] == records[3] and cat[np.int64(39)] == records[39]
        assert cat[-1] == records[-1]
        with pytest.raises(IndexError):
            cat[40]
        part = cat[5:9]
        assert isinstance(part, CatalogArrays) and list(part) == records[5:9]
        np.testing.assert_array_equal(part.keys, cat.keys[5:9])

    def test_keys_are_hashed_on_first_use_and_taken_as_they_are(self, monkeypatch):
        drawn = generate_catalog(SimConfig(n_items=40, rng_seed=5))
        columns = {name: getattr(drawn, name) for name in CATALOG_COLUMNS}
        hashed = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys",
                            lambda ids: hashed.append(len(ids)) or real_keys(ids))
        cat = CatalogArrays.from_columns(**columns)
        rows = np.arange(39, -1, -3)  # descending: taken in ascending row order
        unhashed = cat[rows]
        assert hashed == []
        np.testing.assert_array_equal(cat.keys, real_keys(cat.ids))
        assert cat.keys is cat.keys and hashed == [40]
        np.testing.assert_array_equal(cat[rows].keys, cat.keys[rows[::-1]])
        assert hashed == [40]
        np.testing.assert_array_equal(unhashed.keys, cat.keys[rows[::-1]])
        assert hashed == [40, len(rows)]

    @pytest.mark.usefixtures("cleared_serial_columns")
    def test_a_drawn_catalog_has_its_keys_set(self, monkeypatch):
        calls = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: calls.append(len(ids)) or real_keys(ids))
        cat = generate_catalog(SimConfig(n_items=40, rng_seed=5))
        assert calls == [40] and "keys" in cat.__dict__
        np.testing.assert_array_equal(cat.keys, real_keys(cat.ids))
        assert cat.keys.dtype == np.uint64

    def test_a_catalog_of_the_same_size_shares_ids_and_keys(self, monkeypatch):
        earlier = generate_catalog(SimConfig(n_items=40, rng_seed=5))
        calls = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: calls.append(1) or real_keys(ids))
        drawn = generate_catalog(SimConfig(n_items=40, rng_seed=6))
        assert calls == []
        assert drawn.ids is earlier.ids and drawn.seller_ids is earlier.seller_ids
        assert drawn.keys is earlier.keys
        # Shared by every catalog of this size, so no catalog may write into them.
        for column in (drawn.ids, drawn.seller_ids, drawn.keys):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    @pytest.mark.parametrize("n", [0, 1, 25, 39])
    def test_a_shorter_catalog_copies_the_first_rows(self, n, monkeypatch):
        longer = generate_catalog(SimConfig(n_items=40, rng_seed=5))
        calls = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: calls.append(len(ids)) or real_keys(ids))
        drawn = generate_catalog(SimConfig(n_items=n, rng_seed=6))
        assert calls == []
        for name in ("ids", "seller_ids", "keys"):
            np.testing.assert_array_equal(getattr(drawn, name), getattr(longer, name)[:n])

    def test_the_kept_columns_hold_no_row_past_the_last_catalog(self):
        longer = generate_catalog(SimConfig(n_items=40, rng_seed=5))
        refs = [weakref.ref(getattr(longer, name)) for name in ("ids", "seller_ids", "keys")]
        generate_catalog(SimConfig(n_items=25, rng_seed=5))
        del longer
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    @pytest.mark.parametrize("before", [30, 20, 45], ids=["equal", "shorter", "longer"])
    @pytest.mark.usefixtures("cleared_serial_columns")
    def test_a_draw_after_another_equals_a_cold_draw(self, before):
        config = SimConfig(n_items=30, rng_seed=6)
        cold = generate_catalog(config)
        simulator._kept = ()
        generate_catalog(SimConfig(n_items=before, rng_seed=5))
        drawn = generate_catalog(config)
        for name in CATALOG_COLUMNS + ("keys", "matrix"):
            a, b = getattr(drawn, name), getattr(cold, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        if before > 30:  # copies, not views that would keep all 45 rows alive
            assert drawn.ids.base is None and drawn.seller_ids.base is None
            assert drawn.keys.base is None

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_rows_of_refuses_an_unknown_id(self, n):
        cat = generate_catalog(SimConfig(n_items=n, rng_seed=5))
        for missing in ("it9999999", "a", "zz"):
            with pytest.raises(InputError, match=f"unknown item '{missing}'"):
                cat.rows_of(np.array(cat.ids[:1].tolist() + [missing.encode()]))


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


class TestTrialArms:
    def test_none_gives_each_menu_equal_odds(self, round1_menu):
        cat = generate_catalog(SimConfig(n_items=3000, rng_seed=2))
        short = CouponSet(round1_menu.arms[:3], "round2")
        got = trial_arms(9, cat, round1_menu, short)
        want = trial_arms(9, cat, round1_menu, short, [0.25] * 4, [1.0 / 3] * 3)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert set(got[0]) == {0, 1, 2, 3} and set(got[1]) == {0, 1, 2}

    def test_both_lists_are_checked_before_either_draw(self, round1_menu, round2_menu,
                                                       monkeypatch):
        cat = generate_catalog(SimConfig(n_items=10, rng_seed=2))
        monkeypatch.setattr(rng, "uniforms", lambda *args: pytest.fail("drew an arm"))
        with pytest.raises(InputError, match="round2_probs"):
            trial_arms(1, cat, round1_menu, round2_menu, None, [0.5, 0.5])


class TestRunRct:
    def test_id_columns_hold_few_bytes_per_id(self, round1_menu, round2_menu):
        """A 20k-item trial's ids, seller ids and log ids are bytes in ``S`` columns.

        A ``str`` id and its pointer in a tuple take about 66 bytes; the
        traced memory still held once only the four columns are left is the
        measure.
        """
        config = SimConfig(n_items=20_000, rng_seed=5)

        def trial():
            cat = generate_catalog(config)
            log1, _, log2 = run_rct(GroundTruth(config), cat, round1_menu, round2_menu,
                                    [0.25] * 4, [0.25] * 4, seed=5)
            return cat.ids, cat.seller_ids, log1.item_ids, log2.item_ids

        trial()  # allocations a first call keeps (imports, caches) are not counted
        gc.collect()
        tracemalloc.start()
        try:
            columns = trial()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / sum(map(len, columns)) < 24

    @pytest.mark.usefixtures("cleared_serial_columns")
    def test_a_drawn_catalog_is_hashed_once(self, round1_menu, round2_menu, monkeypatch):
        calls = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: calls.append(len(ids)) or real_keys(ids))
        config = SimConfig(n_items=20_000)
        run_rct(GroundTruth(config), generate_catalog(config), round1_menu, round2_menu,
                [0.25] * 4, [0.25] * 4, seed=1)
        assert calls == [20_000]

    def test_empty_catalog(self, round1_menu, round2_menu):
        gt = GroundTruth(SimConfig(n_items=0))
        log1, survivors, log2 = run_rct(
            gt, generate_catalog(gt.config), round1_menu, round2_menu, [1, 0, 0, 0], [1, 0, 0, 0], 1
        )
        assert survivors.dtype.kind == "S"
        assert (len(log1), survivors.tolist(), len(log2)) == (0, [], 0)

    def test_partition_and_sorting(self, small_world):
        log1 = small_world["log1"]
        survivors = small_world["survivors"]
        log2 = small_world["log2"]
        assert survivors.dtype.kind == "S"
        survivors = survivors.tolist()
        ids = {it.item_id.encode() for it in small_world["items"]}
        sold1 = {r.item_id.encode() for r in log1 if r.sold}
        assert sold1 | set(survivors) == ids
        assert sold1 & set(survivors) == set()
        assert [r.item_id.encode() for r in log2] == survivors
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
        assert again[1].tolist() == small_world["survivors"].tolist()
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
        records, totals = rollout_policy(gt, generate_catalog(gt.config), lambda it: ((CouponConfig.none(), 0.0), CouponConfig.none()), 1)
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
        got = rollout_arms(
            small_world["gt"], items, round1_menu, round2_menu, [(arm1, arm2)], delay, 3
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
        cat = small_world["items"][:10]
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
