"""The per-seed fast paths against the implementations they replaced.

``oracles.py`` keeps the row-major allocators, the one-plan-per-call rollout,
the trial's two log builders over the per-round draws, the per-arm
prediction, the per-arm training features and IPW weights, the strategy
comparison built on them and the per-item id builder as they were. Every test
here compares the package with them bit for bit, over at least ten seeds
where the output has a seed; only the ``applied`` IPW weights, whose
matrix-vector product the package takes over all survivors at once, agree
to a relative 1e-12.
"""

import dataclasses

import numpy as np
import pytest

from seqcoupon.decision import PolicyConstraint, allocate_batch, allocate_independent_batch
from seqcoupon.domain import CouponConfig, CouponSet
from seqcoupon.errors import InputError
from seqcoupon.evaluation import compare_strategies
from seqcoupon.learner import LearnerConfig
from seqcoupon.simulator import (
    CatalogArrays,
    GroundTruth,
    SimConfig,
    _serial_ids,
    generate_catalog,
    rollout_arms,
    run_rct,
)
from seqcoupon import uplift
from seqcoupon.uplift import (
    fit_predictor_pair,
    fit_second_round,
    predict_batch,
    round1_arm_probabilities,
    round1_training_dataset,
)

import oracles

SEEDS = range(10)
TINY = 5e-324  # the smallest subnormal double


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype.kind == "f":
        got, want = got.view(np.int64), want.view(np.int64)
    assert np.array_equal(got, want)


def random_menu(gen, purpose, validity_h, size=None):
    """No-coupon arm plus 1-5 coupons (``size`` arms in all, when given); caps
    repeat so cells can cost the same."""
    arms = {CouponConfig.none()}
    while len(arms) < (size or gen.integers(2, 7)):
        arms.add(CouponConfig(int(gen.integers(1, 40)), float(validity_h),
                              int(gen.choice([0, 500, 1000, 1000, 3000]))))
    none = CouponConfig.none()
    return CouponSet(arms=(none,) + tuple(sorted(arms - {none}, key=repr)), purpose=purpose)


def same_allocations(p1, p2, p_baseline, prices, ltvs, menu1, menu2, constraint):
    for new, old in ((allocate_batch, oracles.allocate_batch_row_major),
                     (allocate_independent_batch, oracles.allocate_independent_batch_row_major)):
        got = new(p1, p2, p_baseline, prices, ltvs, menu1, menu2, constraint)
        want = old(p1, p2, p_baseline, prices, ltvs, menu1, menu2, constraint)
        for g, w in zip(got, want):
            same_bits(g, w)


class TestSerialIds:
    @pytest.mark.parametrize("n", [0, 1, 10, 4000, 4096, 4097, 9000])
    @pytest.mark.parametrize("prefix", ["it", "sl"])
    def test_match_the_per_item_builder(self, prefix, n):
        ids = _serial_ids(prefix, range(n))
        assert ids.dtype.kind == "S" and ids.shape == (n,)
        assert tuple(oracles.id_strs(ids)) == oracles.serial_ids_per_item(prefix, range(n))

    @pytest.mark.parametrize("start,stop", [
        (9_999_995, 10_000_006),  # 7 digits widen to 8
        (10_000_000, 10_000_003),
        (99_999_998, 100_000_002),  # 8 digits widen to 9
        (9_999_999, 10_000_000),
        (9_995_000, 10_005_000),  # blocks of ids on both sides of the widening
    ])
    def test_digit_width_boundaries(self, start, stop):
        numbers = range(start, stop)
        ids = oracles.id_strs(_serial_ids("it", numbers))
        assert tuple(ids) == oracles.serial_ids_per_item("it", numbers)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_both_catalog_paths_carry_them(self, seed):
        """A drawn catalog's id columns and the records it yields."""
        config = SimConfig(n_items=30 + seed, rng_seed=seed)
        numbers = range(config.n_items)
        cat = generate_catalog(config)
        for ids, seller_ids in ((oracles.id_strs(cat.ids), oracles.id_strs(cat.seller_ids)),
                                zip(*((it.item_id, it.seller_id) for it in cat))):
            assert tuple(ids) == oracles.serial_ids_per_item("it", numbers)
            assert tuple(seller_ids) == oracles.serial_ids_per_item("sl", numbers)


class TestArmMajorAllocators:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tied_rois_and_costs(self, seed):
        gen = np.random.default_rng(seed)
        menu1, menu2 = random_menu(gen, "round1", 72.0), random_menu(gen, "round2", 48.0)
        n = int(gen.integers(100, 400))
        # Few probability levels and prices past every cap: many cells tie on
        # ROI, and among those many tie on cost too.
        levels = np.array([0.05, 0.2, 0.2, 0.5, 0.9])
        p1 = gen.choice(levels, (n, len(menu1)))
        p2 = gen.choice(levels, (n, len(menu2)))
        p_baseline = gen.choice(levels, n) * 0.5
        prices = gen.choice(np.array([50, 20_000, 60_000, 60_000]), n)
        ltvs = gen.choice(np.array([1_000, 50_000]), n)
        _, cost, _, roi = (g.reshape(n, -1)[:, 1:] for g in oracles._economics(
            p1[:, :, None], p2[:, None, :], p_baseline[:, None, None],
            oracles.coupon_costs(prices, menu1).astype(float)[:, :, None],
            oracles.coupon_costs(prices, menu2).astype(float)[:, None, :],
            ltvs.astype(float)[:, None, None],
        ))
        top_cost = np.where(roi == roi.max(axis=1)[:, None], cost, np.inf)
        assert (np.sum(top_cost == top_cost.min(axis=1)[:, None], axis=1) > 1).any()
        for threshold in (0.0, 0.01, 0.3):
            for override in (None, 25_000.0):
                same_allocations(p1, p2, p_baseline, prices, ltvs, menu1, menu2,
                                 PolicyConstraint(threshold, override))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subnormal_and_zero_probabilities(self, seed):
        gen = np.random.default_rng(100 + seed)
        menu1, menu2 = random_menu(gen, "round1", 72.0), random_menu(gen, "round2", 48.0)
        n = int(gen.integers(1, 200))
        values = np.array([0.0, 0.0, TINY, 7 * TINY, 19 * TINY, 1e-310, 0.3, 0.8])
        p1 = gen.choice(values, (n, len(menu1)))
        p2 = gen.choice(values, (n, len(menu2)))
        p_baseline = gen.choice(values[:3], n)
        prices = gen.integers(1, 80_000, n)
        ltvs = gen.integers(1, 300_000, n)
        # A lift over a subnormal cost overflows to an infinite ROI in both.
        with np.errstate(over="ignore"):
            for override in (None, 7.5):
                same_allocations(p1, p2, p_baseline, prices, ltvs, menu1, menu2,
                                 PolicyConstraint(0.0, override))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_six_by_six_menus_where_no_row_clears_the_threshold(self, seed):
        gen = np.random.default_rng(300 + seed)
        menu1, menu2 = random_menu(gen, "round1", 72.0, 6), random_menu(gen, "round2", 48.0, 6)
        n = int(gen.integers(1, 400))
        # Combined lifts stay below 0.19 and per-round lifts below 0.1: every
        # row falls back to its maximum-lift cell.
        p1, p2 = gen.uniform(0.0, 0.1, (n, 6)), gen.uniform(0.0, 0.1, (n, 6))
        p_baseline = gen.uniform(0.0, 0.1, n)
        prices, ltvs = gen.integers(1, 80_000, n), gen.integers(1, 300_000, n)
        for allocator in (allocate_batch, allocate_independent_batch):
            assert not allocator(p1, p2, p_baseline, prices, ltvs, menu1, menu2,
                                 PolicyConstraint(0.3))[2].any()
        same_allocations(p1, p2, p_baseline, prices, ltvs, menu1, menu2, PolicyConstraint(0.3))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_candidate_ties_on_roi_and_cost(self, seed):
        gen = np.random.default_rng(400 + seed)
        menu1, menu2 = random_menu(gen, "round1", 72.0), random_menu(gen, "round2", 48.0)
        n = int(gen.integers(1, 300))
        # At one yen every coupon costs nothing, and each row's probabilities
        # are the same in every arm: every cell has one ROI (0 or inf) and cost 0.
        p1 = np.repeat(gen.choice([0.0, 0.2, 0.7], (n, 1)), len(menu1), axis=1)
        p2 = np.repeat(gen.choice([0.0, 0.2, 0.7], (n, 1)), len(menu2), axis=1)
        p_baseline = gen.choice([0.0, 0.2, 0.9], n)
        prices, ltvs = np.ones(n, dtype=np.int64), gen.integers(1, 300_000, n)
        for threshold in (0.0, 0.01, 0.5):
            constraint = PolicyConstraint(threshold)
            j, k, _ = allocate_batch(p1, p2, p_baseline, prices, ltvs, menu1, menu2, constraint)
            assert (j == 0).all() and (k == 1).all()  # the first candidate cell
            j, k, _ = allocate_independent_batch(
                p1, p2, p_baseline, prices, ltvs, menu1, menu2, constraint
            )
            assert (j == 0).all() and (k == 0).all()
            same_allocations(p1, p2, p_baseline, prices, ltvs, menu1, menu2, constraint)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_item(self, seed):
        gen = np.random.default_rng(200 + seed)
        menu1, menu2 = random_menu(gen, "round1", 72.0), random_menu(gen, "round2", 48.0)
        same_allocations(
            gen.uniform(0, 1, (1, len(menu1))), gen.uniform(0, 1, (1, len(menu2))),
            gen.uniform(0, 1, 1), gen.integers(1, 50_000, 1), gen.integers(1, 99_999, 1),
            menu1, menu2, PolicyConstraint(float(gen.uniform(0, 0.2))),
        )


def random_plans(gen, n, menu1, menu2, count):
    plans = [(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))]
    plans.append((np.full(n, len(menu1) - 1), np.full(n, len(menu2) - 1)))
    for _ in range(count):
        active = gen.uniform(size=n) < gen.uniform()
        plans.append((np.where(active, gen.integers(0, len(menu1), n), 0),
                      np.where(active, gen.integers(0, len(menu2), n), 0)))
    return plans


def same_log(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b.dtype.kind == "S":  # widths may differ where no id is held
            assert oracles.id_strs(a) == oracles.id_strs(b), field.name
        else:
            same_bits(a, b)


class TestTrialLogs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_run_rct_matches_the_kept_log_builder(self, seed):
        gen = np.random.default_rng(500 + seed)
        n = int(gen.integers(1, 3000)) if seed else 0
        config = SimConfig(n_items=n, rng_seed=seed)
        gt = GroundTruth(config)
        # Short round-1 windows put some round-2 attaches on the 48 h floor.
        menu1 = random_menu(gen, "round1", float(gen.choice([6.0, 24.0, 72.0])))
        menu2 = random_menu(gen, "round2", float(gen.choice([12.0, 48.0])))
        probs1, probs2 = gen.dirichlet(np.ones(len(menu1))), gen.dirichlet(np.ones(len(menu2)))
        items = generate_catalog(config)
        # Rebuilt from records, the keys are hashed on use; shuffled records are
        # out of id order, so the catalog sorts them back into it.
        records = list(items)
        shuffled = CatalogArrays.from_items([records[i] for i in gen.permutation(n)])
        for cat in (items, CatalogArrays.from_items(records), shuffled):
            got1, survivors, got2 = run_rct(gt, cat, menu1, menu2, probs1, probs2, seed)
            want1, want2 = oracles.run_rct_logs(gt, cat, menu1, menu2, probs1, probs2, seed)
            same_log(got1, want1)
            same_log(got2, want2)
            assert survivors.dtype.kind == "S"
            assert survivors.tolist() == want2.item_ids.tolist()
            assert oracles.id_strs(got1.item_ids) == sorted(it.item_id for it in items)


class TestOneRolloutPass:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_plan_matches_its_own_rollout(self, seed):
        gen = np.random.default_rng(300 + seed)
        n = int(gen.integers(1, 3000)) if seed else 1
        config = SimConfig(n_items=n, rng_seed=seed)
        gt, cat = GroundTruth(config), generate_catalog(config)
        menu1, menu2 = random_menu(gen, "round1", 72.0), random_menu(gen, "round2", 48.0)
        delay = float(gen.choice([0.0, 2.0, 30.0, 60.0]))
        plans = random_plans(gen, n, menu1, menu2, 3)
        got = rollout_arms(gt, cat, menu1, menu2, plans, delay, seed)
        want = [oracles.rollout_arms_per_plan(gt, cat, menu1, menu2, a1, a2, delay, seed)
                for a1, a2 in plans]
        assert got == want

    def test_no_plans(self, round1_menu, round2_menu):
        config = SimConfig(n_items=5, rng_seed=1)
        cat = generate_catalog(config)
        assert rollout_arms(GroundTruth(config), cat, round1_menu, round2_menu, [], 2.0, 1) == []

    @pytest.mark.parametrize("plan", range(3))
    @pytest.mark.parametrize("bad", ["short", "float", "negative", "past_menu", "2-d"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_every_arm_refusal_in_any_plan(self, round1_menu, round2_menu,
                                           plan, bad, which):
        config = SimConfig(n_items=10, rng_seed=2)
        gt, cat = GroundTruth(config), generate_catalog(config)
        ok = np.zeros(10, dtype=np.int64)
        wrong = {
            "short": ok[:9],
            "float": ok.astype(float),
            "negative": np.full(10, -1),
            "past_menu": np.full(10, len(round1_menu)),
            "2-d": ok.reshape(2, 5),
        }[bad]
        plans = [(ok, ok)] * 3
        plans[plan] = (wrong, ok) if which == 0 else (ok, wrong)
        with pytest.raises(InputError) as got:
            rollout_arms(gt, cat, round1_menu, round2_menu, plans, 2.0, 3)
        with pytest.raises(InputError) as want:
            oracles.rollout_arms_per_plan(gt, cat, round1_menu, round2_menu, *plans[plan], 2.0, 3)
        assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def pairs(small_world, round1_menu, round2_menu, trained_pair):
    """The shared pair (boosted second model) plus an all-logistic and a
    boosted-first pair."""
    def fit(first, second):
        return fit_predictor_pair(
            small_world["items"], small_world["log1"], small_world["log2"],
            round1_menu, round2_menu, config_first=first, config_second=second,
        )

    logistic = LearnerConfig(kind="logistic", learning_rate=1.0, epochs=300)
    boosted = LearnerConfig(kind="boosted_stumps", learning_rate=0.4, max_stumps=20)
    return [trained_pair, fit(logistic, logistic), fit(boosted, logistic)]


# Row counts around the edges of domain.BLOCK_ROWS, the scoring block.
BLOCK_EDGES = (0, 1, 4095, 4096, 4097, 10000)


class TestStandardiseOncePrediction:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_predictions_match_per_arm_encoding(self, pairs, seed):
        """On a random size, and on one of ``BLOCK_EDGES`` per seed (seeds 0-5
        cover them all)."""
        gen = np.random.default_rng(400 + seed)
        n = int(gen.integers(1, 3000)) if seed else 1
        edge = BLOCK_EDGES[seed % len(BLOCK_EDGES)]
        for cat in (generate_catalog(SimConfig(n_items=n, rng_seed=seed)),
                    generate_catalog(SimConfig(n_items=max(edge, 1), rng_seed=seed))[:edge]):
            delay = float(gen.choice([0.0, 2.0, 30.0]))
            for pair in pairs:
                got = predict_batch(pair, cat, delay)
                want = oracles.predict_arrays_per_arm(pair, cat.matrix, cat.age_days, delay)
                for g, w in zip(got, want):
                    same_bits(g, w)
                delays = gen.uniform(0, 36, len(cat))
                same_bits(
                    round1_arm_probabilities(pair.first, cat.matrix, pair.round1_set, delays),
                    oracles.round1_arm_probabilities_per_arm(
                        pair.first, cat.matrix, pair.round1_set, delays
                    ),
                )


class TestComparisonPerSeed:
    @pytest.mark.parametrize("n_items", [1, 700])
    def test_report_matches_per_strategy_rollouts(self, pairs, round1_menu, round2_menu,
                                                  n_items):
        config = SimConfig(n_items=n_items, rng_seed=0)
        for pair, constraint in (
            (pairs[0], PolicyConstraint()),
            (pairs[1], PolicyConstraint(0.03, ltv_override=40_000.0)),
            (pairs[2], PolicyConstraint(0.0)),
        ):
            got = compare_strategies(config, pair, constraint, SEEDS, 2.0)
            want = oracles.compare_strategies_per_strategy(config, pair, constraint, SEEDS, 2.0)
            assert got == want


def arms_apart_in_one_field(purpose, validity_h):
    """Three coupons that share a discount: two differ only in validity, two only in cap."""
    return CouponSet(arms=(
        CouponConfig.none(),
        CouponConfig(10, validity_h, 2000),
        CouponConfig(10, validity_h / 2, 2000),
        CouponConfig(10, validity_h, 1000),
    ), purpose=purpose)


@pytest.fixture(scope="module")
def trials(small_world, round1_menu):
    """(catalog, round-1 log, round-2 log, round-1 menu): the shared trial, and
    one whose arms differ only in validity or only in cap."""
    menu1, menu2 = arms_apart_in_one_field("round1", 72.0), arms_apart_in_one_field("round2", 48.0)
    cat = small_world["items"]
    log1, _, log2 = run_rct(small_world["gt"], cat, menu1, menu2, [0.25] * 4, [0.25] * 4, seed=5)
    return {"shared": (cat, small_world["log1"], small_world["log2"], round1_menu),
            "one_field_apart": (cat, log1, log2, menu1)}


class TestColumnarTrainingEncoder:
    """Each log encoded in one call against the arm-by-arm builders."""

    @pytest.mark.parametrize("trial", ["shared", "one_field_apart"])
    def test_round1_features(self, trials, trial):
        cat, log1, _, _ = trials[trial]
        same_bits(round1_training_dataset(cat, log1).features,
                  oracles.round1_features_per_arm(cat, log1))

    @pytest.mark.parametrize("variant", ["mean", "applied"])
    @pytest.mark.parametrize("pair", [0, 2])  # a logistic and a boosted first model
    @pytest.mark.parametrize("trial", ["shared", "one_field_apart"])
    def test_round2_features_and_weights(self, trials, pairs, monkeypatch, trial, pair,
                                         variant):
        cat, log1, log2, menu1 = trials[trial]
        first, epsilon = pairs[pair].first, uplift.IPW_EPSILON_DEFAULT
        datasets = []  # the design fit_second_round hands to train
        monkeypatch.setattr(uplift, "train",
                            lambda data, config, *, in_place=False: datasets.append(data))
        fit_second_round(cat, log1, log2, first, menu1, LearnerConfig(), epsilon, variant)
        (got,) = datasets
        features, weights = oracles.round2_features_per_arm(
            cat, log1, log2, first, menu1, epsilon, variant
        )
        same_bits(got.features, features)
        if variant == "mean":
            same_bits(got.weights, weights)
        else:
            np.testing.assert_allclose(got.weights, weights, rtol=1e-12, atol=0)
