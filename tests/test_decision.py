import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcoupon.domain import CouponConfig, CouponSet, coupon_cost
from seqcoupon.errors import ContractError, InputError
from seqcoupon.decision import (
    AllocationPlan,
    PolicyConstraint,
    allocate,
    allocate_batch,
    allocate_independent,
    allocate_independent_batch,
    combine_cost,
    combine_propensity,
    materialize_plans,
    replan,
    roi,
)
from seqcoupon.uplift import ItemPredictions, predict_item

import oracles
from test_domain import make_item

probability = st.floats(0.0, 1.0, allow_nan=False)


def preds_of(item_id, p1, p2, p_baseline):
    return ItemPredictions(
        item_id=item_id,
        p1=tuple(p1),
        mean_p1=sum(p1) / len(p1),
        p2=tuple(p2),
        p_baseline=p_baseline,
    )


def random_preds(gen, item_id, n_arms=4):
    p1 = tuple(gen.uniform(0.05, 0.9, n_arms))
    p2 = tuple(gen.uniform(0.05, 0.9, n_arms))
    return preds_of(item_id, p1, p2, float(gen.uniform(0.05, 0.9)))


class TestCombinePropensity:
    def test_worked_example(self):
        assert combine_propensity(0.3, 0.5) == pytest.approx(0.65, abs=1e-12)

    def test_boundaries(self):
        assert combine_propensity(0.0, 0.0) == 0.0
        assert combine_propensity(1.0, 0.3) == 1.0
        assert combine_propensity(0.0, 0.7) == 0.7

    @given(p=probability)
    @settings(max_examples=100, deadline=None)
    def test_equal_rounds_collapse_to_complement_square(self, p):
        assert combine_propensity(p, p) == pytest.approx(1 - (1 - p) ** 2, abs=1e-12)

    @given(p1=probability, p2=probability)
    @settings(max_examples=200, deadline=None)
    def test_range_and_monotonicity(self, p1, p2):
        pc = combine_propensity(p1, p2)
        assert 0.0 <= pc <= 1.0
        assert pc >= p1 - 1e-15 and pc >= p2 * (1 - p1) - 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            combine_propensity(1.2, 0.5)
        with pytest.raises(InputError):
            combine_propensity(0.5, -0.1)


class TestCombineCost:
    def test_worked_example(self):
        assert combine_cost(0.5, 0.5, 100.0, 200.0) == pytest.approx(400 / 3, rel=1e-12)

    def test_equal_costs_pass_through(self):
        assert combine_cost(0.3, 0.6, 150.0, 150.0) == pytest.approx(150.0, rel=1e-12)

    def test_round1_never_fires(self):
        assert combine_cost(0.0, 0.4, 100.0, 250.0) == pytest.approx(250.0, rel=1e-12)

    def test_no_sale_path_returns_zero(self):
        assert combine_cost(0.0, 0.0, 100.0, 200.0) == 0.0

    def test_rejects_negative_cost(self):
        with pytest.raises(InputError):
            combine_cost(0.5, 0.5, -1.0, 0.0)

    @given(p1=probability, p2=probability, cj=st.floats(0, 3000), ck=st.floats(0, 3000))
    @example(p1=5e-324, p2=0.0, cj=1.5, ck=0.0)
    @example(p1=0.0, p2=5e-324, cj=0.0, ck=1.5)
    @settings(max_examples=200, deadline=None)
    def test_cost_bounded_by_the_dearer_coupon(self, p1, p2, cj, ck):
        cost = combine_cost(p1, p2, cj, ck)
        assert 0.0 <= cost <= max(cj, ck) + 1e-9


class TestRoi:
    def test_worked_example(self):
        assert roi(0.65, 0.25, 5000.0, 200.0) == pytest.approx(10.0, rel=1e-12)

    def test_zero_cost_positive_lift_is_infinite(self):
        assert roi(0.5, 0.2, 1000.0, 0.0) == math.inf

    def test_zero_cost_zero_lift_scores_zero(self):
        assert roi(0.4, 0.4, 1000.0, 0.0) == 0.0

    def test_negative_lift_scores_negative(self):
        assert roi(0.2, 0.5, 1000.0, 100.0) < 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            roi(0.5, 0.2, 0.0, 100.0)
        with pytest.raises(InputError):
            roi(0.5, 0.2, 1000.0, -1.0)
        with pytest.raises(InputError):
            roi(1.5, 0.2, 1000.0, 100.0)


class TestAllocate:
    def test_free_certain_lift_dominates(self, round1_menu, round2_menu):
        # The (none, k) cell with p2[k] = 0 costs nothing yet lifts over the
        # baseline, so its infinite ROI must win.
        preds = preds_of(
            "it-free", (0.5, 0.6, 0.7, 0.8), (0.0, 0.0, 0.3, 0.4), 0.4
        )
        item = make_item(item_id="it-free", price_yen=50_000)
        plan = allocate(preds, item, round1_menu, round2_menu, PolicyConstraint())
        assert (plan.j_index, plan.k_index) == (0, 1)
        assert plan.roi == math.inf and plan.feasible
        assert plan.expected_cost == 0.0

    def test_unreachable_threshold_returns_max_lift_infeasible(self, round1_menu, round2_menu):
        gen = np.random.default_rng(14)
        constraint = PolicyConstraint(lift_threshold=0.99)
        for i in range(20):
            preds = random_preds(gen, f"it-{i}")
            item = make_item(item_id=f"it-{i}", price_yen=int(gen.integers(500, 40000)))
            plan = allocate(preds, item, round1_menu, round2_menu, constraint)
            oj, ok, ofeas = oracles.brute_force_allocate(
                preds, item.price_yen, item.seller_ltv_yen, round1_menu, round2_menu, 0.99
            )
            assert not plan.feasible and not ofeas
            assert (plan.j_index, plan.k_index) == (oj, ok)

    def test_agrees_with_brute_force(self, round1_menu, round2_menu):
        gen = np.random.default_rng(77)
        constraint = PolicyConstraint(lift_threshold=0.05)
        for i in range(300):
            preds = random_preds(gen, f"it-{i}")
            item = make_item(
                item_id=f"it-{i}",
                price_yen=int(gen.integers(300, 60000)),
                seller_ltv_yen=int(gen.integers(1000, 300000)),
            )
            plan = allocate(preds, item, round1_menu, round2_menu, constraint)
            oj, ok, ofeas = oracles.brute_force_allocate(
                preds, item.price_yen, item.seller_ltv_yen,
                round1_menu, round2_menu, 0.05,
            )
            assert (plan.j_index, plan.k_index, plan.feasible) == (oj, ok, ofeas)

    def test_exact_roi_tie_falls_to_lower_arm_index(self):
        # Two round-2 arms price out to the same capped cost; with identical
        # propensities the tie must break toward the smaller index.
        round1 = CouponSet(
            arms=(CouponConfig.none(), CouponConfig(5, 72.0, 1000)), purpose="round1"
        )
        round2 = CouponSet(
            arms=(
                CouponConfig.none(),
                CouponConfig(5, 48.0, 100),
                CouponConfig(10, 48.0, 100),
            ),
            purpose="round2",
        )
        preds = preds_of("it-tie", (0.3, 0.5), (0.2, 0.4, 0.4), 0.3)
        item = make_item(item_id="it-tie", price_yen=5000)
        assert coupon_cost(round2[1], 5000) == coupon_cost(round2[2], 5000)
        plan = allocate(preds, item, round1, round2, PolicyConstraint())
        oj, ok, _ = oracles.brute_force_allocate(
            preds, 5000, item.seller_ltv_yen, round1, round2, 0.01
        )
        assert (plan.j_index, plan.k_index) == (oj, ok)
        assert plan.k_index in (1, 2)
        # identical economics for both arms, so the winner must be arm 1
        assert plan.k_index == 1

    def test_ltv_scale_invariance(self, round1_menu, round2_menu):
        gen = np.random.default_rng(21)
        for i in range(50):
            preds = random_preds(gen, f"it-{i}")
            item = make_item(item_id=f"it-{i}", price_yen=int(gen.integers(2000, 50000)))
            small = allocate(
                preds, item, round1_menu, round2_menu,
                PolicyConstraint(lift_threshold=0.05, ltv_override=4000.0),
            )
            large = allocate(
                preds, item, round1_menu, round2_menu,
                PolicyConstraint(lift_threshold=0.05, ltv_override=4_000_000.0),
            )
            assert (small.j_index, small.k_index) == (large.j_index, large.k_index)

    def test_menu_length_mismatch_rejected(self, round1_menu, round2_menu):
        preds = preds_of("it-x", (0.2, 0.3), (0.1, 0.2, 0.3, 0.4), 0.2)
        with pytest.raises(InputError):
            allocate(preds, make_item(item_id="it-x"), round1_menu, round2_menu, PolicyConstraint())


class TestAllocateIndependent:
    def test_each_round_matches_greedy_oracle(self, round1_menu, round2_menu):
        gen = np.random.default_rng(31)
        for i in range(200):
            preds = random_preds(gen, f"it-{i}")
            price = int(gen.integers(300, 60000))
            ltv = int(gen.integers(1000, 300000))
            item = make_item(item_id=f"it-{i}", price_yen=price, seller_ltv_yen=ltv)
            plan = allocate_independent(
                preds, item, round1_menu, round2_menu, PolicyConstraint(lift_threshold=0.05)
            )
            cost1 = [float(coupon_cost(c, price)) for c in round1_menu]
            cost2 = [float(coupon_cost(c, price)) for c in round2_menu]
            assert plan.j_index == oracles.brute_force_round_arm(preds.p1, cost1, ltv, 0.05)
            assert plan.k_index == oracles.brute_force_round_arm(preds.p2, cost2, ltv, 0.05)
            expected_feasible = plan.lift >= 0.05
            assert plan.feasible == expected_feasible

    def test_diverges_from_joint_allocation_sometimes(self, round1_menu, round2_menu):
        gen = np.random.default_rng(99)
        divergent = 0
        for i in range(200):
            preds = random_preds(gen, f"it-{i}")
            item = make_item(item_id=f"it-{i}", price_yen=int(gen.integers(300, 60000)))
            joint = allocate(preds, item, round1_menu, round2_menu, PolicyConstraint())
            greedy = allocate_independent(
                preds, item, round1_menu, round2_menu, PolicyConstraint()
            )
            if (joint.j_index, joint.k_index) != (greedy.j_index, greedy.k_index):
                divergent += 1
        assert divergent > 0


class TestBatchAllocators:
    @pytest.fixture()
    def batch_problem(self, round1_menu, round2_menu):
        gen = np.random.default_rng(8)
        n = 300
        p1 = gen.uniform(0.05, 0.9, (n, len(round1_menu)))
        p2 = gen.uniform(0.05, 0.9, (n, len(round2_menu)))
        p_baseline = gen.uniform(0.05, 0.9, n)
        prices = gen.integers(300, 60000, n)
        ltvs = gen.integers(1000, 300000, n)
        return p1, p2, p_baseline, prices, ltvs

    def scalar_preds(self, i, p1, p2, p_baseline):
        return preds_of(f"it-{i}", tuple(p1[i]), tuple(p2[i]), float(p_baseline[i]))

    def test_joint_batch_matches_scalar(self, batch_problem, round1_menu, round2_menu):
        p1, p2, p_baseline, prices, ltvs = batch_problem
        constraint = PolicyConstraint(lift_threshold=0.05)
        j, k, feasible = allocate_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        for i in range(len(prices)):
            preds = self.scalar_preds(i, p1, p2, p_baseline)
            item = make_item(
                item_id=f"it-{i}", price_yen=int(prices[i]), seller_ltv_yen=int(ltvs[i])
            )
            plan = allocate(preds, item, round1_menu, round2_menu, constraint)
            assert (plan.j_index, plan.k_index, plan.feasible) == (
                int(j[i]), int(k[i]), bool(feasible[i]),
            )

    def test_greedy_batch_matches_scalar(self, batch_problem, round1_menu, round2_menu):
        p1, p2, p_baseline, prices, ltvs = batch_problem
        constraint = PolicyConstraint(lift_threshold=0.05)
        j, k, feasible = allocate_independent_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        for i in range(len(prices)):
            preds = self.scalar_preds(i, p1, p2, p_baseline)
            item = make_item(
                item_id=f"it-{i}", price_yen=int(prices[i]), seller_ltv_yen=int(ltvs[i])
            )
            plan = allocate_independent(preds, item, round1_menu, round2_menu, constraint)
            assert (plan.j_index, plan.k_index, plan.feasible) == (
                int(j[i]), int(k[i]), bool(feasible[i]),
            )

    def test_materialized_rows_equal_scalar_plans(self, batch_problem, round1_menu, round2_menu):
        p1, p2, p_baseline, prices, ltvs = batch_problem
        constraint = PolicyConstraint(lift_threshold=0.05)
        j, k, feasible = allocate_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        ids = [f"it-{i}" for i in range(len(prices))]
        rows = materialize_plans(
            ids, j, k, feasible, p1, p2, p_baseline, prices, ltvs,
            round1_menu, round2_menu, constraint,
        )
        for i in (0, 17, 101, 299):
            preds = self.scalar_preds(i, p1, p2, p_baseline)
            item = make_item(
                item_id=f"it-{i}", price_yen=int(prices[i]), seller_ltv_yen=int(ltvs[i])
            )
            assert rows[i] == allocate(preds, item, round1_menu, round2_menu, constraint)


class TestReplan:
    def test_matches_fresh_allocation(self, trained_pair, small_world):
        item = next(
            it for it in small_world["items"] if it.item_id == small_world["survivors"][0]
        )
        history = [r for r in small_world["log1"] if r.item_id == item.item_id]
        constraint = PolicyConstraint()
        plan = replan(item, history, trained_pair, constraint)
        preds = predict_item(trained_pair, item, 2.0)
        assert plan == allocate(
            preds, item, trained_pair.round1_set, trained_pair.round2_set, constraint
        )

    def test_sold_item_refused(self, trained_pair, small_world):
        sold_rec = next(r for r in small_world["log1"] if r.sold)
        item = next(it for it in small_world["items"] if it.item_id == sold_rec.item_id)
        with pytest.raises(ContractError):
            replan(item, [sold_rec], trained_pair, PolicyConstraint())

    def test_foreign_history_refused(self, trained_pair, small_world):
        item = small_world["items"][0]
        foreign = [r for r in small_world["log1"] if r.item_id != item.item_id][:1]
        with pytest.raises(InputError):
            replan(item, foreign, trained_pair, PolicyConstraint())


class TestPlanAndConstraintValidation:
    def test_inconsistent_plan_rejected(self, round1_menu, round2_menu):
        base = dict(
            item_id="it-1",
            j_index=1,
            k_index=1,
            round1_coupon=round1_menu[1],
            round2_coupon=round2_menu[1],
            attach_delay_h=2.0,
            p_round1=0.3,
            p_round2=0.5,
            p_combined=combine_propensity(0.3, 0.5),
            p_baseline=0.4,
            lift=combine_propensity(0.3, 0.5) - 0.4,
            expected_cost=100.0,
            roi=1.0,
            feasible=True,
        )
        AllocationPlan(**base)
        with pytest.raises(InputError):
            AllocationPlan(**{**base, "p_combined": 0.9, "lift": 0.5})
        with pytest.raises(InputError):
            AllocationPlan(**{**base, "lift": 0.0})
        with pytest.raises(InputError):
            AllocationPlan(**{**base, "expected_cost": -5.0})

    def test_constraint_validation(self):
        with pytest.raises(InputError):
            PolicyConstraint(lift_threshold=1.0)
        with pytest.raises(InputError):
            PolicyConstraint(lift_threshold=-0.1)
        with pytest.raises(InputError):
            PolicyConstraint(ltv_override=0.0)
        assert PolicyConstraint(lift_threshold=0.0).lift_threshold == 0.0
