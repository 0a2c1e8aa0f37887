import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcoupon import decision
from seqcoupon.domain import CouponConfig, CouponSet
from seqcoupon.errors import InputError
from seqcoupon.decision import (
    AllocationPlan,
    PlanTable,
    PolicyConstraint,
    allocate,
    allocate_batch,
    allocate_independent_batch,
    combine_cost,
    combine_propensity,
    materialize_plans,
    roi,
)
from seqcoupon.uplift import ItemPredictions

import oracles
from oracles import coupon_cost
from test_domain import make_item
from test_replaced_paths import random_menu

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


def independent_plan(preds, item, round1_set, round2_set, constraint):
    """``allocate_independent_batch`` on one item, priced by ``materialize_plans``."""
    p1, p2, p_baseline = np.array([preds.p1]), np.array([preds.p2]), np.array([preds.p_baseline])
    prices, ltvs = np.array([item.price_yen]), np.array([item.seller_ltv_yen])
    j, k, feasible = allocate_independent_batch(
        p1, p2, p_baseline, prices, ltvs, round1_set, round2_set, constraint
    )
    table = materialize_plans([item.item_id], j, k, feasible, p1, p2, p_baseline, prices, ltvs,
                              round1_set, round2_set, constraint)
    return plan_rows(table)[0]


class TestAllocateIndependent:
    def test_each_round_matches_greedy_oracle(self, round1_menu, round2_menu):
        gen = np.random.default_rng(31)
        for i in range(200):
            preds = random_preds(gen, f"it-{i}")
            price = int(gen.integers(300, 60000))
            ltv = int(gen.integers(1000, 300000))
            item = make_item(item_id=f"it-{i}", price_yen=price, seller_ltv_yen=ltv)
            plan = independent_plan(
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
            greedy = independent_plan(
                preds, item, round1_menu, round2_menu, PolicyConstraint()
            )
            if (joint.j_index, joint.k_index) != (greedy.j_index, greedy.k_index):
                divergent += 1
        assert divergent > 0


def plan_rows(table):
    """A ``PlanTable``'s rows as namespaces of plain Python values, one per plan."""
    names = [f.name for f in dataclasses.fields(table)]
    columns = [oracles.id_strs(c) if c.dtype.kind == "S" else c.tolist()
               for c in (getattr(table, name) for name in names)]
    names[names.index("item_ids")] = "item_id"  # AllocationPlan's name
    return [SimpleNamespace(**dict(zip(names, values))) for values in zip(*columns)]


def plans_of(table, round1_set, round2_set):
    """One ``AllocationPlan`` per ``PlanTable`` row, its coupons taken from the menus."""
    coupon_columns = {f"{r}_{c}" for r in "jk" for c in ("discount_pct", "validity_h", "cap")}
    return [
        AllocationPlan(round1_coupon=round1_set[row["j_index"]],
                       round2_coupon=round2_set[row["k_index"]],
                       **{name: v for name, v in row.items() if name not in coupon_columns})
        for row in map(vars, plan_rows(table))
    ]


def assert_rows_equal_scalar(table, p1, p2, p_baseline, prices, ltvs, r1, r2, constraint):
    """Each plan's economics equal the scalar algebra on its chosen cell, bit for bit."""
    for i, plan in enumerate(plan_rows(table)):
        a, b = float(p1[i, plan.j_index]), float(p2[i, plan.k_index])
        price, pb = int(prices[i]), float(p_baseline[i])
        ltv = constraint.ltv_override if constraint.ltv_override is not None else float(ltvs[i])
        pc = combine_propensity(a, b)
        cost = combine_cost(a, b, coupon_cost(r1[plan.j_index], price),
                            coupon_cost(r2[plan.k_index], price))
        assert (plan.p_round1, plan.p_round2, plan.p_combined, plan.p_baseline) == (a, b, pc, pb)
        assert (plan.lift, plan.expected_cost, plan.roi) == (pc - pb, cost, roi(pc, pb, ltv, cost))


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

    def test_each_arm_is_costed_once(self, batch_problem, round1_menu, round2_menu,
                                     monkeypatch):
        """One ``coupon_cost_rows`` call per arm of either menu, not one per cell."""
        calls = []
        real = decision.coupon_cost_rows
        monkeypatch.setattr(decision, "coupon_cost_rows",
                            lambda *args: calls.append(1) or real(*args))
        allocate_batch(*batch_problem, round1_menu, round2_menu, PolicyConstraint())
        assert len(calls) == len(round1_menu) + len(round2_menu) == 8

    def test_joint_batch_matches_scalar(self, batch_problem, round1_menu, round2_menu):
        p1, p2, p_baseline, prices, ltvs = batch_problem
        constraint = PolicyConstraint(lift_threshold=0.05)
        j, k, feasible = allocate_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        for i in range(len(prices)):
            preds = self.scalar_preds(i, p1, p2, p_baseline)
            assert oracles.brute_force_allocate(
                preds, int(prices[i]), int(ltvs[i]), round1_menu, round2_menu, 0.05
            ) == (int(j[i]), int(k[i]), bool(feasible[i]))

    def test_greedy_batch_matches_scalar(self, batch_problem, round1_menu, round2_menu):
        p1, p2, p_baseline, prices, ltvs = batch_problem
        constraint = PolicyConstraint(lift_threshold=0.05)
        j, k, feasible = allocate_independent_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        for i in range(len(prices)):
            price, ltv = int(prices[i]), int(ltvs[i])
            cost1 = [float(coupon_cost(c, price)) for c in round1_menu]
            cost2 = [float(coupon_cost(c, price)) for c in round2_menu]
            assert j[i] == oracles.brute_force_round_arm(p1[i], cost1, ltv, 0.05)
            assert k[i] == oracles.brute_force_round_arm(p2[i], cost2, ltv, 0.05)
            lift = combine_propensity(p1[i, j[i]], p2[i, k[i]]) - p_baseline[i]
            assert feasible[i] == (lift >= 0.05)

    def test_materialized_rows_equal_scalar_plans(self, batch_problem, round1_menu, round2_menu):
        p1, p2, p_baseline, prices, ltvs = batch_problem
        constraint = PolicyConstraint(lift_threshold=0.05, ltv_override=25_000.0)
        j, k, feasible = allocate_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        ids = [f"it-{i}" for i in range(len(prices))]
        rows = materialize_plans(
            ids, j, k, feasible, p1, p2, p_baseline, prices, ltvs,
            round1_menu, round2_menu, constraint,
        )
        assert [(r.item_id, r.j_index, r.k_index, r.feasible) for r in plan_rows(rows)] == list(
            zip(ids, j.tolist(), k.tolist(), feasible.tolist())
        )
        assert_rows_equal_scalar(
            rows, p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )

    def test_materialized_zero_cost_rows_equal_scalar_plans(self, batch_problem, round1_menu):
        # A free round-2 coupon: every (none, free) cell that lifts has ROI +inf.
        p1, p2, p_baseline, prices, ltvs = batch_problem
        round2 = CouponSet(
            arms=(CouponConfig.none(), CouponConfig(5, 48.0, 0), CouponConfig(10, 48.0, 2000),
                  CouponConfig(15, 48.0, 3000)),
            purpose="round2",
        )
        constraint = PolicyConstraint(lift_threshold=0.05)
        j, k, feasible = allocate_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2, constraint
        )
        rows = materialize_plans(
            [f"it-{i}" for i in range(len(prices))], j, k, feasible, p1, p2, p_baseline,
            prices, ltvs, round1_menu, round2, constraint,
        )
        assert any(r.roi == math.inf for r in plan_rows(rows))
        assert_rows_equal_scalar(
            rows, p1, p2, p_baseline, prices, ltvs, round1_menu, round2, constraint
        )

    def test_subnormal_rows_equal_scalar_cost(self, round1_menu, round2_menu):
        # combine_cost's weighted form below the smallest normal float differs
        # in the last bit from the plain quotient for these cells.
        tiny = 5e-324
        p1 = np.array([[0.0, 0.0, 0.0, 19 * tiny]])
        p2 = np.array([[0.0, 18 * tiny, 0.0, 0.0]])
        prices, ltvs = np.array([20_000]), np.array([50_000])
        rows = materialize_plans(
            ["it-0"], np.array([3]), np.array([1]), np.array([True]), p1, p2,
            np.array([0.0]), prices, ltvs, round1_menu, round2_menu, PolicyConstraint(),
        )
        assert plan_rows(rows)[0].expected_cost == combine_cost(19 * tiny, 18 * tiny, 3000, 1000)
        assert_rows_equal_scalar(
            rows, p1, p2, np.array([0.0]), prices, ltvs, round1_menu, round2_menu,
            PolicyConstraint(),
        )

    def test_mismatched_menus_rejected(self, batch_problem, round1_menu, round2_menu):
        p1, p2, p_baseline, prices, ltvs = batch_problem
        for allocator in (allocate_batch, allocate_independent_batch):
            for a, b in ((p1[:, :2], p2), (p1, p2[:, :3])):
                with pytest.raises(InputError, match="do not match the coupon menus"):
                    allocator(a, b, p_baseline, prices, ltvs, round1_menu, round2_menu,
                              PolicyConstraint())


class TestAllocatorMemory:
    def test_peak_does_not_grow_with_the_menus(self):
        """The (j, k) cells are scored one at a time: 36 cells need about the
        memory of 4, where a grid over every cell needs about 9 times as much."""
        n = 20_000
        gen = np.random.default_rng(3)
        p_baseline = gen.uniform(0.0, 0.3, n)
        prices, ltvs = gen.integers(300, 60_000, n), gen.integers(1_000, 300_000, n)
        peaks = {}
        for size in (2, 6):
            p1, p2 = gen.uniform(0.0, 0.6, (n, size)), gen.uniform(0.0, 0.6, (n, size))
            menus = random_menu(gen, "round1", 72.0, size), random_menu(gen, "round2", 48.0, size)
            tracemalloc.start()
            try:
                allocate_batch(p1, p2, p_baseline, prices, ltvs, *menus, PolicyConstraint())
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] < 1.5 * peaks[2], peaks


def valid_plan(round1_menu, round2_menu) -> dict:
    return dict(
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


def plan_table(plan: dict, n: int = 1) -> PlanTable:
    """A ``PlanTable`` of ``n`` rows, each the plan ``plan`` describes."""
    plan = dict(plan)
    for r, coupon in (("j", plan.pop("round1_coupon")), ("k", plan.pop("round2_coupon"))):
        plan.update({f"{r}_discount_pct": coupon.discount_pct,
                     f"{r}_validity_h": coupon.validity_hours, f"{r}_cap": coupon.cap_yen})
    item_id = plan.pop("item_id")
    return PlanTable(item_ids=(item_id,) * n,
                     **{name: np.array([value] * n) for name, value in plan.items()})


class TestPlanAndConstraintValidation:
    def test_inconsistent_plan_rejected(self, round1_menu, round2_menu):
        base = valid_plan(round1_menu, round2_menu)
        plan_table(base)
        for change in ({"p_combined": 0.9, "lift": 0.5}, {"lift": 0.0}, {"expected_cost": -5.0}):
            with pytest.raises(InputError):
                plan_table({**base, **change})

    def test_constraint_validation(self):
        with pytest.raises(InputError):
            PolicyConstraint(lift_threshold=1.0)
        with pytest.raises(InputError):
            PolicyConstraint(lift_threshold=-0.1)
        for ltv in (0.0, math.nan, math.inf):
            with pytest.raises(InputError, match="ltv_override must be positive and finite"):
                PolicyConstraint(ltv_override=ltv)
        assert PolicyConstraint(lift_threshold=0.0).lift_threshold == 0.0


class TestPlanTable:
    @pytest.fixture
    def table(self, round1_menu, round2_menu):
        return plan_table(valid_plan(round1_menu, round2_menu), 2)

    @pytest.mark.parametrize("change,message", [
        ({"p_combined": 0.9, "lift": 0.5},
         "p_combined inconsistent with the two per-round propensities"),
        ({"lift": 0.0}, "lift inconsistent with p_combined - p_baseline"),
        ({"expected_cost": -5.0}, "expected_cost must be >= 0"),
        ({"p_round2": 1.5}, "p_round2 must lie in [0, 1], got 1.5"),
        ({"p_baseline": math.nan}, "p_baseline must lie in [0, 1], got nan"),
    ])
    def test_column_checks_give_the_plan_messages(self, table, round1_menu, round2_menu,
                                                   change, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            plan_table({**valid_plan(round1_menu, round2_menu), **change})
        # The second row is bad; the table names the same fault as the one-row table.
        bad = {name: np.array([getattr(table, name)[0], value]) for name, value in change.items()}
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(table, **bad)

    def test_columns_must_align(self, table):
        assert len(table) == 2
        with pytest.raises(InputError, match=r"one entry per id \(2\)"):
            dataclasses.replace(table, roi=np.ones(3))

    def test_allocate_gives_the_rows_of_the_materialized_table(self, round1_menu, round2_menu):
        gen = np.random.default_rng(4)
        n = 50
        p1, p2 = gen.uniform(0.05, 0.9, (n, 4)), gen.uniform(0.05, 0.9, (n, 4))
        p_baseline = gen.uniform(0.05, 0.9, n)
        prices, ltvs = gen.integers(300, 60000, n), gen.integers(1000, 300000, n)
        constraint = PolicyConstraint(lift_threshold=0.05)
        j, k, feasible = allocate_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        table = materialize_plans(
            [f"it-{i}" for i in range(n)], j, k, feasible, p1, p2, p_baseline, prices, ltvs,
            round1_menu, round2_menu, constraint, 3.5,
        )
        one_row = [
            allocate(preds_of(f"it-{i}", p1[i], p2[i], float(p_baseline[i])),
                     make_item(item_id=f"it-{i}", price_yen=int(prices[i]),
                               seller_ltv_yen=int(ltvs[i])),
                     round1_menu, round2_menu, constraint, 3.5)
            for i in range(n)
        ]
        assert one_row == plans_of(table, round1_menu, round2_menu)
