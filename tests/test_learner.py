import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcoupon import learner, rng
from seqcoupon.errors import DegenerateDataError, InputError, SchemaMismatchError
from seqcoupon.learner import (
    Dataset,
    KIND_BOOSTED,
    KIND_LOGISTIC,
    LearnerConfig,
    Model,
    PROB_CLAMP,
    decision_scores,
    fold_order,
    grid_search,
    predict_matrix,
    train,
    weighted_log_loss,
)
from seqcoupon.uplift import fit_first_round, fit_second_round

import oracles


def synthetic_dataset(seed: int = 2024, n: int = 400) -> tuple[Dataset, np.ndarray]:
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 3))
    logits = 0.8 * X[:, 0] - 0.5 * X[:, 1] + 0.2
    y = gen.uniform(size=n) < 1 / (1 + np.exp(-logits))
    return Dataset(X, y), np.array([[0.25, -1.0, 2.0]])


def affine_readout(model: Model, d: int) -> tuple[np.ndarray, float]:
    """(coefficients, intercept) of the affine map through ``decision_scores``
    at the origin and at each unit vector; raw-scale logistic coefficients."""
    scores = decision_scores(model, np.vstack([np.zeros(d), np.eye(d)]))
    return scores[1:] - scores[0], float(scores[0])


def gradient_descent_reference(data: Dataset, l2: float, epochs: int) -> Model:
    """Full-batch gradient descent at step 1.0 on the objective ``train`` minimises."""
    mean, scale = learner._standardise_constants(data.features, data.weights)
    Xs = (data.features - mean) / scale
    w_norm = data.weights / data.weights.sum()
    coef, intercept = np.zeros(Xs.shape[1]), 0.0
    for _ in range(epochs):
        resid = w_norm * (learner._sigmoid(Xs @ coef + intercept) - data.labels)
        coef = coef - (Xs.T @ resid + l2 * coef)
        intercept = intercept - resid.sum()
    return Model(
        kind=KIND_LOGISTIC,
        schema_id=data.schema_id,
        feature_mean=mean,
        feature_scale=scale,
        intercept=intercept,
        coef=coef,
    )


class TestDatasetValidation:
    def test_rejects_non_finite_features(self):
        with pytest.raises(InputError):
            Dataset(np.array([[1.0], [np.inf]]), np.array([True, False]))

    def test_rejects_non_positive_weights(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 1)), np.array([True, False]), np.array([1.0, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((3, 1)), np.array([True, False]))

    def test_rejects_one_dimensional_features(self):
        with pytest.raises(InputError):
            Dataset(np.zeros(3), np.array([True, False, True]))


class TestSigmoid:
    """The branch-free sigmoid gives the bits of the masked form it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=50))
    @example([0.0, -0.0])
    @example([math.inf, -math.inf])
    @example([745.0, -745.0])
    @example([-710.0, -730.5, -744.9])  # subnormal results
    def test_equals_the_masked_form_bit_for_bit(self, values):
        z = np.array(values, dtype=float)
        got, want = learner._sigmoid(z), oracles._sigmoid(z)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_subnormal_examples_are_subnormal(self):
        p = learner._sigmoid(np.array([-710.0, -730.5, -744.9]))
        assert np.all((0.0 < p) & (p < np.finfo(float).tiny))


class TestLearnerConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(InputError):
            LearnerConfig(kind="forest")

    def test_positive_learning_rate(self):
        with pytest.raises(InputError):
            LearnerConfig(learning_rate=0.0)

    def test_epoch_and_stump_floors(self):
        with pytest.raises(InputError):
            LearnerConfig(epochs=0)
        with pytest.raises(InputError):
            LearnerConfig(max_stumps=0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
    def test_epochs_and_stumps_are_ints(self, bad):
        # A boosted fit would die in ``range`` on 2.5 (a TypeError), and True ran as 1.
        with pytest.raises(InputError, match=f"epochs must be an int, got {bad!r}"):
            LearnerConfig(epochs=bad)
        with pytest.raises(InputError, match=f"max_stumps must be an int, got {bad!r}"):
            LearnerConfig(max_stumps=bad)


class TestLogistic:
    def test_constant_features_learn_the_base_rate(self):
        X = np.zeros((200, 2))
        y = np.array([True] * 50 + [False] * 150)
        model = train(Dataset(X, y), LearnerConfig(learning_rate=1.0, epochs=2000))
        preds = predict_matrix(model, X)
        np.testing.assert_allclose(preds, 0.25, rtol=0, atol=1e-6)

    def test_balanced_constant_data_predicts_half_exactly(self):
        X = np.zeros((10, 1))
        y = np.array([True, False] * 5)
        model = train(Dataset(X, y), LearnerConfig(epochs=50))
        assert np.all(predict_matrix(model, X) == 0.5)

    def test_separable_data_classified_perfectly(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]] * 10)
        y = np.array([False, False, True, True] * 10)
        model = train(Dataset(X, y), LearnerConfig(learning_rate=1.0, epochs=500))
        preds = predict_matrix(model, X)
        assert np.array_equal(preds > 0.5, y)

    def test_recovers_generating_coefficients(self):
        gen = np.random.default_rng(7)
        n = 10_000
        X = gen.normal(size=(n, 2))
        true_coef = np.array([1.0, -0.5])
        true_intercept = 0.3
        p = 1 / (1 + np.exp(-(X @ true_coef + true_intercept)))
        y = gen.uniform(size=n) < p
        model = train(
            Dataset(X, y), LearnerConfig(learning_rate=1.0, l2=0.0, epochs=2000)
        )
        raw, intercept = affine_readout(model, 2)
        np.testing.assert_allclose(raw, true_coef, rtol=0, atol=0.1)
        assert abs(intercept - true_intercept) < 0.1

    def test_zero_coefficients_predict_half(self):
        model = Model(
            kind=KIND_LOGISTIC,
            schema_id="adhoc/3",
            feature_mean=np.zeros(3),
            feature_scale=np.ones(3),
            intercept=0.0,
            coef=np.zeros(3),
        )
        X = np.random.default_rng(0).normal(size=(20, 3))
        assert np.all(predict_matrix(model, X) == 0.5)

    def test_single_class_refused(self):
        X = np.random.default_rng(1).normal(size=(30, 2))
        with pytest.raises(DegenerateDataError):
            train(Dataset(X, np.ones(30, dtype=bool)), LearnerConfig())

    def test_constant_column_under_weights_standardises_to_zero(self):
        gen = np.random.default_rng(12)
        n = 300
        X = np.column_stack([gen.normal(size=n), np.full(n, math.log(72.0))])
        y = gen.uniform(size=n) < 1 / (1 + np.exp(-X[:, 0]))
        weights = 1.0 / gen.uniform(0.05, 1.0, size=n)  # IPW-like
        model = train(Dataset(X, y, weights), LearnerConfig(learning_rate=1.0, epochs=100))
        assert model.feature_mean[1] == math.log(72.0)
        assert model.feature_scale[1] == 1.0
        assert model.coef[1] == 0.0
        off_constant = X.copy()
        off_constant[:, 1] = math.log(48.0)
        np.testing.assert_array_equal(
            predict_matrix(model, off_constant), predict_matrix(model, X)
        )

    def test_raw_coefficients_only_for_logistic(self):
        data, _ = synthetic_dataset(n=80)
        d = data.features.shape[1]
        logistic = train(data, LearnerConfig(learning_rate=1.0, epochs=50))
        boosted = train(data, LearnerConfig(kind=KIND_BOOSTED, max_stumps=2))

        def affine_scores(model):
            raw, intercept = affine_readout(model, d)
            return data.features @ raw + intercept

        np.testing.assert_allclose(
            affine_scores(logistic), decision_scores(logistic, data.features), rtol=0, atol=1e-9
        )
        assert not np.allclose(affine_scores(boosted), decision_scores(boosted, data.features))


class TestNewtonSolver:
    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_matches_long_gradient_descent(self, l2):
        data, probe = synthetic_dataset()
        reference = gradient_descent_reference(data, l2, epochs=3000)
        model = train(data, LearnerConfig(learning_rate=1.0, l2=l2, epochs=100))
        for X in (data.features, probe):
            np.testing.assert_allclose(
                predict_matrix(model, X), predict_matrix(reference, X), rtol=0, atol=1e-6
            )
        assert model.iterations < 10 and model.grad_norm < learner.GRAD_TOL

    def test_duplicated_column_gets_the_minimum_norm_split(self):
        data, probe = synthetic_dataset()
        config = LearnerConfig(learning_rate=1.0, epochs=100)
        single = train(data, config)
        widened = Dataset(np.column_stack([data.features, data.features[:, 0]]), data.labels)
        doubled = train(widened, config)
        assert doubled.coef[0] == doubled.coef[3]
        assert doubled.coef[0] == pytest.approx(single.coef[0] / 2, rel=1e-12)
        for X in (data.features, probe):
            np.testing.assert_allclose(
                predict_matrix(doubled, np.column_stack([X, X[:, 0]])),
                predict_matrix(single, X),
                rtol=0,
                atol=1e-12,
            )

    def test_ipw_weighted_survivors_converge(self, small_world, round1_menu):
        config = LearnerConfig(learning_rate=1.0, epochs=1500)
        first = fit_first_round(small_world["items"], small_world["log1"], config)
        second = fit_second_round(
            small_world["items"], small_world["log1"], small_world["log2"],
            first, round1_menu, config,
        )
        for model in (first, second):
            assert model.iterations <= 10
            assert model.grad_norm < 1e-10

    def test_unreachable_tolerance_stops_at_the_rounding_floor(self, monkeypatch):
        monkeypatch.setattr(learner, "GRAD_TOL", 0.0)
        data, _ = synthetic_dataset()
        model = train(data, LearnerConfig(learning_rate=1.0, epochs=1500))
        assert model.iterations < 20

    @pytest.mark.parametrize("step_scale", [1.0, 0.5])
    def test_one_epoch_is_one_scaled_newton_step(self, step_scale):
        data, _ = synthetic_dataset()
        model = train(data, LearnerConfig(learning_rate=step_scale, epochs=1))
        assert model.iterations == 1
        # At zero coefficients every p is 1/2: g = Zᵀ w (1/2 - y), H = Zᵀ W Z / 4
        # with Z the standardised design widened by an intercept column.
        Z = np.column_stack([
            (data.features - model.feature_mean) / model.feature_scale,
            np.ones(len(data)),
        ])
        w = data.weights / data.weights.sum()
        grad = Z.T @ (w * (0.5 - data.labels))
        hess = Z.T @ (Z * (w / 4)[:, None])
        expected = -step_scale * np.linalg.solve(hess, grad)
        np.testing.assert_allclose(model.coef, expected[:-1], rtol=1e-10, atol=0)
        assert model.intercept == pytest.approx(expected[-1], rel=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), rank=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_one_factorisation_gives_the_bits_of_two(self, seed, d, rank):
        # A = Bᵀ B is PSD of rank min(rank, d); b = A v lies in its range, as a gradient does.
        gen = np.random.default_rng(seed)
        B = gen.standard_normal((min(rank, d), d)) * gen.uniform(1e-3, 1e3, d)
        A = B.T @ B
        b = A @ gen.standard_normal(d)
        got = learner._min_norm_solve(A, b)
        assert got.tobytes() == oracles.min_norm_solve_factoring_twice(A, b).tobytes()

    def test_singular_cap_ky_hessian_is_solved_with_the_bits_of_two_factorisations(
            self, small_world, monkeypatch):
        solved = []
        real = learner._min_norm_solve
        monkeypatch.setattr(learner, "_min_norm_solve",
                            lambda A, b: solved.append((A, b, real(A, b))) or solved[-1][2])
        fit_first_round(small_world["items"], small_world["log1"],
                        LearnerConfig(learning_rate=1.0, epochs=1500))
        # cap_ky is discount_pct / 5 under the standard menu, so every Hessian is singular.
        assert solved and all(np.linalg.matrix_rank(A) < len(A) for A, _, _ in solved)
        for A, b, step in solved:
            assert step.tobytes() == oracles.min_norm_solve_factoring_twice(A, b).tobytes()


class TestDeterminismAndWeights:
    def test_retrain_bitwise_identical(self):
        data, _ = synthetic_dataset()
        for config in (
            LearnerConfig(learning_rate=1.0, epochs=200),
            LearnerConfig(kind=KIND_BOOSTED, learning_rate=0.3, max_stumps=15),
        ):
            a = train(data, config)
            b = train(data, config)
            assert a.intercept == b.intercept
            if config.kind == KIND_LOGISTIC:
                assert np.array_equal(a.coef, b.coef)
            else:
                assert a.stumps == b.stumps

    def test_row_order_barely_matters(self):
        data, probe = synthetic_dataset(n=500)
        perm = np.random.default_rng(5).permutation(len(data))
        shuffled = Dataset(data.features[perm], data.labels[perm])
        config = LearnerConfig(learning_rate=1.0, epochs=200)
        p_a = predict_matrix(train(data, config), probe)
        p_b = predict_matrix(train(shuffled, config), probe)
        np.testing.assert_allclose(p_a, p_b, rtol=0, atol=1e-9)

    def test_integer_weights_equal_duplication(self):
        gen = np.random.default_rng(11)
        X = gen.normal(size=(60, 2))
        y = gen.uniform(size=60) < 0.4
        counts = gen.integers(1, 4, size=60)
        weighted = Dataset(X, y, counts.astype(float))
        duplicated = Dataset(np.repeat(X, counts, axis=0), np.repeat(y, counts))
        config = LearnerConfig(learning_rate=1.0, epochs=300)
        m_w = train(weighted, config)
        m_d = train(duplicated, config)
        np.testing.assert_allclose(m_w.coef, m_d.coef, rtol=0, atol=1e-8)
        assert abs(m_w.intercept - m_d.intercept) < 1e-8
        assert abs(
            weighted_log_loss(m_w, weighted) - weighted_log_loss(m_d, duplicated)
        ) < 1e-8

    def test_frozen_regression_values(self):
        data, probe = synthetic_dataset()
        m_log = train(data, LearnerConfig(learning_rate=1.0, epochs=500))
        m_boost = train(
            data, LearnerConfig(kind=KIND_BOOSTED, learning_rate=0.3, max_stumps=25)
        )
        assert float(predict_matrix(m_log, probe)[0]) == pytest.approx(
            0.7164594841307209, rel=1e-12
        )
        assert float(predict_matrix(m_boost, probe)[0]) == pytest.approx(
            0.5869413389834287, rel=1e-12
        )


class TestTrainWritesOnlyWhenHandedTheData:
    CONFIGS = (LearnerConfig(learning_rate=1.0, epochs=50),
               LearnerConfig(kind=KIND_BOOSTED, max_stumps=10))

    @pytest.mark.parametrize("config", CONFIGS, ids=["logistic", "boosted"])
    def test_a_copying_fit_leaves_the_features_unchanged(self, config):
        data, _ = synthetic_dataset()
        before = data.features.copy()
        train(data, config)
        assert np.array_equal(data.features.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("in_place", [False, True])
    def test_a_refused_fit_writes_nothing(self, in_place):
        data = Dataset(np.random.default_rng(1).normal(size=(50, 3)), np.ones(50, dtype=bool))
        before = data.features.copy()
        with pytest.raises(DegenerateDataError):
            train(data, LearnerConfig(), in_place=in_place)
        assert np.array_equal(data.features.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("config", CONFIGS, ids=["logistic", "boosted"])
    def test_in_place_fits_the_same_model_on_the_standardised_features(self, config):
        data, _ = synthetic_dataset()
        raw = data.features.copy()
        want = train(data, config)
        got = train(data, config, in_place=True)
        assert (got.intercept, got.stumps) == (want.intercept, want.stumps)
        for field in ("coef", "feature_mean", "feature_scale")[config.kind == KIND_BOOSTED:]:
            a, b = getattr(got, field), getattr(want, field)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), field
        standardised = (raw - want.feature_mean) / want.feature_scale
        assert np.array_equal(data.features.view(np.int64), standardised.view(np.int64))


class TestBoosted:
    def test_training_loss_non_increasing_in_ensemble_size(self):
        data, _ = synthetic_dataset(seed=3, n=300)
        model = train(
            data, LearnerConfig(kind=KIND_BOOSTED, learning_rate=0.3, max_stumps=30)
        )
        losses = []
        for k in range(len(model.stumps) + 1):
            truncated = Model(
                kind=KIND_BOOSTED,
                schema_id=model.schema_id,
                feature_mean=model.feature_mean,
                feature_scale=model.feature_scale,
                intercept=model.intercept,
                stumps=model.stumps[:k],
            )
            losses.append(weighted_log_loss(truncated, data))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_single_class_falls_back_to_clamped_prior(self):
        X = np.random.default_rng(2).normal(size=(25, 2))
        model = train(
            Dataset(X, np.ones(25, dtype=bool)),
            LearnerConfig(kind=KIND_BOOSTED, max_stumps=10),
        )
        assert model.stumps == ()
        np.testing.assert_allclose(
            predict_matrix(model, X), 1.0 - PROB_CLAMP, rtol=0, atol=1e-12
        )

    def test_predictions_clamped(self):
        X = np.array([[0.0]] * 50 + [[1.0]] * 50)
        y = np.array([False] * 50 + [True] * 50)
        model = train(
            Dataset(X, y),
            LearnerConfig(kind=KIND_BOOSTED, learning_rate=2.0, max_stumps=400, epochs=400),
        )
        preds = predict_matrix(model, X)
        assert np.all(preds >= PROB_CLAMP) and np.all(preds <= 1.0 - PROB_CLAMP)

    @pytest.mark.parametrize("l2,max_stumps", [(0.0, 25), (0.5, 40)])
    def test_stumps_equal_the_per_round_bucketing_reference(self, l2, max_stumps):
        gen = np.random.default_rng(31)
        n = 3000
        X = np.column_stack([
            gen.normal(size=n),
            gen.integers(0, 5, n).astype(float),  # ties straddle the candidates
            gen.lognormal(size=n),
            np.full(n, 2.0),  # constant column
        ])
        logits = 0.9 * X[:, 0] - 0.4 * X[:, 1] + 0.3 * np.log(X[:, 2])
        y = gen.uniform(size=n) < 1 / (1 + np.exp(-logits))
        weights = 1.0 / gen.uniform(0.05, 1.0, size=n)  # IPW-like
        mean, scale = learner._standardise_constants(X, weights)
        Xs, w_norm = (X - mean) / scale, weights / weights.sum()
        config = LearnerConfig(kind=KIND_BOOSTED, learning_rate=0.4, l2=l2,
                               max_stumps=max_stumps)
        got = learner._fit_boosted(Xs, y, w_norm, config)
        want = oracles.fit_boosted_per_round(Xs, y, w_norm, config)
        assert len(want[1]) >= 10
        assert got == want


class TestSchemaGuards:
    def test_wrong_width_matrix_rejected(self):
        data, _ = synthetic_dataset(n=50)
        model = train(data, LearnerConfig(epochs=10))
        with pytest.raises(SchemaMismatchError):
            predict_matrix(model, np.zeros((4, 7)))

    def test_model_coef_length_checked(self):
        with pytest.raises(InputError):
            Model(
                kind=KIND_LOGISTIC,
                schema_id="adhoc/2",
                feature_mean=np.zeros(2),
                feature_scale=np.ones(2),
                intercept=0.0,
                coef=np.zeros(5),
            )


class TestFoldOrder:
    def test_a_deterministic_permutation_per_seed(self):
        perm = fold_order(500, 3)
        assert perm.dtype == np.intp
        assert np.array_equal(np.sort(perm), np.arange(500))
        assert np.array_equal(fold_order(500, 3), perm)
        assert not np.array_equal(fold_order(500, 4), perm)
        assert fold_order(0, 3).shape == (0,)

    def test_rows_keep_their_relative_order_as_more_are_added(self):
        """Each row's sort key depends on its row number alone."""
        long, short = fold_order(400, 9), fold_order(40, 9)
        assert np.array_equal(long[long < 40], short)

    def test_the_order_sorts_one_folds_uniform_per_row(self):
        u = rng.uniforms(5, np.arange(60, dtype=np.uint64), rng.FOLDS)
        perm = fold_order(60, 5)
        assert (np.diff(u[perm]) > 0).all()


class TestGridSearch:
    def test_singleton_grid_returns_it(self):
        data, _ = synthetic_dataset(n=100)
        config = LearnerConfig(epochs=20)
        best, table = grid_search(data, [config], k_folds=3, seed=0)
        assert best == config and len(table) == 1
        assert len(table[0].fold_losses) == 3
        assert table[0].mean_loss == pytest.approx(np.mean(table[0].fold_losses))

    def test_first_of_equal_configs_wins(self):
        data, _ = synthetic_dataset(n=100)
        config = LearnerConfig(epochs=20)
        best, table = grid_search(data, [config, config], k_folds=3, seed=0)
        assert best == config
        assert table[0].mean_loss == table[1].mean_loss

    def test_crushing_regularisation_loses(self):
        data, _ = synthetic_dataset(n=300)
        sharp = LearnerConfig(learning_rate=1.0, l2=0.0, epochs=200)
        # l2 = 10 shrinks every coefficient towards zero: a near-base-rate fit
        blunt = LearnerConfig(learning_rate=0.1, l2=10.0, epochs=200)
        best, table = grid_search(data, [blunt, sharp], k_folds=3, seed=0)
        assert best == sharp
        assert table[1].mean_loss < table[0].mean_loss

    def test_diverged_config_ranks_last(self, monkeypatch):
        data, _ = synthetic_dataset(n=120)
        sane = LearnerConfig(learning_rate=0.5, epochs=100)
        diverging = LearnerConfig(learning_rate=1.0, l2=1e6, epochs=100)
        fit = learner.train

        def train_diverging_to_nan(d, config, **kwargs):
            model = fit(d, config, **kwargs)
            if config == diverging:
                return replace(model, coef=np.full(model.n_features, np.nan))
            return model

        # The Newton solver converges even at l2 = 1e6, so the diverged fit
        # is stood in for by one whose coefficients went non-finite.
        monkeypatch.setattr(learner, "train", train_diverging_to_nan)
        best, table = grid_search(data, [diverging, sane], k_folds=3, seed=0)
        assert best == sane
        assert not math.isfinite(table[0].mean_loss)

    def test_single_class_training_fold_flagged(self):
        # Engineer labels so one fold's training complement is single-class.
        n, k_folds, seed = 4, 2, 0
        folds = np.array_split(fold_order(n, seed), k_folds)
        labels = np.zeros(n, dtype=bool)
        labels[folds[0]] = [True, False]  # fold 1 trains on this mixed half
        labels[folds[1]] = [True, True]  # fold 0 trains on this single-class half
        data = Dataset(np.arange(n, dtype=float)[:, None], labels)
        _, table = grid_search(data, [LearnerConfig(epochs=5)], k_folds=k_folds, seed=seed)
        assert table[0].prior_folds == (0,)

    def test_caller_features_unchanged_with_a_prior_fold(self):
        n, k_folds, seed = 40, 2, 0
        folds = np.array_split(fold_order(n, seed), k_folds)
        gen = np.random.default_rng(7)
        labels = np.ones(n, dtype=bool)
        labels[folds[0]] = gen.uniform(size=len(folds[0])) < 0.5  # fold 1's training half
        data = Dataset(gen.normal(size=(n, 3)), labels)
        before = data.features.copy()
        _, table = grid_search(data, [LearnerConfig(epochs=5),
                                      LearnerConfig(kind=KIND_BOOSTED, max_stumps=5)],
                               k_folds=k_folds, seed=seed)
        assert table[0].prior_folds == (0,)  # fold 0 trains on one class and falls back
        assert np.array_equal(data.features.view(np.int64), before.view(np.int64))

    def test_folds_are_the_seeds_fold_order(self):
        """Each fold's loss is a fit on the rows outside ``fold_order``'s cut."""
        data, _ = synthetic_dataset(n=90)
        config = LearnerConfig(epochs=20)
        _, table = grid_search(data, [config], k_folds=3, seed=11)
        losses = []
        for val_idx in np.array_split(fold_order(90, 11), 3):
            train_mask = np.ones(90, dtype=bool)
            train_mask[val_idx] = False
            model = train(Dataset(data.features[train_mask], data.labels[train_mask],
                                  data.weights[train_mask]), config)
            losses.append(weighted_log_loss(model, Dataset(
                data.features[val_idx], data.labels[val_idx], data.weights[val_idx])))
        assert table[0].fold_losses == tuple(losses)

    def test_validation_errors(self):
        data, _ = synthetic_dataset(n=30)
        with pytest.raises(InputError):
            grid_search(data, [], k_folds=2, seed=0)
        with pytest.raises(InputError):
            grid_search(data, [LearnerConfig()], k_folds=1, seed=0)
        small, _ = synthetic_dataset(n=2)
        with pytest.raises(InputError):
            grid_search(small, [LearnerConfig()], k_folds=3, seed=0)
