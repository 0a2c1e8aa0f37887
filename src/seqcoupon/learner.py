"""From-scratch probabilistic classifiers with per-sample weights.

Two interchangeable learners back the uplift predictors: L2-regularised
logistic regression fitted by damped Newton (IRLS) iterations until the
gradient vanishes, with ``epochs`` as an iteration cap, and stagewise boosted
depth-1 stumps with Newton leaf values. Both standardise
features internally (weighted mean/scale, stored in the model) so training and
serving share constants, and both are bit-deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateDataError, InputError, SchemaMismatchError

PROB_CLAMP = 1e-6
LEAF_CLIP = 4.0
N_SPLIT_CANDIDATES = 32
GRAD_TOL = 1e-10  # logistic fits stop once the gradient norm is below this
RANK_TOL = 1e-12  # pivots below this share of the largest are rank deficiency
# The Hessian is summed over weighted copies of row blocks of this size,
# below glibc's 128 KiB mmap threshold. A whole n x d copy per Newton step
# raised the peak RSS of a `compare` run (12k training rows) by about 1.2 MB.
HESSIAN_BLOCK_BYTES = 64 * 1024

KIND_LOGISTIC = "logistic"
KIND_BOOSTED = "boosted_stumps"


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with boolean labels and positive per-sample weights."""

    features: np.ndarray
    labels: np.ndarray
    weights: Optional[np.ndarray] = None
    schema_id: str = ""

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2:
            raise InputError("features must be a 2-D matrix")
        y = np.asarray(self.labels, dtype=bool)
        w = self.weights
        w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
        if not (len(X) == len(y) == len(w)):
            raise InputError("features, labels and weights must have equal row counts")
        if not np.all(np.isfinite(X)):
            raise InputError("features contain non-finite values")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InputError("weights must be positive and finite")
        schema = self.schema_id or f"adhoc/{X.shape[1]}"
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "schema_id", schema)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LearnerConfig:
    kind: str = KIND_LOGISTIC
    learning_rate: float = 0.5
    l2: float = 0.0
    epochs: int = 300
    max_stumps: int = 400

    def __post_init__(self):
        if self.kind not in (KIND_LOGISTIC, KIND_BOOSTED):
            raise InputError(f"unknown learner kind {self.kind!r}")
        if not self.learning_rate > 0:
            raise InputError("learning_rate must be > 0")
        if not self.l2 >= 0:
            raise InputError("l2 must be >= 0")
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.max_stumps < 1:
            raise InputError("max_stumps must be >= 1")


@dataclass(frozen=True)
class Stump:
    feature: int
    threshold: float
    left_value: float  # applies where x[feature] <= threshold
    right_value: float


@dataclass(frozen=True)
class Model:
    """Trained classifier with its schema binding and standardisation constants."""

    kind: str
    schema_id: str
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    intercept: float
    coef: Optional[np.ndarray] = None
    stumps: tuple[Stump, ...] = ()
    config: LearnerConfig = LearnerConfig()
    # Convergence of a logistic fit: Newton steps taken and the final gradient
    # norm. None for boosted models and for models loaded from disk.
    iterations: Optional[int] = None
    grad_norm: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (KIND_LOGISTIC, KIND_BOOSTED):
            raise InputError(f"unknown model kind {self.kind!r}")
        mean = np.asarray(self.feature_mean, dtype=float)
        scale = np.asarray(self.feature_scale, dtype=float)
        object.__setattr__(self, "feature_mean", mean)
        object.__setattr__(self, "feature_scale", scale)
        if self.kind == KIND_LOGISTIC:
            coef = np.asarray(self.coef, dtype=float)
            if coef.shape != mean.shape:
                raise InputError("coefficient length does not match the schema")
            object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "stumps", tuple(self.stumps))

    @property
    def n_features(self) -> int:
        return len(self.feature_mean)


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _standardise_constants(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not X.size:
        return np.zeros(X.shape[1]), np.ones(X.shape[1])
    # Weighted moments so that integer weights and sample duplication coincide.
    wsum = w.sum()
    mean = (w @ X) / wsum
    sq_dev = X - mean
    np.square(sq_dev, out=sq_dev)
    var = (w @ sq_dev) / wsum
    scale = np.sqrt(var)
    # A constant column standardises to exactly 0. Under non-uniform weights
    # its moments round to a mean off the value and a scale near 1e-15, which
    # would divide any other value of the feature by 1e-15 at prediction.
    constant = np.ptp(X, axis=0) == 0
    mean[constant] = X[0, constant]
    scale[constant | (scale == 0.0)] = 1.0
    return mean, scale


def _clamped(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _loss(p: np.ndarray, y: np.ndarray, w_norm: np.ndarray) -> float:
    p = _clamped(p)
    ll = np.where(y, -np.log(p), -np.log1p(-p))
    return float(w_norm @ ll)


def train(data: Dataset, config: LearnerConfig) -> Model:
    """Fit the configured learner; deterministic for identical inputs."""
    X, y, w = data.features, data.labels, data.weights
    mean, scale = _standardise_constants(X, w)
    Xs = X - mean
    Xs /= scale
    w_norm = w / w.sum()

    if config.kind == KIND_LOGISTIC:
        if not (y.any() and (~y).any()):
            raise DegenerateDataError("logistic training needs both classes present")
        coef, intercept, iterations, grad_norm = _fit_logistic(Xs, y, w_norm, config)
        return Model(
            kind=KIND_LOGISTIC,
            schema_id=data.schema_id,
            feature_mean=mean,
            feature_scale=scale,
            intercept=intercept,
            coef=coef,
            config=config,
            iterations=iterations,
            grad_norm=grad_norm,
        )

    intercept, stumps = _fit_boosted(Xs, y, w_norm, config)
    return Model(
        kind=KIND_BOOSTED,
        schema_id=data.schema_id,
        feature_mean=mean,
        feature_scale=scale,
        intercept=intercept,
        stumps=stumps,
        config=config,
    )


def _fit_logistic(Xs, y, w_norm, config) -> tuple[np.ndarray, float, int, float]:
    """Damped Newton (IRLS) on the weighted mean log-loss plus ``l2/2·|coef|²``.

    Returns the coefficients, the intercept, the number of steps taken and the
    gradient norm at the returned point. ``learning_rate`` scales each step
    (1.0 is a full Newton step) and ``epochs`` caps the steps. The loop stops
    early once the gradient norm is below ``GRAD_TOL`` or a step fails to
    reduce it, which is where rounding, not the model, limits progress.
    """
    d = Xs.shape[1]
    block = max(1, HESSIAN_BLOCK_BYTES // (8 * (d + 1)))
    coef = np.zeros(d)
    intercept = 0.0
    yf = y.astype(float)
    steps, prev_norm = 0, np.inf
    while True:
        p = _sigmoid(Xs @ coef + intercept)
        resid = w_norm * (p - yf)
        grad = np.append(Xs.T @ resid + config.l2 * coef, resid.sum())
        grad_norm = float(np.sqrt(grad @ grad))
        if steps == config.epochs or grad_norm < GRAD_TOL or not grad_norm < prev_norm:
            return coef, float(intercept), steps, grad_norm
        prev_norm = grad_norm
        # Hessian with the intercept as its last row and column. Xs is never
        # copied whole: weighted copies are made per block of rows.
        h = w_norm * p * (1.0 - p)
        hess = np.empty((d + 1, d + 1))
        hess[:d, :d] = config.l2 * np.eye(d)
        for lo in range(0, len(h), block):
            rows = Xs[lo:lo + block]
            hess[:d, :d] += rows.T @ (rows * h[lo:lo + block, None])
        hess[d, :d] = hess[:d, d] = h @ Xs
        hess[d, d] = h.sum()
        step = _min_norm_solve(hess, grad)
        coef = coef - config.learning_rate * step[:d]
        intercept = intercept - config.learning_rate * step[d]
        steps += 1


def _min_norm_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of ``A s = b`` for symmetric positive semi-definite ``A``.

    A singular Hessian is the normal case: under the default menus the round-1
    ``cap_ky`` column is ``discount_pct / 5``. A ridged solve would put an
    error of order ``eps / ridge`` along the null direction at every step, so
    the factorisation stops at the numerical rank instead: pivoted Cholesky
    gives ``A = Rᵀ R`` with ``R`` of full row rank, and ``s = Rᵀ M⁻¹ M⁻¹ R b``
    with ``M = R Rᵀ`` lies in the row space of ``R``. For ``b`` in the range
    of ``A``, as a gradient is, that is the pseudo-inverse solution which
    gradient descent from zero reaches implicitly.
    """
    schur = A.copy()
    floor = RANK_TOL * np.max(np.diag(A))
    rows = []
    for _ in range(len(b)):
        j = int(np.argmax(np.diag(schur)))
        if not schur[j, j] > floor:
            break
        rows.append(schur[j] / np.sqrt(schur[j, j]))
        schur -= np.outer(rows[-1], rows[-1])
    R = np.array(rows).reshape(-1, len(b))
    M = R @ R.T
    return R.T @ _cholesky_solve(M, _cholesky_solve(M, R @ b))


def _cholesky_solve(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``M x = y`` for a small symmetric positive definite ``M``.

    Written out rather than calling ``np.linalg``: the LAPACK call maps about
    half a megabyte of code pages, which shows in the process's peak RSS.
    """
    n = len(y)
    L = np.zeros_like(M)
    for j in range(n):
        L[j, j] = np.sqrt(M[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1:, j] = (M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    z = np.empty(n)
    for i in range(n):
        z[i] = (y[i] - L[i, :i] @ z[:i]) / L[i, i]
    x = np.empty(n)
    for i in reversed(range(n)):
        x[i] = (z[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


def _weighted_quantiles(x: np.ndarray, w: np.ndarray, qs: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    cdf = np.cumsum(ws)
    cdf = cdf / cdf[-1]
    return xs[np.searchsorted(cdf, qs, side="left").clip(0, len(xs) - 1)]


def _split_candidates(Xs: np.ndarray, w_norm: np.ndarray) -> list[np.ndarray]:
    # Candidates follow the weighted training distribution, so sample weights
    # steer where the ensemble spends its resolution.
    qs = np.linspace(0.0, 1.0, N_SPLIT_CANDIDATES + 2)[1:-1]
    return [_weighted_quantiles(Xs[:, f], w_norm, qs) for f in range(Xs.shape[1])]


def _fit_boosted(Xs, y, w_norm, config) -> tuple[float, tuple[Stump, ...]]:
    yf = y.astype(float)
    prior = float(np.clip(w_norm @ yf, PROB_CLAMP, 1.0 - PROB_CLAMP))
    base = float(np.log(prior / (1.0 - prior)))
    if not (y.any() and (~y).any()):
        return base, ()  # single-class data: the prior is the model

    candidates = _split_candidates(Xs, w_norm)
    # The candidates are fixed for the whole fit, and so is each row's bucket
    # per feature: one of at most N_SPLIT_CANDIDATES + 1 values.
    bucket_dtype = np.min_scalar_type(N_SPLIT_CANDIDATES)
    buckets = [
        np.searchsorted(cand, Xs[:, f], side="left").astype(bucket_dtype)
        for f, cand in enumerate(candidates)
    ]
    n_rounds = min(config.epochs, config.max_stumps)
    F = np.full(len(yf), base)
    loss = _loss(_sigmoid(F), y, w_norm)
    stumps: list[Stump] = []

    for _ in range(n_rounds):
        p = _sigmoid(F)
        g = w_norm * (p - yf)
        h = w_norm * p * (1.0 - p)
        g_tot, h_tot = g.sum(), h.sum()

        best = None  # (score, feature, cand_idx)
        for f, (cand, bucket) in enumerate(zip(candidates, buckets)):
            gl = np.cumsum(np.bincount(bucket, weights=g, minlength=len(cand) + 1))[:-1]
            hl = np.cumsum(np.bincount(bucket, weights=h, minlength=len(cand) + 1))[:-1]
            gr, hr = g_tot - gl, h_tot - hl
            score = gl**2 / (hl + config.l2 + 1e-12) + gr**2 / (hr + config.l2 + 1e-12)
            c = int(np.argmax(score))
            if best is None or score[c] > best[0]:
                best = (float(score[c]), f, c)

        _, f, c = best
        threshold = float(candidates[f][c])
        left = Xs[:, f] <= threshold
        gl, hl = g[left].sum(), h[left].sum()
        gr, hr = g_tot - gl, h_tot - hl
        vl = float(np.clip(-config.learning_rate * gl / (hl + config.l2 + 1e-12),
                           -LEAF_CLIP, LEAF_CLIP))
        vr = float(np.clip(-config.learning_rate * gr / (hr + config.l2 + 1e-12),
                           -LEAF_CLIP, LEAF_CLIP))
        F_new = F + np.where(left, vl, vr)
        loss_new = _loss(_sigmoid(F_new), y, w_norm)
        if loss_new > loss + 1e-12:
            break  # no descent available at this step; stop rather than overshoot
        F, loss = F_new, loss_new
        stumps.append(Stump(feature=f, threshold=threshold, left_value=vl, right_value=vr))

    return base, tuple(stumps)


def _check_width(model: Model, shape: tuple) -> None:
    if len(shape) != 2 or shape[1] != model.n_features:
        raise SchemaMismatchError(
            f"model expects {model.n_features} features, got matrix of shape {shape}"
        )


def decision_scores(model: Model, X: np.ndarray) -> np.ndarray:
    """Raw additive scores (logits) for a matrix of raw-scale features."""
    X = np.asarray(X, dtype=float)
    _check_width(model, X.shape)
    return _standardised_scores(model, (X - model.feature_mean) / model.feature_scale)


def _standardised_scores(model: Model, Xs: np.ndarray) -> np.ndarray:
    if model.kind == KIND_LOGISTIC:
        return Xs @ model.coef + model.intercept
    z = np.full(len(Xs), model.intercept)
    for s in model.stumps:
        z += np.where(Xs[:, s.feature] <= s.threshold, s.left_value, s.right_value)
    return z


def predict_matrix(model: Model, X: np.ndarray) -> np.ndarray:
    """Clamped sale probabilities for a matrix of raw-scale features."""
    return _clamped(_sigmoid(decision_scores(model, X)))


def predict_standardised(model: Model, Xs: np.ndarray) -> np.ndarray:
    """``predict_matrix`` of the rows whose standardised features are ``Xs``.

    ``Xs`` holds ``(X - model.feature_mean) / model.feature_scale``, so a caller
    scoring many matrices that share columns standardises those columns once.
    The result equals ``predict_matrix(model, X)`` bit for bit when ``Xs`` is
    C-contiguous, as a fresh quotient would be.
    """
    _check_width(model, np.shape(Xs))
    return _clamped(_sigmoid(_standardised_scores(model, Xs)))


def weighted_log_loss(model: Model, data: Dataset) -> float:
    """Weighted mean clamped log-loss of the model on a dataset."""
    p = predict_matrix(model, data.features)
    return _loss(p, data.labels, data.weights / data.weights.sum())


def fit_prior_model(data: Dataset) -> Model:
    """Intercept-only fallback used when a fold cannot identify a full model."""
    w_norm = data.weights / data.weights.sum()
    prior = float(np.clip(w_norm @ data.labels.astype(float), PROB_CLAMP, 1.0 - PROB_CLAMP))
    mean, scale = _standardise_constants(data.features, data.weights)
    return Model(
        kind=KIND_LOGISTIC,
        schema_id=data.schema_id,
        feature_mean=mean,
        feature_scale=scale,
        intercept=float(np.log(prior / (1.0 - prior))),
        coef=np.zeros(data.features.shape[1]),
    )


@dataclass(frozen=True)
class GridResult:
    config: LearnerConfig
    mean_loss: float
    fold_losses: tuple[float, ...]
    prior_folds: tuple[int, ...]  # folds scored with the fallback prior model


def grid_search(
    data: Dataset, grid: Sequence[LearnerConfig], k_folds: int, seed: int
) -> tuple[LearnerConfig, list[GridResult]]:
    """K-fold cross-validated mean log-loss per config; first strict minimum wins."""
    if not grid:
        raise InputError("grid must be non-empty")
    if k_folds < 2:
        raise InputError("k_folds must be >= 2")
    n = len(data)
    if n < k_folds:
        raise InputError(f"need at least {k_folds} samples for {k_folds}-fold CV")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k_folds)

    table: list[GridResult] = []
    for config in grid:
        losses, prior_flags = [], []
        for fi, val_idx in enumerate(folds):
            train_mask = np.ones(n, dtype=bool)
            train_mask[val_idx] = False
            d_train = Dataset(
                data.features[train_mask], data.labels[train_mask],
                data.weights[train_mask], data.schema_id,
            )
            d_val = Dataset(
                data.features[val_idx], data.labels[val_idx],
                data.weights[val_idx], data.schema_id,
            )
            try:
                model = train(d_train, config)
            except DegenerateDataError:
                model = fit_prior_model(d_train)
                prior_flags.append(fi)
            losses.append(weighted_log_loss(model, d_val))
        table.append(
            GridResult(
                config=config,
                mean_loss=float(np.mean(losses)),
                fold_losses=tuple(losses),
                prior_folds=tuple(prior_flags),
            )
        )

    # A diverged fit can report NaN loss; rank it last instead of letting NaN
    # comparisons freeze the incumbent.
    def rank(i: int):
        loss = table[i].mean_loss
        return (loss if np.isfinite(loss) else np.inf, i)

    best = min(range(len(table)), key=rank)
    return table[best].config, table
