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

from . import rng
from .errors import DegenerateDataError, InputError, SchemaMismatchError

PROB_CLAMP = 1e-6
LEAF_CLIP = 4.0
N_SPLIT_CANDIDATES = 32
GRAD_TOL = 1e-10  # logistic fits stop once the gradient norm is below this
RANK_TOL = 1e-12  # pivots below this share of the largest are rank deficiency
# Temporaries beside a fit's n x d matrix are made per row block of at most
# this size, below glibc's 128 KiB mmap threshold: the Hessian's weighted
# copies, the finiteness check's booleans and the sigmoid's denominators. A
# whole n x d copy per Newton step raised the peak RSS of a `compare` run
# (12k training rows) by about 1.2 MB.
BLOCK_BYTES = 64 * 1024

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
        rows = max(1, BLOCK_BYTES // max(1, X.shape[1]))
        if not all(np.isfinite(X[lo:lo + rows]).all() for lo in range(0, len(X), rows)):
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
    learning_rate: float = 1.0
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
        for name in ("epochs", "max_stumps"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is an int too
                raise InputError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise InputError(f"{name} must be >= 1")


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
    """``1 / (1 + e)`` where ``z >= 0`` and ``e / (1 + e)`` elsewhere, ``e = exp(-|z|)``.

    ``exp`` only sees ``-|z|``, so it never overflows, and no row is gathered
    or scattered by sign: ``maximum(e, z >= 0)`` is 1 or ``e``, since ``e <= 1``.
    One array the size of ``z`` is made, the result; ``z`` is only read. The
    rest is made per block of rows: the denominators, and the float copy of
    the signs that ``maximum`` casts, take ``BLOCK_BYTES`` together.
    """
    z = np.asarray(z, dtype=float)
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    block = BLOCK_BYTES // 16
    denominator = np.empty(min(len(e), block))
    for lo in range(0, len(e), block):
        part = e[lo:lo + block]
        np.add(part, 1.0, out=denominator[:len(part)])
        np.maximum(part, z[lo:lo + block] >= 0, out=part)
        part /= denominator[:len(part)]
    return e


def _standardise_constants(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = X.shape[1]
    if not X.size:
        return np.zeros(d), np.ones(d)
    # Weighted moments so that integer weights and sample duplication coincide.
    # The variance is summed one column at a time through one O(n) deviation
    # column; an n x d ``(X - mean)**2`` would double the fit's peak memory.
    wsum = w.sum()
    mean = (w @ X) / wsum
    var = np.empty(d)
    dev = np.empty(len(X))
    for f in range(d):
        np.subtract(X[:, f], mean[f], out=dev)
        np.square(dev, out=dev)
        var[f] = (w @ dev) / wsum
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


def train(data: Dataset, config: LearnerConfig, *, in_place: bool = False) -> Model:
    """Fit the configured learner; deterministic for identical inputs.

    The fit runs on the standardised feature matrix alone. By default that is
    a copy, and ``data`` is never written to, not even when the fit raises.
    With ``in_place`` the caller hands ``data`` over: its features are
    standardised where they lie, so no second n x d matrix is made, and hold
    the standardised values afterwards. A refusal comes before any write.
    """
    X, y, w = data.features, data.labels, data.weights
    if config.kind == KIND_LOGISTIC and not (y.any() and (~y).any()):
        raise DegenerateDataError("logistic training needs both classes present")
    mean, scale = _standardise_constants(X, w)
    Xs = np.subtract(X, mean, out=X if in_place else None)
    Xs /= scale
    w_norm = w / w.sum()

    if config.kind == KIND_LOGISTIC:
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
    block = max(1, BLOCK_BYTES // (8 * (d + 1)))
    coef = np.zeros(d)
    intercept = 0.0
    steps, prev_norm = 0, np.inf
    while True:
        # Each O(n) column is computed in place where the bits allow, so a
        # step holds two columns beside Xs and the weights: the logits and p
        # while the sigmoid runs, then p and the residual, whose buffer becomes
        # the Hessian weights once the gradient is in. ``p - y`` casts the
        # bool labels per buffer, to the bits of a float copy of them.
        p = Xs @ coef
        p += intercept
        p = _sigmoid(p)
        resid = p - y
        resid *= w_norm
        grad = np.append(Xs.T @ resid + config.l2 * coef, resid.sum())
        grad_norm = float(np.sqrt(grad @ grad))
        if steps == config.epochs or grad_norm < GRAD_TOL or not grad_norm < prev_norm:
            return coef, float(intercept), steps, grad_norm
        prev_norm = grad_norm
        # Hessian with the intercept as its last row and column. Xs is never
        # copied whole: weighted copies are made per block of rows.
        h = np.multiply(w_norm, p, out=resid)
        h *= np.subtract(1.0, p, out=p)
        hess = np.empty((d + 1, d + 1))
        hess[:d, :d] = config.l2 * np.eye(d)
        for lo in range(0, len(h), block):
            rows = Xs[lo:lo + block]
            hess[:d, :d] += rows.T @ (rows * h[lo:lo + block, None])
        hess[d, :d] = hess[:d, d] = h @ Xs
        hess[d, d] = h.sum()
        del p, resid, h  # freed before the next step's logits are made
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
    L = _cholesky(R @ R.T)
    return R.T @ _cholesky_solve(L, _cholesky_solve(L, R @ b))


def _cholesky(M: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a small symmetric positive definite ``M``.

    Written out rather than calling ``np.linalg``: the LAPACK call maps about
    half a megabyte of code pages, which shows in the process's peak RSS.
    """
    L = np.zeros_like(M)
    for j in range(len(M)):
        L[j, j] = np.sqrt(M[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1:, j] = (M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _cholesky_solve(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``L Lᵀ x = y`` by two triangular sweeps over the factor ``L``."""
    n = len(y)
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


def fold_order(n: int, seed: int) -> np.ndarray:
    """The CV shuffle of rows 0..n-1: a stable argsort of one ``rng.FOLDS``
    uniform per row, keyed by the row number. ``grid_search`` splits it into
    ``k`` near-equal consecutive folds."""
    return np.argsort(rng.uniforms(seed, np.arange(n, dtype=np.uint64), rng.FOLDS),
                      kind="stable")


def grid_search(
    data: Dataset, grid: Sequence[LearnerConfig], k_folds: int, seed: int
) -> tuple[LearnerConfig, list[GridResult]]:
    """K-fold cross-validated mean log-loss per config; first strict minimum wins.

    The folds are ``fold_order(n, seed)`` cut into ``k_folds`` consecutive
    near-equal parts, so they depend on the row count and the seed alone.
    """
    if not grid:
        raise InputError("grid must be non-empty")
    if k_folds < 2:
        raise InputError("k_folds must be >= 2")
    n = len(data)
    if n < k_folds:
        raise InputError(f"need at least {k_folds} samples for {k_folds}-fold CV")
    folds = np.array_split(fold_order(n, seed), k_folds)

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
                # d_train is this fold's own copy; a refusal leaves it unwritten.
                model = train(d_train, config, in_place=True)
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
