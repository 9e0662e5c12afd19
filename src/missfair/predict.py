"""Ridge-penalised logistic regression trained per imputation draw.

One model is fitted on each completed matrix; prediction averages the per-draw
probabilities. Raw covariates are standardised to training moments; appended
missingness indicators are left on their 0/1 scale.
"""

from dataclasses import dataclass

import numpy as np

from .data_model import ConfigurationError
from .metrics import _auc_core


class ConvergenceError(RuntimeError):
    """Newton iterations failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class LogisticSpec:
    penalty_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    fixed_penalty: float = None
    max_iterations: int = 100
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.fixed_penalty is not None and self.fixed_penalty < 0:
            raise ConfigurationError("fixed_penalty must be non-negative")
        if any(p <= 0 for p in self.penalty_grid):
            raise ConfigurationError("penalty grid entries must be positive")


@dataclass(frozen=True)
class DrawModel:
    weights: np.ndarray         # per standardised feature
    intercept: float
    feature_means: np.ndarray
    feature_stds: np.ndarray    # 1.0 where the raw std was 0 or standardisation is off


@dataclass(frozen=True)
class FittedModel:
    draws: tuple                # one DrawModel per imputation draw
    penalty: float
    n_raw_features: int
    n_features: int

    @property
    def n_draws(self):
        return len(self.draws)


def _sigmoid(t, e=None):
    # e = exp(-|t|) is exp(-t) where t >= 0 and exp(t) where t < 0, and never overflows
    e = np.exp(-np.abs(t)) if e is None else e
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _standardisation(X, n_raw):
    means = np.zeros(X.shape[1])
    stds = np.ones(X.shape[1])
    means[:n_raw] = X[:, :n_raw].mean(axis=0)
    raw_stds = X[:, :n_raw].std(axis=0)
    stds[:n_raw] = np.where(raw_stds > 0, raw_stds, 1.0)
    return means, stds


def _warm_start(start, means, stds):
    """`start`'s coefficients in the standardisation (means, stds), intercept first.

    The model is carried through raw-feature space, so it predicts the same
    probability for a raw row before and after the change of moments.
    """
    w_raw = start.weights / start.feature_stds
    intercept = start.intercept - w_raw @ start.feature_means + w_raw @ means
    return np.concatenate(([intercept], w_raw * stds))


def _loss_and_mu(design, y, beta, ridge):
    """Penalised loss at beta and the fitted probabilities, from one exp."""
    eta = design @ beta
    e = np.exp(-np.abs(eta))
    # log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)), computed stably
    loss = np.sum(np.maximum(eta, 0.0) + np.log1p(e) - y * eta)
    return float(loss + 0.5 * np.sum(ridge * beta * beta)), _sigmoid(eta, e)


def _penalised_loss(design, y, beta, ridge):
    return _loss_and_mu(design, y, beta, ridge)[0]


def _fit_draw(X, y, penalty, spec, n_raw, start=None):
    """Newton's method on the ridge-penalised loss in standardised coordinates.

    `start` (a DrawModel) is mapped into this draw's standardisation and used
    when its loss is below that of the zero start.
    """
    means, stds = _standardisation(X, n_raw)
    Z = (X - means) / stds
    n, p = Z.shape
    design = np.hstack([np.ones((n, 1)), Z])
    ridge = np.full(p + 1, penalty)
    ridge[0] = 0.0                      # intercept first, unpenalised
    beta = np.zeros(p + 1)
    loss, mu = _loss_and_mu(design, y, beta, ridge)
    if start is not None:
        warm = _warm_start(start, means, stds)
        warm_loss, warm_mu = _loss_and_mu(design, y, warm, ridge)
        if warm_loss < loss:
            beta, loss, mu = warm, warm_loss, warm_mu
    for _ in range(spec.max_iterations):
        grad = design.T @ (mu - y) + ridge * beta
        if np.linalg.norm(grad, ord=np.inf) < spec.tolerance:
            break
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        hess = design.T @ (design * w[:, None]) + np.diag(ridge)
        step = np.linalg.solve(hess, grad)
        # halve the step until the penalised loss stops increasing; the allowance
        # is relative, since one ulp of a large loss exceeds any absolute 1e-12
        allowance = 1e-12 * max(1.0, abs(loss))
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            candidate_loss, candidate_mu = _loss_and_mu(design, y, candidate, ridge)
            if candidate_loss <= loss + allowance:
                beta, loss, mu = candidate, candidate_loss, candidate_mu
                break
            scale *= 0.5
        else:
            raise ConvergenceError("line search failed to reduce the loss")
    else:
        raise ConvergenceError(
            f"no convergence in {spec.max_iterations} Newton iterations")
    return DrawModel(weights=beta[1:], intercept=float(beta[0]),
                     feature_means=means, feature_stds=stds)


def _score_draws(draws, result):
    total = None
    for i, dm in enumerate(draws):
        X = result.features(i if result.n_draws > 1 else 0)
        Z = (X - dm.feature_means) / dm.feature_stds
        p = _sigmoid(Z @ dm.weights + dm.intercept)
        total = p if total is None else total + p
    return total / len(draws)


def train(train_result, train_outcome, spec=None, tune_result=None, tune_outcome=None):
    """Fit one ridge logistic model per draw; choose the penalty on tuning AUC.

    Without tuning data the penalty is `fixed_penalty` (default 1.0). With it,
    each grid value is fitted on the training draws and scored by the AUC of the
    averaged tuning predictions; the best value wins, ties to the smaller penalty.
    """
    spec = spec or LogisticSpec()
    y = np.asarray(train_outcome, dtype=float)
    n_raw = train_result.completed[0].shape[1]
    n_features = train_result.features(0).shape[1]
    if y.shape[0] != train_result.completed[0].shape[0]:
        raise ConfigurationError("outcome length must match the training rows")

    def _fit_all(penalty, start):
        # each draw starts from the one before: the draws differ on few rows
        draws = []
        for i in range(train_result.n_draws):
            start = _fit_draw(train_result.features(i), y, penalty, spec, n_raw, start)
            draws.append(start)
        return tuple(draws)

    if tune_result is None:
        penalty = spec.fixed_penalty if spec.fixed_penalty is not None else 1.0
        draws = _fit_all(penalty, None)
    else:
        tune_y = np.asarray(tune_outcome)
        best, draws = None, ()
        for penalty in sorted(spec.penalty_grid):
            # the penalty path: the first draw starts from its fit at the last penalty
            draws = _fit_all(penalty, draws[0] if draws else None)
            score = _auc_core(_score_draws(draws, tune_result), tune_y)
            if best is None or score > best[0] + 1e-12:
                best = (score, penalty, draws)
        _, penalty, draws = best
    return FittedModel(draws=draws, penalty=float(penalty),
                       n_raw_features=n_raw, n_features=n_features)


def predict(model, result):
    """Average per-draw probabilities for one ImputationResult.

    Draw counts must match, or the data may carry a single draw that is then
    scored by every per-draw model (broadcast).
    """
    if result.features(0).shape[1] != model.n_features:
        raise ConfigurationError("feature count differs from the fitted model")
    if result.n_draws not in (1, model.n_draws):
        raise ConfigurationError(
            f"data has {result.n_draws} draws but the model has {model.n_draws}")
    return _score_draws(model.draws, result)
