"""Ridge-penalised logistic regression trained per imputation draw.

One model is fitted on each completed matrix; prediction averages the per-draw
probabilities. Raw covariates are standardised to training moments; appended
missingness indicators are left on their 0/1 scale. Each fit is Newton's method
with a halving line search, and every point it evaluates costs one pass over
the design in cache-sized row blocks, which forms the penalised loss, gradient
and Hessian together.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data_model import ConfigurationError
from .linalg_stat import SingularSystemError
from .metrics import UndefinedMetricError, _auc_core


class ConvergenceError(RuntimeError):
    """Newton iterations failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class LogisticSpec:
    penalty_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    fixed_penalty: float = 1.0
    max_iterations: int = 100
    tolerance: float = 1e-8

    def __post_init__(self):
        # each comparison is written so that nan fails it
        if not 0 <= self.fixed_penalty < math.inf:
            raise ConfigurationError("fixed_penalty must be a finite number >= 0")
        if not (self.penalty_grid and all(0 < p < math.inf for p in self.penalty_grid)):
            raise ConfigurationError("penalty grid must hold finite positive penalties, "
                                     f"got {self.penalty_grid!r}")


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

    @property
    def n_draws(self):
        return len(self.draws)


def _sigmoid(t):
    # e = exp(-|t|) is exp(-t) where t >= 0 and exp(t) where t < 0, and never overflows
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _design(covariates, indicators):
    """One draw's feature-major design, intercept row first, and its moments.

    The covariate rows are standardised in place; the missingness indicators
    (None when there are none) follow on their 0/1 scale with mean 0 and std 1.
    """
    n, d = covariates.shape
    p = d if indicators is None else d + indicators.shape[1]
    design = np.empty((p + 1, n))
    design[0] = 1.0
    raw = design[1:d + 1]
    raw[:] = covariates.T
    if indicators is not None:
        design[d + 1:] = indicators.T
    means, stds = np.zeros(p), np.ones(p)
    means[:d] = raw.mean(axis=1)
    raw_stds = raw.std(axis=1)
    stds[:d] = np.where(raw_stds > 0, raw_stds, 1.0)
    raw -= means[:d, None]
    raw /= stds[:d, None]
    return design, means, stds


def _warm_start(start, means, stds):
    """`start`'s coefficients in the standardisation (means, stds), intercept first.

    The model is carried through raw-feature space, so it predicts the same
    probability for a raw row before and after the change of moments.
    """
    w_raw = start.weights / start.feature_stds
    intercept = start.intercept - w_raw @ start.feature_means + w_raw @ means
    return np.concatenate(([intercept], w_raw * stds))


def _penalised_loss(design, y, beta, ridge):
    """Penalised loss for a sample-major (n, p+1) design; the reference for `_NewtonPass`."""
    eta = design @ beta
    # log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)), computed stably
    loss = np.sum(np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta))) - y * eta)
    return float(loss + 0.5 * np.sum(ridge * beta * beta))


# Design entries one block of `_NewtonPass` covers: 256 KiB of float64, so a
# block, its weighted copy and its row buffers stay in cache from the first
# ufunc to the Hessian.
_BLOCK_ENTRIES = 32768


class _NewtonPass:
    """Penalised loss, gradient and Hessian at beta from one pass over the design.

    The feature-major (p+1, n) design is walked in blocks of rows; each block's
    eta, exp(-|eta|), loss terms, probabilities and weights go into row buffers
    allocated once here and reused by every pass. The y·eta term of the loss
    and y's part of the gradient come from D y, formed once.
    """

    def __init__(self, design, y, ridge):
        k, n = design.shape
        rows = min(n, max(1, _BLOCK_ENTRIES // k))
        self.design, self.ridge = design, ridge
        self.design_y = design @ y
        self.eta, self.e, self.t, self.mu = np.empty((4, rows))
        self.weighted = np.empty((k, rows))

    def __call__(self, beta):
        design = self.design
        k, n = design.shape
        loss, grad, hess = 0.0, np.zeros(k), np.zeros((k, k))
        for start in range(0, n, self.eta.size):
            block = design[:, start:start + self.eta.size]
            m = block.shape[1]
            eta, e, t, mu = self.eta[:m], self.e[:m], self.t[:m], self.mu[:m]
            np.dot(beta, block, out=eta)
            np.abs(eta, out=t)
            np.negative(t, out=t)
            np.exp(t, out=e)
            # log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)), computed stably
            np.maximum(eta, 0.0, out=t)
            np.log1p(e, out=mu)
            t += mu
            loss += float(np.sum(t))
            # `_sigmoid`'s where(eta >= 0, 1, e) / (1 + e): exp(min(eta, 0)) is that
            # numerator bit for bit, without a branch per row
            np.minimum(eta, 0.0, out=mu)
            np.exp(mu, out=mu)
            np.add(e, 1.0, out=t)
            mu /= t
            grad += block @ mu
            # the Hessian's weights mu (1 - mu), floored at 1e-10
            np.subtract(1.0, mu, out=t)
            t *= mu
            np.maximum(t, 1e-10, out=t)
            weighted = self.weighted[:, :m]
            np.multiply(block, t, out=weighted)
            hess += weighted @ block.T
        ridge = self.ridge
        loss += 0.5 * float(np.sum(ridge * beta * beta)) - float(beta @ self.design_y)
        grad += ridge * beta - self.design_y
        hess[np.diag_indices(k)] += ridge
        return loss, grad, hess


def _fit_draw(design, y, penalty, spec, start=None):
    """Newton's method on the ridge-penalised loss over a `_design` array.

    Returns the coefficients, intercept first. `start` (coefficients in this
    design's coordinates) is used when its loss is below that of the zero start,
    n·log 2: every row's loss term at zero is log 2, so that loss is written
    down, not computed. Each Newton step and each halving of it is one
    `_NewtonPass` at the candidate, which also yields the next step's gradient
    and Hessian.
    """
    ridge = np.full(design.shape[0], penalty)
    ridge[0] = 0.0                      # intercept first, unpenalised
    newton = _NewtonPass(design, y, ridge)
    beta = start
    if start is not None:
        loss, grad, hess = newton(start)
    if start is None or not loss < design.shape[1] * math.log1p(1.0):
        beta = np.zeros(design.shape[0])
        loss, grad, hess = newton(beta)
    for _ in range(spec.max_iterations):
        if np.linalg.norm(grad, ord=np.inf) < spec.tolerance:
            break
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:   # e.g. a constant feature with no penalty
            raise SingularSystemError("Newton Hessian is singular") from None
        # halve the step until the penalised loss stops increasing; the allowance
        # is relative, since one ulp of a large loss exceeds any absolute 1e-12
        allowance = 1e-12 * max(1.0, abs(loss))
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            evaluated = newton(candidate)
            if evaluated[0] <= loss + allowance:
                beta, (loss, grad, hess) = candidate, evaluated
                break
            scale *= 0.5
        else:
            raise ConvergenceError("line search failed to reduce the loss")
    else:
        raise ConvergenceError(
            f"no convergence in {spec.max_iterations} Newton iterations")
    return beta


def _score_draws(models, result):
    """Averaged per-draw probabilities on `result`, one array per model.

    The models' draw i must share draw i's standardisation (as every penalty's
    fit of one training draw does): each draw's standardised covariates go beside
    the unscaled indicators in one matrix, which every model scores.
    """
    totals = [None] * len(models)
    n, d = result.completed[0].shape
    Z = np.empty((n, result.n_features))
    if result.indicator_columns is not None:
        Z[:, d:] = result.indicator_columns
    for i, dm in enumerate(models[0]):
        np.subtract(result.completed[i], dm.feature_means[:d], out=Z[:, :d])
        np.divide(Z[:, :d], dm.feature_stds[:d], out=Z[:, :d])
        for k, draws in enumerate(models):
            p = _sigmoid(Z @ draws[i].weights + draws[i].intercept)
            totals[k] = p if totals[k] is None else totals[k] + p
    return [total / len(models[0]) for total in totals]


def train(train_result, train_outcome, spec=None, tune_result=None, tune_outcome=None):
    """Fit one ridge logistic model per draw; choose the penalty on tuning AUC.

    Without tuning data the penalty is `fixed_penalty` (default 1.0). With it,
    each grid value is fitted on the training draws and scored by the AUC of the
    averaged tuning predictions; the best value wins, ties to the smaller penalty.
    Tuning outcomes of one class leave every AUC undefined: UndefinedMetricError.
    """
    spec = spec or LogisticSpec()
    y = np.asarray(train_outcome, dtype=float)
    if y.shape[0] != train_result.completed[0].shape[0]:
        raise ConfigurationError("outcome length must match the training rows")
    if tune_result is not None and tune_result.n_draws != train_result.n_draws:
        raise ConfigurationError(f"tuning data has {tune_result.n_draws} draws but the "
                                 f"training data has {train_result.n_draws}")
    if tune_result is not None and np.unique(tune_outcome).size < 2:
        raise UndefinedMetricError("the tuning partition holds one outcome class, so its "
                                   "AUC cannot choose a penalty")

    penalties = [spec.fixed_penalty] if tune_result is None else sorted(spec.penalty_grid)
    fits = [[] for _ in penalties]      # fits[k][i]: draw i at penalties[k]
    for i in range(train_result.n_draws):
        design, means, stds = _design(train_result.completed[i], train_result.indicator_columns)
        for k, penalty in enumerate(penalties):
            # each draw starts from the one before (the draws differ on few rows);
            # the first draw runs the penalty path, starting from the last penalty
            start = fits[k][-1] if i else fits[k - 1][0] if k else None
            beta = _fit_draw(design, y, penalty, spec,
                             None if start is None else _warm_start(start, means, stds))
            fits[k].append(DrawModel(weights=beta[1:], intercept=float(beta[0]),
                                     feature_means=means, feature_stds=stds))

    if tune_result is None:
        penalty, draws = spec.fixed_penalty, fits[0]
    else:
        tune_y = np.asarray(tune_outcome)
        best = None
        for penalty, draws, scores in zip(penalties, fits, _score_draws(fits, tune_result)):
            score = _auc_core(scores, tune_y)
            if best is None or score > best[0] + 1e-12:
                best = (score, penalty, draws)
        _, penalty, draws = best
    return FittedModel(draws=tuple(draws), penalty=float(penalty))


def predict(model, result):
    """Average per-draw probabilities for one ImputationResult: the model's draw i
    scores the data's draw i, so the two draw counts must match.
    """
    if result.n_features != model.draws[0].weights.size:
        raise ConfigurationError("feature count differs from the fitted model")
    if result.n_draws != model.n_draws:
        raise ConfigurationError(
            f"data has {result.n_draws} draws but the model has {model.n_draws}")
    return _score_draws([model.draws], result)[0]
