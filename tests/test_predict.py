import math
from dataclasses import replace

import numpy as np
import pytest

from missfair import harness, impute, predict
from missfair.data_model import ConfigurationError, ImputationResult, SplitSpec, split
from missfair.linalg_stat import SingularSystemError
from missfair.metrics import UndefinedMetricError, _auc_core
from missfair.missingness import apply_scenario
from missfair.predict import LogisticSpec, _penalised_loss, _sigmoid
from missfair.synthgen import generate


def _data(n=600, seed=0, p=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    logits = 1.5 * X[:, 0] - 1.0 * X[:, 1]
    y = (rng.random(n) < _sigmoid(logits)).astype(int)
    return ImputationResult((X,)), y


def _two_branch_sigmoid(t):
    """The boolean-index formula _sigmoid used before it was written with np.where."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_is_bitwise_the_two_branch_formula():
    edges = np.array([0.0, 1e-300, 36.0, 745.0, 1e308])
    t = np.concatenate([edges, -edges,
                        np.random.default_rng(0).normal(scale=20.0, size=1000)])
    with np.errstate(over="raise"):
        value = _sigmoid(t)
    expected = _two_branch_sigmoid(t)
    assert value.tobytes() == expected.tobytes()
    assert np.signbit(t[5]) and value[5] == 0.5       # -0.0 takes the t >= 0 branch


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    n, p = 40, 3
    design = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p))])
    y = (rng.random(n) < 0.5).astype(float)
    ridge = np.array([0.0, 2.0, 2.0, 2.0])
    beta = rng.standard_normal(p + 1)
    analytic = design.T @ (_sigmoid(design @ beta) - y) + ridge * beta
    eps = 1e-6
    for j in range(p + 1):
        up, down = beta.copy(), beta.copy()
        up[j] += eps
        down[j] -= eps
        numeric = (_penalised_loss(design, y, up, ridge) -
                   _penalised_loss(design, y, down, ridge)) / (2 * eps)
        assert abs(numeric - analytic[j]) <= 1e-6 * max(1.0, abs(analytic[j]))


def test_training_learns_informative_signal():
    result, y = _data()
    model = predict.train(result, y, LogisticSpec(fixed_penalty=1.0))
    scores = predict.predict(model, result)
    assert _auc_core(scores, np.asarray(y)) > 0.8
    w = model.draws[0].weights
    assert w[0] > 0 and w[1] < 0


def test_stronger_penalty_shrinks_weights():
    result, y = _data(seed=2)
    small = predict.train(result, y, LogisticSpec(fixed_penalty=0.1))
    large = predict.train(result, y, LogisticSpec(fixed_penalty=500.0))
    assert np.linalg.norm(large.draws[0].weights) < \
        0.5 * np.linalg.norm(small.draws[0].weights)


def test_penalty_tuned_on_separate_partition():
    train_result, train_y = _data(seed=3)
    tune_result, tune_y = _data(seed=4)
    spec = LogisticSpec(penalty_grid=(0.1, 1.0, 10.0, 100.0))
    model = predict.train(train_result, train_y, spec,
                          tune_result=tune_result, tune_outcome=tune_y)
    assert model.penalty in spec.penalty_grid


def test_a_one_class_tuning_partition_cannot_choose_a_penalty(monkeypatch):
    # every tuning AUC was nan, so the smallest grid value won in silence
    train_result, train_y = _data(n=400, seed=3)
    tune_result, _ = _data(n=50, seed=4)
    fits = []
    monkeypatch.setattr(predict, "_fit_draw", lambda *args: fits.append(args))
    with pytest.raises(UndefinedMetricError, match="tuning partition holds one outcome class"):
        predict.train(train_result, train_y, LogisticSpec(), tune_result=tune_result,
                      tune_outcome=np.zeros(50, dtype=int))
    assert not fits


def test_default_penalty_is_one_without_tuning():
    result, y = _data(seed=5)
    model = predict.train(result, y, LogisticSpec())
    assert model.penalty == 1.0


def test_per_draw_models_and_prediction_average():
    rng = np.random.default_rng(6)
    X1 = rng.standard_normal((200, 2))
    X2 = X1 + 0.01 * rng.standard_normal((200, 2))
    y = (X1[:, 0] > 0).astype(int)
    result = ImputationResult((X1, X2))
    model = predict.train(result, y, LogisticSpec(fixed_penalty=1.0))
    assert model.n_draws == 2
    scores = predict.predict(model, result)
    per_draw = [_sigmoid((X - dm.feature_means) / dm.feature_stds @ dm.weights + dm.intercept)
                for X, dm in zip((X1, X2), model.draws)]   # draw i's model scores draw i
    assert scores.shape == (200,)
    assert np.allclose(scores, (per_draw[0] + per_draw[1]) / 2, rtol=1e-12, atol=0)
    assert not np.array_equal(scores, per_draw[0])


def test_prediction_is_bitwise_the_stacked_feature_formula():
    # the covariates standardised beside the unscaled indicators give the same bits as
    # standardising the stacked features, where the indicators' (x - 0) / 1 is exact
    rng = np.random.default_rng(22)
    draws = [rng.standard_normal((300, 3)) * [1.0, 4.0, 0.5] + [0.0, 2.0, -1.0]
             for _ in range(3)]
    ind = (rng.random((300, 2)) < 0.3).astype(float)
    y = (draws[0][:, 0] + ind[:, 1] > 0.5).astype(int)
    result = ImputationResult(tuple(draws), indicator_columns=ind)
    model = predict.train(result, y, LogisticSpec(fixed_penalty=1.0))
    expected = sum(_sigmoid(((np.hstack([X, ind]) - dm.feature_means) / dm.feature_stds)
                            @ dm.weights + dm.intercept)
                   for X, dm in zip(draws, model.draws)) / len(draws)
    assert np.array_equal(predict.predict(model, result), expected)


def test_draw_count_mismatch_raises():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((100, 2))
    y = (X[:, 0] > 0).astype(int)
    model = predict.train(ImputationResult((X, X + 0.01)), y,
                          LogisticSpec(fixed_penalty=1.0))
    for draws in ((X,), (X, X, X)):
        with pytest.raises(ConfigurationError, match=f"data has {len(draws)} draws but "
                                                     "the model has 2"):
            predict.predict(model, ImputationResult(draws))
    with pytest.raises(ConfigurationError, match="tuning data has 1 draws"):
        predict.train(ImputationResult((X, X + 0.01)), y, LogisticSpec(),
                      tune_result=ImputationResult((X,)), tune_outcome=y)


def test_indicator_columns_are_not_standardised():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((150, 2))
    ind = (rng.random((150, 2)) < 0.2).astype(float)
    result = ImputationResult((X,), indicator_columns=ind)
    y = (X[:, 0] > 0).astype(int)
    model = predict.train(result, y, LogisticSpec(fixed_penalty=1.0))
    dm = model.draws[0]
    assert np.allclose(dm.feature_means[2:], 0.0)
    assert np.allclose(dm.feature_stds[2:], 1.0)
    assert not np.allclose(dm.feature_means[:2], 0.0)


def test_constant_feature_does_not_break_standardisation():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((120, 3))
    X[:, 2] = 5.0
    y = (X[:, 0] > 0).astype(int)
    model = predict.train(ImputationResult((X,)), y, LogisticSpec(fixed_penalty=1.0))
    scores = predict.predict(model, ImputationResult((X,)))
    assert np.isfinite(scores).all()


@pytest.mark.parametrize("kwargs", [
    {"fixed_penalty": -1.0}, {"fixed_penalty": math.nan}, {"fixed_penalty": math.inf},
    {"penalty_grid": (0.0,)}, {"penalty_grid": (math.nan,)}, {"penalty_grid": (1.0, math.inf)},
    {"penalty_grid": ()},   # the tuned path indexed an empty list of fits
])
def test_logistic_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        LogisticSpec(**kwargs)


def test_feature_count_mismatch_rejected():
    result, y = _data()
    model = predict.train(result, y, LogisticSpec(fixed_penalty=1.0))
    with pytest.raises(ConfigurationError):
        predict.predict(model, ImputationResult((np.zeros((5, 7)),)))


def test_perfectly_separable_data_converges():
    X = np.linspace(-2, 2, 100)[:, None]
    y = (X[:, 0] > 0).astype(int)
    model = predict.train(ImputationResult((X,)), y, LogisticSpec(fixed_penalty=1.0))
    scores = predict.predict(model, ImputationResult((X,)))
    assert _auc_core(scores, y) == 1.0


def _perturbed_draws(n, draws, seed):
    """MICE-like draws: one base matrix, each draw redrawing ~1% of its rows."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = (rng.random(n) < _sigmoid(1.2 * X[:, 0] - 0.8 * X[:, 1] + 0.3)).astype(float)
    out = []
    for _ in range(draws):
        Xd = X.copy()
        rows = rng.random(n) < 0.01
        Xd[rows, 1] = rng.standard_normal(rows.sum())
        out.append(Xd)
    return out, y


def _fit(X, y, penalty, spec, start=None):
    """One draw's DrawModel as `train` fits it, `start` mapped into X's moments."""
    design, means, stds = predict._design(X, None)
    beta = predict._fit_draw(design, y, penalty, spec,
                             None if start is None else predict._warm_start(start, means, stds))
    return predict.DrawModel(beta[1:], float(beta[0]), means, stds)


def test_warm_and_cold_fits_agree():
    (X1, X2), y = _perturbed_draws(5000, 2, seed=10)
    spec = LogisticSpec()
    first = _fit(X1, y, 1.0, spec)
    cold = _fit(X2, y, 1.0, spec)
    warm = _fit(X2, y, 1.0, spec, start=first)
    assert np.max(np.abs(warm.weights - cold.weights)) < 1e-9
    assert abs(warm.intercept - cold.intercept) < 1e-9
    result = ImputationResult((X2,))
    cold_scores = predict._score_draws([(cold,)], result)[0]
    warm_scores = predict._score_draws([(warm,)], result)[0]
    assert np.array_equal(np.argsort(cold_scores, kind="stable"),
                          np.argsort(warm_scores, kind="stable"))


@pytest.mark.parametrize("size", [1e-9, 1e-7, 1e-5])
def test_start_next_to_the_optimum_converges_despite_rounding_noise(size):
    # The loss here is about 3e4, where one ulp (3.6e-12) exceeds an absolute
    # 1e-12 allowance: such a line search rejects steps whose only "increase"
    # is rounding noise, and stalls above the gradient tolerance.
    (X,), y = _perturbed_draws(60000, 1, seed=11)
    optimum = _fit(X, y, 1.0, LogisticSpec())
    for direction in range(3):
        offset = size * np.random.default_rng(direction).standard_normal(4)
        start = predict.DrawModel(
            weights=optimum.weights + offset[1:], intercept=optimum.intercept + offset[0],
            feature_means=optimum.feature_means, feature_stds=optimum.feature_stds)
        refit = _fit(X, y, 1.0, LogisticSpec(max_iterations=5), start=start)
        assert np.max(np.abs(refit.weights - optimum.weights)) < 1e-9


def test_warm_start_is_carried_through_raw_feature_space():
    # Two samples of one raw-space model whose covariate moments differ wildly:
    # x ~ N(0, 1) against u = 8 * x' + 3. Mapped through raw space, the fit on u
    # starts the fit on x closer to its optimum than zero does, and closer than
    # reusing its standardised coefficients unchanged.
    rng = np.random.default_rng(13)
    n = 4000
    x = rng.standard_normal((n, 1))
    u = 8.0 * rng.standard_normal((n, 1)) + 3.0
    logit = lambda v: 0.4 * v[:, 0] - 1.0
    y_x = (rng.random(n) < _sigmoid(logit(x))).astype(float)
    y_u = (rng.random(n) < _sigmoid(logit(u))).astype(float)
    spec = LogisticSpec(fixed_penalty=1.0)
    start = _fit(u, y_u, 1.0, spec)
    design, means, stds = predict._design(x, None)
    design = design.T
    ridge = np.array([0.0, 1.0])
    warm = predict._warm_start(start, means, stds)
    same_coordinates = np.concatenate(([start.intercept], start.weights))
    zero_loss = _penalised_loss(design, y_x, np.zeros(2), ridge)
    assert _penalised_loss(design, y_x, warm, ridge) < 0.9 * zero_loss
    assert _penalised_loss(design, y_x, warm, ridge) < \
        _penalised_loss(design, y_x, same_coordinates, ridge)
    cold = _fit(x, y_x, 1.0, spec)
    refit = _fit(x, y_x, 1.0, spec, start=start)
    assert np.max(np.abs(refit.weights - cold.weights)) < 1e-9


def _mice_train_cell():
    """The train partition of a 20,200-row S1 cohort, completed by 10 MICE draws."""
    config = harness.load_config(
        overrides={"population": {"n_majority": 20000, "n_marginalised": 200}})
    plan = harness._plan(config)
    cohort = generate(replace(plan["population"], seed=1))
    mask = apply_scenario(cohort, replace(plan["scenarios"][0], seed=2))    # S1
    train = split(cohort, mask, SplitSpec(0.8, 0.0, 0.2, 3))[0]
    fitted = impute.fit(train, impute.ImputerSpec("mice", seed=4))
    return impute.transform(fitted, train), train.outcome


def test_warm_started_cell_needs_far_fewer_loss_evaluations(monkeypatch):
    result, y = _mice_train_cell()
    assert result.n_draws == 10
    spec = LogisticSpec(fixed_penalty=1.0)
    calls = []
    newton_pass, fit_draw = predict._NewtonPass.__call__, predict._fit_draw
    monkeypatch.setattr(predict._NewtonPass, "__call__",
                        lambda self, beta: calls.append(1) or newton_pass(self, beta))
    warm = predict.train(result, y, spec)
    n_warm = len(calls)
    # every draw from zero, as each draw was fitted before warm starts
    monkeypatch.setattr(predict, "_fit_draw",
                        lambda design, y, penalty, spec, start=None:
                        fit_draw(design, y, penalty, spec))
    cold = predict.train(result, y, spec)
    assert n_warm <= 0.6 * (len(calls) - n_warm)
    for a, b in zip(warm.draws, cold.draws):
        assert np.max(np.abs(a.weights - b.weights)) < 1e-9


def test_penalty_path_matches_cold_fits():
    train_result, train_y = _data(n=3000, seed=15)
    tune_result, tune_y = _data(n=1000, seed=16)
    spec = LogisticSpec()
    model = predict.train(train_result, train_y, spec,
                          tune_result=tune_result, tune_outcome=tune_y)
    X = train_result.completed[0]
    cold = _fit(X, np.asarray(train_y, float), model.penalty, spec)
    assert np.max(np.abs(model.draws[0].weights - cold.weights)) < 1e-9


def test_fused_loss_matches_the_logaddexp_form():
    rng = np.random.default_rng(17)
    n = 2000
    design = np.hstack([np.ones((n, 1)), 30.0 * rng.standard_normal((n, 3))])
    y = (rng.random(n) < 0.4).astype(float)
    ridge = np.array([0.0, 0.5, 0.5, 0.5])
    for scale in (1e-3, 1.0, 40.0):
        beta = scale * rng.standard_normal(4)
        eta = design @ beta
        expected = np.sum(np.logaddexp(0.0, eta) - y * eta) + 0.5 * np.sum(ridge * beta * beta)
        loss = _penalised_loss(design, y, beta, ridge)
        assert type(loss) is float
        assert abs(loss - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("k", [2, 4, 13])
@pytest.mark.parametrize("rows", [1, 7, "block-1", "block", "block+1", 80800])
def test_newton_pass_matches_the_unblocked_formulas(k, rows):
    block = predict._BLOCK_ENTRIES // k
    n = {"block-1": block - 1, "block": block, "block+1": block + 1}.get(rows, rows)
    rng = np.random.default_rng(k * n)
    design = np.vstack([np.ones(n), rng.standard_normal((k - 1, n))])
    y = (rng.random(n) < 0.4).astype(float)
    ridge = np.r_[0.0, np.full(k - 1, 0.7)]
    beta = rng.standard_normal(k)
    beta *= 40.0 / np.max(np.abs(beta @ design))        # |eta| reaches 40
    newton = predict._NewtonPass(design, y, ridge)
    with np.errstate(over="raise"):
        loss, grad, hess = newton(beta)
        mu = _sigmoid(beta @ design)
    assert type(loss) is float
    assert abs(loss - _penalised_loss(design.T, y, beta, ridge)) <= 1e-12 * abs(loss)
    # the probability buffer holds the last block's rows
    tail = n - (n - 1) // newton.mu.size * newton.mu.size
    assert np.allclose(newton.mu[:tail], mu[-tail:], rtol=1e-13, atol=0)
    expected_grad = design @ (mu - y) + ridge * beta
    assert np.max(np.abs(grad - expected_grad)) <= 1e-10 * np.max(np.abs(expected_grad))
    w = np.maximum(mu * (1.0 - mu), 1e-10)
    expected_hess = (design * w) @ design.T + np.diag(ridge)
    assert np.max(np.abs(hess - expected_hess)) <= 1e-10 * np.max(np.abs(expected_hess))


@pytest.mark.parametrize("entries", [1, 150])
def test_fit_agrees_across_block_sizes(monkeypatch, entries):
    # tier-1's designs fit in one block of the default size; these cut them into
    # one-row blocks, and 37-row blocks with a short last one
    (X,), y = _perturbed_draws(1000, 1, seed=21)
    design = predict._design(X, None)[0]
    spec = LogisticSpec()
    expected = predict._fit_draw(design, y, 1.0, spec)
    monkeypatch.setattr(predict, "_BLOCK_ENTRIES", entries)
    assert np.allclose(predict._fit_draw(design, y, 1.0, spec), expected, rtol=0, atol=1e-10)


def test_each_newton_step_and_halving_costs_one_pass(monkeypatch):
    rng = np.random.default_rng(3)
    n = 2000
    X = rng.standard_normal((n, 3))
    y = (rng.random(n) < _sigmoid(2.0 * X[:, 0] - X[:, 1])).astype(float)
    design = predict._design(X, None)[0]
    spec = LogisticSpec()
    optimum = predict._fit_draw(design, y, 1.0, spec)
    passes, solves = [], []
    newton_pass, solve = predict._NewtonPass.__call__, np.linalg.solve

    def counted(self, beta):
        result = newton_pass(self, beta)
        passes.append((beta.copy(), result[0]))
        return result
    monkeypatch.setattr(predict._NewtonPass, "__call__", counted)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))

    def halvings(losses):
        """Candidates the line search rejects, replaying its rule on the pass losses."""
        current, rejected = losses[0], 0
        for loss in losses[1:]:
            if loss <= current + 1e-12 * max(1.0, abs(current)):
                current = loss
            else:
                rejected += 1
        return rejected

    # from zero; from twice the optimum, which beats zero's n log 2 but overshoots
    # once; from five times it, which loses to zero and costs one pass there
    for start, at_zero, halved in ((None, [0], 0), (2.0 * optimum, [], 1),
                                   (5.0 * optimum, [1], 0)):
        passes.clear()
        solves.clear()
        predict._fit_draw(design, y, 1.0, spec, start)
        assert [i for i, (beta, _) in enumerate(passes) if not beta.any()] == at_zero
        losses = [loss for _, loss in passes]
        if start is not None:
            assert (losses[0] < n * math.log(2.0)) == (not at_zero)
            losses = losses[len(at_zero):]      # the rejected start is no candidate
        assert halvings(losses) == halved
        assert len(losses) == len(solves) + halved + 1


def test_singular_newton_hessian_is_a_singular_system_error():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((120, 3))
    X[:, 2] = 5.0       # standardised to a zero row, which no penalty props up
    y = (rng.random(120) < _sigmoid(X[:, 0])).astype(int)
    with pytest.raises(SingularSystemError, match="Newton Hessian is singular"):
        predict.train(ImputationResult((X,)), y, LogisticSpec(fixed_penalty=0.0))


def test_design_is_feature_major_with_raw_moments():
    rng = np.random.default_rng(18)
    X = np.hstack([3.0 + 2.0 * rng.standard_normal((500, 2)), np.full((500, 1), 5.0),
                   (rng.random((500, 2)) < 0.2).astype(float)])
    design, means, stds = predict._design(X[:, :3], X[:, 3:])
    assert design.shape == (6, 500) and design.flags.c_contiguous
    assert np.array_equal(design[0], np.ones(500))
    assert np.allclose(means[:3], X[:, :3].mean(axis=0), rtol=1e-12, atol=0)
    assert np.allclose(stds[:2], X[:, :2].std(axis=0), rtol=1e-12, atol=0)
    assert stds[2] == 1.0 and np.all(design[3] == 0.0)     # a constant column keeps std 1
    assert np.allclose(design[1:3], ((X[:, :2] - means[:2]) / stds[:2]).T,
                       rtol=1e-12, atol=1e-12)
    assert np.array_equal(means[3:], [0.0, 0.0]) and np.array_equal(stds[3:], [1.0, 1.0])
    assert np.array_equal(design[4:], X[:, 3:].T)           # indicators copied unscaled


def test_tuned_train_builds_one_design_per_draw(monkeypatch):
    draws, y = _perturbed_draws(3000, 10, seed=19)
    tune_draws, tune_y = _perturbed_draws(1000, 10, seed=20)
    tune_result = ImputationResult(tuple(tune_draws))
    spec = LogisticSpec()
    designs, fits = [], []
    design, fit_draw = predict._design, predict._fit_draw
    monkeypatch.setattr(predict, "_design", lambda *a: designs.append(1) or design(*a))
    monkeypatch.setattr(predict, "_fit_draw", lambda *a: fits.append(1) or fit_draw(*a))
    model = predict.train(ImputationResult(tuple(draws)), y, spec,
                          tune_result=tune_result, tune_outcome=tune_y)
    assert (len(designs), len(fits)) == (10, 40)
    # the same start graph, penalties outer: draw i starts from draw i-1 at its
    # penalty, and each penalty's first draw from the one at the penalty before
    reference, start = {}, None
    for penalty in sorted(spec.penalty_grid):
        start = reference[max(reference)][0] if reference else None
        reference[penalty] = []
        for X in draws:
            start = _fit(X, y, penalty, spec, start)
            reference[penalty].append(start)
    for got, expected in zip(model.draws, reference[model.penalty]):
        assert np.allclose(got.weights, expected.weights, rtol=1e-12, atol=0)
        assert abs(got.intercept - expected.intercept) <= 1e-12 * abs(expected.intercept)
