import numpy as np
import pytest

from missfair import predict
from missfair.data_model import ConfigurationError, ImputationResult
from missfair.metrics import _auc_core
from missfair.predict import LogisticSpec, _penalised_loss, _sigmoid


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
    s1 = predict.predict(model, ImputationResult((X1,)))
    assert scores.shape == (200,)
    assert not np.array_equal(scores, s1)        # averaging differs from broadcast


def test_single_draw_broadcasts_against_multi_draw_model():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((100, 2))
    y = (X[:, 0] > 0).astype(int)
    model = predict.train(ImputationResult((X, X + 0.01)), y,
                          LogisticSpec(fixed_penalty=1.0))
    scores = predict.predict(model, ImputationResult((X,)))
    assert scores.shape == (100,)
    with pytest.raises(ConfigurationError):
        predict.predict(model, ImputationResult((X, X, X)))


def test_indicator_columns_are_not_standardised():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((150, 2))
    ind = (rng.random((150, 2)) < 0.2).astype(float)
    result = ImputationResult((X,), indicators_appended=True, indicator_columns=ind)
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
