import numpy as np
import pytest

from missfair.linalg_stat import SingularSystemError, ols_solve


def test_ols_recovers_exact_coefficients():
    rng = np.random.default_rng(0)
    X = np.hstack([np.ones((200, 1)), rng.standard_normal((200, 3))])
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    y = X @ beta
    coef, resid_std = ols_solve(X, y)
    assert np.allclose(coef, beta, atol=1e-8)
    assert resid_std == pytest.approx(0.0, abs=1e-7)


def test_ols_residual_std_uses_dof_adjustment():
    rng = np.random.default_rng(1)
    n, p = 50000, 3
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
    y = X @ np.array([0.5, 1.0, -1.0]) + 2.0 * rng.standard_normal(n)
    _, resid_std = ols_solve(X, y)
    assert resid_std == pytest.approx(2.0, rel=0.02)


def test_ols_matches_lstsq():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((80, 5))
    y = rng.standard_normal(80)
    coef, _ = ols_solve(X, y)
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.allclose(coef, expected, atol=1e-8)


def test_collinear_design_survives_via_jitter():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(30)
    X = np.column_stack([x, x])
    y = 2.0 * x
    coef, _ = ols_solve(X, y)
    assert np.isfinite(coef).all()
    assert np.allclose(X @ coef, y, atol=1e-3)


def test_unsolvable_system_raises():
    X = np.zeros((10, 2))
    with pytest.raises(SingularSystemError):
        ols_solve(X, np.ones(10))
