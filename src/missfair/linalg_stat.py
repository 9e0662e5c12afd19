"""Small numeric kernel: least squares and normal-distribution helpers."""

import math

import numpy as np


class SingularSystemError(ValueError):
    """Raised when a normal-equation system stays singular after jitter escalation."""


def ols_solve(design, target):
    """Solve X'X w = X'y by Cholesky with diagonal-jitter fallback.

    Returns (coefficients, residual_std). residual_std uses a degrees-of-freedom
    correction (n - p); it is 0.0 when the fit is exact or dof <= 0.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in regression inputs")
    n, p = X.shape
    if n < p:
        raise ValueError(f"under-determined system ({n} rows, {p} columns)")

    A = X.T @ X
    b = X.T @ y
    # MICE designs can be collinear after constant-fill initialisation; escalate
    # a tiny diagonal jitter instead of failing outright.
    jitter = 1e-10 * np.trace(A) / p if p else 0.0
    coef = None
    for attempt in range(4):
        try:
            L = np.linalg.cholesky(A + (jitter * 100**attempt if attempt else 0.0) * np.eye(p))
        except np.linalg.LinAlgError:
            continue
        z = np.linalg.solve(L, b)
        coef = np.linalg.solve(L.T, z)
        break
    if coef is None:
        raise SingularSystemError("normal equations singular after 3 jitter escalations")

    resid = y - X @ coef
    dof = n - p
    if dof > 0:
        residual_std = float(np.sqrt(max(resid @ resid, 0.0) / dof))
    else:
        residual_std = 0.0
    return coef, residual_std


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Rational approximation coefficients (Acklam), refined below with one Halley step.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425


def normal_cdf_inv(p):
    """Inverse standard-normal CDF, absolute error below 1e-9 on (1e-6, 1-1e-6)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    # One Halley refinement step.
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)
