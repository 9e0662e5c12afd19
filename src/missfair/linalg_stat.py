"""Small numeric kernel: least squares."""

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
