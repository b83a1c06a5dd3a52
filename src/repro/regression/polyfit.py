"""Ordinary least squares with diagnostics.

A thin, explicit OLS layer over :func:`numpy.linalg.lstsq`: callers build
a design matrix (see :mod:`repro.regression.design`), get back an
:class:`OLSResult` carrying coefficients, goodness-of-fit statistics and
coefficient standard errors (from the residual variance, with numpy).
The regression models of the paper (eqs. 3 and 5) are all small dense
problems, so numerical exotica (regularization, QR pivoting) is
deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError, RegressionError


@dataclass(frozen=True)
class OLSResult:
    """Result of an ordinary-least-squares fit.

    Attributes
    ----------
    coefficients:
        Fitted parameter vector, one entry per design-matrix column.
    r_squared:
        Coefficient of determination against the mean-only model (may be
        negative for through-origin fits on pathological data).
    rmse:
        Root-mean-square residual in the units of ``y``.
    n_samples:
        Number of observations used.
    std_errors:
        Per-coefficient standard errors (NaN when the fit is saturated).
    """

    coefficients: np.ndarray
    r_squared: float
    rmse: float
    n_samples: int
    std_errors: np.ndarray

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Apply the fitted coefficients to a design matrix."""
        design = np.asarray(design, dtype=float)
        if design.ndim != 2 or design.shape[1] != self.coefficients.shape[0]:
            raise RegressionError(
                f"design matrix shape {design.shape} incompatible with "
                f"{self.coefficients.shape[0]} coefficients"
            )
        return design @ self.coefficients


def ols_fit(design: np.ndarray, y: np.ndarray) -> OLSResult:
    """Fit ``y ~ design @ beta`` by ordinary least squares.

    Parameters
    ----------
    design:
        ``(n, p)`` design matrix.  Include a column of ones explicitly if
        an intercept is wanted; through-origin fits simply omit it.
    y:
        ``(n,)`` response vector.

    Raises
    ------
    InsufficientDataError
        If ``n < p``.
    RegressionError
        If the inputs contain NaN/inf or the design is empty.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if design.ndim != 2:
        raise RegressionError(f"design must be 2-D, got shape {design.shape}")
    n, p = design.shape
    if p == 0:
        raise RegressionError("design matrix has no columns")
    if y.shape[0] != n:
        raise RegressionError(
            f"{n} design rows but {y.shape[0]} responses"
        )
    if n < p:
        raise InsufficientDataError(
            f"need at least {p} samples to fit {p} coefficients, got {n}"
        )
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(y))):
        raise RegressionError("design/response contain non-finite values")

    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p:
        # Rank-deficient designs happen when the profile grid degenerates
        # (e.g. a single utilization level feeding the stage-2 fit).  The
        # minimum-norm solution is still returned, but flag it loudly.
        raise RegressionError(
            f"rank-deficient design (rank {rank} < {p} columns); "
            "widen the profiling grid"
        )

    residuals = y - design @ coeffs
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    rmse = float(np.sqrt(ss_res / n))

    dof = n - p
    if dof > 0:
        sigma2 = ss_res / dof
        try:
            cov = sigma2 * np.linalg.inv(design.T @ design)
            std_errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        except np.linalg.LinAlgError:  # pragma: no cover - guarded by rank check
            std_errors = np.full(p, np.nan)
    else:
        std_errors = np.full(p, np.nan)

    return OLSResult(
        coefficients=coeffs,
        r_squared=float(r_squared),
        rmse=rmse,
        n_samples=n,
        std_errors=std_errors,
    )
