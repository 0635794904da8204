"""Ordinary-least-squares linear regression (§5.1).

The paper fits ``R_i = beta_0 + beta_1 x_i1 + ... + beta_m x_im`` per edge by
minimising the residual sum of squares (Eq. 3–4), on standardised inputs.
Because inputs are standardised, the magnitude of each coefficient is directly
comparable across features and is what Figure 9 plots ("relative significance
of features in the linear model").

We solve via ``numpy.linalg.lstsq`` (SVD-backed), which stays stable when
features are collinear — common here because stream counts S are near
multiples of contending rates K on some edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LinearRegression", "CoefficientReport"]


@dataclass
class CoefficientReport:
    """Named view of a fitted linear model, for explanation (Figure 9).

    Attributes
    ----------
    feature_names:
        Names aligned with :attr:`coefficients`.
    coefficients:
        Raw fitted betas (excluding the intercept).
    relative_significance:
        ``|beta| / max|beta|`` — the bubble sizes of Figure 9, where each
        edge's coefficients are scaled by the edge's maximum.
    intercept:
        beta_0.
    """

    feature_names: list[str]
    coefficients: np.ndarray
    intercept: float
    relative_significance: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mags = np.abs(self.coefficients)
        top = mags.max() if mags.size else 0.0
        self.relative_significance = mags / top if top > 0 else mags

    def ranked(self) -> list[tuple[str, float]]:
        """(name, relative significance), most significant first."""
        order = np.argsort(-self.relative_significance)
        return [
            (self.feature_names[i], float(self.relative_significance[i]))
            for i in order
        ]


class LinearRegression:
    """Least-squares linear model with optional intercept.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [1.0], [2.0]])
    >>> y = np.array([1.0, 3.0, 5.0])
    >>> m = LinearRegression().fit(X, y)
    >>> round(m.intercept_, 6), round(float(m.coef_[0]), 6)
    (1.0, 2.0)
    """

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.rank_: int | None = None
        self.singular_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        if self.fit_intercept:
            A = np.hstack([np.ones((X.shape[0], 1)), X])
        else:
            A = X
        beta, _residuals, rank, sv = np.linalg.lstsq(A, y, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(beta[0])
            self.coef_ = beta[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = beta
        self.rank_ = int(rank)
        self.singular_ = sv
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LinearRegression used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"X shape {X.shape} incompatible with {self.coef_.shape[0]} "
                "fitted coefficients"
            )
        # Accumulate column by column in a fixed order, so each row's
        # answer depends on that row alone.  ``X @ coef_`` (BLAS gemv)
        # rounds a row differently depending on how many rows share the
        # call, and ``(X * coef_).sum(axis=1)`` depends on X's memory
        # layout; either would make a served answer depend on its batch.
        out = np.zeros(X.shape[0])
        for j, c in enumerate(self.coef_):
            out += X[:, j] * c
        return out + self.intercept_

    def coefficient_report(self, feature_names: list[str]) -> CoefficientReport:
        """Build the Figure 9 explanation view of this model."""
        if self.coef_ is None:
            raise RuntimeError("LinearRegression used before fit()")
        if len(feature_names) != self.coef_.shape[0]:
            raise ValueError(
                f"{len(feature_names)} names for {self.coef_.shape[0]} coefficients"
            )
        return CoefficientReport(
            feature_names=list(feature_names),
            coefficients=self.coef_.copy(),
            intercept=self.intercept_,
        )
