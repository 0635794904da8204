"""From-scratch machine-learning stack used by the transfer-rate models.

The paper's data-driven pipeline (§5) uses linear regression and eXtreme
Gradient Boosting.  Neither scikit-learn nor xgboost are assumed to be
available, so this package implements the required pieces on top of NumPy:

- :class:`~repro.ml.scaler.StandardScaler` — zero-mean / unit-variance
  normalisation (§5, preprocessing).
- :class:`~repro.ml.linear.LinearRegression` — ordinary least squares with a
  coefficient report used for the Figure 9 explanation study.
- :class:`~repro.ml.tree.RegressionTree` — histogram second-order
  regression tree, the weak learner boosting grows.
- :class:`~repro.ml.gbt.GradientBoostingRegressor` — XGBoost-style
  second-order gradient boosting with shrinkage, L2 leaf regularisation,
  row/column subsampling and gain-based feature importances (Figure 12).
- :mod:`~repro.ml.metrics` — MdAPE and friends (§5.3).
- :mod:`~repro.ml.correlation` — Pearson correlation coefficient and a
  MINE-style maximal information coefficient (Table 5).
- :mod:`~repro.ml.weibull` — the Weibull throughput-vs-concurrency curve fit
  of Figure 4.
- :mod:`~repro.ml.selection` — train/test splitting and low-variance feature
  elimination (the red crosses of Figures 9 and 12).
"""

from repro.ml.scaler import StandardScaler
from repro.ml.linear import LinearRegression
from repro.ml.tree import RegressionTree
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.metrics import (
    mdape,
    mape,
    absolute_percentage_errors,
    percentile_absolute_percentage_error,
    rmse,
    r2_score,
)
from repro.ml.correlation import pearson_cc, mic, mic_mine
from repro.ml.weibull import WeibullCurve, fit_weibull_curve
from repro.ml.selection import train_test_split, low_variance_features
from repro.ml.persistence import save_model, load_model

__all__ = [
    "StandardScaler",
    "LinearRegression",
    "RegressionTree",
    "GradientBoostingRegressor",
    "mdape",
    "mape",
    "absolute_percentage_errors",
    "percentile_absolute_percentage_error",
    "rmse",
    "r2_score",
    "pearson_cc",
    "mic",
    "mic_mine",
    "save_model",
    "load_model",
    "WeibullCurve",
    "fit_weibull_curve",
    "train_test_split",
    "low_variance_features",
]
