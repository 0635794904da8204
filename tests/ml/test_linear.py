"""Unit and property tests for repro.ml.linear."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import LinearRegression


class TestLinearRegression:
    def test_recovers_exact_line(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = 3.0 * X[:, 0] + 2.0
        m = LinearRegression().fit(X, y)
        assert m.intercept_ == pytest.approx(2.0)
        assert m.coef_[0] == pytest.approx(3.0)
        assert np.allclose(m.predict(X), y)

    def test_recovers_multivariate_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        beta = np.array([1.0, -2.0, 0.5, 4.0])
        y = X @ beta + 7.0
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.coef_, beta, atol=1e-10)
        assert m.intercept_ == pytest.approx(7.0)

    def test_no_intercept(self):
        X = np.array([[1.0], [2.0]])
        y = np.array([2.0, 4.0])
        m = LinearRegression(fit_intercept=False).fit(X, y)
        assert m.intercept_ == 0.0
        assert m.coef_[0] == pytest.approx(2.0)

    def test_collinear_features_still_fit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100)
        X = np.column_stack([x, 2.0 * x])  # rank deficient
        y = 3.0 * x + 1.0
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.predict(X), y, atol=1e-8)
        assert m.rank_ == 2  # intercept + one independent direction

    def test_least_squares_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        m = LinearRegression().fit(X, y)
        resid = y - m.predict(X)
        # Normal equations: residuals orthogonal to columns and to 1.
        assert abs(resid.sum()) < 1e-8
        assert np.allclose(X.T @ resid, 0.0, atol=1e-8)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            LinearRegression().fit(np.ones(3), np.ones(3))
        m = LinearRegression().fit(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            m.predict(np.ones((2, 5)))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.ones((1, 1)))

    def test_predict_is_row_independent(self):
        """A row's prediction is bit-equal whether it comes alone, in any
        subset of the batch, or from a Fortran-ordered or strided copy."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1330, 17)) * rng.uniform(1e-3, 1e9, 17)
        m = LinearRegression().fit(X, rng.normal(size=1330))
        full = m.predict(X)
        assert all(m.predict(X[i:i + 1])[0] == full[i] for i in range(len(X)))
        idx = rng.choice(len(X), 300, replace=False)
        assert np.array_equal(m.predict(X[idx]), full[idx])
        assert np.array_equal(m.predict(np.asfortranarray(X)), full)
        assert np.array_equal(m.predict(np.repeat(X, 2, axis=1)[:, ::2]), full)

    def test_predict_without_features_is_the_intercept(self):
        m = LinearRegression().fit(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(m.predict(np.zeros((2, 0))), [2.0, 2.0])


class TestCoefficientReport:
    def test_relative_significance_max_is_one(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        y = X @ np.array([1.0, -4.0, 2.0])
        rep = LinearRegression().fit(X, y).coefficient_report(["a", "b", "c"])
        assert rep.relative_significance.max() == pytest.approx(1.0)
        assert rep.ranked()[0][0] == "b"

    def test_name_count_mismatch(self):
        m = LinearRegression().fit(np.ones((3, 2)) * np.arange(3)[:, None], np.arange(3.0))
        with pytest.raises(ValueError):
            m.coefficient_report(["only-one"])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(20, 80),
    st.integers(0, 1000),
)
def test_property_exact_recovery_noiseless(n_features, n_samples, seed):
    """OLS recovers the generating coefficients exactly on noiseless data."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    beta = rng.uniform(-5, 5, n_features)
    b0 = rng.uniform(-5, 5)
    y = X @ beta + b0
    m = LinearRegression().fit(X, y)
    assert np.allclose(m.coef_, beta, atol=1e-6)
    assert m.intercept_ == pytest.approx(b0, abs=1e-6)
