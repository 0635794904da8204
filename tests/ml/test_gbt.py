"""Unit and property tests for repro.ml.gbt."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GradientBoostingRegressor, mdape

from tests.ml.grower_oracle import predict_binned


def _make_nonlinear(n=800, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 4))
    y = (
        10.0 * np.sin(3.0 * X[:, 0])
        + 5.0 * X[:, 1] ** 2
        + 2.0 * X[:, 2]
        + rng.normal(0, noise, n)
        + 20.0
    )
    return X, y


def training_rmse_per_round(model, X, y):
    """Training RMSE after each round, from the per-tree binned walk."""
    codes = model.binner_.transform(X)
    pred = np.full(y.shape[0], model.base_score_)
    scores = []
    for tree in model.trees_:
        pred += model.learning_rate * predict_binned(tree, codes)
        scores.append(float(np.sqrt(np.mean((pred - y) ** 2))))
    return np.array(scores)


class TestGBTFit:
    def test_fits_nonlinear_target(self):
        X, y = _make_nonlinear()
        m = GradientBoostingRegressor(
            n_estimators=150, max_depth=4, learning_rate=0.2, random_state=0
        ).fit(X, y)
        assert mdape(y, m.predict(X)) < 1.0

    def test_training_loss_monotone_nonincreasing(self):
        X, y = _make_nonlinear()
        m = GradientBoostingRegressor(
            n_estimators=60, max_depth=3, learning_rate=0.3
        ).fit(X, y)
        scores = training_rmse_per_round(m, X, y)
        assert np.all(np.diff(scores) <= 1e-9)

    def test_base_score_is_target_mean(self):
        X, y = _make_nonlinear(n=100)
        m = GradientBoostingRegressor(n_estimators=1).fit(X, y)
        assert m.base_score_ == pytest.approx(float(y.mean()))

    def test_single_tree_full_lr_reduces_error(self):
        X, y = _make_nonlinear(n=300)
        m = GradientBoostingRegressor(
            n_estimators=1, learning_rate=1.0, max_depth=3
        ).fit(X, y)
        pred = m.predict(X)
        assert np.mean((pred - y) ** 2) < np.var(y)

    def test_generalises_to_test_split(self):
        X, y = _make_nonlinear(n=2000, seed=1)
        m = GradientBoostingRegressor(
            n_estimators=200, max_depth=4, learning_rate=0.1, random_state=0
        ).fit(X[:1400], y[:1400])
        assert mdape(y[1400:], m.predict(X[1400:])) < 2.0

    def test_subsampling_still_learns(self):
        X, y = _make_nonlinear(n=1500, seed=2)
        m = GradientBoostingRegressor(
            n_estimators=150,
            max_depth=4,
            learning_rate=0.15,
            subsample=0.7,
            colsample_bytree=0.75,
            random_state=3,
        ).fit(X, y)
        assert mdape(y, m.predict(X)) < 3.0

    def test_deterministic_given_seed(self):
        X, y = _make_nonlinear(n=400)
        kw = dict(n_estimators=30, subsample=0.8, colsample_bytree=0.8, random_state=7)
        p1 = GradientBoostingRegressor(**kw).fit(X, y).predict(X)
        p2 = GradientBoostingRegressor(**kw).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)


class TestGBTValidation:
    def test_bad_hyperparams(self):
        for kw in (
            dict(n_estimators=0),
            dict(learning_rate=0.0),
            dict(learning_rate=1.5),
            dict(subsample=0.0),
            dict(colsample_bytree=1.5),
        ):
            with pytest.raises(ValueError):
                GradientBoostingRegressor(**kw)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 1)))

    def test_predict_wrong_width(self):
        X, y = _make_nonlinear(n=50)
        m = GradientBoostingRegressor(n_estimators=2).fit(X, y)
        with pytest.raises(ValueError):
            m.predict(np.zeros((3, 2)))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((1, 2)), np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        # Used to return a model that predicts NaN everywhere.
        X, y = _make_nonlinear(n=50)
        y[7] = bad
        with pytest.raises(ValueError, match="y contains"):
            GradientBoostingRegressor(n_estimators=2).fit(X, y)


class TestGBTExplanation:
    def test_importances_identify_informative_features(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(1000, 5))
        y = 10.0 * np.sin(4 * X[:, 1]) + X[:, 3]
        m = GradientBoostingRegressor(
            n_estimators=80, max_depth=3, random_state=0
        ).fit(X, y)
        imp = m.feature_importances("gain")
        assert imp.sum() == pytest.approx(1.0)
        assert imp[1] == imp.max()
        assert imp[[0, 2, 4]].max() < imp[1]

    def test_count_importances(self):
        X, y = _make_nonlinear(n=300)
        m = GradientBoostingRegressor(n_estimators=20, max_depth=3).fit(X, y)
        imp = m.feature_importances("count")
        assert imp.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            m.feature_importances("weight")


@settings(max_examples=15, deadline=None)
@given(st.integers(50, 200), st.integers(0, 1000))
def test_property_more_trees_never_hurt_training_rmse(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = X[:, 0] * X[:, 1] + rng.normal(0, 0.1, n)
    m = GradientBoostingRegressor(
        n_estimators=40, max_depth=3, learning_rate=0.3
    ).fit(X, y)
    scores = training_rmse_per_round(m, X, y)
    assert np.all(np.diff(scores) <= 1e-9)
    assert scores[-1] <= scores[0]
