"""The GBT pickle state (``repro.ml.gbt``): one packed node table per model.

Fitted models cross the worker pipe of ``repro.exec.parallel_map`` in this
state.  What comes out must be the model that went in, bit for bit, and
the JSON codec of ``repro.ml.persistence`` (the cache and journal format)
must see the same model.
"""

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import forest_totals
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.persistence import model_to_dict
from repro.ml.tree import RegressionTree

TREE_FIELDS = (
    "node_feature_",
    "node_bin_",
    "node_left_",
    "node_right_",
    "node_value_",
    "node_gain_",
    "feature_gain_",
    "feature_count_",
)
FOREST_FIELDS = ("feature_", "threshold_", "left_", "value_", "roots_")


def assert_same_array(a, b):
    """Same shape, dtype and bytes (NaN payloads and signed zeros too)."""
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_same_gbt(a, b):
    """Two GBT models equal in every fitted attribute: trees, binner and
    memoized forest."""
    assert type(a) is type(b) is GradientBoostingRegressor
    assert a.base_score_ == b.base_score_
    assert a.n_features_ == b.n_features_
    assert len(a.trees_) == len(b.trees_)
    for ta, tb in zip(a.trees_, b.trees_):
        assert ta.params == tb.params
        for name in TREE_FIELDS:
            assert_same_array(getattr(ta, name), getattr(tb, name))
    if a.binner_ is None:
        assert b.binner_ is None
    else:
        assert_same_array(a.binner_.n_bins_, b.binner_.n_bins_)
        for ea, eb in zip(a.binner_.upper_edges_, b.binner_.upper_edges_):
            assert_same_array(ea, eb)
    if a._forest is None:
        assert b._forest is None
    else:
        for name in FOREST_FIELDS:
            assert_same_array(getattr(a._forest, name), getattr(b._forest, name))
        for name in ("max_depth", "base_score", "n_trees"):
            assert getattr(a._forest, name) == getattr(b._forest, name)


def _round_trip(model):
    return pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))


def _data(seed, n=120, d=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.1, n)
    return X, y


def _fit(n_estimators, depth, seed):
    X, y = _data(seed)
    model = GradientBoostingRegressor(
        n_estimators=n_estimators,
        learning_rate=0.5,
        max_depth=depth,
        subsample=0.8,
        colsample_bytree=0.75,
        random_state=seed,
    )
    return model.fit(X, y), X


class _Census(pickle.Pickler):
    """A pickler that counts the arrays and trees it is handed."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays = 0
        self.trees = 0

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            self.arrays += 1
        elif isinstance(obj, RegressionTree):
            self.trees += 1
        return NotImplemented


def _census(model):
    census = _Census(io.BytesIO())
    census.dump(model)
    return census


@settings(max_examples=25, deadline=None)
@given(
    n_estimators=st.integers(1, 40),
    depth=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    forest_built=st.booleans(),
)
def test_property_round_trip_is_bit_exact(n_estimators, depth, seed, forest_built):
    model, X = _fit(n_estimators, depth, seed)
    if forest_built:
        model.predict(X[:1])
    copy = _round_trip(model)
    assert_same_gbt(model, copy)
    X_new = np.random.default_rng(seed + 1).uniform(-0.5, 1.5, size=(40, 4))
    assert_same_array(copy.predict(X_new), model.predict(X_new))
    for kind in ("gain", "count"):
        assert_same_array(
            copy.feature_importances(kind), model.feature_importances(kind)
        )
    assert model_to_dict(copy) == model_to_dict(model)


def test_state_holds_a_fixed_number_of_arrays_and_no_trees():
    small, X = _fit(1, 3, 3)
    large, _ = _fit(40, 3, 3)
    for model in (small, large):
        model.predict(X[:1])  # the memoized forest rides along
    counts = [_census(m) for m in (small, large)]
    assert [c.trees for c in counts] == [0, 0]
    assert counts[0].arrays == counts[1].arrays


def test_forest_rides_along():
    model, X = _fit(20, 3, 5)
    model.predict(X[:1])
    copy = _round_trip(model)
    assert copy._forest is not None
    builds = forest_totals()["builds"]
    copy.predict(X)
    assert forest_totals()["builds"] == builds


def test_refit_after_round_trip_grows_the_same_trees():
    model, _ = _fit(25, 4, 11)
    X, y = _data(12)
    refit = _round_trip(model).fit(X, y)
    fresh = GradientBoostingRegressor(
        n_estimators=25,
        learning_rate=0.5,
        max_depth=4,
        subsample=0.8,
        colsample_bytree=0.75,
        random_state=11,
    ).fit(X, y)
    assert_same_gbt(refit, fresh)


def test_unfitted_model_round_trips():
    model = GradientBoostingRegressor(n_estimators=5, max_depth=2)
    copy = _round_trip(model)
    assert copy.trees_ == [] and copy.binner_ is None
    with pytest.raises(RuntimeError, match="before fit"):
        copy.predict(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="unfitted"):
        model_to_dict(copy)
    X, y = _data(2)
    assert_same_gbt(copy.fit(X, y), model.fit(X, y))
