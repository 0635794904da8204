"""Unit and property tests for repro.ml.binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.binning import QuantileBinner


class TestQuantileBinner:
    def test_small_cardinality_one_bin_per_value(self):
        X = np.array([[1.0], [2.0], [2.0], [5.0]])
        b = QuantileBinner(max_bins=8).fit(X)
        assert b.n_bins_[0] == 3
        codes = b.transform(X)
        assert codes[:, 0].tolist() == [0, 1, 1, 2]

    def test_codes_within_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 3))
        b = QuantileBinner(max_bins=64).fit(X)
        codes = b.transform(X)
        for f in range(3):
            assert codes[:, f].max() < b.n_bins_[f]

    def test_unseen_values_clamp(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        b = QuantileBinner(max_bins=10).fit(X)
        codes = b.transform(np.array([[-5.0], [99.0]]))
        assert codes[0, 0] == 0
        assert codes[1, 0] == b.n_bins_[0] - 1

    def test_threshold_value_consistent_with_codes(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(1000, 3))
        b = QuantileBinner(max_bins=16).fit(X)
        # Every cut a tree may make: each feature's bins but its last.
        feature = np.repeat(np.arange(3), b.n_bins_ - 1)
        cut = np.concatenate([np.arange(nb - 1) for nb in b.n_bins_])
        thr = b.threshold_value(feature, cut)
        assert thr[5] == b.threshold_value(int(feature[5]), int(cut[5]))
        # Inputs on the edges: NaN, +-inf and each exact threshold.
        on_cut = np.full((thr.size, 3), 0.5)
        on_cut[np.arange(thr.size), feature] = thr
        specials = np.array([[np.nan, np.inf, -np.inf]])
        Xt = np.vstack([X, on_cut, specials, np.roll(specials, 1, axis=1)])
        codes = b.transform(Xt)
        # code <= cut  <=>  x <= threshold, with NaN compared as +inf
        assert np.array_equal(
            codes[:, feature] <= cut, np.fmin(Xt[:, feature], np.inf) <= thr
        )

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            QuantileBinner().fit(np.array([[np.nan], [1.0]]))

    def test_rejects_bad_max_bins(self):
        with pytest.raises(ValueError):
            QuantileBinner(max_bins=1)

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            QuantileBinner().transform(np.zeros((2, 2)))

    def test_constant_column_single_bin(self):
        X = np.full((50, 2), 7.5)
        b = QuantileBinner(max_bins=32).fit(X)
        assert b.n_bins_.tolist() == [1, 1]
        codes = b.transform(np.array([[-1e9, 7.5], [7.5, 1e9]]))
        assert codes.max() == 0  # everything clamps into the only bin

    def test_single_row_fit(self):
        X = np.array([[3.0, -2.0]])
        b = QuantileBinner(max_bins=4).fit(X)
        assert b.n_bins_.tolist() == [1, 1]
        assert b.transform(X).tolist() == [[0, 0]]

    def test_max_bins_two_splits_at_median(self):
        X = np.arange(100, dtype=np.float64).reshape(-1, 1)
        b = QuantileBinner(max_bins=2).fit(X)
        assert b.n_bins_[0] == 2
        codes = b.transform(X)[:, 0]
        # Monotone two-way partition covering both codes.
        assert set(codes.tolist()) == {0, 1}
        assert np.all(np.diff(codes.astype(np.int64)) >= 0)

    def test_mixed_constant_and_varied_columns(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.zeros(200), rng.uniform(size=200)])
        b = QuantileBinner(max_bins=8).fit(X)
        assert b.n_bins_[0] == 1
        assert b.n_bins_[1] > 1
        codes = b.transform(X)
        assert np.all(codes[:, 0] == 0)
        assert codes[:, 1].max() == b.n_bins_[1] - 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=300),
    st.integers(2, 32),
)
def test_property_binning_preserves_order(values, max_bins):
    """Bin codes are a monotone function of the raw values."""
    X = np.array(values).reshape(-1, 1)
    b = QuantileBinner(max_bins=max_bins).fit(X)
    codes = b.transform(X)[:, 0].astype(np.int64)
    order = np.argsort(X[:, 0], kind="stable")
    sorted_codes = codes[order]
    assert np.all(np.diff(sorted_codes) >= 0)
    # Equal values always share a code.
    v_sorted = X[order, 0]
    same = np.diff(v_sorted) == 0
    assert np.all(np.diff(sorted_codes)[same] == 0)
