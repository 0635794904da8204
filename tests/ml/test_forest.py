"""Flattened forest kernel: bit-parity with the per-tree reference loop.

The kernel's contract is exact: ``GradientBoostingRegressor.predict``
(one node table of raw thresholds, all trees at once) must be
*bit-identical* to :func:`predict_tree_loop` (the per-tree binned walk
of ``tests/ml/grower_oracle.py`` over binned codes, summed in tree order)
for any fitted model.  These tests pin that property over randomized
models — varied depth, bin budgets, subsampling — and at the edges of
the raw compare (NaN, ±inf, exact thresholds), plus the counter side
contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GBTSettings
from repro.ml.forest import (
    FlattenedForest,
    forest_totals,
    reset_forest_totals,
)
from repro.ml.gbt import GradientBoostingRegressor

from tests.ml.grower_oracle import predict_binned


def predict_tree_loop(model, X):
    """Reference prediction: each tree's binned walk, summed in order."""
    codes = model.binner_.transform(np.asarray(X, dtype=np.float64))
    out = np.full(codes.shape[0], model.base_score_)
    for tree in model.trees_:
        out += model.learning_rate * predict_binned(tree, codes)
    return out


def _data(seed: int, n: int = 240, n_features: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, n_features))
    y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.1, n)
    X_test = rng.uniform(-0.2, 1.2, size=(80, n_features))  # incl. clamping
    return X, y, X_test


class TestForestParity:
    def test_bit_identical_to_tree_loop(self):
        X, y, X_test = _data(0)
        model = GradientBoostingRegressor(
            n_estimators=40, max_depth=4, random_state=0
        ).fit(X, y)
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    def test_single_row_and_single_tree(self):
        X, y, X_test = _data(1)
        model = GradientBoostingRegressor(
            n_estimators=1, max_depth=2, random_state=0
        ).fit(X, y)
        one = X_test[:1]
        assert np.array_equal(model.predict(one), predict_tree_loop(model, one))

    def test_unpacked_wide_bin_path(self):
        # Bin codes wider than 15 bits: raw thresholds see no bin width,
        # and results must still match the loop exactly.
        X, y, X_test = _data(3)
        model = GradientBoostingRegressor(
            n_estimators=15, max_depth=3, max_bins=0x8000, random_state=0
        ).fit(X, y)
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    def test_tied_top_edge(self):
        # A tied top value makes the binner's last edge repeat the last
        # quantile; x > edge still equals code > bin on sorted edges.
        X, y, X_test = _data(13)
        X[:120, 0] = X[:, 0].max()
        model = GradientBoostingRegressor(
            n_estimators=10, max_depth=3, max_bins=4, random_state=0
        ).fit(X, y)
        edges = model.binner_.upper_edges_[0]
        assert edges[-1] == edges[-2]
        X_test[:10, 0] = edges[-1]
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 6),
        max_bins=st.sampled_from([2, 3, 16, 256]),
        subsample=st.sampled_from([0.6, 1.0]),
        colsample=st.sampled_from([0.5, 1.0]),
    )
    def test_property_parity_over_random_models(
        self, seed, depth, max_bins, subsample, colsample
    ):
        X, y, X_test = _data(seed, n=120, n_features=4)
        model = GradientBoostingRegressor(
            n_estimators=12,
            max_depth=depth,
            max_bins=max_bins,
            subsample=subsample,
            colsample_bytree=colsample,
            random_state=seed,
        ).fit(X, y)
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    def test_refit_invalidates_forest(self):
        X, y, X_test = _data(5)
        model = GradientBoostingRegressor(
            n_estimators=10, max_depth=3, random_state=0
        ).fit(X, y)
        first = model.predict(X_test)
        model.fit(X, -y)
        second = model.predict(X_test)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, predict_tree_loop(model, X_test))


SERVING_TREES = 300
# Rows per kernel chunk for a serving-size model (32768 // 300 = 109).
CHUNK = FlattenedForest._TARGET_LANES // SERVING_TREES


@pytest.fixture(scope="module")
def serving_model():
    """A model with the serving chain's GBT settings: 300 trees, depth 4."""
    X, y, _ = _data(12, n=400, n_features=15)
    model = GBTSettings().build(0).fit(X, y)
    assert len(model.trees_) == SERVING_TREES
    return model


def _rows(n: int, lo: float = -0.2, hi: float = 1.2) -> np.ndarray:
    return np.random.default_rng(n).uniform(lo, hi, size=(n, 15))


class TestServingShapeParity:
    """Parity at the row counts serving sends: one row, and around the
    kernel's chunk boundary, where one call crosses into further chunks.
    A one-tree model cannot see summation order; 300 trees can."""

    def test_one_row(self, serving_model):
        one = _rows(1)
        assert np.array_equal(
            serving_model.predict(one), predict_tree_loop(serving_model, one)
        )

    # Around the second chunk boundary, and on into a fifth chunk; the
    # compare-edge test below covers the first.
    @pytest.mark.parametrize(
        "n", [2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 4 * CHUNK + 3]
    )
    def test_rows_around_chunk_boundary(self, serving_model, n):
        X = _rows(n)
        assert np.array_equal(
            serving_model.predict(X), predict_tree_loop(serving_model, X)
        )

    def test_rows_outside_training_range(self, serving_model):
        X = np.vstack([_rows(40, -1e6, -1.0), _rows(41, 2.0, 1e6)])
        assert np.array_equal(
            serving_model.predict(X), predict_tree_loop(serving_model, X)
        )

    # The kernel compares raw values where the oracle compares bin codes:
    # these rows sit on the edges of that equivalence.  NaN bins last like
    # +inf, -inf bins first, and a value equal to a split's threshold
    # (``upper_edges_[f][b]``) has code b, so it goes left.
    @pytest.mark.parametrize("kind", ["nan", "+inf", "-inf", "cut", "all-nan"])
    def test_one_row_at_compare_edges(self, serving_model, kind):
        row = _edge_rows(serving_model, 1, kind)
        assert np.array_equal(
            serving_model.predict(row), predict_tree_loop(serving_model, row)
        )

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_mixed_compare_edges_across_chunks(self, serving_model, n):
        X = _edge_rows(serving_model, n, "mixed")
        assert np.array_equal(
            serving_model.predict(X), predict_tree_loop(serving_model, X)
        )


def _split_thresholds(model):
    """Each feature's raw split thresholds across the model's trees."""
    feature = np.concatenate([t.node_feature_ for t in model.trees_])
    bins = np.concatenate([t.node_bin_ for t in model.trees_])
    split = feature >= 0
    thr = model.binner_.threshold_value(feature[split], bins[split])
    return [thr[feature[split] == f] for f in range(model.n_features_)]


def _edge_rows(model, n: int, kind: str) -> np.ndarray:
    """``n`` rows whose cells are NaN, +inf, -inf or exact split
    thresholds (``kind='mixed'``: a random mix of those and ordinary
    values, last row all NaN)."""
    rng = np.random.default_rng(n)
    X = _rows(n)
    cuts = _split_thresholds(model)
    cut_cells = np.column_stack(
        [rng.choice(c, size=n) if c.size else X[:, f] for f, c in enumerate(cuts)]
    )
    if kind == "nan":
        X[:, ::2] = np.nan
    elif kind == "+inf":
        X[:, ::2] = np.inf
    elif kind == "-inf":
        X[:, ::2] = -np.inf
    elif kind == "cut":
        X[:] = cut_cells
    elif kind == "all-nan":
        X[:] = np.nan
    else:
        pick = rng.integers(0, 5, size=X.shape)
        X = np.select(
            [pick == 0, pick == 1, pick == 2, pick == 3],
            [np.nan, np.inf, -np.inf, cut_cells],
            X,
        )
        X[-1] = np.nan
    return X


class TestForestTotals:
    def test_builds_and_predict_seconds_accumulate(self):
        X, y, X_test = _data(10)
        model = GradientBoostingRegressor(
            n_estimators=5, max_depth=3, random_state=0
        ).fit(X, y)
        reset_forest_totals()
        before = forest_totals()
        assert before == {"builds": 0, "predict_seconds": 0.0}
        model.predict(X_test)  # lazy flatten happens here
        model.predict(X_test)
        after = forest_totals()
        assert after["builds"] == 1  # built once, reused after
        assert after["predict_seconds"] > 0.0

    def test_from_trees_counts_one_build(self):
        X, y, _ = _data(11)
        model = GradientBoostingRegressor(
            n_estimators=3, max_depth=2, random_state=0
        ).fit(X, y)
        reset_forest_totals()
        FlattenedForest.from_trees(
            model.trees_, model.learning_rate, model.base_score_, model.binner_
        )
        assert forest_totals()["builds"] == 1
