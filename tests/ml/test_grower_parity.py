"""The layout grower against the per-node oracle, bit for bit.

``tests/ml/grower_oracle.py`` keeps the grower that rebuilt its bin space
for every tree and the boosting loop that refreshed residuals with one
binned walk per tree.  Every node array and every gain of the code in
``src/`` must equal theirs exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.tree import BinLayout, RegressionTree, TreeGrowthParams

from tests.ml.grower_oracle import fit_reference, grow, grow_reference, leaf_of

TREE_ARRAYS = (
    "node_feature_", "node_bin_", "node_left_", "node_right_",
    "node_value_", "node_gain_", "feature_gain_", "feature_count_",
)


def assert_same_tree(got, want):
    for name in TREE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def random_problem(rng, n, n_features, unit_hess):
    n_bins = rng.integers(1, 24, n_features)
    codes = (rng.uniform(size=(n, n_features)) * n_bins).astype(np.uint16)
    grad = rng.normal(size=n)
    hess = np.ones(n) if unit_hess else rng.uniform(0.2, 3.0, n)
    return codes, grad, hess, n_bins


tree_params = st.builds(
    TreeGrowthParams,
    max_depth=st.integers(1, 5),
    min_child_weight=st.sampled_from([0.0, 1.0, 5.0]),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    gamma=st.sampled_from([0.0, 0.5]),
)


class TestTreeParity:
    @settings(max_examples=120, deadline=None)
    @given(
        params=tree_params,
        seed=st.integers(0, 2**16),
        n=st.integers(2, 160),
        n_features=st.integers(1, 7),
        unit_hess=st.booleans(),
        colsample=st.booleans(),
    )
    def test_fit_binned_matches_oracle(
        self, params, seed, n, n_features, unit_hess, colsample
    ):
        rng = np.random.default_rng(seed)
        codes, grad, hess, n_bins = random_problem(rng, n, n_features, unit_hess)
        cols = None
        if colsample:
            cols = np.sort(rng.choice(
                n_features, rng.integers(1, n_features + 1), replace=False))
        got = grow(params, codes, grad, hess, n_bins, cols)
        want = grow_reference(params, codes, grad, hess, n_bins, cols)
        assert_same_tree(got, want)

    @settings(max_examples=120, deadline=None)
    @given(
        params=tree_params,
        seed=st.integers(0, 2**16),
        n=st.integers(2, 160),
        n_features=st.integers(1, 7),
        frac=st.floats(0.05, 1.0),
        unit_hess=st.booleans(),
        colsample=st.booleans(),
    )
    def test_subsampled_growth_matches_oracle_and_places_every_row(
        self, params, seed, n, n_features, frac, unit_hess, colsample
    ):
        """In-bag rows in ``rng.choice`` order, out-of-bag rows behind
        them: the tree equals the oracle grown on the in-bag copy, and the
        returned partition puts every row in the leaf a walk reaches."""
        rng = np.random.default_rng(seed)
        codes, grad, hess, n_bins = random_problem(rng, n, n_features, unit_hess)
        n_bag = max(1, int(round(frac * n)))
        bag = rng.choice(n, size=n_bag, replace=False)
        out_of_bag = np.setdiff1d(np.arange(n), bag)
        rows = np.concatenate([bag, out_of_bag])
        cols = None
        if colsample:
            cols = np.sort(rng.choice(
                n_features, rng.integers(1, n_features + 1), replace=False))

        layout = BinLayout(codes, n_bins)
        got = RegressionTree(params)
        with np.errstate(divide="ignore", invalid="ignore"):
            leaves = got._grow(
                layout, np.stack([grad, hess]), rows, n_bag, layout.allowed(cols))
        want = grow_reference(
            params, codes[bag], grad[bag], hess[bag], n_bins, cols)
        assert_same_tree(got, want)

        placed = np.full(n, -1)
        for node, leaf_rows in leaves:
            assert got.node_feature_[node] == -1
            assert (placed[leaf_rows] == -1).all()
            placed[leaf_rows] = node
        assert (placed == leaf_of(want, codes)).all()


def assert_same_model(got, want):
    assert got.base_score_ == want.base_score_
    assert len(got.trees_) == len(want.trees_)
    for a, b in zip(got.trees_, want.trees_):
        assert_same_tree(a, b)


class TestBoostingParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 120),
        n_features=st.integers(1, 6),
        max_depth=st.integers(1, 5),
        min_child_weight=st.sampled_from([0.0, 1.0, 5.0]),
        reg_lambda=st.sampled_from([0.0, 1.0]),
        gamma=st.sampled_from([0.0, 0.5]),
        subsample=st.sampled_from([1.0, 0.9, 0.5]),
        colsample=st.sampled_from([1.0, 0.5]),
    )
    def test_fit_matches_per_tree_refresh(
        self, seed, n, n_features, max_depth, min_child_weight, reg_lambda,
        gamma, subsample, colsample,
    ):
        """Residuals refreshed from the grower's partition equal the
        oracle's per-tree binned walk: the same trees, bit for bit."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n_features))
        X[:, 0] = np.round(X[:, 0], 1)  # ties share bins
        y = np.sin(2 * X[:, 0]) + rng.normal(0, 0.3, n)
        hyper = dict(
            n_estimators=20, learning_rate=0.3, max_depth=max_depth,
            min_child_weight=min_child_weight, reg_lambda=reg_lambda,
            gamma=gamma, subsample=subsample, colsample_bytree=colsample,
            max_bins=32, random_state=seed,
        )
        got = GradientBoostingRegressor(**hyper).fit(X, y)
        want = fit_reference(GradientBoostingRegressor(**hyper), X, y)
        assert_same_model(got, want)

    def test_pipeline_sized_fit_matches(self):
        """The pipeline's own settings (300 trees, depth 4, 0.9 row
        subsample, min_child_weight 5) on an edge-sized problem."""
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(60, 12))
        y = 3 * X[:, 0] + np.sin(6 * X[:, 1]) + rng.normal(0, 0.2, 60)
        hyper = dict(n_estimators=300, learning_rate=0.08, max_depth=4,
                     min_child_weight=5.0, subsample=0.9, random_state=1)
        got = GradientBoostingRegressor(**hyper).fit(X, y)
        want = fit_reference(GradientBoostingRegressor(**hyper), X, y)
        assert_same_model(got, want)
