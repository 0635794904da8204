"""Unit and property tests for repro.ml.tree.

A lone tree is grown with the test-side helpers of
``tests/ml/grower_oracle.py`` (:func:`fit_tree` bins raw rows and grows
one squared-error tree; :func:`grow` grows on given codes and
gradients) and read back with its binned walk.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GradientBoostingRegressor
from repro.ml.tree import TreeGrowthParams, _LEAF

from tests.ml.grower_oracle import fit_tree, grow, leaf_of, predict_binned


def n_nodes(tree):
    return tree.node_feature_.size


def n_leaves(tree):
    return int(np.sum(tree.node_feature_ == _LEAF))


class TestTreeGrowthParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeGrowthParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeGrowthParams(min_child_weight=-1.0)
        with pytest.raises(ValueError):
            TreeGrowthParams(reg_lambda=-0.1)
        with pytest.raises(ValueError):
            TreeGrowthParams(gamma=-0.1)


class TestRegressionTreeStandalone:
    def test_fits_step_function_exactly(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        t, codes = fit_tree(TreeGrowthParams(max_depth=2, reg_lambda=0.0), X, y)
        assert np.allclose(predict_binned(t, codes), y, atol=1e-9)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(500, 2))
        y = rng.normal(size=500)
        for depth in (1, 2, 3):
            t, _ = fit_tree(TreeGrowthParams(max_depth=depth), X, y)
            assert n_leaves(t) <= 2**depth
            assert n_nodes(t) <= 2 ** (depth + 1) - 1

    def test_stump_splits_on_informative_feature(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.uniform(size=300), rng.uniform(size=300)])
        y = (X[:, 1] > 0.5) * 5.0
        t, _ = fit_tree(TreeGrowthParams(max_depth=1), X, y)
        assert t.node_feature_[0] == 1

    def test_leaf_value_is_regularised_mean(self):
        y = np.array([2.0, 4.0])
        X = np.zeros((2, 1))  # no split possible
        t, _ = fit_tree(TreeGrowthParams(max_depth=2, reg_lambda=1.0), X, y)
        # root is leaf: value = sum(y)/(n + lambda) = 6/3
        assert n_leaves(t) == 1
        assert t.node_value_[0] == pytest.approx(2.0)

    def test_min_child_weight_blocks_small_splits(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.zeros(10)
        y[0] = 100.0  # only a 1-vs-9 split reduces loss
        t, codes = fit_tree(
            TreeGrowthParams(max_depth=3, min_child_weight=3.0, reg_lambda=0.0), X, y
        )
        # The 1-sample child is forbidden; tree may split elsewhere but
        # never isolates fewer than 3 samples.
        _, counts = np.unique(leaf_of(t, codes), return_counts=True)
        assert counts.min() >= 3

    def test_gamma_prunes_weak_splits(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(200, 1))
        y = rng.normal(0, 0.01, size=200)  # nearly no structure
        t, _ = fit_tree(TreeGrowthParams(max_depth=4, gamma=100.0), X, y)
        assert n_leaves(t) == 1

    def test_feature_gain_tracks_splits(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(400, 3))
        y = 10.0 * (X[:, 2] > 0.3)
        t, _ = fit_tree(TreeGrowthParams(max_depth=3), X, y)
        assert t.feature_gain_[2] == t.feature_gain_.max()
        assert t.feature_count_.sum() == n_nodes(t) - n_leaves(t)


class TestTreeInvariants:
    def _structure_ok(self, t):
        n = n_nodes(t)
        for i in range(n):
            if t.node_feature_[i] != _LEAF:
                assert 0 < t.node_left_[i] < n
                assert 0 < t.node_right_[i] < n
                assert t.node_left_[i] != t.node_right_[i]

    def test_structure_valid(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 4))
        y = X[:, 0] ** 2 + rng.normal(0, 0.1, 300)
        t, _ = fit_tree(TreeGrowthParams(max_depth=5), X, y)
        self._structure_ok(t)

    def test_deeper_tree_never_worse_in_sample(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(500, 2))
        y = np.sin(6 * X[:, 0]) + rng.normal(0, 0.05, 500)
        errs = []
        for depth in (1, 3, 6):
            t, codes = fit_tree(
                TreeGrowthParams(max_depth=depth, reg_lambda=0.0), X, y
            )
            errs.append(float(np.mean((predict_binned(t, codes) - y) ** 2)))
        assert errs[0] >= errs[1] >= errs[2]


def brute_force_split(codes, grad, hess, n_bins, features, params):
    """Best root cut as a per-feature ``bincount`` + ``cumsum`` scan.

    Returns ``(best_gain, cuts)`` where ``cuts`` lists every valid
    ``(feature, bin, gain)`` with positive gain, or ``(None, [])`` when the
    root must stay a leaf.
    """
    p = params
    g_tot, h_tot = grad.sum(), hess.sum()
    if h_tot < 2.0 * p.min_child_weight:
        return None, []
    parent = g_tot * g_tot / (h_tot + p.reg_lambda)
    cuts = []
    for f in features:
        nb = int(n_bins[f])
        gl = np.cumsum(np.bincount(codes[:, f], weights=grad, minlength=nb))
        hl = np.cumsum(np.bincount(codes[:, f], weights=hess, minlength=nb))
        for b in range(nb - 1):  # cut after bin b
            gr, hr = g_tot - gl[b], h_tot - hl[b]
            dl, dr = hl[b] + p.reg_lambda, hr + p.reg_lambda
            if min(hl[b], hr) < p.min_child_weight or dl <= 0 or dr <= 0:
                continue
            gain = 0.5 * (gl[b] ** 2 / dl + gr**2 / dr - parent) - p.gamma
            if gain > 0:
                cuts.append((int(f), b, float(gain)))
    if not cuts:
        return None, []
    return max(c[2] for c in cuts), cuts


class TestSplitFinding:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 200),
        n_features=st.integers(1, 6),
        reg_lambda=st.sampled_from([0.0, 1.0]),
        min_child_weight=st.sampled_from([0.0, 1.0, 5.0]),
        gamma=st.sampled_from([0.0, 0.5]),
    )
    def test_root_split_matches_brute_force(
        self, seed, n, n_features, reg_lambda, min_child_weight, gamma
    ):
        rng = np.random.default_rng(seed)
        n_bins = rng.integers(1, 12, n_features)
        codes = (rng.uniform(size=(n, n_features)) * n_bins).astype(np.uint16)
        grad = rng.normal(size=n)
        hess = rng.uniform(0.5, 2.0, n)
        features = np.sort(
            rng.choice(n_features, rng.integers(1, n_features + 1), replace=False)
        )
        params = TreeGrowthParams(
            max_depth=1, min_child_weight=min_child_weight,
            reg_lambda=reg_lambda, gamma=gamma,
        )
        tree = grow(params, codes, grad, hess, n_bins, features)
        best, cuts = brute_force_split(codes, grad, hess, n_bins, features, params)
        if best is None:
            assert tree.node_feature_[0] == _LEAF
            return
        assert tree.node_feature_[0] != _LEAF
        assert tree.node_gain_[0] == pytest.approx(best, rel=1e-9)
        near = [c for c in cuts if c[2] >= best * (1 - 1e-9)]
        if len(near) == 1:
            feat, bin_, _ = near[0]
            assert (tree.node_feature_[0], tree.node_bin_[0]) == (feat, bin_)


# SHA-256 of every grown tree's (feature, bin, left, right, value) arrays,
# as this kernel grew them when the per-feature kernel was still in src/.
GOLDEN_TREES = {
    "full": "5f08ea11c30d1e0b2d00ba1a18137e3188fd67b13e36e0136ed2fb96ce3bb55f",
    "subsampled": "fb4c7f311902dbe3f90c4002ceee6785b4df602ff857cd8f88c9f295111efd1d",
}
GOLDEN_TREE_PARAMS = {
    "full": {},
    "subsampled": {"subsample": 0.7, "colsample_bytree": 0.5},
}


def trees_fingerprint(model):
    h = hashlib.sha256()
    for tree in model.trees_:
        for arr in (tree.node_feature_, tree.node_bin_, tree.node_left_,
                    tree.node_right_, tree.node_value_):
            arr = np.ascontiguousarray(arr)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


class TestGoldenTrees:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
    def test_grown_trees_match_golden_fingerprint(self, name):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(400, 6))
        y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.1, 400)
        model = GradientBoostingRegressor(
            n_estimators=30, max_depth=4, random_state=0,
            **GOLDEN_TREE_PARAMS[name],
        ).fit(X, y)
        assert trees_fingerprint(model) == GOLDEN_TREES[name]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(10, 100),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
def test_property_in_sample_mse_never_exceeds_constant_model(n, depth, seed):
    """With reg_lambda=0 any grown tree beats or matches the mean predictor."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    t, codes = fit_tree(TreeGrowthParams(max_depth=depth, reg_lambda=0.0), X, y)
    mse_tree = float(np.mean((predict_binned(t, codes) - y) ** 2))
    mse_mean = float(np.mean((y - y.mean()) ** 2))
    assert mse_tree <= mse_mean + 1e-9
