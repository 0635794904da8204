"""The per-node grower, the binned tree walk and the per-tree residual
refresh, kept as oracles.

``src/`` grows every tree of a boosting fit on one
:class:`~repro.ml.tree.BinLayout` over global row indices, refreshes the
residuals from the grower's row partition, and predicts with one walk
over all trees at once (:mod:`repro.ml.forest`).  The readable versions
below rebuild the bin space for every tree, grow on a copied in-bag
subset, and walk one tree at a time over binned codes
(:func:`predict_binned`).  ``tests/ml/test_grower_parity.py`` and
``tests/ml/test_forest.py`` hold the two to the same bits.
:func:`grow` and :func:`fit_tree` drive one tree of ``src/`` on its own,
for the tree-behaviour tests of ``tests/ml/test_tree.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.binning import QuantileBinner
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.tree import _LEAF, BinLayout, RegressionTree, TreeGrowthParams

__all__ = [
    "fit_reference", "fit_tree", "grow", "grow_reference", "leaf_of",
    "predict_binned",
]


def grow(
    params: TreeGrowthParams,
    codes: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    n_bins: np.ndarray,
    feature_subset: np.ndarray | None = None,
) -> RegressionTree:
    """One tree of ``src/`` grown on all rows of pre-binned codes."""
    layout = BinLayout(codes, n_bins)
    rows = np.arange(codes.shape[0], dtype=np.int64)
    tree = RegressionTree(params)
    with np.errstate(divide="ignore", invalid="ignore"):
        tree._grow(layout, np.stack([grad, hess]), rows, rows.size,
                   layout.allowed(feature_subset))
    return tree


def fit_tree(
    params: TreeGrowthParams, X: np.ndarray, y: np.ndarray, max_bins: int = 256
) -> tuple[RegressionTree, np.ndarray]:
    """Bin ``X`` and grow one squared-error tree on it; returns the tree
    and the training rows' codes.

    With ``yhat = 0``, ``g = -y`` and ``h = 1``, so the leaf weight
    ``-G/(H+lambda)`` is the (regularised) node mean of ``y``.
    """
    binner = QuantileBinner(max_bins).fit(X)
    codes = binner.transform(X)
    tree = grow(params, codes, -y, np.ones_like(y), binner.n_bins_)
    return tree, codes


def leaf_of(tree: RegressionTree, codes: np.ndarray) -> np.ndarray:
    """Leaf node index of every row: all rows descend one level at a time."""
    node = np.zeros(codes.shape[0], dtype=np.int64)
    for _ in range(tree.params.max_depth + 1):
        feat = tree.node_feature_[node]
        active = feat != _LEAF
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        go_left = codes[idx, feat[idx]] <= tree.node_bin_[node[idx]]
        node[idx] = np.where(
            go_left, tree.node_left_[node[idx]], tree.node_right_[node[idx]]
        )
    return node


def predict_binned(tree: RegressionTree, codes: np.ndarray) -> np.ndarray:
    """One tree's leaf weights for binned rows."""
    return tree.node_value_[leaf_of(tree, codes)]


def grow_reference(
    params: TreeGrowthParams,
    codes: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    n_bins: np.ndarray,
    feature_subset: np.ndarray | None = None,
) -> RegressionTree:
    """One tree grown node by node on its own copy of the bin space."""
    p = params
    n_features = codes.shape[1]
    if feature_subset is None:
        feature_subset = np.arange(n_features)
    max_nodes = 2 ** (p.max_depth + 1) - 1

    feature = np.full(max_nodes, _LEAF, dtype=np.int32)
    split_bin = np.zeros(max_nodes, dtype=np.int32)
    left = np.zeros(max_nodes, dtype=np.int32)
    right = np.zeros(max_nodes, dtype=np.int32)
    value = np.zeros(max_nodes, dtype=np.float64)
    gain_arr = np.zeros(max_nodes, dtype=np.float64)
    feat_gain = np.zeros(n_features, dtype=np.float64)
    feat_count = np.zeros(n_features, dtype=np.int64)

    nb = np.asarray(n_bins, dtype=np.int64)
    offsets = np.zeros(n_features + 1, dtype=np.int64)
    np.cumsum(nb, out=offsets[1:])
    total_bins = int(offsets[-1])
    pos_feat = np.repeat(np.arange(n_features, dtype=np.int64), nb)
    allowed = np.zeros(total_bins, dtype=bool)
    for f in np.asarray(feature_subset, dtype=np.int64):
        if nb[f] >= 2:
            # Valid cuts are "after bin b" for b in [0, nb-2].
            allowed[offsets[f] : offsets[f] + nb[f] - 1] = True
    off_codes = codes.astype(np.int64) + offsets[:-1][None, :]

    def node_hist(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys = off_codes[rows].reshape(-1)
        hg = np.bincount(
            keys, weights=np.repeat(grad[rows], n_features), minlength=total_bins
        )
        hh = np.bincount(
            keys, weights=np.repeat(hess[rows], n_features), minlength=total_bins
        )
        return hg, hh

    all_rows = np.arange(codes.shape[0], dtype=np.int64)
    stack: list = [(0, 0, all_rows, None, None)]
    next_free = 1

    while stack:
        node_id, depth, rows, hist_g, hist_h = stack.pop()
        g_tot = float(grad[rows].sum())
        h_tot = float(hess[rows].sum())
        value[node_id] = -g_tot / (h_tot + p.reg_lambda)

        if depth >= p.max_depth or h_tot < 2.0 * p.min_child_weight:
            continue

        if hist_g is None:
            hist_g, hist_h = node_hist(rows)
        best = _best_split(p, hist_g, hist_h, g_tot, h_tot, offsets, allowed, pos_feat)
        if best is None:
            continue
        bfeat, bbin, bgain = best

        mask = codes[rows, bfeat] <= bbin
        rows_l = rows[mask]
        rows_r = rows[~mask]
        if rows_l.size == 0 or rows_r.size == 0:
            continue

        feature[node_id] = bfeat
        split_bin[node_id] = bbin
        gain_arr[node_id] = bgain
        feat_gain[bfeat] += bgain
        feat_count[bfeat] += 1
        left[node_id] = next_free
        right[node_id] = next_free + 1
        hg_l = hh_l = hg_r = hh_r = None
        if depth + 1 < p.max_depth:
            if rows_l.size <= rows_r.size:
                hg_l, hh_l = node_hist(rows_l)
                hg_r = hist_g - hg_l
                hh_r = hist_h - hh_l
            else:
                hg_r, hh_r = node_hist(rows_r)
                hg_l = hist_g - hg_r
                hh_l = hist_h - hh_r
        stack.append((next_free, depth + 1, rows_l, hg_l, hh_l))
        stack.append((next_free + 1, depth + 1, rows_r, hg_r, hh_r))
        next_free += 2

    tree = RegressionTree(p)
    tree.node_feature_ = feature[:next_free]
    tree.node_bin_ = split_bin[:next_free]
    tree.node_left_ = left[:next_free]
    tree.node_right_ = right[:next_free]
    tree.node_value_ = value[:next_free]
    tree.node_gain_ = gain_arr[:next_free]
    tree.feature_gain_ = feat_gain
    tree.feature_count_ = feat_count
    return tree


def _best_split(
    p: TreeGrowthParams,
    hist_g: np.ndarray,
    hist_h: np.ndarray,
    g_tot: float,
    h_tot: float,
    offsets: np.ndarray,
    allowed: np.ndarray,
    pos_feat: np.ndarray,
) -> tuple[int, int, float] | None:
    """Gain scan over the concatenated bin space of one node."""
    parent_score = g_tot * g_tot / (h_tot + p.reg_lambda)
    cg = np.cumsum(hist_g)
    ch = np.cumsum(hist_h)
    base_g = np.empty_like(cg)
    base_g[0] = 0.0
    base_g[1:] = cg[:-1]
    base_h = np.empty_like(ch)
    base_h[0] = 0.0
    base_h[1:] = ch[:-1]
    gl = cg - base_g[offsets[:-1]].take(pos_feat)
    hl = ch - base_h[offsets[:-1]].take(pos_feat)
    gr = g_tot - gl
    hr = h_tot - hl
    dl = hl + p.reg_lambda
    dr = hr + p.reg_lambda
    ok = (
        allowed
        & (hl >= p.min_child_weight)
        & (hr >= p.min_child_weight)
        & (dl > 0.0)
        & (dr > 0.0)
    )
    if not ok.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (gl * gl / dl + gr * gr / dr - parent_score) - p.gamma
    gains[~ok] = -np.inf
    b = int(np.argmax(gains))
    if not gains[b] > 0.0:
        return None
    f = int(pos_feat[b])
    return f, int(b - offsets[f]), float(gains[b])


def fit_reference(
    model: GradientBoostingRegressor, X: np.ndarray, y: np.ndarray
) -> GradientBoostingRegressor:
    """``model.fit`` with a per-tree grower and a per-tree residual refresh.

    Draws the same row and column samples as ``fit`` from the same seed,
    grows each tree on a copy of its in-bag rows, and adds each tree to the
    predictions with :func:`predict_binned` over every row.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, model.n_features_ = X.shape
    rng = np.random.default_rng(model.random_state)
    model.binner_ = QuantileBinner(model.max_bins).fit(X)
    codes = model.binner_.transform(X)
    n_bins = model.binner_.n_bins_
    model.base_score_ = float(y.mean())
    pred = np.full(n, model.base_score_)

    model.trees_ = []
    model._forest = None
    n_sub = max(1, int(round(model.subsample * n)))
    n_cols = max(1, int(round(model.colsample_bytree * model.n_features_)))
    hess = np.ones(n, dtype=np.float64)
    for _ in range(model.n_estimators):
        grad = pred - y
        rows = rng.choice(n, size=n_sub, replace=False) if n_sub < n else None
        cols = None
        if n_cols < model.n_features_:
            cols = np.sort(rng.choice(model.n_features_, size=n_cols, replace=False))
        if rows is None:
            tree = grow_reference(model.tree_params, codes, grad, hess, n_bins, cols)
        else:
            tree = grow_reference(
                model.tree_params, codes[rows], grad[rows], hess[rows], n_bins, cols
            )
        model.trees_.append(tree)
        pred += model.learning_rate * predict_binned(tree, codes)
    return model
