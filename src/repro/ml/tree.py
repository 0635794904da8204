"""Second-order regression tree on histogram statistics.

This is the weak learner for :class:`repro.ml.gbt.GradientBoostingRegressor`.
Following Chen & Guestrin's formulation, a split of node statistics
``(G, H)`` into ``(G_L, H_L)`` and ``(G_R, H_R)`` has gain

    1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma

and the optimal leaf weight is ``-G / (H + lambda)``.  With squared-error
loss, ``g_i = (yhat_i - y_i)`` and ``h_i = 1``, which also makes this class a
plain variance-reduction CART regressor when used standalone.

Split finding is histogram-based: features are pre-binned by
:class:`repro.ml.binning.QuantileBinner` and per-node (G, H) histograms are
accumulated with ``np.bincount`` — O(n) per feature per node, no sorting.

One ``np.bincount`` over ``offset + code`` keys accumulates *all*
features' histograms at once, the gain scan runs vectorised over the
concatenated bin space, and each split computes the histogram for the
smaller child only — the larger child is ``parent - sibling`` (LightGBM's
subtraction trick), skipping roughly half the histogram work per level.

The oracles live in ``tests/ml/test_tree.py``: a brute-force per-feature
``bincount`` + ``cumsum`` split scan that the root split must match, and a
golden fingerprint of the trees grown on seeded data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.binning import QuantileBinner

__all__ = ["RegressionTree", "TreeGrowthParams"]

_LEAF = -1  # sentinel in the feature array marking a leaf node


@dataclass(frozen=True)
class TreeGrowthParams:
    """Hyperparameters controlling a single tree's growth.

    Attributes
    ----------
    max_depth:
        Maximum depth (root = depth 0).
    min_child_weight:
        Minimum sum of hessians in each child (== min samples per child for
        squared error).
    reg_lambda:
        L2 regularisation on leaf weights.
    gamma:
        Minimum gain required to make a split (complexity penalty).
    """

    max_depth: int = 6
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight must be >= 0")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


class RegressionTree:
    """A single gradient tree, stored in flat arrays for fast prediction.

    Standalone use fits squared error directly::

        tree = RegressionTree(TreeGrowthParams(max_depth=3)).fit(X, y)
        yhat = tree.predict(X)

    Inside boosting, :meth:`fit_binned` consumes pre-binned codes plus
    per-sample gradients/hessians.
    """

    def __init__(
        self,
        params: TreeGrowthParams | None = None,
        max_bins: int = 256,
    ):
        self.params = params or TreeGrowthParams()
        self.max_bins = max_bins
        # Flat node arrays, filled by _grow().
        self.node_feature_: np.ndarray | None = None  # int32, _LEAF for leaves
        self.node_bin_: np.ndarray | None = None      # int32 split bin code
        self.node_left_: np.ndarray | None = None     # int32 child index
        self.node_right_: np.ndarray | None = None
        self.node_value_: np.ndarray | None = None    # float64 leaf weight
        self.node_gain_: np.ndarray | None = None     # float64 split gain
        self.feature_gain_: np.ndarray | None = None  # total gain per feature
        self.feature_count_: np.ndarray | None = None # split count per feature
        self._binner: QuantileBinner | None = None    # standalone mode only

    # -- public API -------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Fit a squared-error regression tree on raw features."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes X{X.shape} y{y.shape}")
        if not np.isfinite(y).all():
            raise ValueError("y contains NaN or infinite values")
        self._binner = QuantileBinner(self.max_bins).fit(X)
        codes = self._binner.transform(X)
        # Squared error with yhat = 0: g = -y, h = 1; leaf weight -G/(H+λ)
        # then approximates the (regularised) node mean of y.
        grad = -y
        hess = np.ones_like(y)
        self.fit_binned(codes, grad, hess, self._binner.n_bins_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict raw features (standalone mode: bins internally)."""
        if self._binner is None:
            raise RuntimeError(
                "predict() requires fit(); boosted trees use predict_binned()"
            )
        return self.predict_binned(self._binner.transform(X))

    def fit_binned(
        self,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        n_bins: np.ndarray,
        feature_subset: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow the tree on pre-binned codes with per-sample (g, h).

        Parameters
        ----------
        codes:
            uint16 array (n_samples, n_features) from
            :class:`~repro.ml.binning.QuantileBinner`.
        grad, hess:
            First and second order loss derivatives per sample.
        n_bins:
            Bin count per feature (``QuantileBinner.n_bins_``).
        feature_subset:
            Optional indices of features eligible for splits (column
            subsampling); all features by default.
        """
        codes = np.asarray(codes)
        grad = np.asarray(grad, dtype=np.float64).ravel()
        hess = np.asarray(hess, dtype=np.float64).ravel()
        if codes.ndim != 2 or codes.shape[0] != grad.shape[0]:
            raise ValueError(f"bad shapes codes{codes.shape} grad{grad.shape}")
        if grad.shape != hess.shape:
            raise ValueError("grad/hess shape mismatch")
        n_features = codes.shape[1]
        if feature_subset is None:
            feature_subset = np.arange(n_features)
        self._grow(codes, grad, hess, np.asarray(n_bins), feature_subset)
        return self

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict on pre-binned codes (vectorised level-by-level walk)."""
        if self.node_feature_ is None:
            raise RuntimeError("tree used before fit")
        codes = np.asarray(codes)
        n = codes.shape[0]
        node = np.zeros(n, dtype=np.int64)
        # All samples descend in lock-step; at most max_depth iterations.
        for _ in range(self.params.max_depth + 1):
            feat = self.node_feature_[node]
            active = feat != _LEAF
            if not active.any():
                break
            idx = np.nonzero(active)[0]
            f = feat[idx]
            go_left = codes[idx, f] <= self.node_bin_[node[idx]]
            nxt = np.where(
                go_left, self.node_left_[node[idx]], self.node_right_[node[idx]]
            )
            node[idx] = nxt
        return self.node_value_[node]

    @property
    def n_nodes(self) -> int:
        return 0 if self.node_feature_ is None else self.node_feature_.size

    @property
    def n_leaves(self) -> int:
        if self.node_feature_ is None:
            return 0
        return int(np.sum(self.node_feature_ == _LEAF))

    # -- growth -----------------------------------------------------------

    def _grow(
        self,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        n_bins: np.ndarray,
        feature_subset: np.ndarray,
    ) -> None:
        p = self.params
        n_features = codes.shape[1]
        max_nodes = 2 ** (p.max_depth + 1) - 1

        feature = np.full(max_nodes, _LEAF, dtype=np.int32)
        split_bin = np.zeros(max_nodes, dtype=np.int32)
        left = np.zeros(max_nodes, dtype=np.int32)
        right = np.zeros(max_nodes, dtype=np.int32)
        value = np.zeros(max_nodes, dtype=np.float64)
        gain_arr = np.zeros(max_nodes, dtype=np.float64)
        feat_gain = np.zeros(n_features, dtype=np.float64)
        feat_count = np.zeros(n_features, dtype=np.int64)

        # Concatenated bin space: feature f's bins live at
        # [offsets[f], offsets[f+1]); one bincount over offset+code keys
        # fills every feature's histogram in a single pass.
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
                keys,
                weights=np.repeat(grad[rows], n_features),
                minlength=total_bins,
            )
            hh = np.bincount(
                keys,
                weights=np.repeat(hess[rows], n_features),
                minlength=total_bins,
            )
            return hg, hh

        all_rows = np.arange(codes.shape[0], dtype=np.int64)
        # Stack of (node_id, depth, row_indices, hist_g, hist_h); a None
        # histogram is computed on demand.
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
            best = self._best_split_fused(
                hist_g, hist_h, g_tot, h_tot, offsets, allowed, pos_feat
            )
            if best is None:
                continue
            bfeat, bbin, bgain = best

            mask = codes[rows, bfeat] <= bbin
            rows_l = rows[mask]
            rows_r = rows[~mask]
            # Guard against degenerate splits (shouldn't pass gain check, but
            # defend the invariant that children are non-empty).
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
                # Sibling subtraction: bincount only the smaller child, the
                # larger one is parent minus sibling.  Children at max depth
                # never split, so their histograms are never materialised.
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

        self.node_feature_ = feature[:next_free]
        self.node_bin_ = split_bin[:next_free]
        self.node_left_ = left[:next_free]
        self.node_right_ = right[:next_free]
        self.node_value_ = value[:next_free]
        self.node_gain_ = gain_arr[:next_free]
        self.feature_gain_ = feat_gain
        self.feature_count_ = feat_count

    def _best_split_fused(
        self,
        hist_g: np.ndarray,
        hist_h: np.ndarray,
        g_tot: float,
        h_tot: float,
        offsets: np.ndarray,
        allowed: np.ndarray,
        pos_feat: np.ndarray,
    ) -> tuple[int, int, float] | None:
        """Vectorised gain scan over the concatenated bin space.

        ``allowed`` masks out each feature's last bin (no cut after it),
        features outside the subsample, and single-bin features, so one
        ``argmax`` over all features replaces the per-feature python loop.
        """
        p = self.params
        parent_score = g_tot * g_tot / (h_tot + p.reg_lambda)
        cg = np.cumsum(hist_g)
        ch = np.cumsum(hist_h)
        # Per-feature left sums: global cumsum minus the cumsum just before
        # the feature's segment starts.
        base_g = np.empty_like(cg)
        base_g[0] = 0.0
        base_g[1:] = cg[:-1]
        base_h = np.empty_like(ch)
        base_h[0] = 0.0
        base_h[1:] = ch[:-1]
        seg_base_g = base_g[offsets[:-1]].take(pos_feat)
        seg_base_h = base_h[offsets[:-1]].take(pos_feat)
        gl = cg - seg_base_g
        hl = ch - seg_base_h
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
