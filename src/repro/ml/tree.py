"""Second-order regression tree on histogram statistics.

This is the weak learner for :class:`repro.ml.gbt.GradientBoostingRegressor`.
Following Chen & Guestrin's formulation, a split of node statistics
``(G, H)`` into ``(G_L, H_L)`` and ``(G_R, H_R)`` has gain

    1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma

and the optimal leaf weight is ``-G / (H + lambda)``.  With squared-error
loss, ``g_i = (yhat_i - y_i)`` and ``h_i = 1``.

Split finding is histogram-based: features are pre-binned by
:class:`repro.ml.binning.QuantileBinner` and per-node (G, H) histograms are
accumulated with ``np.bincount`` — O(n) per feature per node, no sorting.
A tree is its fitted node arrays (:data:`FITTED_FIELDS`) plus the grower
that fills them; it has no walk of its own.  Prediction runs every tree
of a model at once in :mod:`repro.ml.forest`.

A :class:`BinLayout` lays the binned matrix out as one concatenated bin
space (offsets, bin-to-feature map, segment starts, histogram keys and
the allowed-cut mask).  A boosting fit builds it once and grows all its trees
on global row indices against it.  The grower is a stack of nodes, one
node at a time: one ``np.bincount`` over the layout's keys accumulates
*all* features' g and h histograms at once, the gain scan runs
vectorised over the concatenated bin space, and each split computes the
histogram for the smaller child only — the larger child is ``parent -
sibling`` (LightGBM's subtraction trick).  Out-of-bag rows ride through
the row partition behind the in-bag prefix, so the grower hands back
every row's leaf and boosting needs no tree walk to refresh its
residuals.

The bits depend on three things, kept on purpose: each node sums its
rows in ``rng.choice`` order (not sorted), siblings come from
subtraction, and each node's totals are a ``grad[rows].sum()`` of their
own (a segmented ``reduceat`` would round differently).  Growing a whole
level at once was measured slower on this repository's fits (tens of
rows, about 4.8 splits per tree): the cost is numpy dispatch per node,
not histogram width (``docs/performance.md``, "GBT fit").

The oracles live in ``tests/ml/``: a brute-force per-feature ``bincount``
+ ``cumsum`` split scan that the root split must match and a golden
fingerprint of the trees grown on seeded data (``test_tree.py``); the
per-node grower that rebuilt its bin space for every tree, which every
node array must match bit for bit (``grower_oracle.py``,
``test_grower_parity.py``); and, beside it, the binned per-tree walk and
the bin-then-grow helper those tests drive a lone tree with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BinLayout", "FITTED_FIELDS", "RegressionTree", "TreeGrowthParams"]

_LEAF = -1  # sentinel in the feature array marking a leaf node

# A fitted tree's arrays, node fields (one entry per node) first, then the
# per-feature totals, each with its JSON key and dtype: the GBT pickle
# state and the JSON codec of repro.ml.persistence both walk this table.
FITTED_FIELDS = (
    ("node_feature_", "feature", np.int32),
    ("node_bin_", "bin", np.int32),
    ("node_left_", "left", np.int32),
    ("node_right_", "right", np.int32),
    ("node_value_", "value", np.float64),
    ("node_gain_", "gain", np.float64),
    ("feature_gain_", "feature_gain", np.float64),
    ("feature_count_", "feature_count", np.int64),
)


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
    """A single gradient tree, stored in flat arrays.

    :meth:`_grow` fills the arrays; boosting
    (:class:`~repro.ml.gbt.GradientBoostingRegressor`) calls it once per
    round and :mod:`repro.ml.forest` walks the result.
    """

    def __init__(self, params: TreeGrowthParams):
        self.params = params
        # Flat node arrays, filled by _grow().
        self.node_feature_: np.ndarray | None = None  # int32, _LEAF for leaves
        self.node_bin_: np.ndarray | None = None      # int32 split bin code
        self.node_left_: np.ndarray | None = None     # int32 child index
        self.node_right_: np.ndarray | None = None
        self.node_value_: np.ndarray | None = None    # float64 leaf weight
        self.node_gain_: np.ndarray | None = None     # float64 split gain
        self.feature_gain_: np.ndarray | None = None  # total gain per feature
        self.feature_count_: np.ndarray | None = None # split count per feature

    # -- growth -----------------------------------------------------------

    def _grow(
        self,
        layout: BinLayout,
        gh: np.ndarray,
        rows: np.ndarray,
        n_bag: int,
        allowed: np.ndarray,
    ) -> list[tuple[int, np.ndarray]]:
        """Grow on ``layout``'s rows and return every leaf's rows.

        ``gh`` stacks per-row gradients over hessians, shape ``(2, n)``.
        ``rows`` holds global row indices: the first ``n_bag`` are in-bag
        (their order is the order every node sums them in), the rest ride
        through the partition without touching a statistic, so the caller
        can update predictions for all rows from the returned
        ``(leaf_node, rows)`` pairs.  The caller holds one ``np.errstate``
        for the whole fit: the gain scan divides by zero-cover cuts that
        ``allowed`` or the child-weight test then masks out.
        """
        p = self.params
        lam = p.reg_lambda
        mcw = p.min_child_weight
        gamma = p.gamma
        # With lam > 0 or mcw > 0 the child-weight test already implies a
        # positive denominator, so the explicit check only runs otherwise.
        check_denominators = not (lam > 0.0 or mcw > 0.0)
        n_features = layout.n_features
        total_bins = layout.total_bins
        keys_gh = layout.keys_gh
        columns = layout.columns
        seg_start = layout.seg_start
        offsets = layout.offsets
        bin_feature = layout.bin_feature
        add = np.add.reduce  # ndarray.sum's pairwise sum, minus its wrapper
        max_nodes = 2 ** (p.max_depth + 1) - 1

        feature = np.full(max_nodes, _LEAF, dtype=np.int32)
        split_bin = np.zeros(max_nodes, dtype=np.int32)
        left = np.zeros(max_nodes, dtype=np.int32)
        right = np.zeros(max_nodes, dtype=np.int32)
        value = np.zeros(max_nodes, dtype=np.float64)
        gain_arr = np.zeros(max_nodes, dtype=np.float64)
        feat_gain = np.zeros(n_features, dtype=np.float64)
        feat_count = np.zeros(n_features, dtype=np.int64)
        # Zero-led cumsum buffer, one row each for g and h: cum[:, 1:] is
        # the running sum over the concatenated bin space and
        # cum[:, seg_start[b]] the sum before bin b's feature begins, so a
        # feature's left sums are one take away.
        cum = np.zeros((2, total_bins + 1), dtype=np.float64)
        # sides[0] = (G_L, G_R) and sides[1] = (H_L, H_R) for every cut,
        # so each statistic's two sides are one contiguous operand.
        sides = np.empty((2, 2, total_bins), dtype=np.float64)
        totals = np.empty((2, 1), dtype=np.float64)
        leaves: list[tuple[int, np.ndarray]] = []

        def node_hist(node_gh: np.ndarray, bag: np.ndarray) -> np.ndarray:
            # One bincount fills the g histogram in [0, T) and the h one in
            # [T, 2T); each bin still sums its rows in bag order.
            return np.bincount(
                keys_gh.take(bag, axis=0).reshape(-1),
                weights=node_gh.T.repeat(n_features, axis=1).reshape(-1),
                minlength=2 * total_bins,
            ).reshape(2, total_bins)

        # Stack of (node_id, depth, rows, n_in, gh[:, bag], hist); None
        # entries are computed on demand.
        stack: list = [(0, 0, rows, n_bag, None, None)]
        next_free = 1

        while stack:
            node_id, depth, rows, n_in, node_gh, hist = stack.pop()
            bag = rows[:n_in]
            if node_gh is None:
                node_gh = gh.take(bag, axis=1)
            g_tot = float(add(node_gh[0]))
            h_tot = float(add(node_gh[1]))
            value[node_id] = -g_tot / (h_tot + lam)

            if depth >= p.max_depth or h_tot < 2.0 * mcw:
                leaves.append((node_id, rows))
                continue

            if hist is None:
                hist = node_hist(node_gh, bag)
            # Gain scan over the concatenated bin space; one argmax over
            # every allowed cut replaces a per-feature loop.
            hist.cumsum(axis=1, out=cum[:, 1:])
            np.subtract(cum[:, 1:], cum.take(seg_start, axis=1), out=sides[:, 0])
            totals[0, 0] = g_tot
            totals[1, 0] = h_tot
            np.subtract(totals, sides[:, 0], out=sides[:, 1])
            grads, covers = sides
            denom = covers + lam
            score = grads * grads
            score /= denom
            gains = score[0] + score[1]
            gains -= g_tot * g_tot / (h_tot + lam)
            gains *= 0.5
            if gamma:
                gains -= gamma
            heavy = covers >= mcw
            ok = heavy[0] & heavy[1] & allowed
            if check_denominators:
                positive = denom > 0.0
                ok &= positive[0] & positive[1]
            gains = np.where(ok, gains, -np.inf)
            b = int(gains.argmax())
            bgain = float(gains[b])
            if not bgain > 0.0:
                leaves.append((node_id, rows))
                continue
            bfeat = int(bin_feature[b])
            bbin = int(b - offsets[bfeat])

            mask = columns[bfeat].take(rows) <= bbin
            n_in_l = int(np.count_nonzero(mask[:n_in]))
            n_in_r = n_in - n_in_l
            # Guard against degenerate splits (shouldn't pass gain check, but
            # defend the invariant that children are non-empty).
            if n_in_l == 0 or n_in_r == 0:
                leaves.append((node_id, rows))
                continue
            rows_l = rows[mask]
            rows_r = rows[~mask]

            feature[node_id] = bfeat
            split_bin[node_id] = bbin
            gain_arr[node_id] = bgain
            feat_gain[bfeat] += bgain
            feat_count[bfeat] += 1
            left[node_id] = next_free
            right[node_id] = next_free + 1
            gh_l = gh_r = hist_l = hist_r = None
            if depth + 1 < p.max_depth:
                # Sibling subtraction: bincount only the smaller child, the
                # larger one is parent minus sibling.  Children at max depth
                # never split, so their histograms are never materialised.
                if n_in_l <= n_in_r:
                    bag_l = rows_l[:n_in_l]
                    gh_l = gh.take(bag_l, axis=1)
                    hist_l = node_hist(gh_l, bag_l)
                    hist_r = hist - hist_l
                else:
                    bag_r = rows_r[:n_in_r]
                    gh_r = gh.take(bag_r, axis=1)
                    hist_r = node_hist(gh_r, bag_r)
                    hist_l = hist - hist_r
            stack.append((next_free, depth + 1, rows_l, n_in_l, gh_l, hist_l))
            stack.append((next_free + 1, depth + 1, rows_r, n_in_r, gh_r, hist_r))
            next_free += 2

        self.node_feature_ = feature[:next_free]
        self.node_bin_ = split_bin[:next_free]
        self.node_left_ = left[:next_free]
        self.node_right_ = right[:next_free]
        self.node_value_ = value[:next_free]
        self.node_gain_ = gain_arr[:next_free]
        self.feature_gain_ = feat_gain
        self.feature_count_ = feat_count
        return leaves


class BinLayout:
    """A binned matrix laid out as one concatenated bin space.

    Feature ``f``'s bins live at ``[offsets[f], offsets[f+1])``, so one
    ``np.bincount`` over a node's ``keys_gh`` rows fills every feature's
    g and h histograms at once.  A boosting fit builds the layout once
    and grows every tree on global row indices against it.
    """

    def __init__(self, codes: np.ndarray, n_bins: np.ndarray) -> None:
        codes = np.asarray(codes)
        nb = np.asarray(n_bins, dtype=np.int64)
        self.n_features = codes.shape[1]
        self.offsets = np.zeros(self.n_features + 1, dtype=np.int64)
        np.cumsum(nb, out=self.offsets[1:])
        self.total_bins = int(self.offsets[-1])
        # Bin -> feature map, and each bin's segment start (the index of
        # the running sum just before its feature begins).
        self.bin_feature = np.repeat(np.arange(self.n_features, dtype=np.int64), nb)
        self.seg_start = self.offsets.take(self.bin_feature)
        # Valid cuts are "after bin b" for every bin but its feature's last.
        self.cut_ok = (
            np.arange(self.total_bins) < self.offsets.take(self.bin_feature + 1) - 1
        )
        # Histogram keys per row: its g bins at offset + code, then its h
        # bins one bin space further, shape (n, 2 * n_features).
        off_codes = codes.astype(np.int64) + self.offsets[:-1][None, :]
        self.keys_gh = np.concatenate([off_codes, off_codes + self.total_bins], axis=1)
        # Feature-major copy: a split's row mask gathers from one row.
        self.columns = np.ascontiguousarray(codes.T)

    def allowed(self, feature_subset: np.ndarray | None) -> np.ndarray:
        """Allowed-cut mask restricted to ``feature_subset`` (all if None)."""
        if feature_subset is None:
            return self.cut_ok
        keep = np.zeros(self.n_features, dtype=bool)
        keep[np.asarray(feature_subset, dtype=np.int64)] = True
        return self.cut_ok & keep.take(self.bin_feature)
