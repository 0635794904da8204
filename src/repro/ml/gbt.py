"""XGBoost-style gradient-boosted regression trees (§5.2).

The paper's nonlinear model is eXtreme Gradient Boosting [9]: "an iterative
approach in which at each iteration a new decision tree is added to correct
errors made by previous trees", combined with gain-based feature importance
scores ("the more an independent variable is used to make the main splits
within the tree, the higher its relative importance" — Figure 12).

This implementation boosts :class:`repro.ml.tree.RegressionTree` weak
learners with second-order statistics under squared-error loss, supporting
the regularisation knobs that matter for the reproduction: shrinkage
(``learning_rate``), L2 leaf penalty (``reg_lambda``), complexity penalty
(``gamma``), ``min_child_weight``, row subsampling and per-tree column
subsampling.  Like the paper's fits it runs a fixed number of rounds.

A fit bins once, builds one :class:`~repro.ml.tree.BinLayout`, and grows
every tree of :mod:`repro.ml.tree` on global row indices against it.
The grower returns each leaf's rows, out-of-bag rows included, so the
residuals are refreshed from that partition, with no tree walk.  Only
fitting bins: ``predict`` runs :mod:`repro.ml.forest` on raw values,
going right where ``x > upper_edges_[f][b]``, which is ``code > b``
because the grower never cuts at a feature's last bin.

A fitted model crosses a process pipe (``repro.exec.parallel_map``
hands fitted edges back from its workers) as one pickle state: the
trees' eight node fields as one concatenated array each plus the cut
offsets, rebuilt on load as views by offset slicing.  Plain pickling
would send some 2,400 small arrays per 300-tree model, and the
per-array overhead dominates.  The memoized forest rides along.  The
JSON codec of :mod:`repro.ml.persistence` stays the only on-disk format.

Their oracles live in ``tests/ml/``: a golden fingerprint of the grown
trees (``test_tree.py``); the per-node grower plus a per-tree binned walk
refreshing the residuals, which every tree must match bit for bit
(``grower_oracle.py``); and the per-tree binned walk summed in tree order,
which ``predict`` must match bit for bit (``test_forest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.binning import QuantileBinner
from repro.ml.forest import FlattenedForest
from repro.ml.tree import FITTED_FIELDS, BinLayout, RegressionTree, TreeGrowthParams

__all__ = ["GradientBoostingRegressor"]

# The per-tree node arrays a pickle state packs, node-table fields first
# (one entry per node), then the per-feature totals (one per feature).
_NODE_FIELDS = tuple(attr for attr, _, _ in FITTED_FIELDS[:6])
_FEATURE_FIELDS = tuple(attr for attr, _, _ in FITTED_FIELDS[6:])


def _pack_trees(trees: list[RegressionTree]) -> dict:
    """One concatenated array per node field plus the cut offsets; a
    fixed number of arrays however many trees there are."""
    if not trees:
        return {}
    packed = {
        "node_cuts": np.cumsum([0] + [t.node_feature_.size for t in trees]),
        "feature_cuts": np.cumsum([0] + [t.feature_gain_.size for t in trees]),
    }
    for name in _NODE_FIELDS + _FEATURE_FIELDS:
        packed[name] = np.concatenate([getattr(t, name) for t in trees])
    return packed


def _unpack_trees(packed: dict, params: TreeGrowthParams) -> list[RegressionTree]:
    """Inverse of :func:`_pack_trees`: each tree's arrays are views into
    the packed ones, cut by plain slicing (``np.split`` costs about three
    times as much at these sizes)."""
    if not packed:
        return []
    node_cuts = packed["node_cuts"].tolist()
    feature_cuts = packed["feature_cuts"].tolist()
    node_arrays = [(name, packed[name]) for name in _NODE_FIELDS]
    feature_arrays = [(name, packed[name]) for name in _FEATURE_FIELDS]
    trees = []
    for i in range(len(node_cuts) - 1):
        tree = RegressionTree(params)
        lo, hi = node_cuts[i], node_cuts[i + 1]
        for name, arr in node_arrays:
            setattr(tree, name, arr[lo:hi])
        lo, hi = feature_cuts[i], feature_cuts[i + 1]
        for name, arr in feature_arrays:
            setattr(tree, name, arr[lo:hi])
        trees.append(tree)
    return trees


class GradientBoostingRegressor:
    """Gradient boosting for regression with squared-error loss.

    Parameters
    ----------
    n_estimators:
        Number of trees (boosting rounds).
    learning_rate:
        Shrinkage applied to every tree's leaf weights.
    max_depth, min_child_weight, reg_lambda, gamma:
        Passed to :class:`~repro.ml.tree.TreeGrowthParams`.
    subsample:
        Fraction of rows sampled (without replacement) per tree.
    colsample_bytree:
        Fraction of features eligible per tree.
    max_bins:
        Histogram resolution for split finding.
    random_state:
        Seed for row/column subsampling.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.uniform(size=(500, 3))
    >>> y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
    >>> m = GradientBoostingRegressor(n_estimators=50, max_depth=3).fit(X, y)
    >>> float(np.abs(m.predict(X) - y).mean()) < 0.1
    True
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        max_bins: int = 256,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.tree_params = TreeGrowthParams(
            max_depth=max_depth,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            gamma=gamma,
        )
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.max_bins = max_bins
        self.random_state = random_state

        self.trees_: list[RegressionTree] = []
        self.base_score_: float = 0.0
        self.binner_: QuantileBinner | None = None
        self.n_features_: int | None = None
        self._forest: FlattenedForest | None = None

    # -- fitting ----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit ``n_estimators`` trees on (X, y)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes X{X.shape} y{y.shape}")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not np.isfinite(y).all():
            raise ValueError("y contains NaN or infinite values")
        n, self.n_features_ = X.shape
        rng = np.random.default_rng(self.random_state)

        self.binner_ = QuantileBinner(self.max_bins).fit(X)
        self.base_score_ = float(y.mean())
        pred = np.full(n, self.base_score_)
        self.trees_ = []
        self._forest = None  # flattened snapshot is invalid once refit starts

        n_sub = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample_bytree * self.n_features_)))

        # One bin layout per fit; every tree grows on global row indices.
        layout = BinLayout(self.binner_.transform(X), self.binner_.n_bins_)
        all_rows = np.arange(n, dtype=np.int64)
        in_bag = np.zeros(n, dtype=bool)
        # Row 0 holds the gradients, row 1 the (unit) hessians.
        gh = np.ones((2, n), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(self.n_estimators):
                np.subtract(pred, y, out=gh[0])  # d/dpred of 1/2 (pred - y)^2

                if n_sub < n:
                    bag = rng.choice(n, size=n_sub, replace=False)
                    # Out-of-bag rows ride behind the in-bag prefix, so the
                    # grower's partition places every row in its leaf.
                    in_bag[:] = False
                    in_bag[bag] = True
                    rows = np.concatenate([bag, all_rows[~in_bag]])
                else:
                    rows = all_rows
                if n_cols < self.n_features_:
                    cols = np.sort(
                        rng.choice(self.n_features_, size=n_cols, replace=False)
                    )
                else:
                    cols = None

                tree = RegressionTree(self.tree_params)
                leaves = tree._grow(layout, gh, rows, n_sub, layout.allowed(cols))
                self.trees_.append(tree)
                for node, leaf_rows in leaves:
                    pred[leaf_rows] += self.learning_rate * tree.node_value_[node]
        return self

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        # ``trees_`` travels packed (see _pack_trees); everything else,
        # the memoized forest included, pickles as it is.
        state = self.__dict__.copy()
        state["trees_"] = _pack_trees(self.trees_)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.trees_ = _unpack_trees(state["trees_"], self.tree_params)

    # -- inference --------------------------------------------------------

    def _ensure_forest(self) -> FlattenedForest:
        """Flattened all-trees kernel, built lazily on first predict."""
        if self._forest is None:
            self._forest = FlattenedForest.from_trees(
                self.trees_, self.learning_rate, self.base_score_, self.binner_
            )
        return self._forest

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.binner_ is None:
            raise RuntimeError("model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X shape {X.shape} incompatible with {self.n_features_} features"
            )
        return self._ensure_forest().predict(X)

    # -- explanation ------------------------------------------------------

    def feature_importances(self, kind: str = "gain") -> np.ndarray:
        """Aggregate per-feature importance across all trees.

        ``kind='gain'`` sums split gains (XGBoost's default explanation and
        the quantity behind Figure 12); ``kind='count'`` counts splits.
        Scores are normalised to sum to 1 (all-zeros if no splits were made).
        """
        if not self.trees_:
            raise RuntimeError("model used before fit()")
        if kind not in ("gain", "count"):
            raise ValueError(f"kind must be 'gain' or 'count', got {kind!r}")
        total = np.zeros(self.n_features_, dtype=np.float64)
        for tree in self.trees_:
            src = tree.feature_gain_ if kind == "gain" else tree.feature_count_
            if src is not None:
                total += src
        s = total.sum()
        return total / s if s > 0 else total
