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
subsampling, plus early stopping on a validation split.

A fit bins once, builds one :class:`~repro.ml.tree.BinLayout`, and grows
every tree of :mod:`repro.ml.tree` on global row indices against it.
The grower returns each leaf's rows, out-of-bag rows included, so the
residuals are refreshed from that partition rather than by a
``predict_binned`` pass per tree; ``predict_binned`` runs only for an
``eval_set``.  Only fitting bins: ``predict`` runs :mod:`repro.ml.forest`
on raw values, going right where ``x > upper_edges_[f][b]``, which is
``code > b`` because the grower never cuts at a feature's last bin.

A fitted model crosses a process pipe (``repro.exec.parallel_map``
hands fitted edges back from its workers) as one pickle state: the
trees' eight node fields as one concatenated array each plus the cut
offsets, rebuilt on load as views by offset slicing.  Plain pickling
would send some 2,400 small arrays per 300-tree model, and the
per-array overhead dominates.  The memoized forest and the training
curves ride along.  The JSON codec of :mod:`repro.ml.persistence` stays
the only on-disk format.

Their oracles live in ``tests/``: a golden fingerprint of the grown trees
(``tests/ml/test_tree.py``); the per-tree grower plus per-tree
``predict_binned`` residual refresh that every tree, ``train_scores_``
and ``eval_scores_`` must match bit for bit (``tests/ml/grower_oracle.py``);
and a per-tree ``predict_binned`` loop that ``predict`` must match bit
for bit (``tests/ml/test_forest.py``).
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


def _unpack_trees(
    packed: dict, params: TreeGrowthParams, max_bins: int
) -> list[RegressionTree]:
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
        tree = RegressionTree(params, max_bins)
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
        Maximum number of trees.
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
    early_stopping_rounds:
        If set, :meth:`fit` with ``eval_set`` stops when the validation RMSE
        fails to improve for this many consecutive rounds.
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
        early_stopping_rounds: int | None = None,
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
        self.early_stopping_rounds = early_stopping_rounds
        self.random_state = random_state

        self.trees_: list[RegressionTree] = []
        self.base_score_: float = 0.0
        self.binner_: QuantileBinner | None = None
        self.n_features_: int | None = None
        self.train_scores_: list[float] = []
        self.eval_scores_: list[float] = []
        self.best_iteration_: int | None = None
        self._forest: FlattenedForest | None = None

    # -- fitting ----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GradientBoostingRegressor":
        """Fit on (X, y); optionally monitor (X_val, y_val) for early stop."""
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
        codes = self.binner_.transform(X)
        n_bins = self.binner_.n_bins_

        self.base_score_ = float(y.mean())
        pred = np.full(n, self.base_score_)

        val_codes = None
        val_pred = None
        y_val = None
        if eval_set is not None:
            X_val, y_val = eval_set
            y_val = np.asarray(y_val, dtype=np.float64).ravel()
            if not np.isfinite(y_val).all():
                raise ValueError("eval_set target contains NaN or infinite values")
            val_codes = self.binner_.transform(np.asarray(X_val, dtype=np.float64))
            val_pred = np.full(y_val.shape[0], self.base_score_)

        self.trees_ = []
        self._forest = None  # flattened snapshot is invalid once refit starts
        self.train_scores_ = []
        self.eval_scores_ = []
        best_val = np.inf
        rounds_since_best = 0
        self.best_iteration_ = None

        n_sub = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample_bytree * self.n_features_)))

        # One bin layout per fit; every tree grows on global row indices.
        layout = BinLayout(codes, n_bins)
        all_rows = np.arange(n, dtype=np.int64)
        in_bag = np.zeros(n, dtype=bool)
        # Row 0 holds the gradients, row 1 the (unit) hessians.
        gh = np.ones((2, n), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            for it in range(self.n_estimators):
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

                tree = RegressionTree(self.tree_params, self.max_bins)
                leaves = tree._grow(layout, gh, rows, n_sub, layout.allowed(cols))
                self.trees_.append(tree)

                for node, leaf_rows in leaves:
                    pred[leaf_rows] += self.learning_rate * tree.node_value_[node]
                self.train_scores_.append(float(np.sqrt(np.mean((pred - y) ** 2))))

                if val_codes is not None:
                    val_pred += self.learning_rate * tree.predict_binned(val_codes)
                    val_rmse = float(np.sqrt(np.mean((val_pred - y_val) ** 2)))
                    self.eval_scores_.append(val_rmse)
                    if val_rmse < best_val - 1e-12:
                        best_val = val_rmse
                        rounds_since_best = 0
                        self.best_iteration_ = it
                    else:
                        rounds_since_best += 1
                        if (
                            self.early_stopping_rounds is not None
                            and rounds_since_best >= self.early_stopping_rounds
                        ):
                            # Keep only the trees up to the best iteration.
                            self.trees_ = self.trees_[: self.best_iteration_ + 1]
                            break
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
        self.trees_ = _unpack_trees(
            state["trees_"], self.tree_params, self.max_bins
        )

    # -- inference --------------------------------------------------------

    def _ensure_forest(self) -> FlattenedForest:
        """Flattened all-trees kernel, built lazily on first predict."""
        if self._forest is None:
            self._forest = FlattenedForest.from_trees(
                self.trees_, self.learning_rate, self.base_score_, self.binner_
            )
        return self._forest

    def _check_predict_input(self, X: np.ndarray) -> np.ndarray:
        if self.binner_ is None:
            raise RuntimeError("model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X shape {X.shape} incompatible with {self.n_features_} features"
            )
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_input(X)
        return self._ensure_forest().predict(X)

    def staged_predict(self, X: np.ndarray):
        """Yield predictions after each boosting round (for learning curves).

        Each yielded array is an independent snapshot of one row of a
        single ``np.add.accumulate`` over the base row stacked on the leaf
        value matrix: the same tree-order running sum ``predict`` rounds by.
        """
        X = self._check_predict_input(X)
        vals = self._ensure_forest().leaf_value_matrix(X)
        stages = np.empty((vals.shape[0] + 1, X.shape[0]))
        stages[0] = self.base_score_
        stages[1:] = vals
        np.add.accumulate(stages, axis=0, out=stages)
        for row in stages[1:]:
            yield row.copy()

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
