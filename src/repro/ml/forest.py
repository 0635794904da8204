"""Flattened forest kernel: all trees of a fitted GBT in one node table.

This is the only tree walk in ``src/``.  A walk per tree would pay
``n_estimators`` rounds of python dispatch, per-tree gathers, and a fresh
output vector each round.  :class:`FlattenedForest` packs every tree's node
arrays into one contiguous table and descends **all samples through all
trees at once**: each traversal level is a handful of ``np.take`` gathers
over ``n_samples * n_trees`` lanes.

Layout
------
Node records for tree ``t`` occupy rows ``roots[t] .. roots[t+1]`` of four
parallel arrays:

``feature_``    int32   split feature (0 for leaves)
``threshold_``  float64 raw split threshold (``+inf`` for leaves)
``left_``       int64   *global* index of the left child; leaves self-loop
``value_``      float64 leaf weight, pre-scaled by the learning rate

Two invariants make the walk branch-free:

* ``right == left + 1`` (guaranteed by ``RegressionTree._grow``), so the
  next node is ``left.take(node) + (x > threshold)``.
* Leaves self-loop with the threshold ``+inf``, so lanes that reach a leaf
  early simply stay put — no "active" mask is ever needed.

The walk compares raw feature values, so a predict never bins.  Split
``(f, b)`` sends a row right when its bin code exceeds ``b``; its
threshold is ``upper_edges_[f][b]`` (``QuantileBinner.threshold_value``),
and ``x > upper_edges_[f][b]`` is exactly ``code > b``: binning is a left
``searchsorted`` clamped to the last bin, and the grower never cuts at a
feature's last bin (``BinLayout.cut_ok``), so the clamp never meets a
split.  NaN bins last, as ``+inf`` does, so the kernel maps NaN to
``+inf`` once per call; ``+inf > +inf`` is false, so it still stays on a
leaf (a ``not (x <= t)`` compare would move it off).

Bit-exactness
-------------
Leaf values are accumulated **sequentially in tree order** by one
``np.add.accumulate`` down a ``(n_trees + 1, rows)`` stack whose row 0 is
the base score.  ``add.accumulate`` is defined as a running sum
(``r[t] = r[t-1] + x[t]``), so every output rounds exactly as
``base + l0 + l1 + ...`` does in a per-tree loop, but in one C pass instead
of ``n_trees`` interpreted adds.  ``np.sum`` is never used: its pairwise
reduction rounds differently.  The learning rate is folded into the leaf
values at flatten time — ``lr * leaf`` is the exact same scalar multiply
the per-tree loop performs.  The result is bit-identical to
``base_score + sum_t lr * walk(tree_t, binner.transform(X))``, where
``walk`` is the binned per-tree walk kept as the oracle in
``tests/ml/grower_oracle.py``; ``tests/ml/test_forest.py`` pins this
property over randomized models and at serving shapes (one row of a
300-tree model, chunk boundaries, NaN, ``±inf``, exact thresholds).

All gathers run with ``mode='clip'`` — indices are in range by
construction, and skipping numpy's bounds-check fault path roughly halves
gather cost on large lane counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.binning import QuantileBinner
from repro.ml.tree import RegressionTree

__all__ = ["FlattenedForest", "forest_totals", "reset_forest_totals"]

# Module-wide totals mirrored into serving metrics
# (``ml_forest_builds_total`` / ``ml_forest_predict_seconds_total``).
_TOTALS = {"builds": 0, "predict_seconds": 0.0}


def forest_totals() -> dict[str, float]:
    """Snapshot of cumulative forest builds and kernel predict seconds."""
    return {
        "builds": _TOTALS["builds"],
        "predict_seconds": _TOTALS["predict_seconds"],
    }


def reset_forest_totals() -> None:
    """Zero the module counters (test isolation only)."""
    _TOTALS["builds"] = 0
    _TOTALS["predict_seconds"] = 0.0


@dataclass(eq=False)
class FlattenedForest:
    """Contiguous all-trees node table with a vectorised traversal kernel.

    Build with :meth:`from_trees`; predict with :meth:`predict` on raw
    feature rows.  Instances are immutable snapshots of a fitted model —
    refitting the model must discard and rebuild the forest.
    """

    # Rows per traversal chunk: ``chunk * n_trees`` lanes of ~45 B scratch
    # each stay inside a 2 MiB L2 at 32k lanes (~1.5 MB), not at 64k.
    # Predict medians, 300 trees, depth 4, 15 features, 2-vCPU x86 VM:
    # 1 and 16 rows (one chunk either way) ~94 and ~250 us; 256 rows
    # 3.4 ms at 32k lanes, 4.7 ms at 64k; 10,000 rows 117-121 ms at both.
    _TARGET_LANES = 32768

    feature_: np.ndarray
    threshold_: np.ndarray
    left_: np.ndarray
    value_: np.ndarray
    roots_: np.ndarray
    max_depth: int
    base_score: float

    @property
    def n_trees(self) -> int:
        return int(self.roots_.shape[0])

    # -- construction ------------------------------------------------------

    @classmethod
    def from_trees(
        cls,
        trees: Sequence[RegressionTree],
        learning_rate: float,
        base_score: float,
        binner: QuantileBinner,
    ) -> FlattenedForest:
        """Flatten fitted trees into one table: split bins become raw
        thresholds, leaves self-loop, the learning rate is folded in."""
        sizes = [t.node_feature_.shape[0] for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([t.node_feature_ for t in trees])
        bins = np.concatenate([t.node_bin_ for t in trees])
        left = np.concatenate([t.node_left_ for t in trees], dtype=np.int64)
        left += np.repeat(roots, sizes)
        split = feature >= 0
        threshold = np.full(feature.shape[0], np.inf)
        threshold[split] = binner.threshold_value(feature[split], bins[split])
        feature[~split] = 0
        left[~split] = np.flatnonzero(~split)
        # lr * leaf is the exact scalar multiply the per-tree loop does;
        # folding it here keeps accumulation bit-identical.
        value = learning_rate * np.concatenate([t.node_value_ for t in trees])
        max_depth = max(t.params.max_depth for t in trees)
        _TOTALS["builds"] += 1
        return cls(feature, threshold, left, value, roots, max_depth, base_score)

    # -- prediction --------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict from raw feature rows; bit-identical to the per-tree
        loop over binned codes."""
        t0 = time.perf_counter()
        n, n_features = X.shape
        T = self.n_trees
        out = np.empty(n, dtype=np.float64)
        # NaN bins like +inf (last bin); fmin maps NaN to +inf and keeps
        # every other value, in one C-ordered copy.
        xs = np.fmin(X, np.inf, order="C", dtype=np.float64)

        chunk = max(1, min(n, self._TARGET_LANES // T))
        lanes = T * chunk
        node, cidx = np.empty((2, lanes), dtype=np.int64)
        x, thr = np.empty((2, lanes), dtype=np.float64)
        f = np.empty(lanes, dtype=np.int32)
        go = np.empty(lanes, dtype=np.bool_)
        # Per-chunk stack: row 0 is the base score, rows 1..T the leaves.
        stack = np.empty(lanes + chunk)
        row_base = np.arange(chunk, dtype=np.int64) * n_features

        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            cn = e - s
            L = T * cn
            xflat = xs[s:e].reshape(-1)
            nd = node[:L]
            nd.reshape(T, cn)[:] = self.roots_[:, None]
            ff, xx, tt, ci, gg = f[:L], x[:L], thr[:L], cidx[:L], go[:L]
            rb = row_base[:cn]
            for _ in range(self.max_depth):
                np.take(self.feature_, nd, out=ff, mode="clip")
                np.add(ff.reshape(T, cn), rb, out=ci.reshape(T, cn))
                np.take(xflat, ci, out=xx, mode="clip")
                np.take(self.threshold_, nd, out=tt, mode="clip")
                np.greater(xx, tt, out=gg)
                np.take(self.left_, nd, out=nd, mode="clip")
                np.add(nd, gg, out=nd, casting="unsafe")
            # add.accumulate is a running sum (r[t] = r[t-1] + x[t]), so
            # each output rounds as base + l0 + l1 + ... in tree order;
            # np.sum's pairwise reduction would round differently.
            acc = stack[: L + cn].reshape(T + 1, cn)
            acc[0] = self.base_score
            np.take(self.value_, nd, out=acc[1:].reshape(-1), mode="clip")
            np.add.accumulate(acc, axis=0, out=acc)
            out[s:e] = acc[T]
        _TOTALS["predict_seconds"] += time.perf_counter() - t0
        return out
