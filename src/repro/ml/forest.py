"""Flattened forest kernel: all trees of a fitted GBT in one node table.

:class:`~repro.ml.tree.RegressionTree` already predicts with a vectorised
level-by-level walk, but a boosted model pays that walk once *per tree* —
``n_estimators`` rounds of python dispatch, per-tree gathers, and a fresh
output vector each round.  :class:`FlattenedForest` packs every tree's node
arrays into one contiguous table and descends **all samples through all
trees at once**: each traversal level is a handful of ``np.take`` gathers
over ``n_samples * n_trees`` lanes.

Layout
------
Node records for tree ``t`` occupy rows ``roots[t] .. roots[t+1]`` of four
parallel arrays:

``feature_``  int32   split feature (0 for leaves)
``bin_``      int32   split bin code (``_LEAF_BIN`` sentinel for leaves)
``left_``     int64   *global* index of the left child; leaves self-loop
``value_``    float64 leaf weight, pre-scaled by the learning rate

Two invariants make the walk branch-free:

* ``right == left + 1`` (guaranteed by ``RegressionTree._grow``), so the
  next node is ``left.take(node) + (code > bin)``.
* Leaves self-loop with an impossibly large split bin, so lanes that reach
  a leaf early simply stay put — no "active" mask is ever needed.

When every bin code fits in 15 bits (``max_bins <= 0x7FFF``, true for any
practical binner configuration) the kernel uses a *packed* table
``(bin << 16) | feature`` and pre-shifted codes so that one int32 gather
yields both halves of the comparison::

    (code << 16) > ((bin << 16) | feature)   <=>   code > bin

since ``feature >= 0`` and the shifted code has zero low bits.  Larger bin
spaces fall back to an unpacked two-gather compare with identical results.

Bit-exactness
-------------
Leaf values are accumulated **sequentially in tree order** by one
``np.add.accumulate`` down a ``(n_trees + 1, rows)`` stack whose row 0 is
the running output.  ``add.accumulate`` is defined as a running sum
(``r[t] = r[t-1] + x[t]``), so every output rounds exactly as
``base + l0 + l1 + ...`` does in a per-tree loop, but in one C pass instead
of ``n_trees`` interpreted adds.  ``np.sum`` is never used: its pairwise
reduction rounds differently.  The learning rate is folded into the leaf
values at flatten time — ``lr * leaf`` is the exact same scalar multiply
the per-tree loop performs.  The result is bit-identical to
``base_score + sum_t lr * tree_t.predict_binned(codes)``;
``tests/ml/test_forest.py`` pins this property over randomized models and
at serving shapes (one row of a 300-tree model, chunk boundaries).

All gathers run with ``mode='clip'`` — indices are in range by
construction, and skipping numpy's bounds-check fault path roughly halves
gather cost on large lane counts.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ml.tree import RegressionTree

__all__ = ["FlattenedForest", "forest_totals", "reset_forest_totals"]

_LEAF_BIN = 0x7FFF  # packed-path leaf sentinel: greater than any packable bin
_LEAF_BIN_WIDE = np.iinfo(np.int32).max  # unpacked-path leaf sentinel
_MAX_PACKED_BINS = 0x7FFF  # packed compare needs code << 16 to fit in int32

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


class FlattenedForest:
    """Contiguous all-trees node table with a vectorised traversal kernel.

    Build with :meth:`from_trees`; predict with :meth:`predict_binned` on
    codes from the model's :class:`~repro.ml.binning.QuantileBinner`.
    Instances are immutable snapshots of a fitted model — refitting the
    model must discard and rebuild the forest.
    """

    # Rows per traversal chunk are sized so ``chunk * n_trees`` lanes keep
    # every scratch buffer cache-resident; 64k lanes measured fastest on
    # the bench shapes (raising it degrades toward memory bandwidth).
    _TARGET_LANES = 65536

    def __init__(
        self,
        feature: np.ndarray,
        bin_: np.ndarray,
        left: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        max_depth: int,
        base_score: float,
        max_bins: int,
    ) -> None:
        self.feature_ = feature
        self.bin_ = bin_
        self.left_ = left
        self.value_ = value
        self.roots_ = roots
        self.max_depth = int(max_depth)
        self.base_score = float(base_score)
        self.max_bins = int(max_bins)
        self.n_trees = int(roots.shape[0])
        self.packed_ = None
        if max_bins <= _MAX_PACKED_BINS:
            # (bin << 16) | feature in one int32 word; leaves get the
            # _LEAF_BIN sentinel so any shifted code compares below them.
            self.packed_ = ((bin_.astype(np.int64) << 16) | feature).astype(
                np.int32
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_trees(
        cls,
        trees: Sequence["RegressionTree"],
        learning_rate: float,
        base_score: float,
        max_bins: int,
    ) -> "FlattenedForest":
        """Flatten fitted trees into one table (leaf self-loops, lr folded)."""
        n_nodes = sum(t.node_feature_.shape[0] for t in trees)
        feature = np.zeros(n_nodes, dtype=np.int32)
        bin_ = np.zeros(n_nodes, dtype=np.int32)
        left = np.zeros(n_nodes, dtype=np.int64)
        value = np.zeros(n_nodes, dtype=np.float64)
        roots = np.zeros(len(trees), dtype=np.int64)
        leaf_bin = _LEAF_BIN if max_bins <= _MAX_PACKED_BINS else _LEAF_BIN_WIDE
        max_depth = 0
        off = 0
        for i, tree in enumerate(trees):
            nn = tree.node_feature_.shape[0]
            sl = slice(off, off + nn)
            f = tree.node_feature_.astype(np.int32, copy=True)
            b = tree.node_bin_.astype(np.int32, copy=True)
            lf = tree.node_left_.astype(np.int64, copy=True)
            is_leaf = f < 0
            f[is_leaf] = 0
            b[is_leaf] = leaf_bin
            lf[is_leaf] = np.nonzero(is_leaf)[0]
            feature[sl] = f
            bin_[sl] = b
            left[sl] = lf + off
            # lr * leaf is the exact scalar multiply the per-tree loop does;
            # folding it here keeps accumulation bit-identical.
            value[sl] = learning_rate * tree.node_value_
            roots[i] = off
            max_depth = max(max_depth, tree.params.max_depth)
            off += nn
        _TOTALS["builds"] += 1
        return cls(
            feature, bin_, left, value, roots, max_depth, base_score, max_bins
        )

    @property
    def n_nodes(self) -> int:
        return int(self.feature_.shape[0])

    # -- prediction --------------------------------------------------------

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict from bin codes; bit-identical to the per-tree loop."""
        t0 = time.perf_counter()
        n = codes.shape[0]
        out = np.full(n, self.base_score, dtype=np.float64)
        if self.n_trees and n:
            self._accumulate(codes, out, None)
        _TOTALS["predict_seconds"] += time.perf_counter() - t0
        return out

    def leaf_value_matrix(self, codes: np.ndarray) -> np.ndarray:
        """Per-tree scaled leaf contributions, shape ``(n_trees, n)``.

        A tree-order running sum (``np.add.accumulate``) of ``base_score``
        stacked on these rows reproduces staged prediction; its last row is
        :meth:`predict_binned`.  Used by
        ``GradientBoostingRegressor.staged_predict``.
        """
        t0 = time.perf_counter()
        n = codes.shape[0]
        vals = np.empty((self.n_trees, n), dtype=np.float64)
        if self.n_trees and n:
            self._accumulate(codes, None, vals)
        _TOTALS["predict_seconds"] += time.perf_counter() - t0
        return vals

    # -- kernel ------------------------------------------------------------

    def _accumulate(
        self,
        codes: np.ndarray,
        out: np.ndarray | None,
        vals_out: np.ndarray | None,
    ) -> None:
        n = codes.shape[0]
        n_features = codes.shape[1]
        T = self.n_trees
        packed = self.packed_
        if packed is not None:
            # Pre-shift codes once so the per-level compare is one gather.
            codes32 = np.ascontiguousarray(codes, dtype=np.int32)
            codes32 = np.left_shift(codes32, 16)
        else:
            codes32 = np.ascontiguousarray(codes, dtype=np.int32)

        chunk = max(1, min(n, self._TARGET_LANES // max(T, 1)))
        lanes = T * chunk
        node = np.empty(lanes, dtype=np.int64)
        cidx = np.empty(lanes, dtype=np.int64)
        w = np.empty(lanes, dtype=np.int32)
        f = np.empty(lanes, dtype=np.int32)
        c = np.empty(lanes, dtype=np.int32)
        go = np.empty(lanes, dtype=np.bool_)
        # Per-chunk stack: row 0 is the running output, rows 1..T the leaves.
        stack = None if out is None else np.empty(lanes + chunk)
        row_base = np.arange(chunk, dtype=np.int64) * n_features

        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            cn = e - s
            L = T * cn
            cflat = codes32[s:e].reshape(-1)
            nd = node[:L]
            nd.reshape(T, cn)[:] = self.roots_[:, None]
            ww, ff, cc, ci, gg = w[:L], f[:L], c[:L], cidx[:L], go[:L]
            rb = row_base[:cn]
            for _ in range(self.max_depth):
                if packed is not None:
                    np.take(packed, nd, out=ww, mode="clip")
                    np.bitwise_and(ww, 0xFFFF, out=ff)
                else:
                    np.take(self.feature_, nd, out=ff, mode="clip")
                np.add(
                    rb[None, :],
                    ff.reshape(T, cn),
                    out=ci.reshape(T, cn),
                    casting="unsafe",
                )
                np.take(cflat, ci, out=cc, mode="clip")
                if packed is not None:
                    np.greater(cc, ww, out=gg)
                else:
                    np.take(self.bin_, nd, out=ww, mode="clip")
                    np.greater(cc, ww, out=gg)
                np.take(self.left_, nd, out=nd, mode="clip")
                np.add(nd, gg, out=nd, casting="unsafe")
            if vals_out is not None:
                leaf = self.value_.take(nd, mode="clip")
                vals_out[:, s:e] = leaf.reshape(T, cn)
            if out is not None:
                # add.accumulate is a running sum (r[t] = r[t-1] + x[t]), so
                # each output rounds as base + l0 + l1 + ... in tree order;
                # np.sum's pairwise reduction would round differently.
                acc = stack[: L + cn].reshape(T + 1, cn)
                acc[0] = out[s:e]
                np.take(self.value_, nd, out=acc[1:].reshape(-1), mode="clip")
                np.add.accumulate(acc, axis=0, out=acc)
                out[s:e] = acc[T]
