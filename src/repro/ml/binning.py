"""Quantile feature binning for histogram-based tree growing.

XGBoost's scalability comes in part from its *approximate tree learning*
algorithm (Chen & Guestrin 2016, cited as [9] in the paper): candidate split
points are quantile sketch boundaries rather than every distinct value, and
per-node statistics are accumulated into fixed-size histograms.  This module
implements the offline variant: each feature is bucketed once into at most
``max_bins`` quantile bins, and trees operate on the integer bin codes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuantileBinner"]


class QuantileBinner:
    """Maps each feature column to integer quantile-bin codes.

    Parameters
    ----------
    max_bins:
        Upper bound on the number of bins per feature (2..65535).  Features
        with fewer distinct values than ``max_bins`` get one bin per value.

    Notes
    -----
    Bin ``b`` of feature ``f`` contains values ``x`` with
    ``upper_edges_[f][b-1] < x <= upper_edges_[f][b]`` (bin 0 is unbounded
    below).  A tree split "code <= b" therefore corresponds to the raw-value
    split ``x <= upper_edges_[f][b]``.
    """

    def __init__(self, max_bins: int = 256) -> None:
        if not 2 <= max_bins <= 65535:
            raise ValueError(f"max_bins must be in [2, 65535], got {max_bins}")
        self.max_bins = max_bins
        self.upper_edges_: list[np.ndarray] | None = None
        self.n_bins_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "QuantileBinner":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("X contains NaN or inf")
        n_features = X.shape[1]
        edges: list[np.ndarray] = []
        for f in range(n_features):
            col = X[:, f]
            uniq = np.unique(col)
            if uniq.size <= self.max_bins:
                # One bin per distinct value; upper edge == the value itself.
                cuts = uniq
            else:
                qs = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
                cuts = np.unique(np.quantile(col, qs))
                # Final catch-all bin holds everything above the last cut.
                cuts = np.append(cuts, uniq[-1])
            edges.append(cuts)
        self.upper_edges_ = edges
        self.n_bins_ = np.array([e.size for e in edges], dtype=np.int64)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Return uint16 bin codes, shape (n_samples, n_features).

        Values above a feature's top training value clamp into the last bin,
        so unseen test data never produces an out-of-range code.
        """
        if self.upper_edges_ is None:
            raise RuntimeError("QuantileBinner used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.upper_edges_):
            raise ValueError(
                f"X shape {X.shape} incompatible with "
                f"{len(self.upper_edges_)} fitted features"
            )
        codes = np.empty(X.shape, dtype=np.uint16)
        # One transpose copy up front: searchsorted on a contiguous column is
        # several times faster than on a strided view of the row-major input.
        cols = np.ascontiguousarray(X.T)
        for f, cuts in enumerate(self.upper_edges_):
            # side='left': x <= cuts[b] -> code b; x > last cut clamps.
            c = np.searchsorted(cuts, cols[f], side="left")
            np.minimum(c, cuts.size - 1, out=c)
            codes[:, f] = c
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def threshold_value(
        self, feature: int | np.ndarray, bin_code: int | np.ndarray
    ) -> float | np.ndarray:
        """Raw-value threshold of the split ``code <= bin_code``, for
        scalars or equal-shape arrays, in one gather.  Below a feature's
        last bin, ``code <= b`` is exactly ``x <= threshold`` for every
        ``x`` but NaN, which bins last like ``+inf``; so prediction
        compares raw values (:mod:`repro.ml.forest`) and never bins."""
        if self.upper_edges_ is None:
            raise RuntimeError("QuantileBinner used before fit()")
        starts = np.cumsum(self.n_bins_) - self.n_bins_
        return np.concatenate(self.upper_edges_)[starts[feature] + bin_code]
