"""Model persistence: JSON round-trips for every fitted estimator.

A model trained overnight on a big log should be reusable by the scheduler
in the morning without retraining.  Formats are plain JSON (human-
inspectable, diff-able, no pickle security/versioning hazards): trees as
flat node arrays, the binner as per-feature edge lists.

Top-level entry points :func:`save_model` / :func:`load_model` dispatch on
a ``kind`` tag and cover :class:`~repro.ml.linear.LinearRegression`,
:class:`~repro.ml.gbt.GradientBoostingRegressor` and
:class:`~repro.ml.scaler.StandardScaler`.

Format version 2 adds a ``checksum`` field (SHA-256 over the canonical
JSON of the rest of the document) verified at load time — a corrupted or
hand-edited artifact raises :class:`ModelIntegrityError` instead of
deserialising into a silently wrong model.  Any other version, the
checksum-less version 1 included, is refused.  :func:`save_model` writes
atomically (write-temp -> fsync -> ``os.replace``): a crash mid-save
leaves the previous artifact intact, never a truncated JSON file.

This JSON format is the only one a model is written in: model files,
the artifact cache and the stream checkpoint journal all carry it.  A
decoded GBT whose trees break the forest kernel's invariants raises
``ValueError`` (:func:`_check_gbt`).  A
:class:`~repro.ml.gbt.GradientBoostingRegressor` also has a pickle
state (one packed node table), but that serves only the in-memory hop
from a fit fan-out worker back to its own parent process, over a pipe
the process pool pickles anyway; nothing writes it to a file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write_text, checksum_payload
from repro.ml.binning import QuantileBinner
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.ml.scaler import StandardScaler
from repro.ml.tree import FITTED_FIELDS, RegressionTree, TreeGrowthParams

__all__ = [
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "ModelIntegrityError",
]

_FORMAT_VERSION = 2


class ModelIntegrityError(ValueError):
    """A persisted model failed its checksum (or carries none where one is
    required) — the artifact is corrupt, not merely outdated."""


def _arr(a: np.ndarray | None) -> list | None:
    return None if a is None else np.asarray(a).tolist()


# -- per-class encoders -------------------------------------------------------


def _scaler_to_dict(s: StandardScaler) -> dict:
    if s.mean_ is None:
        raise ValueError("cannot persist an unfitted StandardScaler")
    return {
        "kind": "standard_scaler",
        "ddof": s.ddof,
        "mean": _arr(s.mean_),
        "scale": _arr(s.scale_),
    }


def _scaler_from_dict(d: dict) -> StandardScaler:
    s = StandardScaler(ddof=d["ddof"])
    s.mean_ = np.array(d["mean"], dtype=np.float64)
    s.scale_ = np.array(d["scale"], dtype=np.float64)
    return s


def _linear_to_dict(m: LinearRegression) -> dict:
    if m.coef_ is None:
        raise ValueError("cannot persist an unfitted LinearRegression")
    return {
        "kind": "linear_regression",
        "fit_intercept": m.fit_intercept,
        "coef": _arr(m.coef_),
        "intercept": m.intercept_,
    }


def _linear_from_dict(d: dict) -> LinearRegression:
    m = LinearRegression(fit_intercept=d["fit_intercept"])
    m.coef_ = np.array(d["coef"], dtype=np.float64)
    m.intercept_ = float(d["intercept"])
    return m


def _binner_to_dict(b: QuantileBinner) -> dict:
    if b.upper_edges_ is None:
        raise ValueError("cannot persist an unfitted QuantileBinner")
    return {
        "max_bins": b.max_bins,
        "upper_edges": [e.tolist() for e in b.upper_edges_],
    }


def _binner_from_dict(d: dict) -> QuantileBinner:
    b = QuantileBinner(max_bins=d["max_bins"])
    b.upper_edges_ = [np.array(e, dtype=np.float64) for e in d["upper_edges"]]
    b.n_bins_ = np.array([e.size for e in b.upper_edges_], dtype=np.int64)
    return b


def _tree_to_dict(t: RegressionTree) -> dict:
    if t.node_feature_ is None:
        raise ValueError("cannot persist an unfitted tree")
    return {key: _arr(getattr(t, attr)) for attr, key, _ in FITTED_FIELDS}


def _tree_from_dict(d: dict, params: TreeGrowthParams, index: int) -> RegressionTree:
    """Decode tree ``index``; a value its field's dtype cannot hold (a bin
    of 10**10 in an int32 field) raises ``ValueError`` naming both."""
    t = RegressionTree(params)
    for attr, key, dtype in FITTED_FIELDS:
        try:
            setattr(t, attr, np.array(d[key], dtype=dtype))
        except OverflowError:
            raise ValueError(
                f"tree {index}: {key} holds a value outside "
                f"{np.dtype(dtype).name}"
            ) from None
    return t


def _check_gbt(m: GradientBoostingRegressor) -> None:
    """Raise ``ValueError`` naming the tree and the field unless the forest
    kernel can walk ``m`` (its clipped gathers hide a bad index): finite,
    sorted edges per feature (a fit's top edge may repeat); leaves with
    feature -1; splits with a feature in range, a bin below its feature's
    last (raw thresholds need it) and children ``left``, ``left + 1``
    later in the tree; leaves within ``max_depth``.  One pass, all trees."""
    edges = m.binner_.upper_edges_
    if len(edges) != m.n_features_:
        raise ValueError(f"binner: upper_edges has {len(edges)} features")
    for f, e in enumerate(edges):
        ok = e.ndim == 1 and e.size and np.isfinite(e).all() and (np.diff(e) >= 0).all()
        if not ok:
            raise ValueError(f"binner: upper_edges[{f}] is not finite and sorted")
    if not m.trees_:
        raise ValueError("trees: a model needs at least one tree")
    node_attrs = [attr for attr, _, _ in FITTED_FIELDS[:5]]
    lens = np.array([[getattr(t, a).size for a in node_attrs] for t in m.trees_])
    for t in np.flatnonzero((lens != lens[:, :1]).any(axis=1) | (lens[:, 0] == 0)):
        raise ValueError(f"tree {t}: node fields are empty or differ in length")
    n = lens[:, 0]
    tree_of = np.repeat(np.arange(n.size), n)
    start = (np.cumsum(n) - n)[tree_of]
    local = np.arange(start.size) - start
    feature, bins, left, right = (
        np.concatenate([getattr(t, a) for t in m.trees_], dtype=np.int64)
        for a in node_attrs[:4]
    )

    def refuse(bad: np.ndarray, field: str, values: np.ndarray, rule: str) -> None:
        if bad.any():
            i = int(np.argmax(bad))
            where = f"tree {tree_of[i]} node {local[i]}"
            raise ValueError(f"{where}: {field} {values[i]} {rule}")

    split = feature >= 0
    last_bin = m.binner_.n_bins_.take(feature, mode="clip") - 1
    bad_feature = (feature < -1) | (feature >= m.n_features_)
    refuse(bad_feature, "feature", feature, "is out of range")
    bad_bin = split & ((bins < 0) | (bins >= last_bin))
    refuse(bad_bin, "bin", bins, "is not below its feature's last bin")
    bad_left = split & ((left <= local) | (left + 1 >= n[tree_of]))
    refuse(bad_left, "left", left, "is not a later node of the tree")
    refuse(split & (right != left + 1), "right", right, "is not left + 1")
    # Children follow their parents, so no tree is deeper than it is long.
    max_depth = m.tree_params.max_depth
    child = left + start
    node = np.flatnonzero(local == 0)
    for _ in range(min(max_depth, int(n.max()))):
        node = node[split[node]]
        node = np.unique(np.concatenate([child[node], child[node] + 1]))
    deep = np.isin(np.arange(feature.size), node) & split
    refuse(deep, "left", left, f"leads past max_depth {max_depth}")


def _gbt_to_dict(m: GradientBoostingRegressor) -> dict:
    if m.binner_ is None:
        raise ValueError("cannot persist an unfitted GradientBoostingRegressor")
    return {
        "kind": "gradient_boosting",
        "hyper": {
            "n_estimators": m.n_estimators,
            "learning_rate": m.learning_rate,
            "max_depth": m.tree_params.max_depth,
            "min_child_weight": m.tree_params.min_child_weight,
            "reg_lambda": m.tree_params.reg_lambda,
            "gamma": m.tree_params.gamma,
            "subsample": m.subsample,
            "colsample_bytree": m.colsample_bytree,
            "max_bins": m.max_bins,
            "random_state": m.random_state,
        },
        "base_score": m.base_score_,
        "n_features": m.n_features_,
        "binner": _binner_to_dict(m.binner_),
        "trees": [_tree_to_dict(t) for t in m.trees_],
    }


def _gbt_from_dict(d: dict) -> GradientBoostingRegressor:
    h = d["hyper"]
    m = GradientBoostingRegressor(
        n_estimators=h["n_estimators"],
        learning_rate=h["learning_rate"],
        max_depth=h["max_depth"],
        min_child_weight=h["min_child_weight"],
        reg_lambda=h["reg_lambda"],
        gamma=h["gamma"],
        subsample=h["subsample"],
        colsample_bytree=h["colsample_bytree"],
        max_bins=h["max_bins"],
        random_state=h["random_state"],
    )
    m.base_score_ = float(d["base_score"])
    m.n_features_ = int(d["n_features"])
    m.binner_ = _binner_from_dict(d["binner"])
    m.trees_ = [
        _tree_from_dict(td, m.tree_params, i) for i, td in enumerate(d["trees"])
    ]
    _check_gbt(m)
    return m


# -- dispatch ------------------------------------------------------------------

_ENCODERS = {
    StandardScaler: _scaler_to_dict,
    LinearRegression: _linear_to_dict,
    GradientBoostingRegressor: _gbt_to_dict,
}
_DECODERS = {
    "standard_scaler": _scaler_from_dict,
    "linear_regression": _linear_from_dict,
    "gradient_boosting": _gbt_from_dict,
}


def model_to_dict(model) -> dict:
    """Serialise a fitted estimator to a JSON-compatible dict (format
    version 2: includes a SHA-256 ``checksum`` over the rest)."""
    enc = _ENCODERS.get(type(model))
    if enc is None:
        raise TypeError(f"cannot persist {type(model).__name__}")
    out = enc(model)
    out["format_version"] = _FORMAT_VERSION
    out["checksum"] = checksum_payload(out)
    return out


def model_from_dict(d: dict):
    """Inverse of :func:`model_to_dict`.

    Version-2 documents are checksum-verified (raising
    :class:`ModelIntegrityError` on mismatch or a missing checksum); any
    other version raises ``ValueError``.
    """
    version = d.get("format_version")
    if version == _FORMAT_VERSION:
        stored = d.get("checksum")
        if stored is None:
            raise ModelIntegrityError(
                "format_version 2 artifact is missing its checksum"
            )
        expected = checksum_payload(d)
        if stored != expected:
            raise ModelIntegrityError(
                f"model checksum mismatch: stored {stored[:12]}..., "
                f"computed {expected[:12]}... (corrupt or tampered artifact)"
            )
    else:
        raise ValueError(f"unsupported format_version {version!r}")
    dec = _DECODERS.get(d.get("kind"))
    if dec is None:
        raise ValueError(f"unknown model kind {d.get('kind')!r}")
    return dec(d)


def save_model(model, path: str | Path) -> None:
    """Write a fitted estimator to a JSON file atomically: the document
    lands at ``path`` complete or not at all (see :mod:`repro.atomicio`)."""
    atomic_write_text(path, json.dumps(model_to_dict(model)))


def load_model(path: str | Path):
    """Read an estimator written by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))
