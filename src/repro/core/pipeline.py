"""Model training/evaluation pipelines (§5.1–§5.4).

Workflow per edge (the paper's §5.1/§5.2 recipe):

1. take the edge's transfers from the full log;
2. drop transfers below ``threshold * Rmax(edge)`` (§4.3.2 unknown-load
   filter; edges are used only if >= ``min_samples`` transfers survive);
3. eliminate low-variance features (C and P in practice — the red crosses);
4. standardise features (fit on train only);
5. random 70/30 train/test split;
6. fit linear regression or gradient boosting; report test MdAPE.

The single all-edges model (§5.4) pools the 30 edges' filtered transfers
and appends the two endpoint-capability features ROmax/RImax of Eq. 5,
estimated from training rows only.

Every fit function accepts an optional :class:`~repro.obs.Tracer`: the
prepare / train / evaluate stages emit nested spans
(``pipeline.fit_edge`` -> ``pipeline.prepare`` / ``pipeline.train`` /
``pipeline.eval``), so refit time shows up in the same trace buffer and
``trace_span_seconds`` histograms as the serving path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.core.analytical import EndpointMaxima, threshold_mask
from repro.core.endpoint_features import (
    EndpointCapability,
    capability_columns,
    estimate_endpoint_capabilities,
)
from repro.core.features import (
    EXPLANATION_FEATURE_NAMES,
    FEATURE_NAMES,
    FeatureMatrix,
)
from repro.logs.store import LogStore
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.ml.metrics import absolute_percentage_errors, mdape
from repro.ml.persistence import model_from_dict, model_to_dict
from repro.ml.scaler import StandardScaler
from repro.ml.selection import low_variance_features, train_test_split
from repro.obs.tracing import Tracer, maybe_span

__all__ = [
    "GBTSettings",
    "EdgeModelResult",
    "GlobalModelResult",
    "GlobalFeatureAdapter",
    "select_heavy_edges",
    "fit_edge_model",
    "fit_all_edge_models",
    "fit_global_model",
    "edge_result_to_payload",
    "edge_result_from_payload",
    "edge_results_fingerprint",
]

# Bump to invalidate cached per-edge model bundles after pipeline changes.
EDGE_MODEL_VERSION = 1


@dataclass(frozen=True)
class GBTSettings:
    """Hyperparameters for the nonlinear (XGB-style) models."""

    n_estimators: int = 300
    learning_rate: float = 0.08
    max_depth: int = 4
    min_child_weight: float = 5.0
    reg_lambda: float = 1.0
    subsample: float = 0.9
    colsample_bytree: float = 1.0

    def build(self, seed: int | None) -> GradientBoostingRegressor:
        return GradientBoostingRegressor(
            n_estimators=self.n_estimators,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            subsample=self.subsample,
            colsample_bytree=self.colsample_bytree,
            random_state=seed,
        )


@dataclass
class EdgeModelResult:
    """Fitted model + evaluation for one edge.

    Attributes
    ----------
    src, dst:
        The edge.
    model_kind:
        ``"linear"`` or ``"gbt"``.
    feature_names:
        Features offered to the model (prediction or explanation set).
    kept:
        Boolean mask over ``feature_names``: False = eliminated for low
        variance (Figures 9/12 red crosses).
    significance:
        Per-feature scores aligned with ``feature_names``; |standardised
        coefficient| for linear, gain importance for gbt; NaN where
        eliminated.
    n_train, n_test:
        Split sizes after filtering.
    test_errors:
        Per-test-transfer absolute percentage errors (Figure 10's violins).
    mdape:
        Median of ``test_errors`` (Figure 11's bars).
    """

    src: str
    dst: str
    model_kind: str
    feature_names: tuple[str, ...]
    kept: np.ndarray
    significance: np.ndarray
    n_train: int
    n_test: int
    test_errors: np.ndarray
    mdape: float
    model: object = field(repr=False, default=None)
    scaler: StandardScaler | None = field(repr=False, default=None)

    @property
    def edge(self) -> tuple[str, str]:
        return (self.src, self.dst)


@dataclass
class GlobalModelResult:
    """The §5.4 single model across all edges."""

    model_kind: str
    feature_names: tuple[str, ...]
    n_train: int
    n_test: int
    test_errors: np.ndarray
    mdape: float
    model: object = field(repr=False, default=None)
    scaler: StandardScaler | None = field(repr=False, default=None)


# Extra regressors a global model may carry beyond the Table 2 features.
_GLOBAL_EXTRA_NAMES = ("ROmax_src", "RImax_dst", "distance_km")


@dataclass(frozen=True)
class GlobalFeatureAdapter:
    """Maps a transfer request onto a global model's extra features.

    A :class:`GlobalModelResult` needs per-request values for Eq. 5's
    endpoint-capability regressors (``ROmax_src``, ``RImax_dst``) and,
    when fitted with ``include_rtt=True``, the edge's ``distance_km``.
    At serving time those come from *this* adapter, not from the request:
    the serving layer looks up the request's endpoints here and feeds the
    resulting columns into the batch predictor.  This is what lets the
    §5.4 global model act as the fallback tier for edges that have no
    dedicated model (see :class:`repro.serve.FallbackChain`).

    Attributes
    ----------
    capabilities:
        Per-endpoint ROmax/RImax estimates; 0.0 in a direction means
        "never observed", i.e. the adapter does not cover that endpoint
        in that role.
    distances:
        Optional per-edge great-circle distances, required only by
        ``include_rtt`` models.
    """

    capabilities: dict[str, EndpointCapability]
    distances: dict[tuple[str, str], float] | None = None

    @classmethod
    def from_features(cls, features: FeatureMatrix) -> "GlobalFeatureAdapter":
        """Estimate capabilities (and edge distances) from a feature matrix,
        typically the same training data the global model was fitted on."""
        caps = estimate_endpoint_capabilities(features)
        store = features.store
        distances: dict[tuple[str, str], float] = {}
        src = store.column("src")
        dst = store.column("dst")
        dist = store.column("distance_km")
        for s, d, km in zip(src, dst, dist):
            distances.setdefault((str(s), str(d)), float(km))
        return cls(capabilities=caps, distances=distances)

    @classmethod
    def from_endpoint_maxima(
        cls, maxima: dict[str, EndpointMaxima]
    ) -> "GlobalFeatureAdapter":
        """Build from §3.2 log-estimated endpoint maxima.

        ``DRmax`` (max observed rate as source) lower-bounds ``ROmax`` and
        ``DWmax`` lower-bounds ``RImax`` — a single transfer's rate is the
        degenerate aggregate — so the maxima are a usable, if conservative,
        capability estimate when no feature matrix is at hand.
        """
        caps = {
            ep: EndpointCapability(endpoint=ep, ro_max=m.dr_max, ri_max=m.dw_max)
            for ep, m in maxima.items()
        }
        return cls(capabilities=caps)

    def _extra_names(self, result: GlobalModelResult) -> list[str]:
        return [n for n in result.feature_names if n in _GLOBAL_EXTRA_NAMES]

    def covers(self, result: GlobalModelResult, src: str, dst: str) -> bool:
        """Whether every extra feature ``result`` needs is available for a
        ``src -> dst`` request (capability 0.0 counts as unavailable)."""
        for name in self._extra_names(result):
            if name == "ROmax_src":
                cap = self.capabilities.get(src)
                if cap is None or cap.ro_max <= 0:
                    return False
            elif name == "RImax_dst":
                cap = self.capabilities.get(dst)
                if cap is None or cap.ri_max <= 0:
                    return False
            elif name == "distance_km":
                if self.distances is None or (src, dst) not in self.distances:
                    return False
        return True

    def extra_columns(
        self, result: GlobalModelResult, requests
    ) -> dict[str, np.ndarray]:
        """Per-request arrays for the extra features ``result`` needs.

        Callers should check :meth:`covers` first; uncovered endpoints get
        0.0 here (the fitted model saw no such value, so predictions would
        be extrapolations).
        """
        out: dict[str, np.ndarray] = {}
        default = EndpointCapability("?", 0.0, 0.0)
        for name in self._extra_names(result):
            if name == "ROmax_src":
                out[name] = np.array(
                    [self.capabilities.get(r.src, default).ro_max for r in requests]
                )
            elif name == "RImax_dst":
                out[name] = np.array(
                    [self.capabilities.get(r.dst, default).ri_max for r in requests]
                )
            else:
                dist = self.distances or {}
                out[name] = np.array(
                    [dist.get((r.src, r.dst), 0.0) for r in requests]
                )
        return out


def select_heavy_edges(
    store: LogStore,
    min_samples: int = 300,
    threshold: float = 0.5,
    max_edges: int | None = 30,
) -> list[tuple[str, str]]:
    """Edges with >= ``min_samples`` transfers above the threshold filter,
    busiest first (§5.1: "edges that have at least 300 transfers with rate
    greater than 0.5 Rmax")."""
    mask = threshold_mask(store, threshold)
    filtered = store[mask]
    heavy = filtered.heavy_edges(min_samples)
    return heavy[:max_edges] if max_edges is not None else heavy


def _prepare_edge_data(
    features: FeatureMatrix,
    rows: np.ndarray,
    names: tuple[str, ...],
    train_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, y, kept-mask) for the given rows with low-variance elimination.

    Elimination is decided from the *training* rows only — deciding it from
    all rows would leak test-set variance into model selection (the global
    pipeline already restricts to ``X[tr]``; the edge pipeline must too).
    """
    X = features.matrix(names, rows)
    y = features.y[rows]
    eliminated = low_variance_features(X[train_idx], threshold=0.05)
    kept = ~eliminated
    if not kept.any():
        raise ValueError("all features eliminated — degenerate edge data")
    return X[:, kept], y, kept


def _filtered_edge_rows(
    features: FeatureMatrix,
    src: str,
    dst: str,
    threshold: float,
    threshold_mask_full: np.ndarray,
) -> np.ndarray:
    rows = features.edge_rows(src, dst)
    return rows[threshold_mask_full[rows]]


def fit_edge_model(
    features: FeatureMatrix,
    src: str,
    dst: str,
    model: str = "linear",
    threshold: float = 0.5,
    train_fraction: float = 0.7,
    seed: int = 0,
    explanation: bool = False,
    min_samples: int = 30,
    gbt: GBTSettings | None = None,
    tracer: Tracer | None = None,
    _threshold_mask: np.ndarray | None = None,
) -> EdgeModelResult:
    """Train and evaluate one edge's model (§5.1 linear / §5.2 nonlinear).

    Parameters
    ----------
    explanation:
        If True, include Nflt (the 16-feature Figures 9/12 view); the
        default 15-feature view is the prediction model.
    tracer:
        Optional :class:`~repro.obs.Tracer`; the prepare/train/eval
        stages emit nested spans.
    """
    if model not in ("linear", "gbt"):
        raise ValueError(f"model must be 'linear' or 'gbt', got {model!r}")
    names = EXPLANATION_FEATURE_NAMES if explanation else FEATURE_NAMES
    with maybe_span(tracer, "pipeline.fit_edge", src=src, dst=dst,
                    model=model):
        mask = (
            _threshold_mask
            if _threshold_mask is not None
            else threshold_mask(features.store, threshold)
        )
        rows = _filtered_edge_rows(features, src, dst, threshold, mask)
        if rows.size < min_samples:
            raise ValueError(
                f"edge {src}->{dst}: only {rows.size} transfers above the "
                f"{threshold:.1f}*Rmax filter (need {min_samples})"
            )
        with maybe_span(tracer, "pipeline.prepare", rows=int(rows.size)):
            tr, te = train_test_split(rows.size, train_fraction, rng=seed)
            X, y, kept = _prepare_edge_data(features, rows, names, tr)
            scaler = StandardScaler().fit(X[tr])
            X_tr = scaler.transform(X[tr])
            X_te = scaler.transform(X[te])

        significance = np.full(len(names), np.nan)
        with maybe_span(tracer, "pipeline.train", n_train=int(tr.size)):
            if model == "linear":
                fitted = LinearRegression().fit(X_tr, y[tr])
                sig_kept = np.abs(fitted.coef_)
            else:
                fitted = (gbt or GBTSettings()).build(seed).fit(X_tr, y[tr])
                sig_kept = fitted.feature_importances("gain")
            significance[kept] = sig_kept

        with maybe_span(tracer, "pipeline.eval", n_test=int(te.size)):
            pred = fitted.predict(X_te)
            errors = absolute_percentage_errors(y[te], pred)

    return EdgeModelResult(
        src=src,
        dst=dst,
        model_kind=model,
        feature_names=names,
        kept=kept,
        significance=significance,
        n_train=int(tr.size),
        n_test=int(te.size),
        test_errors=errors,
        mdape=float(np.median(errors)),
        model=fitted,
        scaler=scaler,
    )


def _finite_or_null(values) -> list:
    """Floats for strict JSON (``allow_nan=False``): every non-finite
    value becomes null, which ``np.array(..., dtype=float64)`` reads back
    as NaN."""
    return [float(v) if math.isfinite(v) else None
            for v in np.asarray(values, dtype=np.float64)]


def edge_result_to_payload(result: EdgeModelResult) -> dict:
    """The one strict-JSON document for a fitted edge: the artifact
    cache, :func:`edge_results_fingerprint`, the stream journal's
    published bundles and the ``repro-tools train`` model file all use it.

    Non-finite floats in ``significance`` (the NaN holes of eliminated
    features) and ``test_errors`` are written as null and read back as
    NaN; a missing scaler is null.  Every finite float round-trips
    through :func:`edge_result_from_payload` bit for bit (``repr``-based
    JSON float encoding), which is what lets cached and freshly fitted
    results be byte-identical."""
    return {
        "src": result.src,
        "dst": result.dst,
        "model_kind": result.model_kind,
        "feature_names": list(result.feature_names),
        "kept": [bool(k) for k in result.kept],
        "significance": _finite_or_null(result.significance),
        "n_train": int(result.n_train),
        "n_test": int(result.n_test),
        "test_errors": _finite_or_null(result.test_errors),
        "mdape": float(result.mdape),
        # "scaler" before "model": journal records keep their byte layout.
        "scaler": (model_to_dict(result.scaler)
                   if result.scaler is not None else None),
        "model": model_to_dict(result.model),
    }


def edge_result_from_payload(payload: dict) -> EdgeModelResult:
    """Inverse of :func:`edge_result_to_payload`."""
    return EdgeModelResult(
        src=payload["src"],
        dst=payload["dst"],
        model_kind=payload["model_kind"],
        feature_names=tuple(payload["feature_names"]),
        kept=np.array(payload["kept"], dtype=bool),
        significance=np.array(payload["significance"], dtype=np.float64),
        n_train=int(payload["n_train"]),
        n_test=int(payload["n_test"]),
        test_errors=np.array(payload["test_errors"], dtype=np.float64),
        mdape=float(payload["mdape"]),
        model=model_from_dict(payload["model"]),
        scaler=(model_from_dict(payload["scaler"])
                if payload["scaler"] is not None else None),
    )


def edge_results_fingerprint(results: list[EdgeModelResult]) -> str:
    """Hex SHA-256 over the canonical payloads of ``results`` — the
    parity probe used by the determinism tests (workers=1 vs N, cache
    hit vs cold build)."""
    docs = [edge_result_to_payload(r) for r in results]
    encoded = json.dumps(docs, sort_keys=True, allow_nan=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _edge_models_config(
    model: str,
    threshold: float,
    train_fraction: float,
    seed: int,
    explanation: bool,
    gbt: GBTSettings | None,
) -> dict:
    """Everything besides the store that shapes a per-edge fit — the
    config half of the cache fingerprint."""
    config = {
        "version": EDGE_MODEL_VERSION,
        "model": model,
        "threshold": threshold,
        "train_fraction": train_fraction,
        "seed": seed,
        "explanation": explanation,
    }
    if model == "gbt":
        config["gbt"] = dataclasses.asdict(gbt or GBTSettings())
    return config


# Threshold masks recomputed per (manifest, threshold) once per worker
# process, not once per task.
_TASK_MASKS: dict[tuple[str, float], np.ndarray] = {}


def _fit_edge_task(task: dict) -> EdgeModelResult:
    """Top-level worker task: fit one edge against the shared mmap scratch
    matrix.  The result goes back to the parent as the object itself: the
    pool pickles it, and a GBT pickles as one packed node table with its
    forest and training curve (:mod:`repro.ml.gbt`)."""
    from repro.exec.scratch import load_feature_matrix

    features = load_feature_matrix(task["manifest"])
    threshold = float(task["config"]["threshold"])
    mask_key = (task["manifest"], threshold)
    mask = _TASK_MASKS.get(mask_key)
    if mask is None:
        mask = threshold_mask(features.store, threshold)
        _TASK_MASKS[mask_key] = mask
    gbt_params = task["config"].get("gbt")
    result = fit_edge_model(
        features,
        task["src"],
        task["dst"],
        model=task["config"]["model"],
        threshold=task["config"]["threshold"],
        train_fraction=task["config"]["train_fraction"],
        seed=task["config"]["seed"],
        explanation=task["config"]["explanation"],
        gbt=GBTSettings(**gbt_params) if gbt_params else None,
        _threshold_mask=mask,
    )
    return result


def _fit_missing_edges(
    features: FeatureMatrix,
    edges: list[tuple[str, str]],
    config: dict,
    gbt: GBTSettings | None,
    tracer: Tracer | None,
    workers: int,
    registry=None,
) -> list[EdgeModelResult]:
    if workers <= 1 or len(edges) <= 1:
        mask = threshold_mask(features.store, config["threshold"])
        return [
            fit_edge_model(
                features,
                s,
                d,
                model=config["model"],
                threshold=config["threshold"],
                train_fraction=config["train_fraction"],
                seed=config["seed"],
                explanation=config["explanation"],
                gbt=gbt,
                tracer=tracer,
                _threshold_mask=mask,
            )
            for s, d in edges
        ]
    from repro.exec.engine import parallel_map
    from repro.exec.scratch import forget_feature_matrix, write_feature_matrix

    with tempfile.TemporaryDirectory(prefix="repro-exec-") as tmp:
        manifest = str(write_feature_matrix(features, tmp))
        tasks = [
            {"manifest": manifest, "src": s, "dst": d, "config": config}
            for s, d in edges
        ]
        try:
            return parallel_map(
                _fit_edge_task,
                tasks,
                workers=workers,
                label="fit_edge",
                registry=registry,
                tracer=tracer,
            )
        finally:
            # Tasks retried in this process after a worker crash cached
            # the mapped matrix and its mask here; the directory is about
            # to go, so drop them rather than pin deleted files.
            forget_feature_matrix(manifest)
            _TASK_MASKS.pop((manifest, float(config["threshold"])), None)


def fit_all_edge_models(
    features: FeatureMatrix,
    edges: list[tuple[str, str]],
    model: str = "linear",
    threshold: float = 0.5,
    train_fraction: float = 0.7,
    seed: int = 0,
    explanation: bool = False,
    gbt: GBTSettings | None = None,
    tracer: Tracer | None = None,
    workers: int | None = None,
    cache=None,
    registry=None,
) -> list[EdgeModelResult]:
    """Per-edge models over a list of edges (shared threshold mask).

    ``workers`` (default: the ``REPRO_WORKERS`` environment variable,
    else 1) fans the per-edge fits out over worker processes via
    :func:`repro.exec.parallel_map`; the feature matrix is shared through
    memory-mapped scratch files.  Each worker hands its fitted
    :class:`EdgeModelResult` back as the object itself (a GBT pickles as
    one packed node table, its memoized forest and training curve
    included), so the results are equal to the serial path's in every
    attribute for any worker count, not only in
    :func:`edge_results_fingerprint`.  ``cache`` (an
    :class:`repro.exec.ArtifactCache`) memoizes each edge's fitted bundle
    as its :func:`edge_result_to_payload` JSON, keyed by the store
    fingerprint + fit configuration, so repeated experiments over the
    same log skip the fit entirely.
    """
    from repro.exec.engine import resolve_workers

    workers = resolve_workers(workers)
    config = _edge_models_config(
        model, threshold, train_fraction, seed, explanation, gbt
    )
    with maybe_span(tracer, "pipeline.fit_all_edges", edges=len(edges),
               workers=workers):
        results: dict[int, EdgeModelResult] = {}
        missing = list(range(len(edges)))
        keys: dict[int, str] = {}
        if cache is not None:
            from repro.exec.cache import (
                combine_fingerprints,
                fingerprint_config,
                fingerprint_store,
            )

            store_fp = fingerprint_store(features.store)
            config_fp = fingerprint_config(config)
            missing = []
            for i, (s, d) in enumerate(edges):
                keys[i] = combine_fingerprints(store_fp, config_fp, f"{s}->{d}")
                payload = cache.get_json("edge_model", keys[i])
                if payload is not None:
                    results[i] = edge_result_from_payload(payload)
                else:
                    missing.append(i)
        if missing:
            fitted = _fit_missing_edges(
                features,
                [edges[i] for i in missing],
                config,
                gbt,
                tracer,
                workers,
                registry=registry,
            )
            for i, result in zip(missing, fitted):
                results[i] = result
                if cache is not None:
                    cache.put_json(
                        "edge_model", keys[i], edge_result_to_payload(result)
                    )
        return [results[i] for i in range(len(edges))]


def fit_global_model(
    features: FeatureMatrix,
    edges: list[tuple[str, str]],
    model: str = "linear",
    threshold: float = 0.5,
    train_fraction: float = 0.7,
    seed: int = 0,
    gbt: GBTSettings | None = None,
    include_rtt: bool = False,
    tracer: Tracer | None = None,
) -> GlobalModelResult:
    """The §5.4 single model for all edges (Eq. 5/6).

    Pools the filtered transfers of every edge, adds the source's ROmax and
    the destination's RImax as two extra features (estimated from training
    rows only to avoid leakage), and fits one model.

    ``include_rtt=True`` implements the paper's stated future work — "we
    will incorporate round-trip times for each edge, which we expect to
    reduce errors further" — by adding the edge's great-circle distance
    (the paper's own RTT proxy) as a feature.
    """
    if model not in ("linear", "gbt"):
        raise ValueError(f"model must be 'linear' or 'gbt', got {model!r}")
    with maybe_span(tracer, "pipeline.fit_global", edges=len(edges),
                    model=model):
        mask = threshold_mask(features.store, threshold)
        row_list = [
            _filtered_edge_rows(features, s, d, threshold, mask) for s, d in edges
        ]
        rows = np.sort(np.concatenate([r for r in row_list if r.size]))
        if rows.size < 10:
            raise ValueError("too few pooled transfers for a global model")

        with maybe_span(tracer, "pipeline.prepare", rows=int(rows.size)):
            X_base = features.matrix(FEATURE_NAMES, rows)
            y = features.y[rows]

            tr, te = train_test_split(rows.size, train_fraction, rng=seed)
            # Capability features from training transfers only.
            train_features = features.subset(rows[tr])
            caps = estimate_endpoint_capabilities(train_features)
            pooled = features.subset(rows)
            ro, ri = capability_columns(pooled, caps)

            extra_cols = [ro, ri]
            names = FEATURE_NAMES + ("ROmax_src", "RImax_dst")
            if include_rtt:
                extra_cols.append(features.store.column("distance_km")[rows])
                names = names + ("distance_km",)
            X = np.column_stack([X_base, *extra_cols])

            eliminated = low_variance_features(X[tr], threshold=0.05)
            kept = ~eliminated
            scaler = StandardScaler().fit(X[tr][:, kept])
            X_tr = scaler.transform(X[tr][:, kept])
            X_te = scaler.transform(X[te][:, kept])

        with maybe_span(tracer, "pipeline.train", n_train=int(tr.size)):
            if model == "linear":
                fitted = LinearRegression().fit(X_tr, y[tr])
            else:
                fitted = (gbt or GBTSettings()).build(seed).fit(X_tr, y[tr])

        with maybe_span(tracer, "pipeline.eval", n_test=int(te.size)):
            pred = fitted.predict(X_te)
            errors = absolute_percentage_errors(y[te], pred)
    return GlobalModelResult(
        model_kind=model,
        feature_names=tuple(np.array(names)[kept]),
        n_train=int(tr.size),
        n_test=int(te.size),
        test_errors=errors,
        mdape=float(np.median(errors)),
        model=fitted,
        scaler=scaler,
    )
