"""Vectorized submission-time rate prediction for request batches.

A scheduler placing a workflow's worth of transfers needs thousands of
answers per decision point.  :class:`BatchOnlinePredictor` runs the
duration fix-point — predicted rate determines assumed duration, which
determines overlap scaling, which changes the features — across a whole
batch at once, and answers a single request as a batch of one
(:meth:`~BatchOnlinePredictor.predict`):

- features for all requests are computed in bulk with per-endpoint
  prefix-sum queries (:class:`~repro.serve.active_set.ActiveSet` +
  :class:`~repro.core.contention.ActiveOverlapIndex`) instead of a Python
  loop over every active transfer per request per iteration;
- each request converges on its own schedule: converged elements freeze
  while the rest keep iterating, so a request's answer does not depend on
  the batch it arrives in — looping ``predict`` over a batch reproduces
  ``predict_batch`` (bit for bit with tree models; up to the rounding of
  a linear model's matrix product);
- :class:`PredictorStats` counts calls, requests, fix-point iterations,
  non-converged requests, per-tier predictions, and wall time split
  between feature computation and model inference — each counter a thin
  view over a :class:`~repro.obs.MetricsRegistry` series, so the same
  numbers flow into the Prometheus/JSON metrics export, alongside a
  per-call latency histogram.  Pass an :class:`~repro.obs.Observability`
  bundle via ``obs=`` to share a registry with the rest of the serving
  stack and to emit tracing spans (``serve.predict_batch`` →
  ``serve.route`` / ``serve.tier.*`` → ``serve.columns`` /
  ``serve.fixpoint``) through its tracer.

The predictor also accepts a :class:`~repro.serve.fallback.FallbackChain`
in place of a single model.  In that mode ``predict_batch`` never raises
for an unknown edge: requests are partitioned across the chain's tiers —
per-edge model, global model, analytical bound, median, default — and
:meth:`~BatchOnlinePredictor.predict_batch_detailed` reports which tier
served each request.  Every tier runs the same fix-point
(:meth:`~BatchOnlinePredictor._fixpoint`) on this one predictor, so the
whole chain shares one set of stats and one tracer.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.pipeline import EdgeModelResult, GlobalModelResult
from repro.ml.forest import forest_totals
from repro.obs import MetricsRegistry, Observability
from repro.obs.tracing import NULL_SPAN
from repro.serve.active_set import (
    _M_IN_RATE,
    _M_IN_STREAMS,
    _M_OUT_RATE,
    _M_OUT_STREAMS,
    _M_TOUCH,
    ActiveSet,
)
from repro.serve.fallback import FallbackChain, ModelTier
from repro.sim.gridftp import TransferRequest

__all__ = ["BatchOnlinePredictor", "BatchPrediction", "PredictorStats"]

# Contention feature names computed from the active population (the Eq. 2
# estimates; the request-characteristic columns C/P/Nd/Nb/Nf are appended
# separately).
_CONTENTION_NAMES = (
    "K_sout", "K_sin", "K_dout", "K_din",
    "S_sout", "S_sin", "S_dout", "S_din",
    "G_src", "G_dst",
)

# Starting rate guess for every request's fix-point, bytes/s.
INITIAL_RATE = 50e6


# PredictorStats field -> (metric name, help, exported type).
_STAT_METRICS: dict[str, tuple[str, str, type]] = {
    "predict_calls": (
        "serve_predict_calls_total", "predict_batch invocations.", int),
    "requests": (
        "serve_requests_total", "Requests predicted across all calls.", int),
    "fixpoint_iterations": (
        "serve_fixpoint_iterations_total",
        "Fix-point rounds executed (each round may cover only the "
        "not-yet-converged subset of a batch).", int),
    "feature_rows": (
        "serve_feature_rows_total",
        "Request-rows of features computed (sum of active-subset sizes "
        "over all rounds).", int),
    "nonconverged_requests": (
        "serve_nonconverged_requests_total",
        "Requests whose fix-point hit max_iterations without stabilising.",
        int),
    "feature_time_s": (
        "serve_feature_seconds_total",
        "Wall time in bulk feature estimation.", float),
    "model_time_s": (
        "serve_model_seconds_total",
        "Wall time in scaler + model inference.", float),
    "total_time_s": (
        "serve_predict_seconds_total",
        "End-to-end wall time inside predict_batch.", float),
    "forest_builds": (
        "ml_forest_builds_total",
        "Flattened GBT forest kernel builds observed during predict calls.",
        int),
    "forest_predict_time_s": (
        "ml_forest_predict_seconds_total",
        "Wall time inside the flattened forest predict kernel during "
        "predict calls.", float),
}

_TIER_METRIC = "serve_tier_predictions_total"
_LATENCY_METRIC = "serve_predict_batch_latency_seconds"


class _TierCounts:
    """Dict-like view over the per-tier prediction counters.

    Behaves like the plain ``{tier: count}`` dict it replaced — equality
    against dicts, truthiness, iteration — but every write lands in the
    registry's ``serve_tier_predictions_total{tier=...}`` counter, so the
    tier mix is visible in the metrics export.  Only tiers touched since
    the last :meth:`clear` appear as keys (the registry keeps exporting
    cleared series at zero, which is what Prometheus expects).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._keys: set[str] = set()

    def _counter(self, tier: str):
        return self._registry.counter(
            _TIER_METRIC,
            "Predictions served per fallback tier.",
            labels={"tier": tier},
        )

    def inc(self, tier: str, n: int) -> None:
        self._counter(tier).inc(n)
        self._keys.add(tier)

    def get(self, tier: str, default: int | None = None) -> int | None:
        if tier not in self._keys:
            return default
        return int(self._counter(tier).value)

    def __getitem__(self, tier: str) -> int:
        if tier not in self._keys:
            raise KeyError(tier)
        return int(self._counter(tier).value)

    def __setitem__(self, tier: str, value: int) -> None:
        self._counter(tier).set_total(float(value))
        self._keys.add(tier)

    def __contains__(self, tier: object) -> bool:
        return tier in self._keys

    def keys(self) -> list[str]:
        return sorted(self._keys)

    def items(self) -> list[tuple[str, int]]:
        return [(k, self[k]) for k in self.keys()]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _TierCounts):
            return dict(self.items()) == dict(other.items())
        if isinstance(other, Mapping) or isinstance(other, dict):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"_TierCounts({dict(self.items())!r})"

    def clear(self) -> None:
        for tier in self._keys:
            self._counter(tier).reset()
        self._keys.clear()


class PredictorStats:
    """Per-predictor instrumentation, backed by a metrics registry.

    Historically a plain dataclass of counters; now a thin view over
    :class:`~repro.obs.MetricsRegistry` series so the same numbers flow
    into the Prometheus/JSON export.  The attribute API is unchanged —
    ``stats.requests += n`` works, ``reset()`` zeroes everything,
    ``as_dict()`` stays flat-numeric — so existing callers and tests are
    unaffected.

    Attributes
    ----------
    predict_calls:
        Number of ``predict_batch`` invocations.
    requests:
        Total requests predicted across all calls.
    fixpoint_iterations:
        Fix-point rounds executed (each round may cover only the
        not-yet-converged subset of a batch).
    feature_rows:
        Request-rows of features computed (sum of active-subset sizes over
        all rounds).
    nonconverged_requests:
        Requests whose fix-point hit ``max_iterations`` without the rate
        stabilising — previously a silent failure mode; the returned rate
        is the last iterate.
    tier_counts:
        Predictions served per :class:`~repro.serve.fallback.ModelTier`
        value (``{"edge": ..., "median": ...}``); single-model predictors
        count everything under their model's own tier.
    feature_time_s / model_time_s:
        Wall time in bulk feature estimation vs scaler+model inference.
    total_time_s:
        End-to-end wall time inside ``predict_batch``.
    latency:
        :class:`~repro.obs.Histogram` of per-``predict_batch`` wall time
        (the p50/p95/p99 reported by serve-bench).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(metric, help_text)
            for name, (metric, help_text, _) in _STAT_METRICS.items()
        }
        self.tier_counts = _TierCounts(self.registry)
        self.latency = self.registry.histogram(
            _LATENCY_METRIC, "predict_batch wall time per call, seconds."
        )

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        self.tier_counts.clear()
        self.latency.reset()

    def count_tier(self, tier: ModelTier, n: int) -> None:
        if n:
            self.tier_counts.inc(tier.value, n)

    def as_dict(self) -> dict[str, float]:
        """Flat numeric dict.  Tier counts expand to ``tier_<name>`` keys
        for *every* tier (0 when unused), so the export schema is stable
        across runs regardless of which tiers happened to fire."""
        out: dict[str, float] = {
            name: getattr(self, name) for name in _STAT_METRICS
        }
        for tier in ModelTier:
            out[f"tier_{tier.value}"] = self.tier_counts.get(tier.value, 0)
        return out

    @property
    def mean_feature_rows_per_request(self) -> float:
        """Average feature rows computed per request — i.e. how many
        fix-point rounds the typical request stayed un-converged for
        (convergence speed; 1.0 means everything converged immediately)."""
        return self.feature_rows / self.requests if self.requests else 0.0


def _stat_property(name: str, metric: str, cast: type) -> property:
    def fget(self: PredictorStats):
        return cast(self._counters[name].value)

    def fset(self: PredictorStats, value) -> None:
        self._counters[name].set_total(float(value))

    return property(fget, fset, doc=f"View over the {metric} counter.")


for _name, (_metric, _help, _cast) in _STAT_METRICS.items():
    setattr(PredictorStats, _name, _stat_property(_name, _metric, _cast))
del _name, _metric, _help, _cast


@dataclass(frozen=True)
class BatchPrediction:
    """One batch's predictions with provenance.

    Attributes
    ----------
    rates:
        Predicted average rates, bytes/s (same order as the requests).
    tiers:
        Per-request :class:`~repro.serve.fallback.ModelTier` provenance.
    nonconverged:
        Boolean mask: True where the fix-point hit ``max_iterations``
        without stabilising (the rate is the last iterate, still finite).
    """

    rates: np.ndarray
    tiers: tuple[ModelTier, ...]
    nonconverged: np.ndarray


@dataclass(frozen=True)
class _RequestColumns:
    """The batch, decomposed into feature-ready columns.

    Endpoint grouping (``np.unique`` over the name strings) is computed
    once here; the fix-point then regroups the shrinking not-yet-converged
    subset with cheap integer-code comparisons each round.
    """

    src_endpoints: np.ndarray   # unique source endpoint names
    src_codes: np.ndarray       # per-request index into src_endpoints
    dst_endpoints: np.ndarray
    dst_codes: np.ndarray
    c: np.ndarray
    p: np.ndarray
    nd: np.ndarray
    nb: np.ndarray
    nf: np.ndarray


def _columns(requests: Sequence[TransferRequest]) -> _RequestColumns:
    if len(requests) == 1:
        # Interactive regime: one request per call.  A single name is its
        # own unique set — skip the two np.unique sorts entirely.
        r = requests[0]
        return _RequestColumns(
            src_endpoints=np.array([r.src]),
            src_codes=np.zeros(1, dtype=np.intp),
            dst_endpoints=np.array([r.dst]),
            dst_codes=np.zeros(1, dtype=np.intp),
            c=np.array([float(r.concurrency)]),
            p=np.array([float(r.parallelism)]),
            nd=np.array([float(r.n_dirs)]),
            nb=np.array([float(r.total_bytes)]),
            nf=np.array([float(r.n_files)]),
        )
    src_eps, src_codes = np.unique([r.src for r in requests], return_inverse=True)
    dst_eps, dst_codes = np.unique([r.dst for r in requests], return_inverse=True)
    return _RequestColumns(
        src_endpoints=src_eps,
        src_codes=src_codes,
        dst_endpoints=dst_eps,
        dst_codes=dst_codes,
        c=np.array([float(r.concurrency) for r in requests]),
        p=np.array([float(r.parallelism) for r in requests]),
        nd=np.array([float(r.n_dirs) for r in requests]),
        nb=np.array([float(r.total_bytes) for r in requests]),
        nf=np.array([float(r.n_files) for r in requests]),
    )


def _model_label(result: EdgeModelResult | GlobalModelResult) -> str:
    if isinstance(result, EdgeModelResult):
        return f"{result.model_kind} edge model {result.src}->{result.dst}"
    return f"{result.model_kind} global model"


class BatchOnlinePredictor:
    """Submission-time rate prediction, vectorized across requests.

    Parameters
    ----------
    result:
        A fitted per-edge (:class:`EdgeModelResult`) or global
        (:class:`GlobalModelResult`) pipeline result — or a
        :class:`~repro.serve.fallback.FallbackChain`, in which case
        requests are routed per edge through the chain's tiers.  An edge
        is routed to its per-edge model if it is in ``edge_models`` at
        construction and that model's features can be supplied; the
        model itself is read from the chain at every call, so one
        published later into a routed edge is served.
    active:
        The in-flight transfer population (mutate it freely between calls —
        predictions always reflect the current population).
    max_iterations / tolerance:
        Fix-point controls: predict -> assume duration -> re-estimate
        features -> re-predict until every request's rate moves by less
        than ``tolerance`` (relative), at most ``max_iterations`` times,
        starting from :data:`INITIAL_RATE`.  A request still moving after
        the last round is counted in ``stats.nonconverged_requests``.
    extra_columns:
        Constant extra features required by the model (e.g. ``ROmax_src``,
        ``RImax_dst`` for the global model).  In chain mode these are
        offered to every tier; the global tier's per-request adapter
        columns take precedence.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  When given,
        ``stats`` counters land in ``obs.registry`` (one predictor per
        registry — two would sum into the same series) and the predict
        path emits spans through ``obs.tracer``; when omitted the
        predictor keeps a private registry and skips tracing entirely.
    """

    def __init__(
        self,
        result: EdgeModelResult | GlobalModelResult | FallbackChain,
        active: ActiveSet,
        max_iterations: int = 8,
        tolerance: float = 0.01,
        extra_columns: dict[str, float] | None = None,
        obs: Observability | None = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        self.result = result
        self.active = active
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.extra_columns = dict(extra_columns or {})
        self.obs = obs
        self.tracer = obs.tracer if obs is not None and obs.tracer is not None \
            and obs.tracer.enabled else None
        self.stats = PredictorStats(obs.registry if obs is not None else None)
        self.unusable_edges: dict[tuple[str, str], str] = {}
        # Chain mode: the edges whose per-edge model passed the features
        # check at construction; the rest fall through the chain.
        self._routed_edges: set[tuple[str, str]] = set()
        if isinstance(result, FallbackChain):
            self._chain = result
            for edge, edge_result in result.edge_models.items():
                try:
                    self._check_features(edge_result, self.extra_columns)
                except KeyError as exc:
                    # A half-configured model is as unusable as a missing
                    # one: remember why and let its edge fall through.
                    self.unusable_edges[edge] = str(exc).strip("'\"")
                else:
                    self._routed_edges.add(edge)
        else:
            self._chain = None
            self._check_features(result, self.extra_columns)

    def _check_features(
        self,
        result: EdgeModelResult | GlobalModelResult,
        extra: Mapping[str, object],
    ) -> tuple[str, ...]:
        names = tuple(result.feature_names)
        missing = [
            n
            for n in names
            if n not in _CONTENTION_NAMES
            and n not in ("C", "P", "Nd", "Nb", "Nf")
            and n not in extra
        ]
        if missing:
            raise KeyError(
                f"{_model_label(result)} requires features {missing} that are "
                f"neither contention/request columns nor in extra_columns "
                f"(provided: {sorted(extra) or 'none'}); pass them via "
                "extra_columns or route through a FallbackChain"
            )
        return names

    @property
    def chain(self) -> FallbackChain | None:
        """The :class:`~repro.serve.fallback.FallbackChain` routing this
        predictor's requests, or ``None`` in single-model mode.  The
        advisory layer uses this to look up the Eq. 1 analytical bound
        that caps sweep predictions."""
        return self._chain

    def _span(self, name: str, **attrs):
        """A tracer span, or the shared no-op when tracing is off."""
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    # -- prediction --------------------------------------------------------

    def predict(self, request: TransferRequest, now: float) -> float:
        """Single-request convenience wrapper around :meth:`predict_batch`."""
        return float(self.predict_batch([request], now)[0])

    def predict_batch(
        self, requests: Sequence[TransferRequest], now: float
    ) -> np.ndarray:
        """Predicted average rates (bytes/s) for ``requests`` starting at
        ``now``, one fix-point per request, all vectorized."""
        return self.predict_batch_detailed(requests, now).rates

    def predict_batch_detailed(
        self, requests: Sequence[TransferRequest], now: float
    ) -> BatchPrediction:
        """Like :meth:`predict_batch`, but with per-request provenance
        (:class:`ModelTier`) and convergence flags."""
        t0 = time.perf_counter()
        m = len(requests)
        if m == 0:
            return BatchPrediction(np.zeros(0), (), np.zeros(0, dtype=bool))
        forest_before = forest_totals()
        with self._span("serve.predict_batch", requests=m):
            if self._chain is None:
                rates, nonconv = self._fixpoint(self.result, requests, now,
                                                self.extra_columns)
                tier = (
                    ModelTier.EDGE
                    if isinstance(self.result, EdgeModelResult)
                    else ModelTier.GLOBAL
                )
                tiers: tuple[ModelTier, ...] = (tier,) * m
                self.stats.count_tier(tier, m)
            else:
                rates, tiers, nonconv = self._predict_chain(requests, now)

        n_bad = int(nonconv.sum())
        self.stats.nonconverged_requests += n_bad
        # Attribute the flattened-forest kernel's module totals moved during
        # this call (lazy builds + predict kernel time) to this predictor.
        forest_after = forest_totals()
        d_builds = forest_after["builds"] - forest_before["builds"]
        if d_builds:
            self.stats.forest_builds += d_builds
        d_predict = (
            forest_after["predict_seconds"] - forest_before["predict_seconds"]
        )
        if d_predict > 0.0:
            self.stats.forest_predict_time_s += d_predict
        self.stats.predict_calls += 1
        self.stats.requests += m
        elapsed = time.perf_counter() - t0
        self.stats.total_time_s += elapsed
        self.stats.latency.observe(elapsed)
        flight = self.obs.flight if self.obs is not None else None
        if flight is not None:
            tier_names = [t.value for t in tiers]
            if flight.breach_reason(elapsed, tier_names) is not None:
                # Spans opened by this call all start at or after t0 on
                # the same perf_counter clock, so the tracer's buffer can
                # be sliced by start time — no bookkeeping on the hot
                # path when nothing breaches.
                spans = [
                    rec for rec in (
                        self.tracer.spans() if self.tracer is not None
                        and self.tracer.enabled else ()
                    )
                    if rec.start_s >= t0
                ]
                first = requests[0]
                flight.record(
                    elapsed, tier_names,
                    request={
                        "src": first.src, "dst": first.dst,
                        "total_bytes": float(first.total_bytes),
                        "n_files": int(first.n_files),
                        "concurrency": int(first.concurrency),
                        "parallelism": int(first.parallelism),
                    },
                    active_size=len(self.active),
                    spans=spans,
                    n_nonconverged=n_bad,
                )
        return BatchPrediction(rates, tiers, nonconv)

    def _predict_chain(
        self, requests: Sequence[TransferRequest], now: float
    ) -> tuple[np.ndarray, tuple[ModelTier, ...], np.ndarray]:
        """Partition the batch across the fallback chain's tiers."""
        chain = self._chain
        m = len(requests)
        rates = np.zeros(m)
        nonconv = np.zeros(m, dtype=bool)
        tiers: list[ModelTier] = [ModelTier.DEFAULT] * m
        edge_groups: dict[tuple[str, str], list[int]] = {}
        global_idx: list[int] = []
        with self._span("serve.route", requests=m):
            for i, r in enumerate(requests):
                edge = (r.src, r.dst)
                if edge in self._routed_edges:
                    edge_groups.setdefault(edge, []).append(i)
                    tiers[i] = ModelTier.EDGE
                elif chain.global_covers(r.src, r.dst):
                    global_idx.append(i)
                    tiers[i] = ModelTier.GLOBAL
                else:
                    tier, rate = chain.constant_rate(r.src, r.dst)
                    tiers[i] = tier
                    rates[i] = rate

        if edge_groups:
            with self._span("serve.tier.edge", edges=len(edge_groups)):
                for edge, idx in edge_groups.items():
                    subset = [requests[i] for i in idx]
                    sub_rates, sub_nonconv = self._fixpoint(
                        chain.edge_models[edge], subset, now, self.extra_columns
                    )
                    rates[idx] = sub_rates
                    nonconv[idx] = sub_nonconv

        if global_idx:
            with self._span("serve.tier.global", requests=len(global_idx)):
                subset = [requests[i] for i in global_idx]
                extra = dict(self.extra_columns)
                if chain.global_adapter is not None:
                    extra.update(
                        chain.global_adapter.extra_columns(
                            chain.global_model, subset
                        )
                    )
                sub_rates, sub_nonconv = self._fixpoint(
                    chain.global_model, subset, now, extra
                )
                rates[global_idx] = sub_rates
                nonconv[global_idx] = sub_nonconv

        # One Counter pass over the batch instead of one O(m) scan per tier.
        for tier, count in Counter(tiers).items():
            self.stats.count_tier(tier, count)
        return rates, tuple(tiers), nonconv

    def _fixpoint(
        self,
        result: EdgeModelResult | GlobalModelResult,
        requests: Sequence[TransferRequest],
        now: float,
        extra: Mapping[str, object],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The duration fix-point for one model over ``requests``.

        Per-request independence means running a subset of a batch here is
        bit-identical to running it inside the full batch.  Returns
        ``(rates, nonconverged-mask)`` and accumulates into ``self.stats``.
        """
        names = self._check_features(result, extra)
        if isinstance(result, EdgeModelResult):
            # Select the kept columns by name up front: the feature buffer
            # is then built already-filtered, instead of built full-width
            # and sliced (a fresh copy) on every round.
            names = tuple(np.asarray(names, dtype=object)[result.kept])
        m = len(requests)
        with self._span("serve.columns", requests=m):
            cols = _columns(requests)
        # The active set is never mutated inside the fix-point, so each
        # endpoint's prefix-sum state resolves exactly once per call, not
        # once per group per round.
        states = (
            [self.active.endpoint_state(str(e)) for e in cols.src_endpoints],
            [self.active.endpoint_state(str(e)) for e in cols.dst_endpoints],
        )
        # One (m, n_features) buffer serves every round: the alive subset
        # only shrinks, so round r writes rows [0, alive.size) in place and
        # nothing reallocates.
        buf = np.empty((m, len(names)))
        rates = np.full(m, INITIAL_RATE)
        alive = np.arange(m)
        with self._span("serve.fixpoint", requests=m) as span:
            span.attrs["serve.features.buffer"] = f"{m}x{len(names)}"
            iterations = 0
            for _ in range(self.max_iterations):
                sub_rates = rates[alive]
                durations = np.maximum(1.0, cols.nb[alive] / sub_rates)

                tf = time.perf_counter()
                feats = self._feature_matrix(
                    names, extra, cols, alive, now, durations,
                    states, buf[: alive.size],
                )
                self.stats.feature_time_s += time.perf_counter() - tf

                tm = time.perf_counter()
                new_rates = np.maximum(
                    result.model.predict(result.scaler.transform(feats)),
                    1.0,
                )
                self.stats.model_time_s += time.perf_counter() - tm

                done = np.abs(new_rates - sub_rates) <= self.tolerance * sub_rates
                rates[alive] = new_rates
                iterations += 1
                self.stats.fixpoint_iterations += 1
                self.stats.feature_rows += int(alive.size)
                alive = alive[~done]
                if alive.size == 0:
                    break
            span.attrs["iterations"] = iterations
            span.attrs["nonconverged"] = int(alive.size)
        nonconverged = np.zeros(m, dtype=bool)
        nonconverged[alive] = True
        return rates, nonconverged

    # -- feature estimation ------------------------------------------------

    def estimate_features(
        self,
        requests: Sequence[TransferRequest],
        now: float,
        durations: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """The persistence-assumption (Eq. 2) feature estimates for every
        request starting at ``now`` and lasting ``durations``, as a dict
        of per-request arrays: each active transfer contributes its rate,
        streams and instances scaled by its overlap with the request's
        window over the request's duration."""
        durations = np.asarray(durations, dtype=np.float64)
        if durations.shape != (len(requests),):
            raise ValueError("durations must have one entry per request")
        if np.any(durations <= 0):
            raise ValueError("assumed durations must be > 0")
        cols = _columns(requests)
        idx = np.arange(len(requests))
        out = self._contention(cols, idx, now, durations)
        out["C"] = cols.c.copy()
        out["P"] = cols.p.copy()
        out["Nd"] = cols.nd.copy()
        out["Nb"] = cols.nb.copy()
        out["Nf"] = cols.nf.copy()
        return out

    def _contention(
        self,
        cols: _RequestColumns,
        idx: np.ndarray,
        now: float,
        durations: np.ndarray,
        states: tuple[list, list] | None = None,
    ) -> dict[str, np.ndarray]:
        """The ten contention estimates for the requests at ``idx``,
        grouped per endpoint so each prefix-sum index answers one
        vectorized query per role.

        ``states`` is the optional pre-resolved ``(src_states,
        dst_states)`` pair (one endpoint index from
        :meth:`~repro.serve.active_set.ActiveSet.endpoint_state` per unique
        endpoint, hoisted once per fix-point by :meth:`_fixpoint`); when
        None each group resolves lazily.
        """
        n = idx.size
        # One zeroed backing block; the returned dict holds row views.
        block = np.zeros((len(_CONTENTION_NAMES), n))
        out = {name: block[i] for i, name in enumerate(_CONTENTION_NAMES)}
        t_end = now + durations
        for endpoints, codes, state_list, (k_out, s_out, k_in, s_in, g) in (
            (cols.src_endpoints, cols.src_codes[idx],
             None if states is None else states[0],
             ("K_sout", "S_sout", "K_sin", "S_sin", "G_src")),
            (cols.dst_endpoints, cols.dst_codes[idx],
             None if states is None else states[1],
             ("K_dout", "S_dout", "K_din", "S_din", "G_dst")),
        ):
            # Code-sorted slicing: one stable argsort yields every endpoint
            # group as a contiguous slice (ascending positions, exactly the
            # order np.nonzero(codes == u) produced), replacing one O(n)
            # mask scan per distinct endpoint per round.
            order = np.argsort(codes, kind="stable")
            bounds = np.searchsorted(
                codes[order], np.arange(endpoints.size + 1)
            )
            for u in range(endpoints.size):
                lo, hi = bounds[u], bounds[u + 1]
                if lo == hi:
                    continue
                pos = order[lo:hi]
                state = (
                    state_list[u]
                    if state_list is not None
                    else self.active.endpoint_state(str(endpoints[u]))
                )
                b = t_end[pos]
                d = durations[pos]
                # One query over the endpoint's 5-column index answers all
                # five roles.
                sums = state.window_sums(now, b)
                out[k_out][pos] = sums[:, _M_OUT_RATE] / d
                out[s_out][pos] = sums[:, _M_OUT_STREAMS] / d
                out[k_in][pos] = sums[:, _M_IN_RATE] / d
                out[s_in][pos] = sums[:, _M_IN_STREAMS] / d
                out[g][pos] = sums[:, _M_TOUCH] / d
        return out

    def _feature_matrix(
        self,
        names: Sequence[str],
        extra: Mapping[str, object],
        cols: _RequestColumns,
        idx: np.ndarray,
        now: float,
        durations: np.ndarray,
        states: tuple[list, list],
        buf: np.ndarray,
    ) -> np.ndarray:
        """Fill (and return) ``buf``, the ``(idx.size, len(names))``
        feature matrix: the caller's preallocated destination (the
        fix-point reuses one buffer across rounds).  ``states`` is the
        pre-resolved endpoint state pair :meth:`_contention` takes.
        """
        feats = self._contention(cols, idx, now, durations, states)
        for j, name in enumerate(names):
            if name in feats:
                buf[:, j] = feats[name]
            elif name == "C":
                buf[:, j] = cols.c[idx]
            elif name == "P":
                buf[:, j] = cols.p[idx]
            elif name == "Nd":
                buf[:, j] = cols.nd[idx]
            elif name == "Nb":
                buf[:, j] = cols.nb[idx]
            elif name == "Nf":
                buf[:, j] = cols.nf[idx]
            else:
                value = extra[name]
                # Adapter-supplied extras are per-request arrays; plain
                # extra_columns entries are batch-wide constants.
                if isinstance(value, np.ndarray):
                    buf[:, j] = value[idx]
                else:
                    buf[:, j] = value
        return buf
