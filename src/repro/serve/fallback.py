"""Tiered fallback prediction: never refuse to answer a rate query.

A production scheduler asks "how fast would this transfer run?" for
*every* candidate placement, including edges that have never been seen
before — §5.1's per-edge models only exist for the ~30 heaviest edges, and
§4.3's noisy logs mean even known edges can lack a usable model.  The
:class:`FallbackChain` arranges every predictor the reproduction has into
a degradation ladder, most specific first:

1. **edge** — the §5.1/§5.2 per-edge model for exactly this (src, dst);
2. **global** — the §5.4 single all-edges model, whose ROmax/RImax extra
   features come from a :class:`~repro.core.pipeline.GlobalFeatureAdapter`
   (usable whenever both endpoints have capability estimates);
3. **analytical** — the Eq. 1 bound ``Rmax <= min(DRmax, MMmax, DWmax)``
   from §3's analytical model, with DRmax/DWmax estimated from the log;
4. **median** — the edge's historical median rate, or the whole log's
   median when the edge itself is unseen;
5. **default** — a configured constant, when literally nothing is known.

:class:`~repro.serve.batch.BatchOnlinePredictor` accepts a chain in place
of a single model and partitions each batch across tiers, so a request on
an unknown edge degrades to a coarser answer instead of raising — and
every prediction is tagged with the :class:`ModelTier` that produced it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.analytical import EndpointMaxima, estimate_endpoint_maxima
from repro.core.pipeline import (
    EdgeModelResult,
    GlobalFeatureAdapter,
    GlobalModelResult,
)
from repro.logs.store import LogStore

__all__ = ["ModelTier", "FallbackChain"]


class ModelTier(enum.Enum):
    """Provenance of a prediction: which rung of the chain produced it.

    ``DEGRADED`` is not a rung of the chain itself — it marks an answer
    the shard router produced *for* an unavailable shard (down, draining,
    or mid-restart) from the chain's model-free tiers.  The rate is a
    normal :meth:`FallbackChain.constant_rate` answer; the tag is the
    explicit provenance that a healthier answer existed but its owner
    was unreachable.
    """

    EDGE = "edge"
    GLOBAL = "global"
    ANALYTICAL = "analytical"
    MEDIAN = "median"
    DEFAULT = "default"
    DEGRADED = "degraded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class FallbackChain:
    """The degradation ladder a batch predictor walks per request.

    Attributes
    ----------
    edge_models:
        Fitted per-edge models keyed by (src, dst).  May be partially
        populated — that is the point.
    global_model / global_adapter:
        The §5.4 pooled model plus the adapter that supplies its
        per-request ROmax/RImax (and optional distance) columns.  The
        global tier serves a request only when the adapter covers both
        endpoints.
    endpoint_maxima:
        §3.2 per-endpoint DRmax/DWmax estimates feeding the analytical
        tier.
    edge_medians / global_median:
        Historical median rates (bytes/s) per edge and overall.
    default_rate:
        Last-resort constant, bytes/s.
    """

    edge_models: dict[tuple[str, str], EdgeModelResult] = field(default_factory=dict)
    global_model: GlobalModelResult | None = None
    global_adapter: GlobalFeatureAdapter | None = None
    endpoint_maxima: dict[str, EndpointMaxima] = field(default_factory=dict)
    edge_medians: dict[tuple[str, str], float] = field(default_factory=dict)
    global_median: float | None = None
    default_rate: float = 50e6

    def __post_init__(self) -> None:
        if self.default_rate <= 0 or not np.isfinite(self.default_rate):
            raise ValueError("default_rate must be finite and > 0")

    @classmethod
    def from_log(
        cls,
        store: LogStore,
        edge_models: dict[tuple[str, str], EdgeModelResult] | None = None,
        global_model: GlobalModelResult | None = None,
        global_adapter: GlobalFeatureAdapter | None = None,
        default_rate: float = 50e6,
    ) -> "FallbackChain":
        """Derive the model-free tiers (analytical bounds, medians) from a
        historical log, attaching whatever fitted models are available."""
        maxima: dict[str, EndpointMaxima] = {}
        medians: dict[tuple[str, str], float] = {}
        global_median: float | None = None
        if len(store):
            maxima = estimate_endpoint_maxima(store)
            rates = store.rates
            src = store.column("src")
            dst = store.column("dst")
            by_edge: dict[tuple[str, str], list[float]] = {}
            for s, d, r in zip(src, dst, rates):
                by_edge.setdefault((str(s), str(d)), []).append(float(r))
            medians = {e: float(np.median(v)) for e, v in by_edge.items()}
            global_median = float(np.median(rates))
        return cls(
            edge_models=dict(edge_models or {}),
            global_model=global_model,
            global_adapter=global_adapter,
            endpoint_maxima=maxima,
            edge_medians=medians,
            global_median=global_median,
            default_rate=default_rate,
        )

    # -- tier resolution ---------------------------------------------------

    def resolve(self, src: str, dst: str) -> ModelTier:
        """The highest tier that *could* serve a ``src -> dst`` request.

        Informational: the batch predictor performs the same walk but
        skips an edge model whose features it cannot satisfy (listed in
        ``BatchOnlinePredictor.unusable_edges``) and routes only the edges
        whose model was in the chain when the predictor was built.
        """
        if (src, dst) in self.edge_models:
            return ModelTier.EDGE
        if self.global_covers(src, dst):
            return ModelTier.GLOBAL
        if self.analytical_bound(src, dst) is not None:
            return ModelTier.ANALYTICAL
        if (src, dst) in self.edge_medians or self.global_median is not None:
            return ModelTier.MEDIAN
        return ModelTier.DEFAULT

    def global_covers(self, src: str, dst: str) -> bool:
        """Whether the global tier can serve this edge."""
        if self.global_model is None:
            return False
        if self.global_adapter is None:
            # Without an adapter the global model is usable only if it
            # needs no per-request extra columns at all.
            return not any(
                n in ("ROmax_src", "RImax_dst", "distance_km")
                for n in self.global_model.feature_names
            )
        return self.global_adapter.covers(self.global_model, src, dst)

    def analytical_bound(self, src: str, dst: str) -> float | None:
        """Eq. 1's ``min(DRmax, DWmax)`` for the edge, or None if either
        endpoint capability is unknown (MMmax is unobservable from logs and
        treated as non-binding)."""
        s = self.endpoint_maxima.get(src)
        d = self.endpoint_maxima.get(dst)
        if s is None or d is None or s.dr_max <= 0 or d.dw_max <= 0:
            return None
        bound = min(s.dr_max, d.dw_max)
        return bound if np.isfinite(bound) else None

    def describe(self, src: str, dst: str) -> str:
        """One-line provenance summary for an edge (CLI/diagnostic
        output): the tier :meth:`resolve` would pick plus the Eq. 1
        bound, when one is known."""
        tier = self.resolve(src, dst)
        parts = [f"tier={tier.value}"]
        bound = self.analytical_bound(src, dst)
        if bound is not None:
            parts.append(f"Eq. 1 bound {bound:.4g} B/s")
        return ", ".join(parts)

    def constant_rate(self, src: str, dst: str) -> tuple[ModelTier, float]:
        """The model-free answer for an edge: the analytical bound, a
        median, or the default constant — with its provenance tier."""
        bound = self.analytical_bound(src, dst)
        if bound is not None:
            return ModelTier.ANALYTICAL, bound
        median = self.edge_medians.get((src, dst))
        if median is not None and np.isfinite(median) and median > 0:
            return ModelTier.MEDIAN, median
        if self.global_median is not None and self.global_median > 0:
            return ModelTier.MEDIAN, self.global_median
        return ModelTier.DEFAULT, self.default_rate
