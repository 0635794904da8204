"""The paper's primary contribution: log-driven transfer-rate modeling.

Layers:

- :mod:`~repro.core.contention` — time-overlap-weighted aggregation over
  competing transfers (Eq. 2 and friends), via prefix-sum interval sweeps.
- :mod:`~repro.core.features` — the Table 2 feature matrix builder.
- :mod:`~repro.core.endpoint_features` — per-endpoint ROmax/RImax (§5.4).
- :mod:`~repro.core.analytical` — the Eq. 1 bound model, bottleneck
  classification, relative external load, and the Rmax-threshold filter.
- :mod:`~repro.core.pipeline` — per-edge and all-edges model training and
  evaluation (§5.1–§5.4).
- :mod:`~repro.core.explain` — coefficient/importance grids (Figures 9, 12).
- :mod:`~repro.core.online` — the in-flight transfer view that
  submission-time prediction (:mod:`repro.serve`) estimates features from.
"""

from repro.core.contention import (
    ActiveOverlapIndex,
    ContentionComputer,
    IntervalOverlapIndex,
)
from repro.core.features import (
    FEATURE_NAMES,
    EXPLANATION_FEATURE_NAMES,
    FeatureMatrix,
    build_feature_matrix,
)
from repro.core.endpoint_features import EndpointCapability, estimate_endpoint_capabilities
from repro.core.analytical import (
    max_achievable_rate,
    classify_bottleneck,
    relative_external_load,
    estimate_endpoint_maxima,
    threshold_mask,
)
from repro.core.pipeline import (
    EdgeModelResult,
    GlobalModelResult,
    fit_edge_model,
    fit_all_edge_models,
    fit_global_model,
    select_heavy_edges,
)
from repro.core.explain import significance_grid, SignificanceGrid
from repro.core.online import ActiveTransferView, active_views_from_log

__all__ = [
    "IntervalOverlapIndex",
    "ActiveOverlapIndex",
    "ContentionComputer",
    "FEATURE_NAMES",
    "EXPLANATION_FEATURE_NAMES",
    "FeatureMatrix",
    "build_feature_matrix",
    "EndpointCapability",
    "estimate_endpoint_capabilities",
    "max_achievable_rate",
    "classify_bottleneck",
    "relative_external_load",
    "estimate_endpoint_maxima",
    "threshold_mask",
    "EdgeModelResult",
    "GlobalModelResult",
    "fit_edge_model",
    "fit_all_edge_models",
    "fit_global_model",
    "select_heavy_edges",
    "significance_grid",
    "SignificanceGrid",
    "ActiveTransferView",
    "active_views_from_log",
]
