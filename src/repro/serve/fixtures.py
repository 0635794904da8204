"""Reproducible synthetic serving fixtures.

A random in-flight population, a batch of pending requests over the same
endpoint universe, and linear edge/global models fitted on random
standardized features.  Serving mechanics only — no log required.  The
chaos harnesses, ``serve-bench`` and the tests all build their inputs
here, so a fixed seed gives the same population everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.core.online import ActiveTransferView
from repro.core.pipeline import EdgeModelResult, GlobalModelResult
from repro.ml.linear import LinearRegression
from repro.ml.scaler import StandardScaler
from repro.sim.gridftp import TransferRequest

__all__ = [
    "make_synthetic_views",
    "make_synthetic_requests",
    "make_synthetic_model",
    "make_synthetic_global_model",
]


def _check_sizes(n: int, n_endpoints: int) -> None:
    """Every synthetic transfer needs two distinct endpoints."""
    if n < 0:
        raise ValueError(f"transfer count must be >= 0, got {n}")
    if n_endpoints < 2:
        raise ValueError(
            f"need at least 2 endpoints for src != dst, got {n_endpoints}")


def make_synthetic_views(
    n: int, n_endpoints: int = 40, seed: int = 0, now: float = 0.0
) -> list[ActiveTransferView]:
    """A random in-flight population: ``n`` transfers spread over
    ``n_endpoints`` endpoints, all active at ``now``."""
    _check_sizes(n, n_endpoints)
    rng = np.random.default_rng(seed)
    eps = [f"EP{i:03d}" for i in range(n_endpoints)]
    views = []
    for _ in range(n):
        s, d = rng.choice(len(eps), size=2, replace=False)
        started = now - float(rng.uniform(1.0, 7200.0))
        remaining = float(rng.uniform(5.0, 3600.0))
        views.append(
            ActiveTransferView(
                src=eps[s],
                dst=eps[d],
                rate=float(rng.uniform(1e6, 5e8)),
                started_at=started,
                expected_end=now + remaining,
                concurrency=int(rng.choice([1, 2, 4, 8])),
                parallelism=int(rng.choice([1, 4, 8])),
                n_files=int(rng.integers(1, 5000)),
            )
        )
    return views


def make_synthetic_requests(
    n: int, n_endpoints: int = 40, seed: int = 1
) -> list[TransferRequest]:
    """``n`` pending transfer requests over the same endpoint universe."""
    _check_sizes(n, n_endpoints)
    rng = np.random.default_rng(seed)
    eps = [f"EP{i:03d}" for i in range(n_endpoints)]
    requests = []
    for _ in range(n):
        s, d = rng.choice(len(eps), size=2, replace=False)
        requests.append(
            TransferRequest(
                src=eps[s],
                dst=eps[d],
                total_bytes=float(rng.uniform(1e8, 1e12)),
                n_files=int(rng.integers(1, 2000)),
                n_dirs=int(rng.integers(1, 50)),
                concurrency=int(rng.choice([2, 4])),
                parallelism=int(rng.choice([4, 8])),
            )
        )
    return requests


def make_synthetic_model(seed: int = 0) -> EdgeModelResult:
    """A linear rate model with a plausible contention response, fitted on
    random standardized features (no log required — serving mechanics only).
    """
    rng = np.random.default_rng(seed)
    n = 4000
    X = np.zeros((n, len(FEATURE_NAMES)))
    k_sout = FEATURE_NAMES.index("K_sout")
    k_din = FEATURE_NAMES.index("K_din")
    nb = FEATURE_NAMES.index("Nb")
    X[:, k_sout] = rng.uniform(0, 1e11, n)
    X[:, k_din] = rng.uniform(0, 1e11, n)
    X[:, nb] = rng.uniform(1e8, 1e12, n)
    # Gentle contention response: enough slope for the fix-point to have
    # real feedback, small enough that it converges in a few rounds.
    y = (
        3e8
        - 1e-3 * X[:, k_sout]
        - 5e-4 * X[:, k_din]
        + 2e-5 * np.sqrt(X[:, nb])
        + rng.normal(0, 1e6, n)
    )
    y = np.maximum(y, 1e6)
    scaler = StandardScaler().fit(X)
    model = LinearRegression().fit(scaler.transform(X), y)
    return EdgeModelResult(
        src="EP000",
        dst="EP001",
        model_kind="linear",
        feature_names=FEATURE_NAMES,
        kept=np.ones(len(FEATURE_NAMES), dtype=bool),
        significance=np.abs(model.coef_),
        n_train=n,
        n_test=0,
        test_errors=np.array([0.0]),
        mdape=0.0,
        model=model,
        scaler=scaler,
    )


def make_synthetic_global_model(seed: int = 0) -> GlobalModelResult:
    """A §5.4-shaped global model (base features + ROmax/RImax extras),
    fitted on random data — for serving mechanics and fallback tests."""
    rng = np.random.default_rng(seed)
    names = FEATURE_NAMES + ("ROmax_src", "RImax_dst")
    n = 4000
    X = np.zeros((n, len(names)))
    k_sout = names.index("K_sout")
    nb = names.index("Nb")
    ro, ri = names.index("ROmax_src"), names.index("RImax_dst")
    X[:, k_sout] = rng.uniform(0, 1e11, n)
    X[:, nb] = rng.uniform(1e8, 1e12, n)
    X[:, ro] = rng.uniform(1e8, 5e9, n)
    X[:, ri] = rng.uniform(1e8, 5e9, n)
    # Capability-capped response: the endpoint maxima dominate, contention
    # subtracts — rough Eq. 5 shape, enough for fix-point feedback.
    y = (
        0.05 * np.minimum(X[:, ro], X[:, ri])
        - 1e-3 * X[:, k_sout]
        + 2e-5 * np.sqrt(X[:, nb])
        + rng.normal(0, 1e6, n)
    )
    y = np.maximum(y, 1e6)
    scaler = StandardScaler().fit(X)
    model = LinearRegression().fit(scaler.transform(X), y)
    return GlobalModelResult(
        model_kind="linear",
        feature_names=names,
        n_train=n,
        n_test=0,
        test_errors=np.array([0.0]),
        mdape=0.0,
        model=model,
        scaler=scaler,
    )
