"""Scalar reference implementations the serving layer is checked against.

``src/`` holds one implementation of each serving contract: the batch
engine (:class:`~repro.serve.ActiveSet` +
:class:`~repro.serve.BatchOnlinePredictor`) and the advisors built on it.
The readable per-transfer, per-request, per-candidate loops below are the
oracles the tests compare that engine to.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from repro.core.online import ActiveTransferView
from repro.core.pipeline import EdgeModelResult
from repro.sim.gridftp import TransferRequest

__all__ = [
    "OnlineFeatureEstimator",
    "scalar_predict",
    "scalar_sweep",
    "sweep_fingerprint",
]


class OnlineFeatureEstimator:
    """Eq. 2 feature estimates for a *hypothetical* transfer from the
    currently active population, one Python loop over the population.

    Persistence assumption: whatever is running now keeps running at its
    current average rate for the duration of the new transfer.
    """

    def __init__(self, active: list[ActiveTransferView]) -> None:
        self.active = list(active)

    def estimate(
        self,
        request: TransferRequest,
        now: float,
        assumed_duration_s: float,
    ) -> dict[str, float]:
        """Feature estimates for ``request`` starting at ``now`` and lasting
        ``assumed_duration_s``: the full 15-feature dict."""
        if assumed_duration_s <= 0:
            raise ValueError("assumed_duration_s must be > 0")
        t_end = now + assumed_duration_s
        feats = {
            "K_sout": 0.0, "K_sin": 0.0, "K_dout": 0.0, "K_din": 0.0,
            "S_sout": 0.0, "S_sin": 0.0, "S_dout": 0.0, "S_din": 0.0,
            "G_src": 0.0, "G_dst": 0.0,
        }
        for a in self.active:
            # Overlap of the active transfer with [now, t_end], scaled by
            # the hypothetical transfer's duration (Eq. 2's O/(Te-Ts)).
            overlap = max(0.0, min(a.expected_end, t_end) - now)
            f = overlap / assumed_duration_s
            if f <= 0:
                continue
            if a.src == request.src:
                feats["K_sout"] += f * a.rate
                feats["S_sout"] += f * a.streams
            if a.dst == request.src:
                feats["K_sin"] += f * a.rate
                feats["S_sin"] += f * a.streams
            if a.src == request.dst:
                feats["K_dout"] += f * a.rate
                feats["S_dout"] += f * a.streams
            if a.dst == request.dst:
                feats["K_din"] += f * a.rate
                feats["S_din"] += f * a.streams
            if request.src in (a.src, a.dst):
                feats["G_src"] += f * a.instances
            if request.dst in (a.src, a.dst):
                feats["G_dst"] += f * a.instances
        feats["C"] = float(request.concurrency)
        feats["P"] = float(request.parallelism)
        feats["Nd"] = float(request.n_dirs)
        feats["Nb"] = float(request.total_bytes)
        feats["Nf"] = float(request.n_files)
        return feats


def scalar_predict(
    result,
    active: list[ActiveTransferView],
    request: TransferRequest,
    now: float,
    max_iterations: int = 8,
    tolerance: float = 0.01,
    initial_rate: float = 50e6,
    extra_columns: dict[str, float] | None = None,
) -> float:
    """The duration fix-point for one request with one fitted model:
    predicted rate -> assumed duration -> feature estimates -> re-predict,
    until the rate moves by at most ``tolerance`` (relative)."""
    estimator = OnlineFeatureEstimator(active)
    names = list(result.feature_names)
    if isinstance(result, EdgeModelResult):
        names = [n for n, keep in zip(names, result.kept) if keep]
    rate = initial_rate
    for _ in range(max_iterations):
        duration = max(1.0, request.total_bytes / rate)
        feats = estimator.estimate(request, now, duration)
        feats.update(extra_columns or {})
        x = np.array([[feats[n] for n in names]])
        new_rate = max(
            float(result.model.predict(result.scaler.transform(x))[0]), 1.0
        )
        converged = abs(new_rate - rate) <= tolerance * rate
        rate = new_rate
        if converged:
            break
    return rate


def scalar_sweep(
    predictor,
    request: TransferRequest,
    grid: tuple[tuple[int, int], ...],
    now: float = 0.0,
) -> list[tuple[int, int, float]]:
    """Score each (C, P) candidate with its own ``predictor.predict`` call,
    best first; ties keep grid order (Python's sort is stable)."""
    scored = [
        (c, p, predictor.predict(
            replace(request, concurrency=c, parallelism=p), now))
        for c, p in grid
    ]
    scored.sort(key=lambda t: -t[2])
    return scored


def sweep_fingerprint(ranked) -> str:
    """SHA-256 over ranked (C, P, rate) triples, rate as exact hex — any
    reordering or least-significant-bit rate change alters it."""
    h = hashlib.sha256()
    for c, p, rate in ranked:
        h.update(f"{c},{p},{float(rate).hex()};".encode())
    return h.hexdigest()
