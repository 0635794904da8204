"""The serve-bench harness behind ``repro-tools serve-bench``.

Builds a reproducible synthetic active-transfer population, a batch of
prediction requests and a fitted model (:mod:`repro.serve.fixtures`),
then times one vectorized batch call against answering the same requests
one ``predict`` call at a time, and re-times the batch path with a full
:class:`~repro.obs.Observability` bundle attached.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import EdgeModelResult
from repro.obs import Observability
from repro.serve.active_set import ActiveSet
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.fixtures import (
    make_synthetic_model,
    make_synthetic_requests,
    make_synthetic_views,
)

__all__ = ["ServeBenchResult", "run_serve_bench"]


@dataclass(frozen=True)
class ServeBenchResult:
    """Timings and throughput of batched vs per-request prediction.

    ``batch_time_s`` / ``loop_time_s`` are mean per-repeat times of the
    *uninstrumented* paths; ``instrumented_time_s`` re-times the batch
    path with a full :class:`~repro.obs.Observability` bundle attached
    (tracer + registry-backed stats), and ``overhead_pct`` is the relative
    cost of that instrumentation — the acceptance target is <= 5%.  The
    latency percentiles come from the instrumented engine's per-call
    latency :class:`~repro.obs.Histogram`.
    """

    n_active: int
    n_requests: int
    batch_time_s: float
    loop_time_s: float
    max_abs_diff: float
    stats: dict[str, float]
    repeats: int = 1
    instrumented_time_s: float = 0.0
    latency_p50_s: float = math.nan
    latency_p95_s: float = math.nan
    latency_p99_s: float = math.nan

    @property
    def speedup(self) -> float:
        return self.loop_time_s / self.batch_time_s if self.batch_time_s else 0.0

    @property
    def batch_throughput_rps(self) -> float:
        return self.n_requests / self.batch_time_s if self.batch_time_s else 0.0

    @property
    def overhead_pct(self) -> float:
        """Instrumented-vs-plain batch-path cost, percent (negative means
        the instrumented run happened to be faster — i.e. noise floor)."""
        if not self.batch_time_s or not self.instrumented_time_s:
            return math.nan
        return (self.instrumented_time_s - self.batch_time_s) \
            / self.batch_time_s * 100.0

    def render(self) -> str:
        lines = [
            f"active transfers          {self.n_active}",
            f"requests                  {self.n_requests} "
            f"(x{self.repeats} repeats)",
            f"batch predict             {self.batch_time_s * 1e3:9.2f} ms "
            f"({self.batch_throughput_rps:,.0f} req/s)",
            f"per-request predict loop  {self.loop_time_s * 1e3:9.2f} ms "
            f"({self.n_requests / self.loop_time_s:,.0f} req/s)"
            if self.loop_time_s
            else "per-request predict loop  (skipped)",
            f"speedup                   {self.speedup:9.1f}x",
            f"max |batch - loop| rate   {self.max_abs_diff:9.3g} B/s",
        ]
        if self.instrumented_time_s:
            lines.append(
                f"instrumented batch        "
                f"{self.instrumented_time_s * 1e3:9.2f} ms "
                f"(overhead {self.overhead_pct:+.1f}% vs plain)"
            )
        if not math.isnan(self.latency_p50_s):
            lines.append(
                f"batch latency p50/p95/p99 "
                f"{self.latency_p50_s * 1e3:.2f} / "
                f"{self.latency_p95_s * 1e3:.2f} / "
                f"{self.latency_p99_s * 1e3:.2f} ms"
            )
        lines.append("engine stats:")
        for k, v in self.stats.items():
            lines.append(f"  {k:<24}{v:,.6g}")
        return "\n".join(lines)


def run_serve_bench(
    n_active: int = 10_000,
    n_requests: int = 1_000,
    n_endpoints: int = 40,
    seed: int = 0,
    result: EdgeModelResult | None = None,
    now: float = 0.0,
    repeats: int = 1,
    obs: Observability | None = None,
) -> ServeBenchResult:
    """Time one ``BatchOnlinePredictor.predict_batch`` call against
    looping ``BatchOnlinePredictor.predict`` (a batch of one per request)
    over the same requests and verify the two agree.

    The batch path is timed twice — once plain, once with a full
    :class:`~repro.obs.Observability` bundle attached — so the report
    carries the instrumentation overhead alongside the speedup, plus
    p50/p95/p99 per-call latency from the instrumented engine's
    histogram.  Pass ``obs`` to reuse a caller-owned bundle (e.g. so the
    CLI can export its registry afterwards); pass ``repeats > 1`` to
    average timings and populate the latency percentiles meaningfully.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    views = make_synthetic_views(n_active, n_endpoints=n_endpoints, seed=seed, now=now)
    requests = make_synthetic_requests(n_requests, n_endpoints=n_endpoints, seed=seed + 1)
    result = result or make_synthetic_model(seed)

    engine = BatchOnlinePredictor(result, ActiveSet.from_views(views))
    engine.predict_batch(requests, now)  # warm all endpoint indexes
    engine.stats.reset()
    t0 = time.perf_counter()
    for _ in range(repeats):
        batch_rates = engine.predict_batch(requests, now)
    batch_time = (time.perf_counter() - t0) / repeats

    obs = obs if obs is not None else Observability.create()
    instrumented = BatchOnlinePredictor(
        result, ActiveSet.from_views(views, obs=obs), obs=obs
    )
    instrumented.predict_batch(requests, now)  # warm, symmetric with plain
    instrumented.stats.reset()
    t0 = time.perf_counter()
    for _ in range(repeats):
        instrumented.predict_batch(requests, now)
    instrumented_time = (time.perf_counter() - t0) / repeats
    latency = instrumented.stats.latency

    # A second engine on its own copy of the population, so the loop pays
    # its own index builds and shares nothing with the batch engine.
    single = BatchOnlinePredictor(result, ActiveSet.from_views(views))
    for r in requests:  # warm its endpoint indexes
        single.predict(r, now)
    t0 = time.perf_counter()
    loop_rates = np.array([single.predict(r, now) for r in requests])
    loop_time = time.perf_counter() - t0

    return ServeBenchResult(
        n_active=n_active,
        n_requests=n_requests,
        batch_time_s=batch_time,
        loop_time_s=loop_time,
        max_abs_diff=float(np.max(np.abs(batch_rates - loop_rates)))
        if n_requests else 0.0,
        stats=instrumented.stats.as_dict(),
        repeats=repeats,
        instrumented_time_s=instrumented_time,
        latency_p50_s=latency.quantile(0.5),
        latency_p95_s=latency.quantile(0.95),
        latency_p99_s=latency.quantile(0.99),
    )
