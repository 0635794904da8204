"""Synthetic serving workloads and the serve-bench harness.

Shared by the ``repro-tools serve-bench`` CLI command and the benchmark
suite: builds a reproducible synthetic active-transfer population, a batch
of prediction requests, and a fitted model, then times one vectorized
batch call against answering the same requests one ``predict`` call at a
time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.core.online import ActiveTransferView
from repro.core.pipeline import EdgeModelResult, GlobalModelResult
from repro.ml.linear import LinearRegression
from repro.ml.scaler import StandardScaler
from repro.obs import Observability
from repro.serve.active_set import ActiveSet
from repro.serve.batch import BatchOnlinePredictor
from repro.sim.gridftp import TransferRequest

__all__ = [
    "make_synthetic_views",
    "make_synthetic_requests",
    "make_synthetic_model",
    "make_synthetic_global_model",
    "ServeBenchResult",
    "run_serve_bench",
    "measure_single_request_latency",
]


def make_synthetic_views(
    n: int, n_endpoints: int = 40, seed: int = 0, now: float = 0.0
) -> list[ActiveTransferView]:
    """A random in-flight population: ``n`` transfers spread over
    ``n_endpoints`` endpoints, all active at ``now``."""
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


def _serve_bench_task(task: dict) -> tuple[ServeBenchResult, dict]:
    """Top-level worker task: one single-repeat bench cell with its own
    Observability bundle; returns the result plus a registry snapshot so
    the parent can merge the cells deterministically."""
    obs = Observability.create()
    result = run_serve_bench(
        n_active=task["n_active"],
        n_requests=task["n_requests"],
        n_endpoints=task["n_endpoints"],
        seed=task["seed"],
        now=task["now"],
        repeats=1,
        obs=obs,
        workers=1,
    )
    return result, obs.registry.snapshot()


def _parallel_serve_bench(
    n_active: int,
    n_requests: int,
    n_endpoints: int,
    seed: int,
    now: float,
    repeats: int,
    obs: Observability | None,
    workers: int,
) -> ServeBenchResult:
    """``repeats`` independent single-repeat cells fanned out over worker
    processes.  Every cell uses the same seed — mirroring how serial
    repeats re-time identical data — so all non-time outputs (engine
    stats, max |batch - loop| diff) are deterministic: counters sum to
    exactly what a serial ``repeats=N`` run accumulates."""
    from repro.exec.engine import parallel_map

    task = {
        "n_active": n_active,
        "n_requests": n_requests,
        "n_endpoints": n_endpoints,
        "seed": seed,
        "now": now,
    }
    pairs = parallel_map(
        _serve_bench_task, [task] * repeats, workers=workers,
        label="serve_bench",
        registry=obs.registry if obs is not None else None,
    )
    results = [p[0] for p in pairs]
    obs = obs if obs is not None else Observability.create()
    for _, snapshot in pairs:
        obs.registry.load_snapshot(snapshot)
    latency = obs.registry.histogram("serve_predict_batch_latency_seconds")
    stats: dict[str, float] = {}
    for r in results:
        for k, v in r.stats.items():
            stats[k] = stats.get(k, 0.0) + v
    return ServeBenchResult(
        n_active=n_active,
        n_requests=n_requests,
        batch_time_s=float(np.mean([r.batch_time_s for r in results])),
        loop_time_s=float(np.mean([r.loop_time_s for r in results])),
        max_abs_diff=max(r.max_abs_diff for r in results),
        stats=stats,
        repeats=repeats,
        instrumented_time_s=float(
            np.mean([r.instrumented_time_s for r in results])
        ),
        latency_p50_s=latency.quantile(0.5),
        latency_p95_s=latency.quantile(0.95),
        latency_p99_s=latency.quantile(0.99),
    )


def measure_single_request_latency(
    n_active: int = 10_000,
    n_probe: int = 200,
    n_endpoints: int = 40,
    seed: int = 0,
    now: float = 0.0,
) -> dict:
    """Per-call latency of single-request ``predict_batch`` on a warm engine.

    The batch path amortises fixed costs over the batch; this measures the
    opposite regime — one request per call against a large active set — the
    interactive "what rate will this transfer get right now?" query.  The
    zero-realloc fix-point (hoisted endpoint states, preallocated feature
    buffer, argsort group-by) is what keeps the p99 sub-millisecond at
    10k active transfers on one core.

    Returns a plain dict (``p50_s``/``p95_s``/``p99_s``/``max_s`` plus the
    workload shape and a ``sub_ms_p99`` verdict) for the bench report.
    """
    views = make_synthetic_views(n_active, n_endpoints=n_endpoints, seed=seed, now=now)
    requests = make_synthetic_requests(n_probe, n_endpoints=n_endpoints, seed=seed + 1)
    engine = BatchOnlinePredictor(
        make_synthetic_model(seed), ActiveSet.from_views(views)
    )
    engine.predict_batch(requests, now)  # warm every endpoint index once
    times = np.empty(len(requests))
    for i, request in enumerate(requests):
        t0 = time.perf_counter()
        engine.predict_batch([request], now)
        times[i] = time.perf_counter() - t0
    p50, p95, p99 = (float(np.percentile(times, q)) for q in (50, 95, 99))
    return {
        "n_active": n_active,
        "n_probe": n_probe,
        "p50_s": p50,
        "p95_s": p95,
        "p99_s": p99,
        "max_s": float(times.max()),
        "sub_ms_p99": bool(p99 < 1e-3),
    }


def run_serve_bench(
    n_active: int = 10_000,
    n_requests: int = 1_000,
    n_endpoints: int = 40,
    seed: int = 0,
    result: EdgeModelResult | None = None,
    now: float = 0.0,
    repeats: int = 1,
    obs: Observability | None = None,
    workers: int | None = None,
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

    ``workers > 1`` (default: ``REPRO_WORKERS``) fans the repeats out
    over worker processes via :func:`repro.exec.parallel_map` — same
    seed, same data per cell, metric registries merged back into ``obs``
    — supported for the synthetic default model only (a custom ``result``
    keeps the serial path).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    from repro.exec.engine import resolve_workers

    worker_count = resolve_workers(workers)
    if worker_count > 1 and repeats > 1 and result is None:
        return _parallel_serve_bench(
            n_active, n_requests, n_endpoints, seed, now, repeats, obs,
            worker_count,
        )
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
        max_abs_diff=float(np.max(np.abs(batch_rates - loop_rates))),
        stats=instrumented.stats.as_dict(),
        repeats=repeats,
        instrumented_time_s=instrumented_time,
        latency_p50_s=latency.quantile(0.5),
        latency_p95_s=latency.quantile(0.95),
        latency_p99_s=latency.quantile(0.99),
    )
