"""Vectorized (C, P) what-if advisory and fleet scheduling (§8, inverted).

The paper *explains* transfer rate; this module *chooses* tunables and
sources with the fitted models, on the batch serving stack:

- :class:`SweepAdvisor` — score **all** (C, P) candidates of a sweep in a
  single :class:`~repro.serve.batch.BatchOnlinePredictor` call (one
  feature matrix, one fix-point), clip the predictions by the Eq. 1
  analytical bound from the :class:`~repro.serve.fallback.FallbackChain`'s
  endpoint maxima, and tag every answer with the
  :class:`~repro.serve.fallback.ModelTier` that produced it — unmodeled
  edges degrade through the chain instead of raising;
- :class:`SourceSelector` — rank the replica sources of a dataset by the
  rate a *global* model predicts for each (source, destination) pair;
- :class:`FleetScheduler` — sequence a backlog of transfer requests
  against a *live* :class:`~repro.serve.ActiveSet`, greedily avoiding
  predicted self-contention at shared endpoints, re-scoring every
  eligible candidate in one batch call per admission round, and never
  doing worse than FIFO by construction (the FIFO order is evaluated
  with the same models and kept if it predicts a shorter makespan);
- :meth:`FleetScheduler.benchmark` — the planner-vs-FIFO-vs-greedy
  comparison (predicted makespan + aggregate throughput per policy), the
  table ``repro-tools advise plan`` prints.

All advice is *model-driven*: nothing here talks to the simulator, so the
same code runs against models trained on real logs.

Pass an :class:`~repro.obs.Observability` bundle via ``obs=`` to count
``advise_*`` metrics and emit ``advise.sweep`` / ``advise.plan`` tracing
spans through the shared registry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.analytical import clip_rates_to_bound
from repro.core.online import ActiveTransferView
from repro.core.pipeline import EdgeModelResult, GlobalModelResult
from repro.obs import MetricsRegistry, Observability
from repro.obs.tracing import NULL_SPAN
from repro.serve.active_set import ActiveSet
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.fallback import FallbackChain, ModelTier
from repro.sim.gridftp import TransferRequest

__all__ = [
    "DEFAULT_TUNABLE_GRID",
    "SweepCandidate",
    "SweepRecommendation",
    "SweepAdvisor",
    "SourceSelector",
    "ScheduledTransfer",
    "FleetPlan",
    "SchedulerBenchmark",
    "FleetScheduler",
]

# Candidate (concurrency, parallelism) grid; the Globus-practical range.
DEFAULT_TUNABLE_GRID: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 4), (2, 2), (2, 4), (2, 8),
    (4, 2), (4, 4), (4, 8), (8, 4), (8, 8), (16, 4),
)

# Counter attribute -> (metric name, help).  These are the advise_* rows
# of the observability metric catalog (docs/observability.md).
_ADVISE_METRICS: dict[str, tuple[str, str]] = {
    "sweeps": ("advise_sweeps_total", "Tunable sweeps executed."),
    "candidates": (
        "advise_candidates_total",
        "(C, P) candidates scored across all sweeps."),
    "clipped": (
        "advise_clipped_total",
        "Predictions capped by the Eq. 1 analytical bound."),
    "degenerate": (
        "advise_degenerate_sweeps_total",
        "Sweeps with a non-positive candidate rate (never confident)."),
    "plans": ("advise_plans_total", "Fleet plans produced."),
    "planned": (
        "advise_planned_transfers_total",
        "Transfers placed into fleet plans."),
    "plan_rounds": (
        "advise_plan_rounds_total",
        "Admission decision rounds across all plans."),
    "fifo_fallbacks": (
        "advise_plan_fifo_fallbacks_total",
        "Plans where the FIFO order predicted a shorter makespan than the "
        "contention-aware order and was returned instead."),
}


class _AdviseCounters:
    """The advise_* counters, registered once on a shared registry."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for attr, (metric, help_text) in _ADVISE_METRICS.items():
            setattr(self, attr, self.registry.counter(metric, help_text))


@dataclass(frozen=True)
class SweepCandidate:
    """One scored (C, P) candidate of a sweep, best first in
    :attr:`SweepRecommendation.alternatives`.

    ``predicted_rate`` respects the Eq. 1 clip; ``raw_rate`` is the
    model's unclipped prediction (equal unless ``clipped``).
    """

    concurrency: int
    parallelism: int
    predicted_rate: float
    raw_rate: float
    tier: ModelTier
    clipped: bool = False

    def as_dict(self) -> dict:
        return {
            "concurrency": self.concurrency,
            "parallelism": self.parallelism,
            "predicted_rate": self.predicted_rate,
            "raw_rate": self.raw_rate,
            "tier": self.tier.value,
            "clipped": self.clipped,
        }


@dataclass(frozen=True)
class SweepRecommendation:
    """Outcome of a vectorized tunable sweep for one edge.

    ``alternatives`` holds every scored candidate, best first; each
    carries its :class:`~repro.serve.fallback.ModelTier` provenance and
    whether the Eq. 1 bound capped it.  A sweep in which any candidate
    predicts a non-positive or non-finite rate is *degenerate*: it reports
    no gain and is never confident.
    """

    src: str
    dst: str
    alternatives: tuple[SweepCandidate, ...]
    bound: float | None = None

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise ValueError("a recommendation needs at least one candidate")

    @property
    def best(self) -> SweepCandidate:
        return self.alternatives[0]

    @property
    def concurrency(self) -> int:
        return self.best.concurrency

    @property
    def parallelism(self) -> int:
        return self.best.parallelism

    @property
    def predicted_rate(self) -> float:
        return self.best.predicted_rate

    @property
    def tier(self) -> ModelTier:
        return self.best.tier

    @property
    def degenerate(self) -> bool:
        """True when any candidate predicted a non-positive or
        non-finite rate — the sweep carries no usable preference."""
        return any(
            not np.isfinite(a.predicted_rate) or a.predicted_rate <= 0.0
            for a in self.alternatives
        )

    @property
    def gain_over_worst(self) -> float:
        """Best/worst predicted speedup; 1.0 for degenerate sweeps."""
        if self.degenerate:
            return 1.0
        return self.predicted_rate / self.alternatives[-1].predicted_rate

    @property
    def confident(self) -> bool:
        """Whether the model actually differentiates the candidates.

        Models trained on logs where C and P never varied (the paper's
        low-variance elimination) predict near-identical rates across the
        grid; acting on such a "recommendation" would be noise-chasing.
        """
        return not self.degenerate and self.gain_over_worst > 1.1

    def as_dict(self) -> dict:
        """JSON-ready encoding (the ``repro-tools advise --json`` payload)."""
        return {
            "src": self.src,
            "dst": self.dst,
            "concurrency": self.concurrency,
            "parallelism": self.parallelism,
            "predicted_rate": self.predicted_rate,
            "tier": self.tier.value,
            "bound": self.bound,
            "confident": self.confident,
            "degenerate": self.degenerate,
            "gain_over_worst": self.gain_over_worst,
            "alternatives": [a.as_dict() for a in self.alternatives],
        }


class SweepAdvisor:
    """Recommends (C, P) for a transfer with one batch prediction call.

    Parameters
    ----------
    result:
        A :class:`~repro.serve.fallback.FallbackChain` for full
        routing + Eq. 1 clipping — or a single fitted
        :class:`EdgeModelResult` / :class:`GlobalModelResult`, in which
        case no bound is known and predictions are unclipped.  A global
        model that needs per-request adapter columns (``ROmax_src``,
        ``RImax_dst``) is served through a chain's ``global_adapter``.
    active:
        The live in-flight population the sweep is scored against.
    grid:
        Candidate (concurrency, parallelism) pairs.
    clip:
        Chain mode only: cap predictions at the edge's Eq. 1 analytical
        bound (``FallbackChain.analytical_bound``).  The cap keeps a
        model extrapolating outside its training regime from promising
        physically impossible rates.
    obs:
        Optional :class:`~repro.obs.Observability` bundle for the
        ``advise_*`` counters and ``advise.sweep`` spans (shared with the
        underlying batch predictor).
    """

    def __init__(
        self,
        result: EdgeModelResult | GlobalModelResult | FallbackChain,
        active: ActiveSet,
        grid: tuple[tuple[int, int], ...] = DEFAULT_TUNABLE_GRID,
        clip: bool = True,
        obs: Observability | None = None,
    ) -> None:
        if not grid:
            raise ValueError("empty tunable grid")
        for c, p in grid:
            if c < 1 or p < 1:
                raise ValueError(f"bad grid entry ({c}, {p})")
        self.grid = tuple((int(c), int(p)) for c, p in grid)
        self.engine = BatchOnlinePredictor(result, active, obs=obs)
        self.clip = bool(clip)
        self.obs = obs
        self.tracer = obs.tracer if obs is not None and obs.tracer is not None \
            and obs.tracer.enabled else None
        self.counters = _AdviseCounters(obs.registry if obs is not None else None)

    @property
    def chain(self) -> FallbackChain | None:
        return self.engine.chain

    def _span(self, name: str, **attrs):
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def bound_for(self, src: str, dst: str) -> float | None:
        """The Eq. 1 cap applied to this edge's sweep, or None."""
        if not self.clip or self.chain is None:
            return None
        return self.chain.analytical_bound(src, dst)

    def recommend(
        self, request: TransferRequest, now: float = 0.0
    ) -> SweepRecommendation:
        """Sweep the grid for ``request`` (its own C/P are ignored).

        All candidates go through **one** ``predict_batch_detailed``
        call — one feature matrix, one vectorized fix-point.  Models
        trained on logs where C and P were eliminated for low variance
        still differentiate candidates through the ``min(C, Nf)``-driven
        stream/instance features.
        """
        with self._span(
            "advise.sweep", edge=f"{request.src}->{request.dst}",
            candidates=len(self.grid),
        ) as span:
            candidates = [
                replace(request, concurrency=c, parallelism=p)
                for c, p in self.grid
            ]
            detail = self.engine.predict_batch_detailed(candidates, now)
            bound = self.bound_for(request.src, request.dst)
            rates, clipped_mask = clip_rates_to_bound(detail.rates, bound)
            # Stable descending sort: ties keep grid order.
            order = np.argsort(-rates, kind="stable")
            alternatives = tuple(
                SweepCandidate(
                    concurrency=self.grid[i][0],
                    parallelism=self.grid[i][1],
                    predicted_rate=float(rates[i]),
                    raw_rate=float(detail.rates[i]),
                    tier=detail.tiers[i],
                    clipped=bool(clipped_mask[i]),
                )
                for i in order
            )
            rec = SweepRecommendation(
                src=request.src,
                dst=request.dst,
                alternatives=alternatives,
                bound=bound,
            )
            if span is not NULL_SPAN:
                span.attrs["tier"] = rec.tier.value
                span.attrs["clipped"] = int(clipped_mask.sum())
        self.counters.sweeps.inc()
        self.counters.candidates.inc(len(self.grid))
        self.counters.clipped.inc(int(clipped_mask.sum()))
        if rec.degenerate:
            self.counters.degenerate.inc()
        return rec


class SourceSelector:
    """Ranks candidate sources of a replicated dataset by predicted rate.

    Requires a *global* model (per-edge models cannot score unseen
    pairs).  Every candidate is scored against the same live ``active``
    population.
    """

    def __init__(
        self,
        result: GlobalModelResult,
        active: ActiveSet,
        capability_lookup,
        include_rtt_distance=None,
    ) -> None:
        """``capability_lookup(endpoint) -> (ro_max, ri_max)``;
        ``include_rtt_distance(src, dst) -> km`` if the model was trained
        with the RTT extension."""
        if "distance_km" in result.feature_names and include_rtt_distance is None:
            raise ValueError(
                "model includes distance_km; pass include_rtt_distance"
            )
        self.result = result
        self.active = active
        self.capability_lookup = capability_lookup
        self.include_rtt_distance = include_rtt_distance

    def rank(
        self,
        sources: Sequence[str],
        dst: str,
        template: TransferRequest,
        now: float = 0.0,
    ) -> list[tuple[str, float]]:
        """(source, predicted rate) pairs, best first."""
        if not sources:
            raise ValueError("no candidate sources")
        out = []
        for src in sources:
            if src == dst:
                continue
            ro, _ = self.capability_lookup(src)
            _, ri = self.capability_lookup(dst)
            extra = {"ROmax_src": ro, "RImax_dst": ri}
            if self.include_rtt_distance is not None and (
                "distance_km" in self.result.feature_names
            ):
                extra["distance_km"] = self.include_rtt_distance(src, dst)
            engine = BatchOnlinePredictor(
                self.result, self.active, extra_columns=extra
            )
            out.append(
                (src, engine.predict(replace(template, src=src, dst=dst), now))
            )
        if not out:
            raise ValueError("every candidate source equals the destination")
        out.sort(key=lambda t: -t[1])
        return out


@dataclass(frozen=True)
class ScheduledTransfer:
    """One fleet-plan entry, with prediction provenance."""

    request: TransferRequest
    start_at: float
    predicted_rate: float
    predicted_end: float
    tier: ModelTier
    clipped: bool = False

    def as_dict(self) -> dict:
        return {
            "src": self.request.src,
            "dst": self.request.dst,
            "total_bytes": self.request.total_bytes,
            "start_at": self.start_at,
            "predicted_rate": self.predicted_rate,
            "predicted_end": self.predicted_end,
            "tier": self.tier.value,
            "clipped": self.clipped,
        }


@dataclass(frozen=True)
class FleetPlan:
    """A scheduled backlog under one policy, with its predicted quality."""

    policy: str
    now: float
    entries: tuple[ScheduledTransfer, ...]

    @property
    def makespan(self) -> float:
        """Predicted wall-clock to drain the backlog, seconds."""
        if not self.entries:
            return 0.0
        return max(e.predicted_end for e in self.entries) - self.now

    @property
    def total_bytes(self) -> float:
        return float(sum(e.request.total_bytes for e in self.entries))

    @property
    def aggregate_throughput(self) -> float:
        """Backlog bytes over predicted makespan, bytes/s."""
        span = self.makespan
        return self.total_bytes / span if span > 0 else 0.0

    @property
    def mean_rate(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.predicted_rate for e in self.entries]))

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "now": self.now,
            "makespan_s": self.makespan,
            "total_bytes": self.total_bytes,
            "aggregate_throughput": self.aggregate_throughput,
            "mean_rate": self.mean_rate,
            "entries": [e.as_dict() for e in self.entries],
        }


@dataclass(frozen=True)
class SchedulerBenchmark:
    """Planner-vs-baselines comparison on one backlog (the ROADMAP's
    headline artifact: predicted makespan + aggregate throughput table)."""

    plans: dict[str, FleetPlan]

    @property
    def planner_no_worse_than_fifo(self) -> bool:
        """The acceptance property: the planner's predicted makespan is
        <= FIFO's (guaranteed by the planner's FIFO safety net)."""
        planner = self.plans.get("planner")
        fifo = self.plans.get("fifo")
        if planner is None or fifo is None:
            return True
        return planner.makespan <= fifo.makespan * (1 + 1e-12)

    def as_dict(self) -> dict:
        return {
            "planner_no_worse_than_fifo": self.planner_no_worse_than_fifo,
            "policies": {
                name: {
                    "makespan_s": plan.makespan,
                    "aggregate_throughput": plan.aggregate_throughput,
                    "mean_rate": plan.mean_rate,
                    "transfers": len(plan.entries),
                }
                for name, plan in self.plans.items()
            },
        }

    def render(self) -> str:
        lines = [
            f"{'policy':<10}{'makespan':>14}{'agg MB/s':>12}"
            f"{'mean MB/s':>12}{'transfers':>11}"
        ]
        for name, plan in self.plans.items():
            lines.append(
                f"{name:<10}{plan.makespan:>13.1f}s"
                f"{plan.aggregate_throughput / 1e6:>12.1f}"
                f"{plan.mean_rate / 1e6:>12.1f}{len(plan.entries):>11}"
            )
        verdict = "OK" if self.planner_no_worse_than_fifo else "REGRESSION"
        lines.append(f"planner <= FIFO makespan: {verdict}")
        return "\n".join(lines)


class FleetScheduler:
    """Backlog scheduler on the batch stack: replan against live load.

    Repeatedly admits the request with the highest predicted rate *under
    the load the plan has already created*, capping simultaneous
    transfers per endpoint — the paper's "aggregate performance can be
    improved by scheduling transfers" implication, executed with the
    paper's own models.  It:

    - routes every edge through a :class:`FallbackChain`, so a backlog
      touching unmodeled edges degrades to coarser tiers instead of
      raising ``KeyError``;
    - replans against a **live** :class:`~repro.serve.ActiveSet` — the
      transfers already in flight occupy endpoint admission slots until
      their ``expected_end`` and contribute contention features;
    - scores all admissible candidates of each round in one
      ``predict_batch_detailed`` call;
    - clips predicted rates by the per-edge Eq. 1 bound before deriving
      durations;
    - never predicts worse than FIFO: the FIFO order is planned with the
      same models, and returned instead if it predicts a shorter
      makespan (counted in ``advise_plan_fifo_fallbacks_total``).

    The caller's ``active`` set is **not** mutated — planning runs
    against a copy.
    """

    def __init__(
        self,
        chain: FallbackChain,
        max_active_per_endpoint: int = 4,
        clip: bool = True,
        obs: Observability | None = None,
    ) -> None:
        if max_active_per_endpoint < 1:
            raise ValueError("max_active_per_endpoint must be >= 1")
        if not isinstance(chain, FallbackChain):
            raise TypeError(
                f"FleetScheduler needs a FallbackChain, got {type(chain).__name__}"
            )
        self.chain = chain
        self.max_active = int(max_active_per_endpoint)
        self.clip = bool(clip)
        self.obs = obs
        self.tracer = obs.tracer if obs is not None and obs.tracer is not None \
            and obs.tracer.enabled else None
        self.counters = _AdviseCounters(obs.registry if obs is not None else None)

    def _span(self, name: str, **attrs):
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    # -- planning ----------------------------------------------------------

    def plan(
        self,
        backlog: Sequence[TransferRequest],
        active: ActiveSet | None = None,
        now: float = 0.0,
        policy: str = "planner",
    ) -> FleetPlan:
        """Schedule ``backlog`` on top of the live ``active`` population.

        Policies:

        - ``planner`` (default) — contention-aware replanning with the
          FIFO safety net: the plan whose predicted makespan is shorter
          wins;
        - ``greedy`` — rank the backlog once by standalone predicted
          rate against the initial population, then admit in that fixed
          order (the naive baseline);
        - ``fifo`` — admit strictly in backlog order.

        Raises ``ValueError`` if the backlog can never be admitted: every
        pending request blocked by in-flight transfers whose
        ``expected_end`` is unknown (``inf``) — permanently saturated
        endpoints cannot be waited out.
        """
        if policy not in ("planner", "greedy", "fifo"):
            raise ValueError(f"unknown policy {policy!r}")
        with self._span(
            "advise.plan", policy=policy, backlog=len(backlog)
        ) as span:
            if policy == "planner":
                best = self._simulate(backlog, active, now, order="best",
                                      label="planner")
                fifo = self._simulate(backlog, active, now, order="fifo",
                                      label="planner")
                if fifo.makespan < best.makespan:
                    self.counters.fifo_fallbacks.inc()
                    plan = fifo
                else:
                    plan = best
            elif policy == "greedy":
                plan = self._simulate(backlog, active, now, order="greedy",
                                      label="greedy")
            else:
                plan = self._simulate(backlog, active, now, order="fifo",
                                      label="fifo")
            if span is not NULL_SPAN:
                span.attrs["makespan_s"] = plan.makespan
        self.counters.plans.inc()
        self.counters.planned.inc(len(plan.entries))
        return plan

    def benchmark(
        self,
        backlog: Sequence[TransferRequest],
        active: ActiveSet | None = None,
        now: float = 0.0,
    ) -> SchedulerBenchmark:
        """Plan the same backlog under every policy for comparison."""
        return SchedulerBenchmark(
            plans={
                name: self.plan(backlog, active=active, now=now, policy=name)
                for name in ("planner", "greedy", "fifo")
            }
        )

    # -- the planning simulation ------------------------------------------

    def _simulate(
        self,
        backlog: Sequence[TransferRequest],
        active: ActiveSet | None,
        now: float,
        order: str,
        label: str,
    ) -> FleetPlan:
        sim = ActiveSet.from_views(active.views() if active is not None else [])
        engine = BatchOnlinePredictor(self.chain, sim, obs=self.obs)
        bounds: dict[tuple[str, str], float | None] = {}
        for req in backlog:
            edge = (req.src, req.dst)
            if edge not in bounds:
                bounds[edge] = (
                    self.chain.analytical_bound(*edge) if self.clip else None
                )

        # Every in-flight transfer (pre-existing or planned) occupies an
        # admission slot at both its endpoints until its expected_end.
        in_flight: dict[int, ActiveTransferView] = dict(
            enumerate(sim.views())
        )
        next_id = len(in_flight)
        pending = list(backlog)
        if order == "greedy":
            pending = self._greedy_order(engine, bounds, pending, now)
        planned: list[ScheduledTransfer] = []
        clock = now

        def endpoint_load(ep: str) -> int:
            return sum(1 for a in in_flight.values() if ep in (a.src, a.dst))

        while pending:
            self.counters.plan_rounds.inc()
            for tid in [
                t for t, a in in_flight.items() if a.expected_end <= clock
            ]:
                sim.complete(tid)
                del in_flight[tid]

            if order == "best":
                eligible = [
                    i for i, req in enumerate(pending)
                    if endpoint_load(req.src) < self.max_active
                    and endpoint_load(req.dst) < self.max_active
                ]
            else:
                # FIFO (and greedy's fixed order): strictly head-of-line.
                head = pending[0]
                eligible = (
                    [0]
                    if endpoint_load(head.src) < self.max_active
                    and endpoint_load(head.dst) < self.max_active
                    else []
                )
            if not eligible:
                finite_ends = [
                    a.expected_end for a in in_flight.values()
                    if np.isfinite(a.expected_end)
                ]
                if not finite_ends:
                    raise ValueError(
                        "backlog cannot be scheduled: every admissible slot "
                        "is held by in-flight transfers with unknown "
                        "completion (expected_end=inf)"
                    )
                clock = max(min(finite_ends), clock + 1e-6)
                continue

            subset = [pending[i] for i in eligible]
            detail = engine.predict_batch_detailed(subset, clock)
            rates = np.array([
                clip_rates_to_bound(
                    detail.rates[j:j + 1], bounds[(r.src, r.dst)]
                )[0][0]
                for j, r in enumerate(subset)
            ])
            pick = int(np.argmax(rates)) if order == "best" else 0
            rate = float(max(rates[pick], 1.0))
            req = pending.pop(eligible[pick])
            duration = req.total_bytes / rate
            planned.append(
                ScheduledTransfer(
                    request=req,
                    start_at=clock,
                    predicted_rate=rate,
                    predicted_end=clock + duration,
                    tier=detail.tiers[pick],
                    clipped=bool(rates[pick] < detail.rates[pick]),
                )
            )
            view = ActiveTransferView(
                src=req.src,
                dst=req.dst,
                rate=rate,
                started_at=clock,
                expected_end=clock + duration,
                concurrency=req.concurrency,
                parallelism=req.parallelism,
                n_files=req.n_files,
            )
            sim.add(next_id, view)
            in_flight[next_id] = view
            next_id += 1
        return FleetPlan(policy=label, now=now, entries=tuple(planned))

    def _greedy_order(
        self,
        engine: BatchOnlinePredictor,
        bounds: dict[tuple[str, str], float | None],
        pending: list[TransferRequest],
        now: float,
    ) -> list[TransferRequest]:
        """The naive baseline's fixed order: standalone predicted rate
        against the *initial* population, best first, oblivious to the
        contention the plan itself creates."""
        if not pending:
            return pending
        detail = engine.predict_batch_detailed(pending, now)
        rates = np.array([
            clip_rates_to_bound(
                detail.rates[j:j + 1], bounds[(r.src, r.dst)]
            )[0][0]
            for j, r in enumerate(pending)
        ])
        order = np.argsort(-rates, kind="stable")
        return [pending[i] for i in order]
