"""Online serving: batch submission-time prediction at scale.

The paper motivates its models with "distributed workflow scheduling and
optimization" — a service answering *many* "how fast would this transfer
run right now?" questions against a live population of in-flight
transfers.  This package is that serving layer:

- :class:`ActiveSet` — the in-flight population under incremental
  ``add``/``complete``/``progress`` updates, with per-endpoint prefix-sum
  indexes rebuilt lazily and only for touched endpoints; ``lenient=True``
  absorbs duplicate/unknown/bad-value mutations instead of raising;
- :class:`BatchOnlinePredictor` — submission-time prediction: the
  duration fix-point (predicted rate → assumed duration → overlap-scaled
  Eq. 2 features → re-predict), vectorized across a whole batch of
  requests; ``predict`` answers a single request as a batch of one;
- :class:`FallbackChain` / :class:`ModelTier` — the degradation ladder
  (per-edge model → global model → analytical bound → median → default)
  that lets the predictor answer for edges it has no model for, tagging
  each prediction with its provenance tier;
- :class:`PredictorStats` / :class:`ActiveSetStats` — per-call counters
  (including per-tier predictions and fix-point non-convergence), now
  thin views over a :class:`~repro.obs.MetricsRegistry`; pass an
  :class:`~repro.obs.Observability` bundle (``obs=``) to share one
  registry/tracer/drift-monitor across the whole stack;
- :class:`SweepAdvisor` / :class:`SourceSelector` /
  :class:`FleetScheduler` — the advisory layer on the batch stack
  (:mod:`repro.serve.advise`): a whole (C, P) sweep in one batch call,
  Eq. 1-clipped and tier-tagged, replica-source ranking with a global
  model, plus a backlog scheduler that replans against the live
  population and never predicts worse than FIFO;
- :mod:`repro.serve.fixtures` — the synthetic population, requests and
  models that the chaos harnesses, ``serve-bench`` and the tests share;
- :mod:`repro.serve.bench` — the ``repro-tools serve-bench`` harness:
  batch-vs-loop agreement, latency percentiles and the
  instrumentation-overhead delta;
- :mod:`repro.serve.chaos` — the shared fault stream, the named-check
  verdict every harness reports, the serve replay behind ``repro-tools
  chaos``, the observed replay (:func:`run_observed_replay`) behind
  ``repro-tools metrics``, and crash injection (:func:`run_crash_replay`)
  behind ``repro-tools state verify``;
- :mod:`repro.serve.durability` — the write-ahead journal, checksummed
  generation-numbered snapshots and :func:`recover_serving_state`,
  behind ``repro-tools state snapshot|recover|verify``;
- :mod:`repro.serve.shard` — the fault-tolerant sharded serving tier
  (``repro-tools shard chaos``):
  :class:`ShardCluster` supervises one durable worker process per
  consistent-hash slot — mutations broadcast through a replication log,
  predictions partitioned by edge and reassembled in submission order,
  crashed or hung workers SIGKILL-respawned and replayed to bit-identical
  state, unavailable shards answered degraded with explicit
  :attr:`ModelTier.DEGRADED` provenance, and live rebalance by snapshot
  handoff (see ``docs/sharding.md``);
- :mod:`repro.serve.stream` — the self-healing streaming loop
  (``repro-tools stream run|status|chaos``): :class:`TailIngester`
  follows a growing log with byte-accurate crash-safe resume,
  :class:`RetrainController` turns drift breaches into circuit-broken,
  probe-gated per-edge refits, :class:`StreamSupervisor` joins them
  under one atomic checkpoint, and :func:`run_stream_chaos` proves the
  exactly-once / breaker / never-unseat guarantees under injected
  faults (see ``docs/streaming.md``).
"""

from repro.serve.advise import (
    DEFAULT_TUNABLE_GRID,
    FleetPlan,
    FleetScheduler,
    ScheduledTransfer,
    SchedulerBenchmark,
    SourceSelector,
    SweepAdvisor,
    SweepCandidate,
    SweepRecommendation,
)
from repro.serve.active_set import (
    ActiveSet,
    ActiveSetStats,
    view_from_dict,
    view_to_dict,
)
from repro.serve.batch import BatchOnlinePredictor, BatchPrediction, PredictorStats
from repro.serve.bench import ServeBenchResult, run_serve_bench
from repro.serve.chaos import (
    ChaosConfig,
    ChaosReport,
    CrashReport,
    ObservedReplay,
    make_durable_events,
    run_chaos_replay,
    run_crash_replay,
    run_observed_replay,
    write_corrupt_jsonl,
)
from repro.serve.durability import (
    DurabilityConfig,
    DurableServingState,
    RecoveryReport,
    recover_serving_state,
)
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.shard import (
    ClusterConfig,
    HashRing,
    ShardChaosConfig,
    ShardChaosReport,
    ShardCluster,
    ShardState,
    edge_key,
    run_shard_chaos,
)
from repro.serve.stream import (
    BreakerState,
    CircuitBreaker,
    RetrainController,
    RetrainPolicy,
    StreamChaosConfig,
    StreamChaosReport,
    StreamConfig,
    StreamSupervisor,
    TailIngester,
    read_stream_status,
    run_stream_chaos,
)

__all__ = [
    "ActiveSet",
    "ActiveSetStats",
    "view_to_dict",
    "view_from_dict",
    "BatchOnlinePredictor",
    "BatchPrediction",
    "PredictorStats",
    "FallbackChain",
    "ModelTier",
    "SweepAdvisor",
    "SweepCandidate",
    "SweepRecommendation",
    "DEFAULT_TUNABLE_GRID",
    "SourceSelector",
    "FleetScheduler",
    "FleetPlan",
    "ScheduledTransfer",
    "SchedulerBenchmark",
    "ChaosConfig",
    "ChaosReport",
    "CrashReport",
    "ObservedReplay",
    "make_durable_events",
    "run_chaos_replay",
    "run_crash_replay",
    "run_observed_replay",
    "write_corrupt_jsonl",
    "ServeBenchResult",
    "run_serve_bench",
    "DurabilityConfig",
    "DurableServingState",
    "RecoveryReport",
    "recover_serving_state",
    "ShardCluster",
    "ClusterConfig",
    "ShardState",
    "HashRing",
    "edge_key",
    "ShardChaosConfig",
    "ShardChaosReport",
    "run_shard_chaos",
    "BreakerState",
    "CircuitBreaker",
    "RetrainController",
    "RetrainPolicy",
    "StreamChaosConfig",
    "StreamChaosReport",
    "StreamConfig",
    "StreamSupervisor",
    "TailIngester",
    "read_stream_status",
    "run_stream_chaos",
]
