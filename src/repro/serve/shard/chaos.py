"""Chaos proof for the sharded serving tier.

:func:`run_shard_chaos` drives a :class:`~repro.serve.shard.ShardCluster`
and a single-process reference (a
:class:`~repro.serve.mutation.ServingState` twin fed the same mutation
records, under its own :class:`~repro.serve.batch.BatchOnlinePredictor`)
through the same scripted, seeded history — the crash-replay mutation
stream (:func:`~repro.serve.chaos.make_durable_events`: duplicate adds,
unknown completes, NaN/±inf/negative progress, never-completing
transfers, drift), tier-spanning predict batches over the log-derived
five-tier chain (:func:`~repro.serve.chaos.make_chaos_chain`), SIGKILLs
at varying points (before a mutation batch, between two halves of one,
after mutations but before the predict), a drain, a rebalance, a
checkpoint — and asserts the tier's three contracts after every round:

1. **Every request is answered.**  The router never raises; every rate
   is finite and positive, even while a shard is down or draining.
2. **Answers match the reference bit-exactly, modulo degraded tags.**
   Non-degraded entries equal the single-process
   :class:`~repro.serve.batch.BatchOnlinePredictor` answer with zero
   tolerance; degraded entries appear only when the script made a shard
   unavailable, carry :attr:`~repro.serve.fallback.ModelTier.DEGRADED`,
   and equal the chain's model-free constant answer.
3. **Restarts recover bit-identical state.**  After every round in which
   all shards are up again, every shard's state fingerprint equals every
   other's *and* the reference's — a restarted worker is
   indistinguishable from one that never crashed.

The kill points are script positions rather than asynchronous timers, so
a failing check replays exactly; they still exercise the full failure
surface (crash discovered during mutate broadcast, during predict
dispatch, during checkpoint).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.logs.store import LogStore
from repro.obs import Observability
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.chaos import (
    ChaosConfig,
    Verdict,
    _work_dir,
    check_fault_menu,
    make_chaos_chain,
    make_chaos_log,
    make_chaos_requests,
    make_durable_events,
)
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.mutation import ServingState
from repro.serve.shard.supervisor import ShardCluster
from repro.serve.shard.worker import fingerprint_digest

__all__ = ["ShardChaosConfig", "ShardChaosReport", "run_shard_chaos"]


@dataclass(frozen=True)
class ShardChaosConfig:
    """The scripted history one chaos run replays."""

    shards: int = 3
    rounds: int = 6
    n_transfers: int = 400           # chaos-log size: chain + mutation stream
    n_requests: int = 64             # predict batch per round
    n_endpoints: int = 12
    kill_rounds: tuple[int, ...] = (1, 3, 4)
    drain_round: int | None = 2      # drain -> degraded predict -> restart
    rebalance_round: int | None = 5  # snapshot-handoff replacement
    checkpoint_round: int | None = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1 or self.rounds < 1:
            raise ValueError("shards and rounds must be >= 1")
        scripted = [("kill round", r) for r in self.kill_rounds] + [
            (name, getattr(self, name))
            for name in ("drain_round", "rebalance_round", "checkpoint_round")
        ]
        for name, r in scripted:
            if r is not None and not 0 <= r < self.rounds:
                raise ValueError(f"{name} {r} outside 0..{self.rounds - 1}")

    @classmethod
    def quick(cls, seed: int = 0) -> "ShardChaosConfig":
        """The CI smoke variant: 2 shards, 4 rounds, one of each fault."""
        return cls(
            shards=2, rounds=4, n_transfers=120, n_requests=32,
            kill_rounds=(1,), drain_round=2, rebalance_round=3,
            checkpoint_round=3, seed=seed,
        )


@dataclass
class ShardChaosReport(Verdict):
    """Every check the run performed, pass or fail, plus fault totals."""

    shards: int = 0
    rounds: int = 0
    kills: int = 0
    restarts: int = 0
    degraded_answers: int = 0

    @property
    def title(self) -> str:
        return (f"shard chaos: {self.shards} shards, {self.rounds} rounds, "
                f"{self.kills} workers SIGKILLed, {self.restarts} supervised "
                f"restarts, {self.degraded_answers} degraded answers")


def _apply(cluster: ShardCluster, ref: ServingState,
           records: list[list]) -> None:
    """One mutation batch down both paths."""
    for record in records:
        ref.apply(record)
    cluster.apply_mutations(records)


def run_shard_chaos(
    config: ShardChaosConfig | None = None,
    state_root: str | Path | None = None,
    obs: Observability | None = None,
) -> ShardChaosReport:
    """Run the scripted chaos history; see the module docstring for the
    contracts asserted.  ``obs`` receives the router's ``shard_*``
    metrics and lifecycle events (for the CI artifact upload)."""
    config = config or ShardChaosConfig()
    report = ShardChaosReport(shards=config.shards, rounds=config.rounds)
    rng = random.Random(config.seed)
    cc = ChaosConfig(n_transfers=config.n_transfers,
                     n_endpoints=config.n_endpoints, seed=config.seed)
    log = make_chaos_log(cc)
    chain = make_chaos_chain(log, cc)
    events = make_durable_events(cc, log)
    check_fault_menu(report, events)
    ref = ServingState(lenient=cc.lenient)

    with _work_dir(state_root, "repro-shard-chaos-") as state_root:
        cluster = ShardCluster(
            chain, state_root, shards=config.shards, obs=obs).start()
        try:
            _run_rounds(config, cluster, ref, chain, log, events,
                        cc.horizon_s, rng, report)
        finally:
            report.restarts = sum(
                row["restarts"] for row in cluster.status())
            cluster.stop()
    return report


def _run_rounds(config: ShardChaosConfig, cluster: ShardCluster,
                ref: ServingState, chain: FallbackChain, log: LogStore,
                events: list[list], horizon: float, rng: random.Random,
                report: ShardChaosReport) -> None:
    ref_predictor = BatchOnlinePredictor(chain, ref.active, obs=ref.obs)

    for r in range(config.rounds):
        # The stream is time-ordered; round r replays its r-th slice and
        # predicts at the matching point of the log's horizon.
        now = horizon * (r + 1) / config.rounds
        requests = make_chaos_requests(
            np.random.default_rng(config.seed + 100 + r),
            config.n_requests, chain, log)
        batch = events[len(events) * r // config.rounds:
                       len(events) * (r + 1) // config.rounds]
        half = len(batch) // 2
        kill_point = r % 3 if r in config.kill_rounds else None
        victim = rng.choice(list(cluster.ring.shards))

        # Kill point 0 / 1 / 2: before the batch / between halves / after.
        for point, part in enumerate((batch[:half], batch[half:], None)):
            if point == kill_point:
                cluster.kill(victim)
                report.kills += 1
            if part is not None:
                _apply(cluster, ref, part)

        draining = None
        if r == config.drain_round:
            draining = victim
            cluster.drain(draining)

        if r == config.rebalance_round:
            handoff = cluster.rebalance(victim if draining is None
                                        else _other(cluster, draining, rng))
            report.check(
                f"round {r}: rebalance handoff verified",
                bool(handoff["fingerprint"]),
                f"shard {handoff['shard']} seq {handoff['seq']}")

        result = cluster.predict_batch_detailed(requests, now)
        expected = ref_predictor.predict_batch_detailed(requests, now)
        _check_round(r, cluster, chain, requests, result, expected,
                     draining, report)

        if draining is not None:
            cluster.restart(draining)

        if r == config.checkpoint_round:
            generations = cluster.checkpoint()
            report.check(
                f"round {r}: checkpoint + log compaction",
                len(generations) == config.shards,
                f"generations {generations}, log base {cluster._base}")

        prints = cluster.fingerprints()
        want = fingerprint_digest(ref.state_fingerprint())
        report.check(
            f"round {r}: state fingerprints bit-identical across "
            f"{len(prints)} shards + reference",
            len(prints) == config.shards
            and all(d == want for d in prints.values()),
            f"reference {want[:12]}…")


def _tier_mix(tiers, idx: list[int]) -> str:
    counts = Counter(tiers[i].value for i in idx)
    return " ".join(f"{t} {n}" for t, n in sorted(counts.items()))


def _other(cluster: ShardCluster, not_this: str, rng: random.Random) -> str:
    candidates = [s for s in cluster.ring.shards if s != not_this]
    return rng.choice(candidates) if candidates else not_this


def _check_round(r: int, cluster: ShardCluster, chain: FallbackChain,
                 requests, result, expected, draining: str | None,
                 report: ShardChaosReport) -> None:
    rates = np.asarray(result.rates)
    report.check(
        f"round {r}: every request answered",
        len(rates) == len(requests)
        and bool(np.all(np.isfinite(rates)) and np.all(rates > 0)),
        f"{len(rates)} answers")

    degraded_idx = [i for i, t in enumerate(result.tiers)
                    if t is ModelTier.DEGRADED]
    report.degraded_answers += len(degraded_idx)
    clean = [i for i in range(len(requests)) if i not in set(degraded_idx)]

    diffs = np.abs(rates[clean] - np.asarray(expected.rates)[clean]) \
        if clean else np.zeros(0)
    max_diff = float(diffs.max()) if len(diffs) else 0.0
    report.check(
        f"round {r}: non-degraded answers bit-equal the single-process "
        f"reference",
        max_diff == 0.0
        and all(result.tiers[i] is expected.tiers[i] for i in clean)
        and all(bool(result.nonconverged[i]) == bool(expected.nonconverged[i])
                for i in clean),
        f"{len(clean)} compared ({_tier_mix(result.tiers, clean)}), "
        f"max |diff| {max_diff:g}")

    if draining is None:
        report.check(
            f"round {r}: no degraded answers while all shards serve",
            not degraded_idx, f"{len(degraded_idx)} degraded")
    else:
        own = [i for i in range(len(requests))
               if cluster.ring.lookup(
                   f"{requests[i].src}->{requests[i].dst}") == draining]
        tags_ok = sorted(degraded_idx) == sorted(own)
        values_ok = all(
            rates[i] == chain.constant_rate(requests[i].src,
                                            requests[i].dst)[1]
            for i in degraded_idx)
        report.check(
            f"round {r}: draining shard's requests degrade with explicit "
            f"provenance",
            tags_ok and values_ok,
            f"{len(degraded_idx)} degraded on {draining}")
