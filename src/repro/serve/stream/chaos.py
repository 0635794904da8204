"""Fault injection for the streaming loop: :func:`run_stream_chaos`.

Two sub-scenarios, each a self-contained proof:

**A — crash / corruption (exactly-once + breaker + never-unseat).**
A completion-ordered JSONL log is appended in phases, with every Nth
line corrupted and one phase boundary landing mid-line (a half-written
trailing record).  Between phases the supervisor is repeatedly started,
killed at scripted stages (after poll, after apply, after retrain, after
checkpoint — via :class:`~repro.serve.stream.supervisor.SimulatedCrash`),
and restarted against the same state directory.  Meanwhile one edge's
fit function always raises (the poisoned edge) and one edge's published
artifacts are always corrupted between publish and reload (the corrupt
edge).  The final incarnation drains everything, and the report asserts:

- *offset-exact, exactly-once ingestion*: the running SHA-256 digest of
  applied records equals the digest of the file's kept rows in order,
  and the applied count equals the kept count — no record lost, none
  applied twice, across every crash;
- *circuit opens*: the poisoned edge's breaker is OPEN after its
  consecutive failures, the edge is no longer scheduled, and a
  prediction on it still returns a finite rate through a non-edge
  fallback tier (provenance preserved);
- *never unseated*: the corrupt edge's live chain entry is the exact
  object it started with, while ``durability_rollback_total`` counts
  the refused artifacts;
- *alert determinism (exactly-once alerting)*: a second, uninterrupted
  supervisor follows the same phased appends in its own directories; the
  crash-resumed run's SLO alert ledger (alert seq, objective, state,
  data time) must equal the reference run's exactly, the checkpointed
  SLI sample windows must match, every event seq in the crash run's
  JSONL sink must be unique (recovery truncated re-emitted tails), and
  the sink's ``slo/alert`` events must mirror the engine ledger one for
  one — alerts are neither lost nor duplicated by crashes.

**B — truncation / rotation (reset-exact re-ingestion).**  A fresh
state directory; the file is truncated-and-rewritten, then rotated
(replaced at same-or-larger size with different content).  The tail must
reset to offset 0 both times (``stream_tail_resets_total`` by reason)
and the applied digest must equal the concatenation of all three
contents' kept rows.

``repro-tools stream chaos [--quick]`` runs both and exits non-zero
unless every assertion holds.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.logs.io import read_jsonl
from repro.logs.store import LogStore
from repro.obs import Observability
from repro.obs.events import EventLog, read_events
from repro.obs.slo import SLO, SLOEngine
from repro.serve.chaos import (
    ChaosConfig,
    _corrupt_file,
    make_chaos_log,
    write_corrupt_jsonl,
)
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.fixtures import make_synthetic_model
from repro.serve.stream.retrain import (
    BreakerState,
    RetrainController,
    RetrainPolicy,
)
from repro.serve.stream.supervisor import (
    SimulatedCrash,
    StreamConfig,
    StreamSupervisor,
    fold_digest,
)
from repro.serve.stream.tail import TailIngester
from repro.sim.gridftp import TransferRequest

__all__ = ["StreamChaosConfig", "StreamChaosReport", "run_stream_chaos"]


@dataclass(frozen=True)
class StreamChaosConfig:
    n_transfers: int = 240
    n_endpoints: int = 8
    seed: int = 0
    corrupt_every: int = 9
    phases: int = 4
    # One scripted kill per non-final phase, cycling through these stages.
    crash_stages: tuple[str, ...] = (
        "applied", "polled", "retrained", "checkpointed")
    max_apply_per_cycle: int = 48
    cycles_per_incarnation: int = 24

    def __post_init__(self) -> None:
        if self.phases < 2:
            raise ValueError("need >= 2 phases (the partial line spans one)")
        if self.n_transfers < 40 or self.n_endpoints < 4:
            raise ValueError("need >= 40 transfers over >= 4 endpoints")

    @classmethod
    def quick(cls, seed: int = 0) -> "StreamChaosConfig":
        return cls(n_transfers=120, n_endpoints=6, phases=3, seed=seed)


@dataclass
class StreamChaosReport:
    """Everything both sub-scenarios observed, plus the three verdicts."""

    incarnations: int = 0
    crashes_injected: int = 0
    # A: exactly-once
    reference_records: int = 0
    applied_records: int = 0
    reference_digest: str = ""
    applied_digest: str = ""
    quarantined_rows: int = 0
    # A: breaker
    poisoned_edge: str = ""
    breaker_state: str = ""
    breaker_opens: int = 0
    poisoned_refit_failures: int = 0
    poisoned_still_scheduled: bool = False
    poisoned_tier: str = ""
    poisoned_rate: float = math.nan
    # A: never-unseat
    corrupt_edge: str = ""
    rollbacks: int = 0
    corrupt_artifacts_published: int = 0
    live_model_preserved: bool = False
    # A: alert determinism (crash-resumed vs uninterrupted reference)
    alert_transitions: int = 0
    reference_alert_transitions: int = 0
    alerts_fired: int = 0
    alerts_match: bool = False
    slo_samples_match: bool = False
    event_seqs_unique: bool = False
    alert_events_durable: bool = False
    # B: truncation / rotation
    truncation_resets: int = 0
    rotation_resets: int = 0
    reset_reference_records: int = 0
    reset_applied_records: int = 0
    reset_digest_equal: bool = False
    errors: list[str] = field(default_factory=list)

    @property
    def exactly_once(self) -> bool:
        return (self.applied_records == self.reference_records
                and self.reference_records > 0
                and self.applied_digest == self.reference_digest)

    @property
    def breaker_opened(self) -> bool:
        return (self.breaker_state == "OPEN"
                and self.breaker_opens >= 1
                and not self.poisoned_still_scheduled)

    @property
    def fallback_served(self) -> bool:
        return (math.isfinite(self.poisoned_rate)
                and self.poisoned_rate > 0
                and self.poisoned_tier not in ("", ModelTier.EDGE.value))

    @property
    def never_unseated(self) -> bool:
        return (self.live_model_preserved
                and self.rollbacks >= 1
                and self.corrupt_artifacts_published >= 1)

    @property
    def resets_exact(self) -> bool:
        return (self.truncation_resets >= 1
                and self.rotation_resets >= 1
                and self.reset_applied_records == self.reset_reference_records
                and self.reset_digest_equal)

    @property
    def alerts_deterministic(self) -> bool:
        """Crash-resumed and uninterrupted runs fire the identical alert
        ledger (same count, same seqs, same data times), with at least
        one real alert exercised, unique event seqs in the sink, and the
        sink's alert events exactly mirroring the engine ledger."""
        return (self.alerts_match
                and self.alerts_fired >= 1
                and self.slo_samples_match
                and self.event_seqs_unique
                and self.alert_events_durable)

    @property
    def ok(self) -> bool:
        return (self.exactly_once and self.breaker_opened
                and self.fallback_served and self.never_unseated
                and self.alerts_deterministic
                and self.resets_exact and not self.errors)

    def render(self) -> str:
        lines = [
            f"stream chaos: {self.incarnations} incarnations, "
            f"{self.crashes_injected} injected crashes",
            f"verdict                   {'OK' if self.ok else 'FAILED'}",
            f"exactly-once ingestion    "
            f"{'OK' if self.exactly_once else 'FAILED'} "
            f"(applied {self.applied_records} / "
            f"reference {self.reference_records}, "
            f"digest {'match' if self.applied_digest == self.reference_digest else 'MISMATCH'}, "
            f"{self.quarantined_rows} quarantined)",
            f"circuit breaker           "
            f"{'OK' if self.breaker_opened else 'FAILED'} "
            f"({self.poisoned_edge}: {self.breaker_state}, "
            f"{self.breaker_opens} opens, "
            f"{self.poisoned_refit_failures} consecutive failures)",
            f"fallback serving          "
            f"{'OK' if self.fallback_served else 'FAILED'} "
            f"(tier={self.poisoned_tier or '?'}, "
            f"rate={self.poisoned_rate:.4g} B/s)",
            f"live model never unseated "
            f"{'OK' if self.never_unseated else 'FAILED'} "
            f"({self.corrupt_edge}: {self.rollbacks} rollbacks over "
            f"{self.corrupt_artifacts_published} corrupted artifacts)",
            f"alert determinism         "
            f"{'OK' if self.alerts_deterministic else 'FAILED'} "
            f"({self.alert_transitions} transitions vs reference "
            f"{self.reference_alert_transitions}, {self.alerts_fired} fired; "
            f"samples {'match' if self.slo_samples_match else 'MISMATCH'}, "
            f"seqs {'unique' if self.event_seqs_unique else 'DUPLICATED'}, "
            f"sink {'durable' if self.alert_events_durable else 'DIVERGED'})",
            f"truncation/rotation       "
            f"{'OK' if self.resets_exact else 'FAILED'} "
            f"({self.truncation_resets} truncations, "
            f"{self.rotation_resets} rotations, applied "
            f"{self.reset_applied_records} / "
            f"{self.reset_reference_records})",
        ]
        for e in self.errors:
            lines.append(f"error: {e}")
        return "\n".join(lines)


def _chaos_fit(task, poisoned=(), seed=0):
    """Scenario fit function: instant synthetic fit, except the poisoned
    edges which always crash — the stand-in for a worker dying or a fit
    diverging on garbage rows.  Top level so it pickles."""
    src, dst, _rows = task
    if (src, dst) in tuple(tuple(e) for e in poisoned):
        raise RuntimeError(f"poisoned refit for {src}->{dst}")
    return dataclasses.replace(make_synthetic_model(seed), src=src, dst=dst)


def _completion_ordered(log: LogStore) -> LogStore:
    data = log.raw()
    return LogStore(np.sort(data, order="te", kind="stable")
                    if len(data) else data)


def _policy() -> RetrainPolicy:
    return RetrainPolicy(
        mdape_threshold=5.0,
        p95_threshold=20.0,
        min_samples=3,
        hysteresis=0.5,
        # The data clock stalls between phases, so any positive cooldown
        # would cap the poisoned edge at one refit attempt per phase.
        cooldown_s=0.0,
        fit_timeout_s=30.0,
        breaker_failures=2,
        breaker_cooldown_s=1e12,   # no half-open probes inside the run
        workers=1,
        buffer_rows=256,
        min_fit_rows=4,
        probe_rows=4,
        keep_artifacts=2,
    )


def _chaos_slos() -> list:
    """The two SLOs whose SLIs are pure functions of checkpointed state
    (tail quarantine totals; data-time checkpoint staleness), so the
    crash-resumed ledger can be compared bit-for-bit against the
    uninterrupted reference.  Windows are effectively unbounded and
    ``min_samples=2`` because the chaos log's data-time span is
    arbitrary; the quarantine target sits far below the injected ~1/9
    corruption rate (must fire), the staleness target far above anything
    reachable (must stay quiet)."""
    shared = dict(fast_window_s=1e12, slow_window_s=1e13, min_samples=2)
    return [
        SLO("stream_quarantine_rate",
            "Cumulative quarantine rate of the tailed log.",
            target=0.02, mode="max", **shared),
        SLO("stream_checkpoint_staleness",
            "Data time elapsed since the last checkpoint (seconds).",
            target=1e15, mode="max", severity="critical", **shared),
    ]


def run_stream_chaos(
    config: StreamChaosConfig | None = None,
    work_dir: str | Path | None = None,
    obs: Observability | None = None,
) -> StreamChaosReport:
    cfg = config or StreamChaosConfig()
    report = StreamChaosReport()
    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-stream-chaos-")
        work_dir = cleanup.name
    work_dir = Path(work_dir)
    try:
        _scenario_crashes(cfg, work_dir / "a", report,
                          obs or Observability.create(trace=False))
        _scenario_resets(cfg, work_dir / "b", report)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return report


# -- scenario A: crashes, poison, artifact corruption -------------------------


def _scenario_crashes(cfg: StreamChaosConfig, root: Path,
                      report: StreamChaosReport, obs: Observability) -> None:
    root.mkdir(parents=True, exist_ok=True)
    live = root / "transfers.jsonl"

    # The full corrupt file, pre-rendered so the reference is computable
    # up front; it reaches the live file in phased appends below.
    log = _completion_ordered(make_chaos_log(ChaosConfig(
        n_transfers=cfg.n_transfers, n_endpoints=cfg.n_endpoints,
        seed=cfg.seed)))
    full = root / "full.jsonl"
    write_corrupt_jsonl(log, full, every=cfg.corrupt_every)
    all_lines = full.read_text().splitlines(keepends=True)

    kept, quarantine = read_jsonl(full, strict=False)
    report.reference_records = len(kept)
    report.reference_digest = fold_digest("", kept.raw())

    edges = kept.heavy_edges(1)
    if len(edges) < 2:
        report.errors.append("chaos log produced fewer than 2 edges")
        return
    poisoned_edge = tuple(edges[0])
    corrupt_edge = tuple(edges[1])
    report.poisoned_edge = f"{poisoned_edge[0]}->{poisoned_edge[1]}"
    report.corrupt_edge = f"{corrupt_edge[0]}->{corrupt_edge[1]}"

    corrupt_publishes = {"n": 0}

    def publish_hook(edge, generation, path):
        if tuple(edge) == corrupt_edge:
            corrupt_publishes["n"] += 1
            _corrupt_file(path)

    base_model = dataclasses.replace(
        make_synthetic_model(cfg.seed),
        src=corrupt_edge[0], dst=corrupt_edge[1])

    # The crash run's diagnosis layer: a durable JSONL sink (its seqs are
    # checkpointed, so recovery must truncate and re-emit) plus the
    # alert-deterministic SLO engine.
    events_path = root / "events.jsonl"
    obs.events = EventLog(path=events_path, registry=obs.registry)
    obs.slo = SLOEngine(_chaos_slos(), registry=obs.registry,
                        events=obs.events)

    stream_config = StreamConfig(
        poll_interval_s=0.0,
        max_backlog_records=4 * cfg.max_apply_per_cycle,
        max_apply_per_cycle=cfg.max_apply_per_cycle,
        checkpoint_every=1,
    )

    def build(root: Path, obs: Observability, publish_hook,
              crash_hook=None) -> StreamSupervisor:
        """One supervisor incarnation over ``root``'s log, state and
        artifact directories."""
        chain = FallbackChain.from_log(
            kept, edge_models={corrupt_edge: base_model})
        tail = TailIngester(root / "transfers.jsonl", fmt="jsonl",
                            registry=obs.registry, seed=cfg.seed)
        controller = RetrainController(
            chain, obs.drift, root / "artifacts", policy=_policy(),
            fit_fn=partial(_chaos_fit, poisoned=(poisoned_edge,),
                           seed=cfg.seed),
            registry=obs.registry, tracer=obs.tracer, seed=cfg.seed,
            publish_hook=publish_hook,
        )
        return StreamSupervisor(
            tail, controller, root / "state", obs=obs,
            config=stream_config,
            sleep=lambda _s: None,
            crash_hook=crash_hook,
        )

    # The uninterrupted reference: one persistent supervisor in its own
    # directories following the exact same phased appends, never crashed,
    # never rebuilt.  Its alert ledger is what the crash-resumed run must
    # reproduce bit for bit.
    ref_root = root / "ref"
    ref_root.mkdir(parents=True, exist_ok=True)
    ref_live = ref_root / "transfers.jsonl"
    ref_obs = Observability.create(trace=False)
    ref_obs.events = EventLog(path=ref_root / "events.jsonl",
                              registry=ref_obs.registry)
    ref_obs.slo = SLOEngine(_chaos_slos(), registry=ref_obs.registry,
                            events=ref_obs.events)

    def ref_publish_hook(edge, generation, path):
        # Same artifact corruption, but not counted into the report.
        if tuple(edge) == corrupt_edge:
            _corrupt_file(path)

    ref = build(ref_root, ref_obs, ref_publish_hook)

    def crash_hook_for(stage: str):
        def hook(s):
            if s == stage:
                raise SimulatedCrash(f"injected at {s}")
        return hook

    live.write_text("")
    ref_live.write_text("")
    phase_chunks = np.array_split(np.arange(len(all_lines)), cfg.phases)
    carry = ""
    for phase, chunk in enumerate(phase_chunks):
        text = carry + "".join(all_lines[i] for i in chunk)
        carry = ""
        if phase < cfg.phases - 1 and len(chunk) and len(text) > 8:
            # Leave the last half-line dangling: the next phase finishes
            # it, and the tail must not consume it early.
            cut = max(1, len(all_lines[chunk[-1]]) // 2)
            carry, text = text[-cut:], text[:-cut]
        with live.open("a") as fh:
            fh.write(text)
        with ref_live.open("a") as fh:
            fh.write(text)

        if phase < cfg.phases - 1:
            stage = cfg.crash_stages[phase % len(cfg.crash_stages)]
            victim = build(root, obs, publish_hook,
                           crash_hook=crash_hook_for(stage))
            report.incarnations += 1
            try:
                victim.run(max_cycles=cfg.cycles_per_incarnation)
                report.errors.append(
                    f"phase {phase}: expected a crash at {stage!r}")
            except SimulatedCrash:
                report.crashes_injected += 1
        survivor = build(root, obs, publish_hook)
        report.incarnations += 1
        survivor.run(max_cycles=cfg.cycles_per_incarnation)
        final = survivor
        ref.run(max_cycles=cfg.cycles_per_incarnation)

    report.applied_records = final.applied_records
    report.applied_digest = final.applied_digest
    report.quarantined_rows = (final.tail.report.total_rows
                               - final.tail.report.kept_rows)
    if report.quarantined_rows != (quarantine.total_rows
                                   - quarantine.kept_rows):
        report.errors.append(
            f"quarantine drifted: tail saw {report.quarantined_rows}, "
            f"batch reference {quarantine.total_rows - quarantine.kept_rows}")

    # Breaker verdicts, from the surviving incarnation's restored state.
    breaker = final.controller.breaker(poisoned_edge)
    report.breaker_state = breaker.state.name
    report.breaker_opens = breaker.opens
    report.poisoned_refit_failures = breaker.failures
    report.poisoned_still_scheduled = (
        poisoned_edge in final.controller.due(final.data_now + 1e6))

    request = TransferRequest(
        src=poisoned_edge[0], dst=poisoned_edge[1],
        total_bytes=1e10, n_files=100, n_dirs=5,
        concurrency=2, parallelism=4,
    )
    try:
        prediction = final.predictor.predict_batch_detailed(
            [request], final.data_now)
        report.poisoned_rate = float(prediction.rates[0])
        report.poisoned_tier = prediction.tiers[0].value
    except Exception as exc:  # noqa: BLE001 - serving must not raise
        report.errors.append(f"poisoned-edge prediction raised: {exc!r}")

    # Never-unseat: the corrupt edge's live entry is the construction-time
    # object, every one of its publishes was refused at the probe gate.
    report.corrupt_artifacts_published = corrupt_publishes["n"]
    report.rollbacks = int(
        obs.registry.flat().get("durability_rollback_total", 0))
    report.live_model_preserved = (
        final.controller.chain.edge_models.get(corrupt_edge) is base_model)
    if breaker.state is not BreakerState.OPEN and report.breaker_opens == 0:
        report.errors.append(
            f"poisoned breaker never opened (state {breaker.state.name})")

    # Alert determinism: the crash-resumed engine ledger vs the
    # uninterrupted reference's, exactly.  Global event seqs differ (the
    # crash run interleaves durability/stream_recovered events), which is
    # precisely why the engine keeps its own checkpointed alert_seq.
    def ledger(engine):
        return [
            (e["alert_seq"], e["slo"], e["state"], e["t"])
            for e in engine.alert_log
        ]

    crash_ledger = ledger(final.slo)
    ref_ledger = ledger(ref.slo)
    report.alert_transitions = len(crash_ledger)
    report.reference_alert_transitions = len(ref_ledger)
    report.alerts_fired = sum(
        1 for e in final.slo.alert_log if e["state"] == "firing")
    report.alerts_match = crash_ledger == ref_ledger
    report.slo_samples_match = (
        final.slo.state_dict()["samples"] == ref.slo.state_dict()["samples"])
    if not report.alerts_match:
        report.errors.append(
            f"alert ledgers diverged: crash {crash_ledger} "
            f"vs reference {ref_ledger}")

    # The sink half of the proof: seqs strictly increasing (recovery
    # truncated every superseded tail) and the slo/alert events mirroring
    # the engine ledger one for one.
    sink = list(read_events(events_path))
    seqs = [e.seq for e in sink]
    report.event_seqs_unique = bool(seqs) and all(
        b > a for a, b in zip(seqs, seqs[1:]))
    sink_alerts = [
        (e.attrs.get("alert_seq"), e.attrs.get("slo"),
         e.attrs.get("state"), e.attrs.get("t"))
        for e in sink if e.category == "slo" and e.name == "alert"
    ]
    report.alert_events_durable = sink_alerts == crash_ledger
    if not report.alert_events_durable:
        report.errors.append(
            f"sink alert events diverged from the engine ledger: "
            f"{sink_alerts} vs {crash_ledger}")


# -- scenario B: truncation and rotation --------------------------------------


def _scenario_resets(cfg: StreamChaosConfig, root: Path,
                     report: StreamChaosReport) -> None:
    root.mkdir(parents=True, exist_ok=True)
    live = root / "transfers.jsonl"
    state_dir = root / "state"
    obs = Observability.create(trace=False)

    def content(seed: int, n: int) -> tuple[str, LogStore]:
        log = _completion_ordered(make_chaos_log(ChaosConfig(
            n_transfers=n, n_endpoints=cfg.n_endpoints, seed=seed)))
        path = root / f"content-{seed}.jsonl"
        write_corrupt_jsonl(log, path, every=cfg.corrupt_every)
        kept, _ = read_jsonl(path, strict=False)
        return path.read_text(), kept

    n = max(24, cfg.n_transfers // 5)
    text_a, kept_a = content(cfg.seed + 11, n)
    text_b, kept_b = content(cfg.seed + 13, max(12, n // 2))  # shorter
    text_c, kept_c = content(cfg.seed + 17, n)
    if len(text_c) < len(text_b):
        report.errors.append("rotation content shorter than its predecessor")
        return

    digest = fold_digest("", kept_a.raw())
    digest = fold_digest(digest, kept_b.raw())
    digest = fold_digest(digest, kept_c.raw())
    report.reset_reference_records = len(kept_a) + len(kept_b) + len(kept_c)

    chain = FallbackChain.from_log(kept_a)
    tail = TailIngester(live, fmt="jsonl", registry=obs.registry,
                        seed=cfg.seed)
    controller = RetrainController(
        chain, obs.drift, root / "artifacts", policy=_policy(),
        fit_fn=partial(_chaos_fit, seed=cfg.seed), registry=obs.registry)
    supervisor = StreamSupervisor(
        tail, controller, state_dir, obs=obs,
        config=StreamConfig(
            poll_interval_s=0.0,
            max_backlog_records=4096,
            max_apply_per_cycle=cfg.max_apply_per_cycle,
            checkpoint_every=1,
        ),
        sleep=lambda _s: None,
    )

    live.write_text(text_a)
    supervisor.run(max_cycles=cfg.cycles_per_incarnation)
    # Truncation: the file shrinks below the committed offset.
    live.write_text(text_b)
    if live.stat().st_size >= tail.offset:
        report.errors.append("truncation scenario failed to shrink the file")
    supervisor.run(max_cycles=cfg.cycles_per_incarnation)
    # Rotation: same-or-larger size, different leading bytes.
    live.write_text(text_c)
    supervisor.run(max_cycles=cfg.cycles_per_incarnation)

    flat = obs.registry.flat()
    report.truncation_resets = int(
        flat.get('stream_tail_resets_total{reason="truncated"}', 0))
    report.rotation_resets = int(
        flat.get('stream_tail_resets_total{reason="rotated"}', 0))
    report.reset_applied_records = supervisor.applied_records
    report.reset_digest_equal = supervisor.applied_digest == digest
