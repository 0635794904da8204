"""Fault injection for the streaming loop: :func:`run_stream_chaos`.

Two sub-scenarios, each a self-contained proof reported as named checks
(:class:`~repro.serve.chaos.Verdict`):

**A — crash / corruption.**  A completion-ordered JSONL log is appended
in phases, with every :data:`CORRUPT_EVERY`-th line corrupted and one
phase boundary landing mid-line (a half-written trailing record).
Between phases the supervisor is started, killed at a scripted stage
(after poll, apply, retrain or checkpoint, cycling through
:data:`CRASH_STAGES` — via
:class:`~repro.serve.stream.supervisor.SimulatedCrash`) and restarted
against the same state directory.  One edge's fit always raises (the
poisoned edge); one edge's fit always returns a divergent model, with
finite coefficients whose probe predictions overflow to ±inf, so the
probe gate refuses every publish of it (the corrupt edge).  A second,
uninterrupted supervisor follows the same appends in its own
directories.  The checks:
*exactly-once ingestion* (the running SHA-256 digest of applied records
equals the digest of the file's kept rows, in order, across every
crash); the poisoned edge's *breaker opens* and unschedules it while a
non-edge tier still answers for it; the corrupt edge's live model is
*never unseated* while ``durability_rollback_total`` counts the refused
publishes; and *alert determinism* — the crash-resumed SLO alert ledger
and SLI sample windows equal the reference's, the JSONL sink's event
seqs strictly increase (recovery truncated re-emitted tails) and its
``slo/alert`` events mirror the ledger one for one.

**B — truncation / rotation (reset-exact re-ingestion).**  A fresh
state directory; the file is truncated-and-rewritten, then rotated
(replaced at same-or-larger size with different content).  The tail must
reset to offset 0 both times (``stream_tail_resets_total`` by reason)
and the applied digest must equal the concatenation of all three
contents' kept rows.

``repro-tools stream chaos [--quick]`` runs both and exits non-zero
unless every check passes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.logs.io import QuarantineReport, read_jsonl
from repro.logs.store import LogStore
from repro.ml.linear import LinearRegression
from repro.obs import Observability
from repro.obs.events import EventLog, read_events
from repro.obs.slo import SLO, SLOEngine
from repro.serve.chaos import (
    ChaosConfig,
    Verdict,
    _work_dir,
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


# Every CORRUPT_EVERY-th line of each chaos log is corrupted.
CORRUPT_EVERY = 9
# One scripted kill per non-final phase, cycling through these stages.
CRASH_STAGES = ("applied", "polled", "retrained", "checkpointed")
# Every supervisor's apply cap (its backlog cap is four times this) and
# the cycles each run() may spend catching up with the appended log.
MAX_APPLY_PER_CYCLE = 48
CYCLES_PER_INCARNATION = 24


@dataclass(frozen=True)
class StreamChaosConfig:
    n_transfers: int = 240
    n_endpoints: int = 8
    seed: int = 0
    phases: int = 4

    def __post_init__(self) -> None:
        if self.phases < 2:
            raise ValueError("need >= 2 phases (the partial line spans one)")
        if self.n_transfers < 40 or self.n_endpoints < 4:
            raise ValueError("need >= 40 transfers over >= 4 endpoints")

    @classmethod
    def quick(cls, seed: int = 0) -> "StreamChaosConfig":
        return cls(n_transfers=120, n_endpoints=6, phases=3, seed=seed)


@dataclass
class StreamChaosReport(Verdict):
    """Both sub-scenarios' checks, plus the fault totals tests read."""

    incarnations: int = 0
    crashes_injected: int = 0
    reference_records: int = 0
    applied_records: int = 0
    quarantined_rows: int = 0
    poisoned_edge: str = ""
    breaker_state: str = ""
    breaker_opens: int = 0
    poisoned_refit_failures: int = 0
    poisoned_tier: str = ""
    rollbacks: int = 0
    refused_publishes: int = 0

    @property
    def title(self) -> str:
        return (f"stream chaos: {self.incarnations} incarnations, "
                f"{self.crashes_injected} injected crashes")


def _chaos_fit(task, poisoned=(), corrupt=(), seed=0):
    """Scenario fit function: instant synthetic fit, except the poisoned
    edges, which always crash (the stand-in for a worker dying), and the
    corrupt edges, which return a divergent model: every coefficient and
    the intercept are the largest finite float, so the model encodes
    cleanly but its probe predictions overflow to ±inf.  Top level so
    it pickles."""
    src, dst, _rows = task
    if (src, dst) in tuple(tuple(e) for e in poisoned):
        raise RuntimeError(f"poisoned refit for {src}->{dst}")
    result = dataclasses.replace(make_synthetic_model(seed), src=src, dst=dst)
    if (src, dst) in tuple(tuple(e) for e in corrupt):
        divergent = LinearRegression()
        big = np.finfo(np.float64).max
        divergent.coef_ = np.full_like(result.model.coef_, big)
        divergent.intercept_ = big
        result = dataclasses.replace(result, model=divergent)
    return result


def _corrupt_log(path: Path, n_transfers: int, n_endpoints: int,
                 seed: int) -> tuple[LogStore, QuarantineReport]:
    """Write the completion-ordered chaos log of ``seed`` to ``path`` as
    JSONL with every :data:`CORRUPT_EVERY`-th line corrupted; return
    what a lenient batch read keeps of it, and its quarantine report."""
    data = make_chaos_log(ChaosConfig(
        n_transfers=n_transfers, n_endpoints=n_endpoints, seed=seed)).raw()
    log = LogStore(np.sort(data, order="te", kind="stable"))
    write_corrupt_jsonl(log, path, every=CORRUPT_EVERY)
    return read_jsonl(path, strict=False)


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


def _attach_diagnosis(obs: Observability, path: Path) -> None:
    """Give ``obs`` a durable JSONL event sink at ``path`` (its seqs are
    checkpointed, so recovery must truncate and re-emit) and the
    alert-deterministic SLO engine over :func:`_chaos_slos`."""
    obs.events = EventLog(path=path, registry=obs.registry)
    obs.slo = SLOEngine(_chaos_slos(), registry=obs.registry,
                        events=obs.events)


def _supervisor(root: Path, obs: Observability, log: LogStore, seed: int,
                poisoned=(), corrupt=None, crash_hook=None
                ) -> StreamSupervisor:
    """One supervisor incarnation tailing ``root/transfers.jsonl`` with
    its state in ``root/state``, serving a fresh chain derived from
    ``log``.  ``corrupt`` maps each corrupt edge to its live model (every
    refit of it diverges); every refit of a ``poisoned`` edge raises."""
    chain = FallbackChain.from_log(log, edge_models=corrupt)
    tail = TailIngester(root / "transfers.jsonl", fmt="jsonl",
                        registry=obs.registry, seed=seed)
    controller = RetrainController(
        chain, obs.drift, policy=_policy(),
        fit_fn=partial(_chaos_fit, poisoned=poisoned,
                       corrupt=tuple(corrupt or ()), seed=seed),
        registry=obs.registry, tracer=obs.tracer, seed=seed,
    )
    return StreamSupervisor(
        tail, controller, root / "state", obs=obs,
        config=StreamConfig(
            poll_interval_s=0.0,
            max_backlog_records=4 * MAX_APPLY_PER_CYCLE,
            max_apply_per_cycle=MAX_APPLY_PER_CYCLE,
            checkpoint_every=1,
        ),
        sleep=lambda _s: None,
        crash_hook=crash_hook,
    )


def run_stream_chaos(
    config: StreamChaosConfig | None = None,
    work_dir: str | Path | None = None,
    obs: Observability | None = None,
) -> StreamChaosReport:
    cfg = config or StreamChaosConfig()
    report = StreamChaosReport()
    with _work_dir(work_dir, "repro-stream-chaos-") as work_dir:
        _scenario_crashes(cfg, work_dir / "a", report,
                          obs or Observability.create(trace=False))
        _scenario_resets(cfg, work_dir / "b", report)
    return report


# -- scenario A: crashes, poison, divergent publishes -------------------------


def _scenario_crashes(cfg: StreamChaosConfig, root: Path,
                      report: StreamChaosReport, obs: Observability) -> None:
    root.mkdir(parents=True, exist_ok=True)
    live = root / "transfers.jsonl"

    # The full corrupt file, pre-rendered so the reference is computable
    # up front; it reaches the live file in phased appends below.
    full = root / "full.jsonl"
    kept, quarantine = _corrupt_log(full, cfg.n_transfers, cfg.n_endpoints,
                                    cfg.seed)
    all_lines = full.read_text().splitlines(keepends=True)
    report.reference_records = len(kept)
    reference_digest = fold_digest("", kept.raw())

    edges = kept.heavy_edges(1)
    if not report.check("chaos log yields a poisoned and a corrupt edge",
                        len(edges) >= 2, f"{len(edges)} edges"):
        return
    poisoned_edge = tuple(edges[0])
    corrupt_edge = tuple(edges[1])
    report.poisoned_edge = f"{poisoned_edge[0]}->{poisoned_edge[1]}"

    base_model = dataclasses.replace(
        make_synthetic_model(cfg.seed),
        src=corrupt_edge[0], dst=corrupt_edge[1])

    events_path = root / "events.jsonl"
    _attach_diagnosis(obs, events_path)
    build = partial(_supervisor, log=kept, seed=cfg.seed,
                    poisoned=(poisoned_edge,),
                    corrupt={corrupt_edge: base_model})

    # The uninterrupted reference: one persistent supervisor in its own
    # directories following the exact same phased appends, never crashed,
    # never rebuilt.  Its alert ledger is what the crash-resumed run must
    # reproduce bit for bit.
    ref_root = root / "ref"
    ref_root.mkdir(parents=True, exist_ok=True)
    ref_live = ref_root / "transfers.jsonl"
    ref_obs = Observability.create(trace=False)
    _attach_diagnosis(ref_obs, ref_root / "events.jsonl")
    ref = build(ref_root, ref_obs)

    def crash_hook_for(stage: str):
        def hook(s):
            if s == stage:
                raise SimulatedCrash(f"injected at {s}")
        return hook

    for path in (live, ref_live):
        path.write_text("")
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
        for path in (live, ref_live):
            with path.open("a") as fh:
                fh.write(text)

        if phase < cfg.phases - 1:
            stage = CRASH_STAGES[phase % len(CRASH_STAGES)]
            victim = build(root, obs, crash_hook=crash_hook_for(stage))
            report.incarnations += 1
            try:
                victim.run(max_cycles=CYCLES_PER_INCARNATION)
            except SimulatedCrash:
                report.crashes_injected += 1
        survivor = build(root, obs)
        report.incarnations += 1
        survivor.run(max_cycles=CYCLES_PER_INCARNATION)
        final = survivor
        ref.run(max_cycles=CYCLES_PER_INCARNATION)

    report.check(
        "every scripted crash fired",
        report.crashes_injected == cfg.phases - 1,
        f"{report.crashes_injected} of {cfg.phases - 1} phases crashed")
    report.applied_records = final.applied_records
    report.check(
        "exactly-once ingestion",
        report.applied_records == report.reference_records > 0
        and final.applied_digest == reference_digest,
        f"applied {report.applied_records} / reference "
        f"{report.reference_records}, digest "
        f"{'match' if final.applied_digest == reference_digest else 'MISMATCH'}")
    report.quarantined_rows = (final.tail.report.total_rows
                               - final.tail.report.kept_rows)
    report.check(
        "tail quarantined what the batch reader quarantines",
        report.quarantined_rows
        == quarantine.total_rows - quarantine.kept_rows,
        f"{report.quarantined_rows} quarantined, reference "
        f"{quarantine.total_rows - quarantine.kept_rows}")

    # Breaker verdicts, from the surviving incarnation's restored state.
    breaker = final.controller.breaker(poisoned_edge)
    report.breaker_state = breaker.state.name
    report.breaker_opens = breaker.opens
    report.poisoned_refit_failures = breaker.failures
    scheduled = poisoned_edge in final.controller.due(final.data_now + 1e6)
    report.check(
        "circuit breaker opened",
        breaker.state is BreakerState.OPEN and breaker.opens >= 1
        and not scheduled,
        f"{report.poisoned_edge}: {breaker.state.name}, {breaker.opens} "
        f"opens, {breaker.failures} consecutive failures, "
        f"{'still' if scheduled else 'not'} scheduled")

    request = TransferRequest(
        src=poisoned_edge[0], dst=poisoned_edge[1],
        total_bytes=1e10, n_files=100, n_dirs=5,
        concurrency=2, parallelism=4,
    )
    try:
        prediction = final.predictor.predict_batch_detailed(
            [request], final.data_now)
        rate = float(prediction.rates[0])
        report.poisoned_tier = prediction.tiers[0].value
        report.check(
            "fallback serving",
            math.isfinite(rate) and rate > 0
            and report.poisoned_tier != ModelTier.EDGE.value,
            f"tier={report.poisoned_tier}, rate={rate:.4g} B/s")
    except Exception as exc:  # noqa: BLE001 - serving must not raise
        report.check("fallback serving", False, f"raised {exc!r}")

    # Never-unseat: the corrupt edge's live entry is the construction-time
    # object, every one of its publishes was refused at the probe gate.
    # The durable event sink counts the refusals the surviving history
    # committed (the fit never raises for this edge, so each failed
    # refit is a refused publish); the counter also counts those of
    # attempts a crash rolled back.
    sink = list(read_events(events_path))
    corrupt_label = f"{corrupt_edge[0]}->{corrupt_edge[1]}"
    report.refused_publishes = sum(
        1 for e in sink if e.category == "stream"
        and e.name == "refit_failed" and e.attrs.get("edge") == corrupt_label)
    report.rollbacks = int(
        obs.registry.flat().get("durability_rollback_total", 0))
    report.check(
        "live model never unseated",
        final.controller.chain.edge_models.get(corrupt_edge) is base_model
        and report.rollbacks >= 1 and report.refused_publishes >= 1,
        f"{corrupt_label}: {report.rollbacks} rollbacks over "
        f"{report.refused_publishes} refused publishes")

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
    fired = sum(1 for e in final.slo.alert_log if e["state"] == "firing")
    report.check("alert determinism: at least one alert fired", fired >= 1,
                 f"{fired} fired")
    report.check(
        "alert determinism: ledger equals the uninterrupted reference",
        crash_ledger == ref_ledger,
        f"{len(crash_ledger)} transitions vs reference {len(ref_ledger)}"
        + ("" if crash_ledger == ref_ledger
           else f": {crash_ledger} vs {ref_ledger}"))
    report.check(
        "alert determinism: SLO sample windows equal the reference",
        final.slo.state_dict()["samples"] == ref.slo.state_dict()["samples"])

    # The sink half of the proof: seqs strictly increasing (recovery
    # truncated every superseded tail) and the slo/alert events mirroring
    # the engine ledger one for one.
    seqs = [e.seq for e in sink]
    report.check(
        "alert determinism: event sink seqs strictly increasing",
        bool(seqs) and all(b > a for a, b in zip(seqs, seqs[1:])),
        f"{len(seqs)} events")
    sink_alerts = [
        (e.attrs.get("alert_seq"), e.attrs.get("slo"),
         e.attrs.get("state"), e.attrs.get("t"))
        for e in sink if e.category == "slo" and e.name == "alert"
    ]
    report.check(
        "alert determinism: sink alert events mirror the engine ledger",
        sink_alerts == crash_ledger,
        f"{len(sink_alerts)} alert events"
        + ("" if sink_alerts == crash_ledger
           else f": {sink_alerts} vs {crash_ledger}"))


# -- scenario B: truncation and rotation --------------------------------------


def _scenario_resets(cfg: StreamChaosConfig, root: Path,
                     report: StreamChaosReport) -> None:
    root.mkdir(parents=True, exist_ok=True)
    live = root / "transfers.jsonl"
    obs = Observability.create(trace=False)

    def content(seed: int, n: int) -> tuple[str, LogStore]:
        path = root / f"content-{seed}.jsonl"
        kept, _ = _corrupt_log(path, n, cfg.n_endpoints, seed)
        return path.read_text(), kept

    n = max(24, cfg.n_transfers // 5)
    text_a, kept_a = content(cfg.seed + 11, n)
    text_b, kept_b = content(cfg.seed + 13, max(12, n // 2))  # shorter
    text_c, kept_c = content(cfg.seed + 17, n)
    if not report.check(
            "rotation content no shorter than its predecessor",
            len(text_c) >= len(text_b),
            f"{len(text_c)} vs {len(text_b)} bytes"):
        return

    digest = fold_digest("", kept_a.raw())
    digest = fold_digest(digest, kept_b.raw())
    digest = fold_digest(digest, kept_c.raw())
    reference = len(kept_a) + len(kept_b) + len(kept_c)

    supervisor = _supervisor(root, obs, kept_a, cfg.seed)
    tail = supervisor.tail
    live.write_text(text_a)
    supervisor.run(max_cycles=CYCLES_PER_INCARNATION)
    # Truncation: the file shrinks below the committed offset.
    live.write_text(text_b)
    report.check(
        "truncation shrinks the file below the committed offset",
        live.stat().st_size < tail.offset,
        f"{live.stat().st_size} < {tail.offset} bytes")
    supervisor.run(max_cycles=CYCLES_PER_INCARNATION)
    # Rotation: same-or-larger size, different leading bytes.
    live.write_text(text_c)
    supervisor.run(max_cycles=CYCLES_PER_INCARNATION)

    flat = obs.registry.flat()
    truncations = int(
        flat.get('stream_tail_resets_total{reason="truncated"}', 0))
    rotations = int(flat.get('stream_tail_resets_total{reason="rotated"}', 0))
    report.check(
        "truncation/rotation resets exact",
        truncations >= 1 and rotations >= 1
        and supervisor.applied_records == reference
        and supervisor.applied_digest == digest,
        f"{truncations} truncations, {rotations} rotations, applied "
        f"{supervisor.applied_records} / {reference}, digest "
        f"{'match' if supervisor.applied_digest == digest else 'MISMATCH'}")
