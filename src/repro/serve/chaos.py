"""Chaos-replay fault injection for the serving engine.

§4.3 of the paper is devoted to log imperfections and §5.3 shows faults
are load-coupled — a serving layer fed by real Globus telemetry will see
duplicated events, impossible values, and clocks that disagree.  This
harness replays a synthetic transfer log through the live serving stack
(:class:`~repro.serve.active_set.ActiveSet` +
:class:`~repro.serve.batch.BatchOnlinePredictor` over a
:class:`~repro.serve.fallback.FallbackChain`) while injecting exactly
those faults:

- duplicate ``add``/``complete`` events and completions for ids that were
  never started (at-least-once delivery);
- progress reports carrying NaN, negative, or infinite rates;
- transfers whose completion event never arrives;
- clock skew between the predictor's ``now`` and the event timestamps;
- prediction batches mixing known edges, modeled edges, and ghost edges
  that appear in no log.

Throughout, the harness asserts the engine stays consistent — the active
population matches the replay's ground truth, every prediction is finite
and positive, memory stays bounded by the injected load — and reports
everything in a :class:`ChaosReport`, including per-tier prediction
counts and fix-point non-convergence (``repro-tools chaos [--quick]``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.analytical import estimate_endpoint_maxima
from repro.core.online import ActiveTransferView
from repro.core.pipeline import GlobalFeatureAdapter
from repro.logs.io import QuarantineReport, read_jsonl
from repro.logs.schema import LOG_DTYPE, TransferLogRecord
from repro.logs.store import LogStore
from repro.obs import Observability
from repro.serve import mutation
from repro.serve.active_set import ActiveSet
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.fallback import FallbackChain
from repro.serve.fixtures import (
    make_synthetic_global_model,
    make_synthetic_model,
    make_synthetic_requests,
)
from repro.serve.mutation import ServingState
from repro.sim.gridftp import TransferRequest

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "CrashReport",
    "ObservedReplay",
    "make_chaos_log",
    "make_chaos_chain",
    "make_chaos_requests",
    "make_durable_events",
    "run_chaos_replay",
    "run_crash_replay",
    "write_corrupt_jsonl",
    "run_observed_replay",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Replay size, fault-injection probabilities, and engine mode."""

    n_transfers: int = 400
    n_endpoints: int = 12
    horizon_s: float = 4000.0
    seed: int = 0
    # Fault-injection probabilities, each applied per opportunity.
    p_duplicate_add: float = 0.05
    p_duplicate_complete: float = 0.10
    p_unknown_complete: float = 0.10
    p_never_complete: float = 0.05
    p_bad_progress: float = 0.10
    p_good_progress: float = 0.15
    clock_skew_s: float = 120.0
    # Prediction cadence.
    predict_every: int = 25
    batch_size: int = 8
    n_edge_models: int = 3
    # Drop the global tier so known-but-unmodeled edges exercise the
    # analytical Eq. 1 bound instead (the global model otherwise covers
    # every endpoint the analytical tier could).
    use_global_model: bool = True
    # Engine mode: lenient ActiveSet absorbs faults silently (counted in
    # stats); strict raises, and the harness counts the rejections instead.
    lenient: bool = True

    def __post_init__(self) -> None:
        if self.n_transfers < 1 or self.n_endpoints < 4:
            raise ValueError("need >= 1 transfer and >= 4 endpoints")
        for name in (
            "p_duplicate_add", "p_duplicate_complete", "p_unknown_complete",
            "p_never_complete", "p_bad_progress", "p_good_progress",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.predict_every < 1 or self.batch_size < 1:
            raise ValueError("predict_every and batch_size must be >= 1")

    @classmethod
    def quick(cls, seed: int = 0) -> "ChaosConfig":
        """A seconds-scale configuration for CI smoke runs."""
        return cls(n_transfers=120, n_endpoints=8, horizon_s=1500.0,
                   seed=seed, predict_every=15, batch_size=6)


@dataclass
class ChaosReport:
    """Everything one chaos-replay run observed.

    ``ok`` requires: no unexpected exceptions, no NaN/non-finite/
    non-positive predictions, and a final active population exactly
    matching the replay's ground truth (bounded memory: nothing leaks past
    the injected never-completing transfers).
    """

    events: int = 0
    prediction_batches: int = 0
    predictions: int = 0
    injected: dict[str, int] = field(default_factory=dict)
    rejected_strict: int = 0
    bad_predictions: int = 0
    nonconverged: int = 0
    never_completed: int = 0
    max_active: int = 0
    final_active: int = 0
    expected_active: int = 0
    consistent: bool = False
    tier_counts: dict[str, int] = field(default_factory=dict)
    predictor_stats: dict[str, float] = field(default_factory=dict)
    active_stats: dict[str, int] = field(default_factory=dict)
    drift: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.consistent and self.bad_predictions == 0 and not self.errors

    def render(self) -> str:
        lines = [
            f"chaos replay: {self.events} events, "
            f"{self.prediction_batches} prediction batches "
            f"({self.predictions} predictions)",
            f"verdict                   {'OK' if self.ok else 'FAILED'}",
            f"bad (non-finite) preds    {self.bad_predictions}",
            f"nonconverged preds        {self.nonconverged}",
            f"active population         final {self.final_active} / "
            f"expected {self.expected_active} (max {self.max_active}) "
            f"{'consistent' if self.consistent else 'INCONSISTENT'}",
            f"never-completing leaked   {self.never_completed}",
            f"strict-mode rejections    {self.rejected_strict}",
            "injected faults:",
        ]
        for k in sorted(self.injected):
            lines.append(f"  {k:<24}{self.injected[k]}")
        lines.append("prediction tiers:")
        for k, v in sorted(self.tier_counts.items()):
            lines.append(f"  {k:<24}{v}")
        lines.append("active-set stats:")
        for k, v in self.active_stats.items():
            lines.append(f"  {k:<24}{v}")
        if self.drift:
            overall = self.drift.get("overall", {})
            lines.append(
                f"prediction drift          "
                f"{self.drift.get('observations', 0)} scored, "
                f"MdAPE {overall.get('mdape', float('nan')):.1f}% "
                f"p95 {overall.get('p95_ape', float('nan')):.1f}% "
                f"bias {overall.get('bias_pct', float('nan')):+.1f}%"
            )
        for e in self.errors:
            lines.append(f"error: {e}")
        return "\n".join(lines)


def make_chaos_log(config: ChaosConfig) -> LogStore:
    """A reproducible synthetic completed-transfer log to replay."""
    rng = np.random.default_rng(config.seed)
    eps = [f"EP{i:03d}" for i in range(config.n_endpoints)]
    records = []
    for i in range(config.n_transfers):
        s, d = rng.choice(len(eps), size=2, replace=False)
        ts = float(rng.uniform(0.0, config.horizon_s * 0.75))
        te = ts + float(rng.uniform(10.0, config.horizon_s * 0.25))
        records.append(
            TransferLogRecord(
                transfer_id=i,
                src=eps[s],
                dst=eps[d],
                src_site=f"SITE{s}",
                dst_site=f"SITE{d}",
                src_type="GCS",
                dst_type="GCS",
                ts=ts,
                te=te,
                nb=float(rng.uniform(1e8, 1e12)),
                nf=int(rng.integers(1, 2000)),
                nd=int(rng.integers(1, 40)),
                c=int(rng.choice([1, 2, 4, 8])),
                p=int(rng.choice([1, 4, 8])),
                nflt=int(rng.integers(0, 4)),
                distance_km=float(rng.uniform(50.0, 9000.0)),
            )
        )
    return LogStore.from_records(records)


def make_chaos_chain(log: LogStore, config: ChaosConfig) -> FallbackChain:
    """A full five-tier chain over the replay log: synthetic per-edge
    models for the busiest edges, a synthetic global model fed by
    log-estimated endpoint capabilities, and log-derived analytical
    bounds and medians."""
    base = make_synthetic_model(config.seed)
    edges = log.heavy_edges(1)[: config.n_edge_models]
    edge_models = {
        (s, d): dataclasses.replace(base, src=s, dst=d) for s, d in edges
    }
    maxima = estimate_endpoint_maxima(log) if len(log) else {}
    return FallbackChain.from_log(
        log,
        edge_models=edge_models,
        global_model=(
            make_synthetic_global_model(config.seed)
            if config.use_global_model
            else None
        ),
        global_adapter=GlobalFeatureAdapter.from_endpoint_maxima(maxima),
    )


def _view_from_row(row) -> ActiveTransferView:
    return ActiveTransferView(
        src=str(row["src"]),
        dst=str(row["dst"]),
        rate=float(row["nb"]) / (float(row["te"]) - float(row["ts"])),
        started_at=float(row["ts"]),
        expected_end=float(row["te"]),
        concurrency=int(row["c"]),
        parallelism=int(row["p"]),
        n_files=int(row["nf"]),
    )


def make_chaos_requests(
    rng: np.random.Generator, n: int, chain: FallbackChain, log: LogStore
) -> list[TransferRequest]:
    """``n`` prediction requests deliberately spanning the tiers: modeled
    edges, known-but-unmodeled edges, half-known edges, and ghost edges
    (endpoints that appear nowhere in ``log``)."""
    modeled = sorted(chain.edge_models)
    log_endpoints = sorted({str(e) for pair in log.edges() for e in pair})
    requests = []
    for _ in range(n):
        kind = rng.choice(4)
        if kind == 0 and modeled:
            src, dst = modeled[int(rng.integers(len(modeled)))]
        elif kind == 1:
            src, dst = rng.choice(log_endpoints, size=2, replace=False)
        elif kind == 2:
            src = str(rng.choice(log_endpoints))
            dst = f"GHOST-{int(rng.integers(100))}"
        else:
            src = f"GHOST-{int(rng.integers(100))}"
            dst = f"GHOST-{int(rng.integers(100, 200))}"
        requests.append(
            TransferRequest(
                src=str(src),
                dst=str(dst),
                total_bytes=float(rng.uniform(1e8, 1e12)),
                n_files=int(rng.integers(1, 1000)),
                n_dirs=int(rng.integers(1, 20)),
                concurrency=int(rng.choice([2, 4])),
                parallelism=int(rng.choice([4, 8])),
            )
        )
    return requests


def run_chaos_replay(
    config: ChaosConfig | None = None,
    obs: Observability | None = None,
    log: LogStore | None = None,
    progress=None,
    progress_every: int = 0,
) -> ChaosReport:
    """Replay a synthetic log through the serving stack under fault
    injection; see the module docstring for the fault menu.

    With an :class:`~repro.obs.Observability` bundle the whole stack
    instruments itself through its registry, and — when the bundle has a
    drift monitor — every transfer is additionally *scored*: its rate is
    predicted at submission time (just before its start event mutates the
    active set) and compared against the realized ``nb / (te - ts)`` when
    its completion arrives, feeding the rolling per-edge / per-tier MdAPE
    gauges.  The scoring probes consume no replay randomness, so runs with
    and without ``obs`` inject the identical fault sequence.

    ``log`` substitutes a caller-supplied store (e.g. the kept rows of a
    lenient ingest) for the freshly synthesized chaos log.  ``progress``
    (with ``progress_every > 0``) is called with the live, still-mutating
    report every ``progress_every`` events — the hook behind the CLI's
    ``--watch`` replay summaries.
    """
    cfg = config or ChaosConfig()
    rng = np.random.default_rng(cfg.seed + 1)
    log = log if log is not None else make_chaos_log(cfg)
    chain = make_chaos_chain(log, cfg)
    active = ActiveSet(lenient=cfg.lenient, obs=obs)
    engine = BatchOnlinePredictor(chain, active, obs=obs)
    drift = obs.drift if obs is not None else None
    pending_scores: dict[int, tuple[str, str, object, float]] = {}

    data = log.raw()
    events: list[tuple[float, int, int]] = []  # (time, kind 0=start/1=end, row)
    for i in range(len(data)):
        events.append((float(data["ts"][i]), 0, i))
        events.append((float(data["te"][i]), 1, i))
    events.sort()

    report = ChaosReport()
    inj = report.injected
    started: set[int] = set()
    completed: set[int] = set()
    never: set[int] = set()

    def bump(key: str) -> None:
        inj[key] = inj.get(key, 0) + 1

    def faulty(fn) -> None:
        """Run one injected-fault mutation; strict mode rejects by raising."""
        try:
            fn()
        except (KeyError, ValueError):
            report.rejected_strict += 1

    def score_start(t: float, i: int, tid: int) -> None:
        """Predict the starting transfer's rate (submission-time view:
        before its own start event lands in the active set)."""
        row = data[i]
        req = TransferRequest(
            src=str(row["src"]),
            dst=str(row["dst"]),
            total_bytes=float(row["nb"]),
            n_files=int(row["nf"]),
            n_dirs=int(row["nd"]),
            concurrency=int(row["c"]),
            parallelism=int(row["p"]),
        )
        try:
            pred = engine.predict_batch_detailed([req], t)
        except Exception:  # noqa: BLE001 - scoring must never sink the replay
            return
        rate = float(pred.rates[0])
        if math.isfinite(rate) and rate >= 0:
            pending_scores[tid] = (req.src, req.dst, pred.tiers[0], rate)

    def score_complete(i: int, tid: int) -> None:
        scored = pending_scores.pop(tid, None)
        if scored is None:
            return
        src, dst, tier, predicted = scored
        row = data[i]
        elapsed = float(row["te"]) - float(row["ts"])
        if elapsed <= 0 or float(row["nb"]) <= 0:
            return
        drift.record(src, dst, tier, predicted, float(row["nb"]) / elapsed)

    for n_event, (t, kind, i) in enumerate(events, 1):
        tid = int(data["transfer_id"][i])
        if kind == 0:
            if drift is not None:
                score_start(t, i, tid)
            active.add(tid, _view_from_row(data[i]))
            started.add(tid)
            if rng.random() < cfg.p_duplicate_add:
                bump("duplicate_add")
                faulty(lambda: active.add(tid, _view_from_row(data[i])))
        else:
            if rng.random() < cfg.p_never_complete:
                never.add(tid)
            else:
                active.complete(tid)
                completed.add(tid)
                if drift is not None:
                    score_complete(i, tid)
                if rng.random() < cfg.p_duplicate_complete:
                    bump("duplicate_complete")
                    faulty(lambda: active.complete(tid))
            if rng.random() < cfg.p_unknown_complete:
                bump("unknown_complete")
                faulty(lambda: active.complete(10**9 + tid))
        if rng.random() < cfg.p_bad_progress and len(active):
            ids = active.ids()
            victim = int(ids[int(rng.integers(len(ids)))])
            bad = float(rng.choice([np.nan, -1e8, np.inf]))
            bump("bad_progress")
            faulty(lambda: active.progress(victim, rate=bad))
        if rng.random() < cfg.p_good_progress and len(active):
            ids = active.ids()
            victim = int(ids[int(rng.integers(len(ids)))])
            active.progress(victim, rate=float(rng.uniform(1e6, 5e8)))

        report.events = n_event
        report.max_active = max(report.max_active, len(active))
        if progress is not None and progress_every \
                and n_event % progress_every == 0:
            report.final_active = len(active)
            progress(report)

        if n_event % cfg.predict_every == 0:
            now = t + float(rng.uniform(-cfg.clock_skew_s, cfg.clock_skew_s))
            batch = make_chaos_requests(rng, cfg.batch_size, chain, log)
            try:
                pred = engine.predict_batch_detailed(batch, now)
            except Exception as exc:  # noqa: BLE001 - the whole point
                report.errors.append(
                    f"predict_batch raised at event {n_event}: {exc!r}"
                )
                continue
            report.prediction_batches += 1
            report.predictions += len(batch)
            finite = np.isfinite(pred.rates) & (pred.rates > 0)
            report.bad_predictions += int((~finite).sum())

    expected = started - completed
    actual = set(active.ids())
    report.final_active = len(actual)
    report.expected_active = len(expected)
    report.never_completed = len(never & actual)
    report.consistent = actual == expected
    if not report.consistent:
        leaked = sorted(actual - expected)[:5]
        missing = sorted(expected - actual)[:5]
        report.errors.append(
            f"active population diverged: leaked {leaked}, missing {missing}"
        )
    report.nonconverged = engine.stats.nonconverged_requests
    report.tier_counts = dict(engine.stats.tier_counts)
    report.predictor_stats = engine.stats.as_dict()
    report.active_stats = active.stats.as_dict()
    if drift is not None:
        report.drift = drift.snapshot()
    return report


# Cycled through by write_corrupt_jsonl, one fault per corrupted line.
_JSONL_FAULTS = ("truncated_json", "not_object", "missing_field", "invariant")


def write_corrupt_jsonl(
    store: LogStore, path: str | Path, every: int = 7
) -> int:
    """Write ``store`` as JSONL with every ``every``-th line corrupted.

    Deterministic (the fault kind cycles through :data:`_JSONL_FAULTS` in
    row order, no RNG), so a given store always yields the same corrupt
    file — the ingestion half of the observed-replay pipeline stays as
    reproducible as the replay half.  Returns the number of corrupted
    lines.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    path = Path(path)
    data = store.raw()
    corrupted = 0
    with path.open("w") as fh:
        for i in range(len(data)):
            obj = {name: data[i][name].item() for name in LOG_DTYPE.names}
            if (i + 1) % every == 0:
                fault = _JSONL_FAULTS[corrupted % len(_JSONL_FAULTS)]
                corrupted += 1
                if fault == "truncated_json":
                    fh.write(json.dumps(obj)[:-9] + "\n")
                    continue
                if fault == "not_object":
                    fh.write(json.dumps([obj["transfer_id"]]) + "\n")
                    continue
                if fault == "missing_field":
                    del obj["nb"], obj["te"]
                else:  # invariant: finished before it started
                    obj["te"] = obj["ts"] - 1.0
            fh.write(json.dumps(obj) + "\n")
    return corrupted


@dataclass
class ObservedReplay:
    """The observed-replay pipeline's artifacts: the chaos report, the
    ingestion quarantine report, and the shared observability bundle whose
    registry holds every metric the run produced."""

    report: ChaosReport
    quarantine: QuarantineReport
    obs: Observability

    @property
    def registry(self):
        return self.obs.registry


def run_observed_replay(
    config: ChaosConfig | None = None,
    path: str | Path | None = None,
    obs: Observability | None = None,
    corrupt_every: int = 7,
    progress=None,
    progress_every: int = 0,
) -> ObservedReplay:
    """The full telemetry-to-metrics pipeline in one call: synthesize a
    chaos log, write it as JSONL with injected corruption, lenient-ingest
    it (quarantine counters land in the registry), then chaos-replay the
    kept rows with drift scoring.  One metrics export afterwards carries
    predictor latency histograms, fallback-tier counters, ingestion
    quarantine counts, and per-edge rolling MdAPE.

    ``path`` is where the corrupt JSONL goes (a temp file when omitted).
    """
    cfg = config or ChaosConfig()
    bundle = obs if obs is not None else Observability.create()
    log = make_chaos_log(cfg)
    if path is None:
        import tempfile

        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", delete=False
        ) as tmp:
            path = tmp.name
    write_corrupt_jsonl(log, path, every=corrupt_every)
    kept, quarantine = read_jsonl(
        path, strict=False, registry=bundle.registry, tracer=bundle.tracer
    )
    report = run_chaos_replay(cfg, obs=bundle, log=kept,
                              progress=progress, progress_every=progress_every)
    return ObservedReplay(report=report, quarantine=quarantine, obs=bundle)


# -- crash injection ----------------------------------------------------------
#
# The crash-injection mode exercises the durability layer the same way the
# fault-injection mode exercises the lenient serving engine: a deterministic
# stream of mutation records is fed through a journaled DurableServingState,
# the process is "killed" at an arbitrary event — with the journal tail torn
# at an arbitrary byte offset, and optionally the newest snapshot corrupted —
# then recovery plus re-delivery of the unacknowledged suffix must
# reproduce, bit for bit, the state of a journal-free ServingState twin fed
# the whole stream.


def make_durable_events(config: ChaosConfig) -> list[list]:
    """A reproducible stream of mutation records (:mod:`repro.serve.mutation`).

    Pure function of ``config`` (fresh RNG, no shared state), so the
    crashed run, the recovery's re-delivery, and the uninterrupted
    reference all see the identical stream — and a run with journaling
    enabled consumes exactly the same randomness as one without, keeping
    replays bit-identical either way.

    The stream mirrors the fault-injection replay's menu as mutation
    records: ``add`` (with duplicates), good and NaN/negative ``progress``,
    ``complete`` (with duplicates, unknown ids, and never-completing
    transfers), and ``drift`` observations scoring each completion
    against a pseudo-prediction.
    """
    log = make_chaos_log(config)
    rng = np.random.default_rng(config.seed + 3)
    data = log.raw()
    timeline: list[tuple[float, int, int]] = []
    for i in range(len(data)):
        timeline.append((float(data["ts"][i]), 0, i))
        timeline.append((float(data["te"][i]), 1, i))
    timeline.sort()

    tiers = ("edge", "global", "analytical", "median", "default")
    events: list[list] = []
    live: list[int] = []  # generator-side mirror of the active population

    for t, kind, i in timeline:
        tid = int(data["transfer_id"][i])
        row = data[i]
        if kind == 0:
            add = mutation.add(tid, _view_from_row(row))
            events.append(add)
            live.append(tid)
            if rng.random() < config.p_duplicate_add:
                events.append(add)
        else:
            if rng.random() < config.p_never_complete:
                pass  # its completion event never arrives
            else:
                events.append(mutation.complete(tid))
                if tid in live:
                    live.remove(tid)
                realized = float(row["nb"]) / (float(row["te"]) - float(row["ts"]))
                events.append(mutation.drift(
                    row["src"], row["dst"],
                    tiers[int(rng.integers(len(tiers)))],
                    realized * float(rng.uniform(0.7, 1.3)),
                    realized,
                ))
                if rng.random() < config.p_duplicate_complete:
                    events.append(mutation.complete(tid))
            if rng.random() < config.p_unknown_complete:
                events.append(mutation.complete(10**9 + tid))
        if rng.random() < config.p_bad_progress and live:
            victim = live[int(rng.integers(len(live)))]
            bad = float(rng.choice([np.nan, -1e8, np.inf]))
            events.append(mutation.progress(victim, rate=bad))
        if rng.random() < config.p_good_progress and live:
            victim = live[int(rng.integers(len(live)))]
            events.append(mutation.progress(
                victim, rate=float(rng.uniform(1e6, 5e8))))
    return events


def _corrupt_file(path: Path) -> None:
    """Flip one byte in the middle of ``path`` (a no-op on empty files)."""
    blob = bytearray(path.read_bytes())
    if blob:
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))


def _drift_gauges(registry) -> dict[str, float]:
    return {k: v for k, v in registry.flat().items() if k.startswith("drift_")}


@dataclass
class CrashReport:
    """One crash-injection trial: kill, tear, recover, prove equivalence.

    ``ok`` is the acceptance property: after recovery plus re-delivery of
    the unacknowledged suffix, the active population, the drift windows,
    every ``drift_*`` metric, and the predictions served off the
    recovered state are *identical* to an uninterrupted run.
    """

    events_total: int = 0
    kill_after: int = 0
    cut_bytes: int = 0
    corrupt_snapshot: bool = False
    recovery: dict = field(default_factory=dict)
    resumed_events: int = 0
    fingerprint_equal: bool = False
    drift_gauges_equal: bool = False
    predictions_equal: bool = False
    probe_predictions: int = 0
    max_prediction_delta: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.fingerprint_equal
            and self.drift_gauges_equal
            and self.predictions_equal
            and not self.errors
        )

    def render(self) -> str:
        lines = [
            f"crash replay: killed after {self.kill_after}/{self.events_total} "
            f"events, journal tail torn by {self.cut_bytes} bytes"
            + (", newest snapshot corrupted" if self.corrupt_snapshot else ""),
            f"verdict                   {'OK' if self.ok else 'FAILED'}",
            f"recovered from snapshot   "
            f"gen {self.recovery.get('snapshot_generation', 0)} "
            f"({self.recovery.get('snapshot_fallbacks', 0)} fallbacks)",
            f"journal records replayed  "
            f"{self.recovery.get('replayed_records', 0)} "
            f"(+{self.resumed_events} re-delivered)",
            f"torn bytes truncated      "
            f"{self.recovery.get('truncated_bytes', 0)}",
            f"active population equal   {self.fingerprint_equal}",
            f"drift gauges equal        {self.drift_gauges_equal}",
            f"predictions equal         {self.predictions_equal} "
            f"(max |delta| {self.max_prediction_delta:.3g} B/s over "
            f"{self.probe_predictions} probes)",
        ]
        for e in self.errors:
            lines.append(f"error: {e}")
        return "\n".join(lines)


def run_crash_replay(
    config: ChaosConfig | None = None,
    state_dir: str | Path | None = None,
    kill_after_events: int | None = None,
    cut_bytes: int = 17,
    corrupt_snapshot: bool = False,
    snapshot_every: int = 64,
    probe_requests: int = 32,
    obs: Observability | None = None,
) -> CrashReport:
    """One full crash-injection trial against the durability layer.

    1. Run the uninterrupted reference: the full event stream through a
       journal-free :class:`~repro.serve.mutation.ServingState` (this
       also proves journaling consumes no replay randomness — both runs
       share one stream).
    2. Run the durable process: the stream up to ``kill_after_events``
       through a journaled :class:`~repro.serve.durability.DurableServingState`
       (auto-snapshotting every ``snapshot_every`` records), then kill it.
    3. Injure the disk like a real crash would: tear ``cut_bytes`` off
       the journal tail (a write killed at an arbitrary byte offset);
       with ``corrupt_snapshot``, also flip a byte inside the newest
       snapshot so recovery must fall back a generation.
    4. Recover, re-deliver every event after the recovered ``last_seq``
       (the unacknowledged suffix a real event source would re-send),
       and require the result to be indistinguishable from (1).
    """
    from repro.serve.durability import DurabilityConfig, recover_serving_state

    cfg = config or ChaosConfig()
    events = make_durable_events(cfg)
    # Default kill point: ~60% through the stream — late enough that
    # several snapshot generations exist, early enough that a meaningful
    # suffix must be re-delivered.
    kill = (len(events) * 3) // 5 if kill_after_events is None \
        else int(kill_after_events)
    kill = max(0, min(kill, len(events)))
    report = CrashReport(
        events_total=len(events),
        kill_after=kill,
        cut_bytes=int(cut_bytes),
        corrupt_snapshot=bool(corrupt_snapshot),
    )

    cleanup = None
    if state_dir is None:
        import tempfile

        cleanup = tempfile.TemporaryDirectory(prefix="repro-crash-")
        state_dir = cleanup.name
    state_dir = Path(state_dir)
    try:
        # 1. uninterrupted reference (no journal).
        reference = ServingState(lenient=cfg.lenient)
        for event in events:
            reference.apply(event)

        # 2. the durable process, killed mid-stream.
        durability = DurabilityConfig(snapshot_every=snapshot_every)
        victim, _ = recover_serving_state(
            state_dir, lenient=cfg.lenient, config=durability)
        for event in events[:kill]:
            victim.apply(event)
        wal_path = victim._wal_path(victim.generation)
        victim.close()  # every append already flushed; the tear is below

        # 3. injure the disk.
        if cut_bytes and wal_path.exists():
            size = wal_path.stat().st_size
            cut = min(int(cut_bytes), size)
            with wal_path.open("r+b") as fh:
                fh.truncate(size - cut)
        if corrupt_snapshot:
            generations = victim.snapshots.generations()
            if generations:
                _corrupt_file(victim.snapshots.path_for(generations[-1]))

        # 4. recover and re-deliver the unacknowledged suffix.
        bundle = obs if obs is not None else Observability.create(trace=False)
        recovered, recovery = recover_serving_state(
            state_dir, obs=bundle, lenient=cfg.lenient, config=durability)
        report.recovery = recovery.as_dict()
        resume_from = recovery.last_seq
        if resume_from > kill:
            report.errors.append(
                f"journal acknowledged {resume_from} records but only "
                f"{kill} events were delivered"
            )
            resume_from = kill
        for event in events[resume_from:]:
            recovered.apply(event)
        report.resumed_events = len(events) - resume_from

        # -- the equivalence proof ---------------------------------------
        report.fingerprint_equal = (
            recovered.state_fingerprint() == reference.state_fingerprint()
        )
        report.drift_gauges_equal = (
            _drift_gauges(recovered.registry)
            == _drift_gauges(reference.registry)
        )
        log = make_chaos_log(cfg)
        chain = make_chaos_chain(log, cfg)
        requests = make_synthetic_requests(
            probe_requests, n_endpoints=cfg.n_endpoints, seed=cfg.seed + 9)
        now = cfg.horizon_s
        ref_rates = BatchOnlinePredictor(
            chain, reference.active).predict_batch(requests, now)
        rec_rates = BatchOnlinePredictor(
            chain, recovered.active).predict_batch(requests, now)
        report.probe_predictions = len(requests)
        report.predictions_equal = bool(np.array_equal(ref_rates, rec_rates))
        deltas = np.abs(ref_rates - rec_rates)
        report.max_prediction_delta = float(deltas.max()) if deltas.size else 0.0
        recovered.close()
        return report
    finally:
        if cleanup is not None:
            cleanup.cleanup()
