"""Fault injection for the serving engine, and the verdict every fault
harness reports in.

§4.3 of the paper is devoted to log imperfections and §5.3 shows faults
are load-coupled — a serving layer fed by real Globus telemetry will see
duplicated events, impossible values, and clocks that disagree.  One
seeded stream of mutation records, :func:`make_durable_events`, carries
that fault menu for every serving-state layer:

- duplicate ``add``/``complete`` records and completions for ids that
  were never started (at-least-once delivery);
- progress reports carrying NaN, negative, or infinite rates;
- transfers whose completion never arrives;
- ``drift`` records scoring each completion.

:func:`fault_menu` classifies what a stream carries.  The serve replay
(:func:`run_chaos_replay`, ``repro-tools chaos``) applies the stream to
the live serving stack (:class:`~repro.serve.mutation.ServingState` under
a :class:`~repro.serve.batch.BatchOnlinePredictor` over a
:class:`~repro.serve.fallback.FallbackChain`) while predicting batches
that mix modeled, known and ghost edges at a skewed clock; crash replay
(:func:`run_crash_replay`, ``repro-tools state verify``) kills a journaled
state mid-stream; shard chaos replays it through a sharded cluster.

Every harness reports a :class:`Verdict`: named pass/fail checks, each
recorded where its fact is computed, rendered one line per check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import tempfile
from collections import Counter
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
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.fallback import FallbackChain
from repro.serve.fixtures import (
    make_synthetic_global_model,
    make_synthetic_model,
)
from repro.serve.mutation import ServingState
from repro.sim.gridftp import TransferRequest

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "CrashReport",
    "ObservedReplay",
    "Verdict",
    "check_fault_menu",
    "fault_menu",
    "make_chaos_log",
    "make_chaos_chain",
    "make_chaos_requests",
    "make_durable_events",
    "run_chaos_replay",
    "run_crash_replay",
    "write_corrupt_jsonl",
    "run_observed_replay",
]


# Fault-injection probabilities of the fault stream, each applied per
# opportunity (make_durable_events).
P_DUPLICATE_ADD = 0.05
P_DUPLICATE_COMPLETE = 0.10
P_UNKNOWN_COMPLETE = 0.10
P_NEVER_COMPLETE = 0.05
P_BAD_PROGRESS = 0.10
P_GOOD_PROGRESS = 0.15
# The serve replay predicts at the newest started_at skewed by up to this.
CLOCK_SKEW_S = 120.0
# Busiest edges the chaos chain gives a synthetic per-edge model.
N_EDGE_MODELS = 3


@dataclass(frozen=True)
class ChaosConfig:
    """Replay size, prediction cadence, and engine mode."""

    n_transfers: int = 400
    n_endpoints: int = 12
    horizon_s: float = 4000.0
    seed: int = 0
    # Prediction cadence.
    predict_every: int = 25
    batch_size: int = 8
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
        if self.predict_every < 1 or self.batch_size < 1:
            raise ValueError("predict_every and batch_size must be >= 1")

    @classmethod
    def quick(cls, seed: int = 0) -> "ChaosConfig":
        """A seconds-scale configuration for CI smoke runs."""
        return cls(n_transfers=120, n_endpoints=8, horizon_s=1500.0,
                   seed=seed, predict_every=15, batch_size=6)


@dataclass
class Verdict:
    """Named pass/fail checks: the report format of every fault harness.

    A harness records each condition with :meth:`check` where it computes
    the fact; a subclass adds only the typed facts callers read and a
    ``title``.  ``ok`` holds iff at least one check ran and all
    passed.
    """

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.checks if not c[1]]

    def as_dict(self) -> dict:
        facts = {f.name: getattr(self, f.name)
                 for f in dataclasses.fields(self) if f.name != "checks"}
        return {"ok": self.ok, **facts,
                "checks": [list(c) for c in self.checks]}

    def render(self) -> str:
        lines = [self.title,
                 f"verdict                   {'OK' if self.ok else 'FAILED'}"]
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"  [{mark}] {name}" + (f"  {detail}" if detail else ""))
        return "\n".join(lines)


@dataclass
class ChaosReport(Verdict):
    """One serve replay: records applied, predictions served, the faults
    the stream carried and how the engine counted them."""

    events: int = 0
    predictions: int = 0
    final_active: int = 0
    rejected_strict: int = 0
    injected: dict[str, int] = field(default_factory=dict)
    tier_counts: dict[str, int] = field(default_factory=dict)
    active_stats: dict[str, int] = field(default_factory=dict)
    drift: dict = field(default_factory=dict)

    @property
    def title(self) -> str:
        return (f"chaos replay: {self.events} records, "
                f"{self.predictions} predictions")


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
    edges = log.heavy_edges(1)[:N_EDGE_MODELS]
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


def make_durable_events(
    config: ChaosConfig, log: LogStore | None = None
) -> list[list]:
    """The fault stream: a reproducible list of mutation records
    (:mod:`repro.serve.mutation`) replaying ``log`` (default: the chaos
    log of ``config``) in time order.

    Pure function of its arguments (fresh RNG, no shared state), so the
    crashed run, the recovery's re-delivery, the uninterrupted reference
    and every harness see the identical stream.

    The records mirror each transfer's life: ``add`` (with duplicates),
    good and NaN/±inf/negative ``progress``, ``complete`` (with
    duplicates, unknown ids, and never-completing transfers), and a
    ``drift`` record scoring each completion against a pseudo-prediction.
    """
    log = log if log is not None else make_chaos_log(config)
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

    for _, kind, i in timeline:
        tid = int(data["transfer_id"][i])
        row = data[i]
        if kind == 0:
            add = mutation.add(tid, _view_from_row(row))
            events.append(add)
            live.append(tid)
            if rng.random() < P_DUPLICATE_ADD:
                events.append(add)
        else:
            # A never-completing transfer's completion never arrives.
            if rng.random() >= P_NEVER_COMPLETE:
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
                if rng.random() < P_DUPLICATE_COMPLETE:
                    events.append(mutation.complete(tid))
            if rng.random() < P_UNKNOWN_COMPLETE:
                events.append(mutation.complete(10**9 + tid))
        if rng.random() < P_BAD_PROGRESS and live:
            victim = live[int(rng.integers(len(live)))]
            bad = float(rng.choice([np.nan, -1e8, np.inf]))
            events.append(mutation.progress(victim, rate=bad))
        if rng.random() < P_GOOD_PROGRESS and live:
            victim = live[int(rng.integers(len(live)))]
            events.append(mutation.progress(
                victim, rate=float(rng.uniform(1e6, 5e8))))
    return events


# Faults a serving state must refuse, one count each; never_complete is
# an absence, so no state can refuse it.
REFUSED_FAULTS = ("duplicate_add", "duplicate_complete", "unknown_complete",
                  "bad_progress")


def fault_menu(events: list[list]) -> dict[str, int]:
    """Count the faults a mutation-record stream carries.

    ``duplicate_add``: an add for a transfer already live;
    ``duplicate_complete``: a complete for one already completed;
    ``unknown_complete``: a complete for one never added;
    ``never_complete``: added but never completed by the stream's end;
    ``bad_progress``: a progress rate that is NaN, infinite or negative.
    """
    menu = dict.fromkeys(REFUSED_FAULTS + ("never_complete",), 0)
    live: set[int] = set()
    added: set[int] = set()
    for record in events:
        m = mutation.decode(record)
        if m.op == "add":
            menu["duplicate_add"] += m.args[0] in live
            live.add(m.args[0])
            added.add(m.args[0])
        elif m.op == "complete":
            tid = m.args[0]
            if tid in live:
                live.remove(tid)
            elif tid in added:
                menu["duplicate_complete"] += 1
            else:
                menu["unknown_complete"] += 1
        elif m.op == "progress":
            rate = m.args[1]
            menu["bad_progress"] += rate is not None and not (
                math.isfinite(rate) and rate >= 0)
    menu["never_complete"] = len(live)
    return menu


def check_fault_menu(report: Verdict, events: list[list]) -> dict[str, int]:
    """Check that ``events`` carries every record kind and every fault a
    serving state must refuse; returns the :func:`fault_menu` counts."""
    menu = fault_menu(events)
    ops = Counter(record[0] for record in events)
    # A non-finite rate travels as its repr string (repro.serve.mutation).
    nonfinite = sum(r[0] == "progress" and isinstance(r[2], str) for r in events)
    report.check(  # CI asserts this name in chaos and shard chaos output
        "replayed stream holds add, progress, complete and drift records, "
        "incl. non-finite progress",
        all(ops[op] for op in ("add", "progress", "complete", "drift"))
        and nonfinite > 0 and all(menu[k] for k in REFUSED_FAULTS),
        ", ".join(f"{op} {ops[op]}" for op in sorted(ops))
        + f" ({nonfinite} non-finite progress); "
        + ", ".join(f"{k} {menu[k]}" for k in sorted(menu)))
    return menu


def run_chaos_replay(
    config: ChaosConfig | None = None,
    obs: Observability | None = None,
    log: LogStore | None = None,
    progress=None,
    progress_every: int = 0,
) -> ChaosReport:
    """Apply the fault stream (:func:`make_durable_events` of ``log``,
    default the chaos log) to the live serving stack.  Every
    ``predict_every`` records, a :func:`make_chaos_requests` batch is
    predicted at the newest applied ``started_at`` skewed by up to
    :data:`CLOCK_SKEW_S` (skew and requests from one RNG seeded
    ``seed + 1``).

    With an :class:`~repro.obs.Observability` bundle the stack instruments
    itself, and with its drift monitor each transfer is *scored*:
    predicted at its first ``add`` (before the add lands) and compared
    with the realized ``nb / (te - ts)`` at its first ``complete``.
    Scoring draws no replay randomness, so runs with and without ``obs``
    apply the identical stream.  ``progress`` (with ``progress_every >
    0``) receives the live report every ``progress_every`` records — the
    hook behind ``metrics --watch``.
    """
    cfg = config or ChaosConfig()
    rng = np.random.default_rng(cfg.seed + 1)
    log = log if log is not None else make_chaos_log(cfg)
    chain = make_chaos_chain(log, cfg)
    stream = make_durable_events(cfg, log)
    # The stream's drift records score a stand-in prediction (the realized
    # rate times noise, under a random tier).  This replay scores the
    # engine's own predictions instead, so applying them would mix
    # invented samples into the drift gauges.
    events = [record for record in stream if record[0] != "drift"]
    state = ServingState(obs=obs, lenient=cfg.lenient)
    engine = BatchOnlinePredictor(chain, state.active, obs=obs)
    drift = obs.drift if obs is not None else None
    data = log.raw()
    row_of = {int(tid): i for i, tid in enumerate(data["transfer_id"])}
    scores: dict[int, tuple] = {}  # tid -> (src, dst, tier, predicted)

    report = ChaosReport()
    report.injected = check_fault_menu(report, stream)
    started: set[int] = set()
    completed: set[int] = set()
    now = 0.0
    batches = bad = max_active = 0
    raised: list[str] = []

    def score_start(row) -> None:
        """Predict the starting transfer's rate before its add lands.  The
        add's view has no ``nb`` or ``nd``, so the request is the row's."""
        req = TransferRequest(
            src=str(row["src"]), dst=str(row["dst"]),
            total_bytes=float(row["nb"]), n_files=int(row["nf"]),
            n_dirs=int(row["nd"]), concurrency=int(row["c"]),
            parallelism=int(row["p"]),
        )
        try:
            pred = engine.predict_batch_detailed([req], now)
        except Exception:  # noqa: BLE001 - scoring must never sink the replay
            return
        rate = float(pred.rates[0])
        if math.isfinite(rate) and rate >= 0:
            scores[int(row["transfer_id"])] = (
                req.src, req.dst, pred.tiers[0], rate)

    for n_event, record in enumerate(events, 1):
        m = mutation.decode(record)
        op, tid = m.op, m.args[0]
        if op == "add":
            now = m.args[1].started_at
            if tid not in started:
                started.add(tid)
                if drift is not None:
                    score_start(data[row_of[tid]])
        elif op == "complete" and tid in started and tid not in completed:
            completed.add(tid)
            row = data[row_of[tid]]
            if tid in scores:
                drift.record(*scores.pop(tid), float(row["nb"])
                             / (float(row["te"]) - float(row["ts"])))
        try:
            state.apply(record)
        except (KeyError, ValueError):
            report.rejected_strict += 1

        report.events = n_event
        max_active = max(max_active, len(state.active))
        if progress is not None and progress_every \
                and n_event % progress_every == 0:
            report.final_active = len(state.active)
            progress(report)

        if n_event % cfg.predict_every == 0:
            skewed = now + float(rng.uniform(-CLOCK_SKEW_S, CLOCK_SKEW_S))
            batch = make_chaos_requests(rng, cfg.batch_size, chain, log)
            try:
                pred = engine.predict_batch_detailed(batch, skewed)
            except Exception as exc:  # noqa: BLE001 - the whole point
                raised.append(f"record {n_event}: {exc!r}")
                continue
            batches += 1
            report.predictions += len(batch)
            bad += int((~(np.isfinite(pred.rates) & (pred.rates > 0))).sum())

    stats = engine.stats
    report.tier_counts = dict(stats.tier_counts)
    report.check(
        "every prediction batch answered, finite and positive",
        not raised and bad == 0,
        f"{batches} batches, {bad} bad, {stats.nonconverged_requests} "
        f"nonconverged; tiers "
        + " ".join(f"{k} {v}" for k, v in sorted(report.tier_counts.items()))
        + (f"; raised at {raised[0]}" if raised else ""))

    expected = started - completed
    actual = set(state.active.ids())
    report.final_active = len(actual)
    report.check(
        "active population matches the replay's ground truth",
        actual == expected,
        f"final {len(actual)} / expected {len(expected)} (max {max_active})"
        + ("" if actual == expected else
           f"; leaked {sorted(actual - expected)[:5]}, "
           f"missing {sorted(expected - actual)[:5]}"))

    report.active_stats = state.active.stats.as_dict()
    _check_fault_accounting(report, events, cfg.lenient)
    if drift is not None:
        report.drift = drift.snapshot()
        o = drift.overall()
        report.check(
            "prediction drift scored", o.n > 0,
            f"{o.n} scored, MdAPE {o.mdape:.1f}% p95 {o.p95_ape:.1f}% "
            f"bias {o.bias_pct:+.1f}%")
    return report


def _check_fault_accounting(report: ChaosReport, events: list[list],
                            lenient: bool) -> None:
    """The engine refused exactly the faults the stream carried: a
    lenient state counts each kind where it drops it, a strict one
    raises once per fault."""
    menu = report.injected
    if lenient:
        good = sum(r[0] == "progress" for r in events) - menu["bad_progress"]
        want = {"ignored_adds": menu["duplicate_add"],
                "ignored_completes":
                    menu["duplicate_complete"] + menu["unknown_complete"],
                "rejected_progress": menu["bad_progress"],
                "progress_updates": good}
        got = {k: report.active_stats[k] for k in want}
    else:
        want = {"strict rejections": sum(menu[k] for k in REFUSED_FAULTS)}
        got = {"strict rejections": report.rejected_strict}
    report.check("engine refused exactly the injected faults", got == want,
                 ", ".join(f"{k} {got[k]} / {want[k]}" for k in want))


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
    progress=None,
    progress_every: int = 0,
) -> ObservedReplay:
    """The full telemetry-to-metrics pipeline in one call: synthesize a
    chaos log, write it as JSONL with injected corruption, lenient-ingest
    it (quarantine counters land in the registry), then chaos-replay the
    kept rows with drift scoring.  One metrics export afterwards carries
    predictor latency histograms, fallback-tier counters, ingestion
    quarantine counts, and per-edge rolling MdAPE.

    ``path`` is where the corrupt JSONL goes (when omitted, a temporary
    directory removed before returning).
    """
    cfg = config or ChaosConfig()
    bundle = obs if obs is not None else Observability.create()
    with tempfile.TemporaryDirectory(prefix="repro-observed-") as tmp:
        path = Path(tmp) / "chaos.jsonl" if path is None else path
        write_corrupt_jsonl(make_chaos_log(cfg), path)
        kept, quarantine = read_jsonl(
            path, strict=False, registry=bundle.registry, tracer=bundle.tracer
        )
    report = run_chaos_replay(cfg, obs=bundle, log=kept,
                              progress=progress, progress_every=progress_every)
    return ObservedReplay(report=report, quarantine=quarantine, obs=bundle)


@contextlib.contextmanager
def _work_dir(path: str | Path | None, prefix: str):
    """``path`` as a :class:`~pathlib.Path`, or a temporary directory
    removed on exit when ``path`` is None."""
    if path is not None:
        yield Path(path)
        return
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        yield Path(tmp)


def _corrupt_file(path: Path) -> None:
    """Flip one byte in the middle of ``path`` (a no-op on empty files)."""
    blob = bytearray(path.read_bytes())
    if blob:
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))


def _drift_gauges(registry) -> dict[str, float]:
    return {k: v for k, v in registry.flat().items() if k.startswith("drift_")}


@dataclass
class CrashReport(Verdict):
    """One crash-injection trial: kill, tear, recover, prove equivalence.

    Its checks are the acceptance property: after recovery plus
    re-delivery of the unacknowledged suffix, the active population, the
    drift windows, every ``drift_*`` metric, and the predictions served
    off the recovered state are *identical* to an uninterrupted run.
    """

    events_total: int = 0
    kill_after: int = 0
    cut_bytes: int = 0
    corrupt_snapshot: bool = False
    recovery: dict = field(default_factory=dict)
    resumed_events: int = 0

    @property
    def title(self) -> str:
        return (f"crash replay: killed after {self.kill_after}/"
                f"{self.events_total} events, journal tail torn by "
                f"{self.cut_bytes} bytes"
                + (", newest snapshot corrupted" if self.corrupt_snapshot
                   else ""))


def run_crash_replay(
    config: ChaosConfig | None = None,
    state_dir: str | Path | None = None,
    kill_after_events: int | None = None,
    cut_bytes: int = 17,
    corrupt_snapshot: bool = False,
    snapshot_every: int = 64,
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
       the journal tail (a write killed at an arbitrary byte offset;
       the report's ``cut_bytes`` is the tear actually made, at most
       the segment's size and 0 with no segment); with
       ``corrupt_snapshot``, also flip a byte inside the newest
       snapshot so recovery must fall back a generation.
    4. Recover, re-deliver every event after the recovered ``last_seq``
       (the unacknowledged suffix a real event source would re-send),
       and require the result to be indistinguishable from (1).

    A negative ``cut_bytes`` would grow the segment instead of tearing
    it, so it raises ``ValueError``.
    """
    from repro.serve.durability import DurabilityConfig, recover_serving_state

    if cut_bytes < 0:
        raise ValueError(f"cut_bytes must be >= 0, got {cut_bytes}")

    cfg = config or ChaosConfig()
    log = make_chaos_log(cfg)
    events = make_durable_events(cfg, log)
    # Default kill point: ~60% through the stream — late enough that
    # several snapshot generations exist, early enough that a meaningful
    # suffix must be re-delivered.
    kill = (len(events) * 3) // 5 if kill_after_events is None \
        else int(kill_after_events)
    kill = max(0, min(kill, len(events)))
    report = CrashReport(
        events_total=len(events),
        kill_after=kill,
        corrupt_snapshot=bool(corrupt_snapshot),
    )

    with _work_dir(state_dir, "repro-crash-") as state_dir:
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
        wal_path = victim.segments.path_for(victim.generation)
        victim.close()  # every append already flushed; the tear is below

        # 3. injure the disk.
        if cut_bytes and wal_path.exists():
            size = wal_path.stat().st_size
            with wal_path.open("r+b") as fh:
                fh.truncate(size - min(int(cut_bytes), size))
            report.cut_bytes = size - wal_path.stat().st_size
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
        report.check(
            "journal acknowledged no more records than were delivered",
            resume_from <= kill, f"last_seq {resume_from}, delivered {kill}")
        resume_from = min(resume_from, kill)
        for event in events[resume_from:]:
            recovered.apply(event)
        report.resumed_events = len(events) - resume_from

        # -- the equivalence proof ---------------------------------------
        report.check(
            "active population equal",
            recovered.state_fingerprint() == reference.state_fingerprint(),
            f"snapshot gen {recovery.snapshot_generation} "
            f"({recovery.snapshot_fallbacks} fallbacks), "
            f"{recovery.replayed_records} journal records replayed "
            f"(+{report.resumed_events} re-delivered), "
            f"{recovery.truncated_bytes} torn bytes truncated")
        report.check(
            "drift gauges equal",
            _drift_gauges(recovered.registry)
            == _drift_gauges(reference.registry))
        chain = make_chaos_chain(log, cfg)
        requests = make_chaos_requests(
            np.random.default_rng(cfg.seed + 9), 32, chain, log)
        now = cfg.horizon_s
        ref_rates = BatchOnlinePredictor(
            chain, reference.active).predict_batch(requests, now)
        rec_rates = BatchOnlinePredictor(
            chain, recovered.active).predict_batch(requests, now)
        deltas = np.abs(ref_rates - rec_rates)
        report.check(
            "predictions equal", bool(np.array_equal(ref_rates, rec_rates)),
            f"max |delta| {float(deltas.max()) if deltas.size else 0.0:.3g} "
            f"B/s over {len(requests)} probes")
        recovered.close()
    return report
