"""The supervised streaming loop: :class:`StreamSupervisor`.

One cycle of the loop is::

    poll tail -> extend backlog (shed oldest past the cap)
              -> apply up to max_apply_per_cycle records
                   (score against the live predictor, feed drift,
                    fold the applied digest, fill retrain buffers)
              -> refit whatever fresh drift evidence says is due
                 (breaker-gated)
              -> heartbeat gauges
              -> checkpoint: one fsynced journal record; a snapshot
                 when the journal outgrows the last one

**Exactly-once by construction.**  A checkpoint is *one* CRC-framed,
fsynced journal record (:class:`~repro.serve.durability.Journal`)
holding everything the loop changed since the previous one: the tail's
byte offset, the rows it ingested, how many it shed and applied, the
drift samples it scored, the retrain latches and changed publishes, the
running applied-records digest, and the event/SLO state.  Apply-side
effects are purely in-memory until that record lands, so a crash
anywhere rolls the *pair* (position, consumption) back to the same
consistent point: on restart the tail re-reads exactly the bytes whose
effects were lost, and a record's effects are committed exactly once.
A crash mid-append leaves a torn record, which fails its CRC and is
truncated — the previous record is the commit point.  A refit's
published model rides in the same record (its encoded bundle), so
exactly-once covers publishes too.

**Snapshot plus journal suffix.**  Records extend the newest
:class:`~repro.serve.durability.SnapshotStore` generation one ``seq`` at
a time, in the segment layout of
:class:`~repro.serve.durability.JournalSegments`.  A snapshot — the
whole state, as one checksummed document — is written only when none
exists yet or when the open segment has outgrown the last snapshot, so
replay stays shorter than one snapshot.  :func:`load_checkpoint` is the
one recovery fold: the durable prefix
(:func:`~repro.serve.durability.segments.durable_prefix`, the scan the
serving state recovers through too) with its records folded into its
snapshot, oldest first; both recovery and the offline readers use it.

**Never block serving.**  The backlog is bounded: past
``max_backlog_records`` the *oldest* unapplied rows are shed and counted
(``stream_shed_records_total``) — the loop degrades to sampled history,
never to an unbounded queue or a stalled predictor.

**Liveness.**  Every cycle stamps heartbeat gauges
(``stream_last_cycle_unix`` / ``stream_backlog_records``); ``status()``
reports the heartbeat age so an external supervisor can detect a wedged
loop.  ``request_stop(drain=True)`` finishes the backlog and writes a
final checkpoint before returning (graceful drain); ``drain=False``
checkpoints and stops immediately.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.logs.schema import LOG_DTYPE
from repro.obs import DriftMonitor, Observability
from repro.serve.active_set import ActiveSet
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.durability.segments import (DurablePrefix, JournalSegments,
                                             durable_prefix)
from repro.serve.durability.snapshot import SnapshotStore
from repro.serve.stream.retrain import RetrainController
from repro.serve.stream.tail import TailIngester
from repro.sim.gridftp import TransferRequest

__all__ = [
    "StreamConfig",
    "StreamSupervisor",
    "SimulatedCrash",
    "fold_digest",
    "load_checkpoint",
    "read_stream_status",
]


# Snapshot generations kept on disk, and the heartbeat age (seconds) past
# which ``status()`` reports the loop stale.
KEEP_CHECKPOINTS = 3
HEARTBEAT_STALE_S = 30.0


class SimulatedCrash(RuntimeError):
    """Raised by a crash hook to kill the loop at a chosen stage (test /
    chaos instrumentation; production code never raises it)."""


@dataclass(frozen=True)
class StreamConfig:
    poll_interval_s: float = 1.0
    max_backlog_records: int = 4096
    max_apply_per_cycle: int = 1024
    checkpoint_every: int = 1       # cycles between checkpoints

    def __post_init__(self) -> None:
        if self.max_backlog_records < 1 or self.max_apply_per_cycle < 1:
            raise ValueError("backlog and apply caps must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def fold_digest(digest: str, arr: np.ndarray) -> str:
    """Fold applied records into a running SHA-256 chain.

    Deterministic function of the record *contents in application
    order* — independent of predictions, wall clocks, or restart count —
    which is exactly what makes it usable as the chaos proof that no
    record was applied zero or two times across crashes.
    """
    h = digest
    for row in arr.tolist():
        payload = json.dumps(row, separators=(",", ":"))
        h = hashlib.sha256((h + payload).encode("utf-8")).hexdigest()
    return h


def _fold(payload: dict, records: list[dict]) -> dict:
    """Advance checkpoint sections by journal records, oldest first.

    The backlog is a FIFO: each record's ``rows`` joined its tail, and
    each ``[shed, applied]`` pair of its ``fifo`` took rows off its head
    — the shed ones dropped, the applied ones into the retrain buffers.
    Every other section is carried by the last record in full, except
    the drift windows (grown by the scored samples) and the published
    bundles (merged per edge)."""
    stream = payload.get("stream", {})
    queue = list(stream.get("backlog", ()))
    head = 0
    applied: list = []
    samples: list = []
    for record in records:
        queue.extend(record["rows"])
        for shed, take in record["fifo"]:
            head += shed
            applied.extend(queue[head:head + take])
            head += take
        samples.extend(record["drift"])
    last = records[-1]
    return {
        **payload,
        "tail": last["tail"],
        "retrain": RetrainController.fold_state(
            payload.get("retrain", {}), applied,
            [record["retrain"] for record in records]),
        "drift": DriftMonitor.fold_state(payload.get("drift", {}), samples),
        "stream": {**last["stream"], "backlog": queue[head:]},
        "obs": last["obs"],
    }


def load_checkpoint(
        directory: str | Path) -> tuple[DurablePrefix, dict | None]:
    """The newest durable stream state: the durable prefix of
    ``directory`` and its sections — the prefix's snapshot with its
    records folded in (``None`` when nothing is durable).  Reads only."""
    prefix = durable_prefix(directory)
    payload = prefix.snapshot.payload if prefix.snapshot is not None \
        else None
    if prefix.records:
        payload = _fold(payload or {}, prefix.records)
    return prefix, payload


class StreamSupervisor:
    """Owns one tail + one retrain controller + one serving predictor."""

    _CHECKPOINT_SECTIONS = ("tail", "retrain", "drift", "stream", "obs")

    def __init__(
        self,
        tail: TailIngester,
        controller: RetrainController,
        state_dir: str | Path,
        obs: Observability | None = None,
        config: StreamConfig | None = None,
        active: ActiveSet | None = None,
        clock=time.time,
        sleep=time.sleep,
        crash_hook=None,
    ) -> None:
        self.tail = tail
        self.controller = controller
        self.config = config or StreamConfig()
        self.obs = obs if obs is not None else Observability.create(trace=False)
        if self.obs.drift is None:
            raise ValueError("supervisor needs an Observability bundle "
                             "with a drift monitor")
        self.drift = self.obs.drift
        self.events = self.obs.events
        self.slo = self.obs.slo
        # Components constructed without an event log inherit the
        # bundle's, so one sink carries the whole loop's events.
        if self.events is not None:
            if getattr(controller, "events", None) is None:
                controller.events = self.events
            if getattr(tail, "events", None) is None:
                from repro.obs.events import QuarantineBurstDetector

                tail.events = self.events
                tail.burst = QuarantineBurstDetector(
                    self.events, source=tail.path.name)
        self.state_dir = Path(state_dir)
        self.checkpoints = SnapshotStore(self.state_dir / "checkpoints")
        # fsync per record: the journal is the commit point, as durable
        # against a power cut as the snapshots' atomic fsynced writes.
        self.segments = JournalSegments(self.checkpoints.directory,
                                        fsync=True)
        self.active = active if active is not None \
            else ActiveSet(lenient=True, obs=self.obs)
        self.predictor = BatchOnlinePredictor(
            controller.chain, self.active, obs=self.obs)
        self._clock = clock
        self._sleep = sleep
        # crash_hook(stage) may raise SimulatedCrash; stages are
        # "polled" / "applied" / "retrained" / "checkpointed".
        self._crash_hook = crash_hook

        self._backlog: list[tuple] = []
        self.applied_records = 0
        self.applied_digest = ""
        self.shed_records = 0
        self.cycles = 0
        self.data_now = 0.0          # newest applied completion time
        self._ckpt_data_now = 0.0    # data_now at the last durable checkpoint
        # What the next journal record carries: rows that joined the
        # backlog, [shed, applied] per cycle, scored drift samples.
        self._rows: list[tuple] = []
        self._fifo: list[list[int]] = []
        self._samples: list[tuple] = []
        self._seq = 0                # seq of the last journal record
        self._generation = 0         # newest snapshot / open segment
        self._segment_bytes = 0      # size of the open segment
        self._snapshot_bytes: int | None = None   # None: snapshot next
        self._journal_records = 0    # records since the newest snapshot
        self._last_beat = float(clock())
        self._stop = False
        self._drain = True
        self._recover()

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        durable, payload = load_checkpoint(self.checkpoints.directory)
        self._seq = durable.seq
        self._journal_records = len(durable.records)
        # Append past everything on disk: new generations must not
        # collide with corrupt ones recovery skipped, and records the
        # fold could not reach stay behind a fresh segment and the
        # snapshot the first checkpoint writes (_snapshot_bytes None).
        self._generation, scan = self.segments.resume(durable)
        self._segment_bytes = scan.valid_bytes
        if durable.snapshot is not None and not durable.stale:
            self._snapshot_bytes = self.checkpoints.path_for(
                durable.snapshot.generation).stat().st_size
        if payload is None:
            # A cold start is still a recovery point: nothing a previous
            # incarnation emitted before its first checkpoint was ever
            # durable, so the event seq and SLO state roll back to zero
            # (truncating the sink) exactly like a checkpointed resume —
            # otherwise a crash before the first checkpoint would leave
            # duplicated events and SLI samples behind.
            if self.events is not None:
                self.events.load_state({})
            if self.slo is not None:
                self.slo.load_state({})
            return
        # Roll the event seq back *first*: everything emitted past the
        # checkpoint (sink lines included) is discarded, so the events
        # the resumed loop re-emits land on the same sequence numbers —
        # exactly-once for the event stream too.
        obs_state = payload.get("obs", {})
        if self.events is not None:
            self.events.load_state(obs_state.get("events", {}))
        if self.slo is not None:
            self.slo.load_state(obs_state.get("slo", {}))
        self.tail.load_state(payload.get("tail", {}))
        self.controller.load_state(payload.get("retrain", {}))
        self.drift.load_snapshot(payload.get("drift", {}))
        stream = payload.get("stream", {})
        self._backlog = [tuple(row) for row in stream.get("backlog", ())]
        self.applied_records = int(stream.get("applied_records", 0))
        self.applied_digest = str(stream.get("applied_digest", ""))
        self.shed_records = int(stream.get("shed_records", 0))
        self.cycles = int(stream.get("cycles", 0))
        self.data_now = float(stream.get("data_now", 0.0))
        self._ckpt_data_now = float(
            stream.get("ckpt_data_now", self.data_now))
        registry = self.obs.registry
        registry.counter(
            "stream_recoveries_total",
            "Supervisor starts that resumed from a checkpoint.",
        ).inc()
        if durable.rejected:
            registry.counter(
                "stream_checkpoint_fallbacks_total",
                "Corrupt newer checkpoint generations skipped at recovery.",
            ).inc(len(durable.rejected))
        if self.events is not None:
            self.events.emit(
                "durability", "stream_recovered",
                severity="warning" if durable.rejected else "info",
                generation=(durable.snapshot.generation
                            if durable.snapshot is not None else 0),
                rejected_generations=len(durable.rejected),
                journal_records=len(durable.records),
                truncated_bytes=scan.truncated_bytes,
                applied_records=self.applied_records,
                data_now=self.data_now,
            )

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> int:
        """Commit everything since the previous checkpoint as one
        fsynced journal record, then compact to a snapshot if none
        exists yet or the open segment has outgrown the last one.
        Returns the newest generation.

        A failed append may leave a partial frame behind, so an
        exception here ends the incarnation like any crash: the next
        one truncates the tear and resumes from the previous record."""
        self._seq += 1
        obs_state = {}
        if self.events is not None:
            obs_state["events"] = self.events.state_dict()
        if self.slo is not None:
            obs_state["slo"] = self.slo.state_dict()
        sections = {
            "tail": self.tail.state_dict(),
            "stream": {
                "applied_records": int(self.applied_records),
                "applied_digest": self.applied_digest,
                "shed_records": int(self.shed_records),
                "cycles": int(self.cycles),
                "data_now": float(self.data_now),
                "ckpt_data_now": float(self.data_now),
            },
            "obs": obs_state,
        }
        end = self.segments.journal.append({
            "seq": self._seq,
            **sections,
            "rows": self._rows,
            "fifo": self._fifo,
            "drift": self._samples,
            "retrain": self.controller.state_delta(),
        })
        self._ckpt_data_now = float(self.data_now)
        self._rows, self._fifo, self._samples = [], [], []
        self._count_bytes("journal", end - self._segment_bytes)
        self._segment_bytes = end
        self._journal_records += 1
        if self._snapshot_bytes is None or end > self._snapshot_bytes:
            self._snapshot(sections)
        registry = self.obs.registry
        registry.counter(
            "stream_checkpoints_total",
            "Checkpoints written (one journal record each).").inc()
        registry.gauge(
            "stream_checkpoint_generation",
            "Newest checkpoint generation.").set(float(self._generation))
        return self._generation

    def _snapshot(self, sections: dict) -> None:
        """Write the whole state as the next generation (``last_seq`` is
        the record just appended), rotate to its segment, prune."""
        self._generation += 1
        state = {
            **sections,
            "stream": {**sections["stream"],
                       "backlog": [list(row) for row in self._backlog]},
            "retrain": self.controller.state_dict(),
            "drift": self.drift.dump_state(),
        }
        path = self.segments.commit_snapshot(
            self.checkpoints, self._generation, state, self._seq,
            KEEP_CHECKPOINTS)
        self._snapshot_bytes = path.stat().st_size
        self._count_bytes("snapshot", self._snapshot_bytes)
        self.obs.registry.counter(
            "stream_snapshots_total", "Checkpoint snapshots written.").inc()
        self._segment_bytes = 0        # the snapshot's fresh segment
        self._journal_records = 0

    def _count_bytes(self, kind: str, n: int) -> None:
        self.obs.registry.counter(
            "stream_checkpoint_bytes_total",
            "Checkpoint bytes written, by kind (journal / snapshot).",
            labels={"kind": kind},
        ).inc(n)

    # -- the loop -----------------------------------------------------------

    def _crash(self, stage: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(stage)

    def cycle(self, poll: bool = True) -> bool:
        """One loop iteration; returns whether any progress was made."""
        self.cycles += 1
        batch = self.tail.poll() if poll else None
        self._crash("polled")
        ingested = shed = 0
        if batch is not None and len(batch.records):
            ingested = len(batch.records)
            rows = batch.records.tolist()
            self._backlog.extend(rows)
            self._rows.extend(rows)
            overflow = len(self._backlog) - self.config.max_backlog_records
            if overflow > 0:
                # Shed the *oldest* unapplied rows: bounded memory beats
                # complete history, and newest data drives drift best.
                del self._backlog[:overflow]
                shed = overflow
                self.shed_records += overflow
                self.obs.registry.counter(
                    "stream_shed_records_total",
                    "Backlog rows dropped (oldest-first) at the cap.",
                ).inc(overflow)
        applied = self._apply()
        if shed or applied:
            self._fifo.append([shed, applied])
        self._crash("applied")
        if self.controller is not None:
            self.controller.refit_due(self.data_now)
        self._crash("retrained")
        self._heartbeat()
        if self.cycles % self.config.checkpoint_every == 0:
            self.checkpoint()
        self._crash("checkpointed")
        return ingested > 0 or applied > 0

    def _apply(self) -> int:
        """Apply up to ``max_apply_per_cycle`` backlog rows: score them
        against the live predictor, feed drift + retrain buffers, fold
        the applied digest.  In-memory only — durable at checkpoint."""
        if not self._backlog:
            return 0
        take = min(len(self._backlog), self.config.max_apply_per_cycle)
        rows = self._backlog[:take]
        arr = np.array(rows, dtype=LOG_DTYPE)
        self.data_now = max(self.data_now, float(arr["te"].max()))

        requests = [
            TransferRequest(src=src, dst=dst, total_bytes=nb, n_files=nf,
                            n_dirs=nd, concurrency=c, parallelism=p)
            for src, dst, nb, nf, nd, c, p in zip(
                *(arr[name].tolist()
                  for name in ("src", "dst", "nb", "nf", "nd", "c", "p")))
        ]
        prediction = self.predictor.predict_batch_detailed(
            requests, self.data_now)
        # Score every row that completed with a positive rate against the
        # prediction it got; the controller counts the scored rows as
        # fresh drift evidence for the generation now serving.
        rates = np.asarray(prediction.rates, dtype=np.float64)
        elapsed = arr["te"] - arr["ts"]
        nb = arr["nb"]
        scored = ~((elapsed <= 0) | (nb <= 0) | ~np.isfinite(rates)
                   | (rates < 0))
        idx = np.flatnonzero(scored)
        srcs, dsts = arr["src"][idx].tolist(), arr["dst"][idx].tolist()
        tiers = [prediction.tiers[i] for i in idx.tolist()]
        self._samples.extend(self.drift.record_batch(
            srcs, dsts, tiers,
            rates[idx].tolist(), (nb[idx] / elapsed[idx]).tolist()))
        self.controller.observe(arr, scored=scored)
        self.applied_digest = fold_digest(self.applied_digest, arr)
        self.applied_records += take
        del self._backlog[:take]
        self.obs.registry.counter(
            "stream_applied_records_total",
            "Backlog rows applied to the serving state.",
        ).inc(take)

        tier_counts: dict[str, int] = {}
        for tier in prediction.tiers:
            name = getattr(tier, "value", str(tier))
            tier_counts[name] = tier_counts.get(name, 0) + 1
        low_tiers = {
            name: n for name, n in tier_counts.items()
            if name not in ("edge", "global")
        }
        if low_tiers and self.events is not None:
            self.events.emit(
                "serve", "tier_fallback", severity="warning",
                records=take, tiers=dict(sorted(low_tiers.items())),
                data_now=self.data_now,
            )
        self._feed_slos(tier_counts, take)
        return take

    def _feed_slos(self, tier_counts: dict[str, int], take: int) -> None:
        """One SLI sample per objective at the batch's data time, then a
        burn-rate evaluation.  Everything recorded here is a function of
        checkpointed state only, so a crash-resumed loop re-derives the
        identical sample series — the alert-determinism contract."""
        if self.slo is None:
            return
        now = self.data_now
        report = self.tail.report
        if report.total_rows:
            self.slo.record(
                "stream_quarantine_rate",
                1.0 - report.kept_rows / report.total_rows, now)
        self.slo.record(
            "stream_checkpoint_staleness", now - self._ckpt_data_now, now)
        self.slo.record(
            "stream_tier0_ratio", tier_counts.get("edge", 0) / take, now)
        overall = self.drift.overall()
        if overall.n:
            self.slo.record("stream_mdape", overall.mdape, now)
        self.slo.evaluate(now)

    def _heartbeat(self) -> None:
        self._last_beat = float(self._clock())
        registry = self.obs.registry
        registry.gauge(
            "stream_last_cycle_unix",
            "Wall-clock time of the last completed cycle.",
        ).set(self._last_beat)
        registry.gauge(
            "stream_backlog_records", "Unapplied backlog rows.",
        ).set(float(len(self._backlog)))
        registry.counter(
            "stream_cycles_total", "Supervisor cycles completed.").inc()

    def run(
        self,
        max_cycles: int | None = None,
        max_seconds: float | None = None,
    ) -> int:
        """Drive the loop until stopped or bounded out; returns cycles
        run.  Always leaves a final checkpoint behind (graceful stop)."""
        started = float(self._clock())
        ran = 0
        while True:
            if self._stop and (not self._drain or not self._backlog):
                break
            if max_cycles is not None and ran >= max_cycles:
                break
            if max_seconds is not None \
                    and float(self._clock()) - started >= max_seconds:
                break
            progressed = self.cycle(poll=not self._stop)
            ran += 1
            if not progressed and not self._stop:
                self._sleep(
                    self.tail.next_delay(self.config.poll_interval_s))
        # Graceful exits leave a parting checkpoint; an exception (a
        # SimulatedCrash, a TailError) propagates without one — the next
        # incarnation recovers from the last durable generation, which is
        # the whole point.
        self.checkpoint()
        self.segments.close()
        return ran

    def request_stop(self, drain: bool = True) -> None:
        self._stop = True
        self._drain = bool(drain)

    # -- introspection ------------------------------------------------------

    def status(self) -> dict:
        age = float(self._clock()) - self._last_beat
        return {
            "cycles": self.cycles,
            "applied_records": self.applied_records,
            "applied_digest": self.applied_digest,
            "backlog_records": len(self._backlog),
            "shed_records": self.shed_records,
            "tail_offset": self.tail.offset,
            "tail_resets": self.tail.resets,
            "quarantined_rows": (self.tail.report.total_rows
                                 - self.tail.report.kept_rows),
            "checkpoint_generation": self._generation,
            "journal_records": self._journal_records,
            "data_now": self.data_now,
            "heartbeat_age_s": age,
            "heartbeat_stale": age > HEARTBEAT_STALE_S,
            "breakers": {
                f"{s}->{d}": breaker.state_dict()
                for (s, d), breaker in sorted(
                    self.controller._breakers.items())
            },
            "event_seq": self.events.seq if self.events is not None else 0,
            "slo": self.slo.status() if self.slo is not None else {},
        }


def read_stream_status(state_dir: str | Path) -> dict:
    """Offline ``stream status``: summarize the durable state in
    ``state_dir`` — the newest valid snapshot with its journal suffix
    folded in (:func:`load_checkpoint`) — without constructing a
    supervisor."""
    durable, payload = load_checkpoint(Path(state_dir) / "checkpoints")
    if payload is None:
        return {"checkpoint_generation": 0, "recovered": False}
    stream = payload.get("stream", {})
    tail = payload.get("tail", {})
    return {
        "recovered": True,
        "checkpoint_generation": (durable.snapshot.generation
                                  if durable.snapshot is not None else 0),
        "rejected_generations": list(durable.rejected),
        "journal_records": len(durable.records),
        "applied_records": int(stream.get("applied_records", 0)),
        "applied_digest": str(stream.get("applied_digest", "")),
        "backlog_records": len(stream.get("backlog", ())),
        "shed_records": int(stream.get("shed_records", 0)),
        "cycles": int(stream.get("cycles", 0)),
        "data_now": float(stream.get("data_now", 0.0)),
        "tail_offset": int(tail.get("offset", 0)),
        "tail_rows_kept": int(tail.get("kept_rows", 0)),
        "tail_rows_total": int(tail.get("total_rows", 0)),
        "breakers": {
            f"{s}->{d}": payload_
            for s, d, payload_ in payload.get("retrain", {}).get("breakers", ())
        },
        "event_seq": int(
            payload.get("obs", {}).get("events", {}).get("seq", 0)),
        "slo": {
            "firing": [
                name for name, on in sorted(
                    payload.get("obs", {}).get("slo", {})
                    .get("firing", {}).items())
                if on
            ],
            "alert_seq": int(
                payload.get("obs", {}).get("slo", {}).get("alert_seq", 0)),
            "alert_log": list(
                payload.get("obs", {}).get("slo", {}).get("alert_log", ())),
        },
    }
