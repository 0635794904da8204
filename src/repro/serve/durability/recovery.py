"""Durable serving state: WAL-ordered mutations, snapshots, recovery.

:class:`DurableServingState` wraps one serving process's volatile
contention state — the :class:`~repro.serve.mutation.ServingState`
triple: the :class:`~repro.serve.ActiveSet` the K*/G*/S* features are
computed from, the :class:`~repro.obs.DriftMonitor` windows, and the
:class:`~repro.obs.MetricsRegistry` totals — behind a write-ahead
discipline: every mutation record (:mod:`repro.serve.mutation`) is
decoded, then framed into the journal as ``{"seq": n, "m": record}``
*before* it touches memory, so a malformed record never reaches the
journal.  Periodic snapshots bound replay time; each snapshot bumps the
generation, rotates the journal to a fresh segment, and prunes old
generations (always keeping a predecessor for checksum fallback).

:func:`recover_serving_state` is the inverse: restore all three
components from the durable prefix
(:func:`~repro.serve.durability.segments.durable_prefix`, the scan the
stream supervisor's checkpoints recover through too), then replay its
records through the same decode-and-apply path the live process used.
Because replay is deterministic and the journal is written before the
apply, the recovered state is equivalent to an uninterrupted process at
the prefix's last record; anything after it is the upstream's to
re-send (``last_seq`` says exactly where to resume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import Observability
from repro.obs.tracing import maybe_span
from repro.serve.durability.journal import TornRecord
from repro.serve.durability.segments import JournalSegments, durable_prefix
from repro.serve.durability.snapshot import SnapshotStore
from repro.serve.mutation import ServingState, decode

__all__ = [
    "DurabilityConfig",
    "DurableServingState",
    "RecoveryReport",
    "recover_serving_state",
]

@dataclass(frozen=True)
class DurabilityConfig:
    """Journal/snapshot policy for one durable serving process."""

    snapshot_every: int = 0      # records between auto-snapshots; 0 = manual
    fsync: bool = False          # fsync every journal append
    keep_snapshots: int = 3      # generations retained by pruning

    def __post_init__(self) -> None:
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.keep_snapshots < 2:
            raise ValueError("keep_snapshots must be >= 2")


@dataclass
class RecoveryReport:
    """What one recovery did, for logs, tests, and the CLI."""

    snapshot_generation: int = 0      # 0 = cold start, no snapshot used
    snapshot_fallbacks: int = 0       # newer generations rejected as invalid
    replayed_records: int = 0
    replay_rejected: int = 0          # replayed mutations the state refused
    truncated_bytes: int = 0          # torn journal-tail bytes cut away
    torn: list[TornRecord] = field(default_factory=list)  # at most one
    last_seq: int = 0                 # resume point for the event source
    active_transfers: int = 0
    drift_observations: int = 0

    def render(self) -> str:
        source = (
            f"snapshot generation {self.snapshot_generation}"
            if self.snapshot_generation else "cold start (no snapshot)"
        )
        lines = [
            f"recovered from {source}"
            + (f" ({self.snapshot_fallbacks} newer rejected)"
               if self.snapshot_fallbacks else ""),
            f"journal records replayed  {self.replayed_records} "
            f"({self.replay_rejected} rejected by state)",
            f"torn tail truncated       {self.truncated_bytes} bytes "
            f"({len(self.torn)} tears)",
            f"resume after seq          {self.last_seq}",
            f"active transfers          {self.active_transfers}",
            f"drift observations        {self.drift_observations}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "snapshot_generation": self.snapshot_generation,
            "snapshot_fallbacks": self.snapshot_fallbacks,
            "replayed_records": self.replayed_records,
            "replay_rejected": self.replay_rejected,
            "truncated_bytes": self.truncated_bytes,
            "torn": [[t.offset, t.reason] for t in self.torn],
            "last_seq": self.last_seq,
            "active_transfers": self.active_transfers,
            "drift_observations": self.drift_observations,
        }


class DurableServingState(ServingState):
    """The crash-durable triple (ActiveSet, DriftMonitor, registry).

    Do not construct directly — :func:`recover_serving_state` is the
    single entry point; an empty directory recovers to a cold start, so
    open and recover are the same operation.  :meth:`apply` takes one
    mutation record (:mod:`repro.serve.mutation`) and journals it before
    applying it.
    """

    def __init__(
        self,
        state_dir: str | Path,
        obs: Observability | None = None,
        lenient: bool = True,
        config: DurabilityConfig | None = None,
    ) -> None:
        super().__init__(obs=obs, lenient=lenient)
        self.state_dir = Path(state_dir)
        self.config = config or DurabilityConfig()
        self.snapshots = SnapshotStore(self.state_dir)
        self.segments = JournalSegments(self.state_dir,
                                        fsync=self.config.fsync)
        self.generation = 0
        self.last_seq = 0
        self._snapshot_seq = 0       # last_seq at the most recent snapshot

        counter = self.registry.counter
        self._m_records = counter(
            "durability_journal_records_total", "Records appended to the WAL.")
        self._m_bytes = counter(
            "durability_journal_bytes_total", "Bytes appended to the WAL.")
        self._m_snapshots = counter(
            "durability_snapshots_total", "State snapshots written.")
        self._m_recoveries = counter(
            "durability_recoveries_total", "Recoveries performed.")
        self._m_replayed = counter(
            "durability_replayed_records_total",
            "Journal records replayed during recovery.")
        self._m_truncated = counter(
            "durability_truncated_bytes_total",
            "Torn journal-tail bytes truncated during recovery.")
        self._m_fallbacks = counter(
            "durability_snapshot_fallbacks_total",
            "Invalid snapshot generations skipped during recovery.")
        self._m_replay_rejected = counter(
            "durability_replay_rejected_total",
            "Replayed mutations rejected by the state (strict mode).")
        self._g_generation = self.registry.gauge(
            "durability_snapshot_generation", "Newest snapshot generation.")
        self._g_last_seq = self.registry.gauge(
            "durability_last_seq", "Newest journaled sequence number.")

    # -- mutations (decode, journal, then apply) ---------------------------

    def apply(self, record) -> None:
        """Decode one mutation record, journal its canonical form, apply
        it.  A record :func:`~repro.serve.mutation.decode` rejects raises
        ``ValueError`` and consumes no seq; one the state refuses (strict
        mode) raises after it is journaled, and replay refuses it again."""
        mutation = decode(record)
        self.last_seq += 1
        self._g_last_seq.set(self.last_seq)
        journal = self.segments.journal
        journal.append({"seq": self.last_seq, "m": mutation.record})
        self._m_records.inc()
        self._m_bytes.inc(journal.frame_bytes)
        self._apply(mutation)
        self._maybe_snapshot()

    def _replay(self, record: dict) -> None:
        """One journaled record during recovery.  A refusal is guaranteed
        to recur — the mutation changed nothing the first time — so it is
        counted and skipped to keep recovery total."""
        try:
            ServingState.apply(self, record.get("m"))
        except (KeyError, ValueError):
            self._m_replay_rejected.inc()

    # -- snapshots ---------------------------------------------------------

    def _maybe_snapshot(self) -> None:
        every = self.config.snapshot_every
        if every and self.last_seq - self._snapshot_seq >= every:
            self.snapshot()

    def snapshot(self) -> int:
        """Persist the current state as generation ``N+1``, rotate the
        journal to a fresh segment, prune old generations.  Returns the
        new generation number."""
        with maybe_span(self.obs.tracer, "durability.snapshot"):
            generation = self.generation + 1
            self._g_generation.set(generation)
            sections = {
                "active": self.active.snapshot_state(),
                "drift": self.drift.dump_state(),
                "registry": self.registry.snapshot(),
            }
            self.segments.commit_snapshot(
                self.snapshots, generation, sections, self.last_seq,
                self.config.keep_snapshots)
            self.generation = generation
            self._snapshot_seq = self.last_seq
            self._m_snapshots.inc()
            return generation

    def close(self) -> None:
        self.segments.close()

    def __enter__(self) -> "DurableServingState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def recover_serving_state(
    state_dir: str | Path,
    obs: Observability | None = None,
    lenient: bool = True,
    config: DurabilityConfig | None = None,
) -> tuple[DurableServingState, RecoveryReport]:
    """Reconstruct a serving process's state from its durability directory.

    Sequence: the durable prefix (:func:`durable_prefix`: the newest
    snapshot that verifies, then the records that extend it one ``seq``
    at a time) -> restore registry totals, active population, and drift
    windows -> replay the prefix's records -> reopen the journal for
    appending (:meth:`JournalSegments.resume`).  When records past the
    prefix are out of reach (a double fault), recovery snapshots at
    once, so the records acknowledged after it never depend on them.
    An empty or missing directory is a cold start: the returned state is
    empty with ``last_seq == 0``.

    Returns ``(state, report)``; ``report.last_seq`` tells the event
    source where to resume feeding (records after it were lost or never
    acknowledged and must be re-sent).
    """
    state = DurableServingState(
        state_dir, obs=obs, lenient=lenient, config=config)
    report = RecoveryReport()
    with maybe_span(state.obs.tracer, "durability.recover"):
        prefix = durable_prefix(state.state_dir)
        report.snapshot_fallbacks = len(prefix.rejected)
        state._m_fallbacks.inc(len(prefix.rejected))
        if prefix.snapshot is not None:
            report.snapshot_generation = prefix.snapshot.generation
            payload = prefix.snapshot.payload
            state.registry.load_snapshot(payload.get("registry", {}))
            state.active.load_snapshot(payload.get("active", {}))
            state.drift.load_snapshot(payload.get("drift", {}))
            state._snapshot_seq = prefix.snapshot.last_seq
        # New snapshots must not collide with generations recovery skipped
        # as corrupt, so the generation continues from the newest on disk.
        state.generation = prefix.generation
        state._g_generation.set(state.generation)

        rejected_before = state._m_replay_rejected.value
        for record in prefix.records:
            state._replay(record)
        state.last_seq = prefix.seq
        report.replayed_records = len(prefix.records)
        report.torn = [prefix.torn] if prefix.torn is not None else []
        _, scan = state.segments.resume(prefix)
        report.truncated_bytes = scan.truncated_bytes
        state._m_truncated.inc(report.truncated_bytes)
        state._m_replayed.inc(report.replayed_records)
        report.replay_rejected = int(
            state._m_replay_rejected.value - rejected_before)
        state._m_recoveries.inc()
        state._g_last_seq.set(state.last_seq)
        if prefix.stale:
            state.snapshot()
        report.last_seq = state.last_seq
        report.active_transfers = len(state.active)
        report.drift_observations = state.drift.observations
        if state.obs.events is not None:
            degraded = bool(report.snapshot_fallbacks or report.torn
                            or report.replay_rejected)
            state.obs.events.emit(
                "durability", "recovered",
                severity="warning" if degraded else "info",
                **report.as_dict(),
            )
        return state, report
