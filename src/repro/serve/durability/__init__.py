"""Durable serving state: write-ahead journal, snapshots, crash recovery.

The paper's online setting (§4.1, §5.5) assumes the predictor always
knows the current overlapping-transfer population — the state the
K*/G*/S* contention features (Eq. 2, Table 2) are computed from.  In a
long-lived serving process that state lives in memory; this package makes
it survive the process:

- :mod:`~repro.serve.durability.journal` — append-only WAL of mutation
  records (:mod:`repro.serve.mutation`), per-record CRC-32 + length
  framing, torn-tail detection and truncation;
- :mod:`~repro.serve.durability.snapshot` — generation-numbered,
  checksummed, atomically replaced state snapshots with fallback past
  corrupt generations;
- :mod:`~repro.serve.durability.segments` — the durable log both the
  serving state and the stream supervisor's checkpoints keep: the
  snapshot-plus-segments layout, :func:`durable_prefix` (the one scan
  that decides which records are durable), where appends resume, and
  how a snapshot rotates and prunes;
- :mod:`~repro.serve.durability.recovery` —
  :class:`DurableServingState` (journal-before-apply mutations) and
  :func:`recover_serving_state` (the durable prefix replayed, provably
  equivalent to an uninterrupted run).

``repro-tools state snapshot|recover|verify`` exposes the layer
operationally; ``docs/durability.md`` documents file formats, the
recovery algorithm, and the failure matrix.
"""

from repro.serve.durability.journal import Journal, JournalScan, TornRecord
from repro.serve.durability.recovery import (
    DurabilityConfig,
    DurableServingState,
    RecoveryReport,
    recover_serving_state,
)
from repro.serve.durability.segments import JournalSegments
from repro.serve.durability.snapshot import LoadedSnapshot, SnapshotStore

__all__ = [
    "Journal",
    "JournalScan",
    "TornRecord",
    "JournalSegments",
    "SnapshotStore",
    "LoadedSnapshot",
    "DurabilityConfig",
    "DurableServingState",
    "RecoveryReport",
    "recover_serving_state",
]
