"""The durable log: numbered journal segments beside a snapshot store.

Both durable consumers keep one layout in one directory — the serving
state (:class:`~repro.serve.durability.recovery.DurableServingState`)
and the stream supervisor's checkpoints
(:class:`~repro.serve.stream.supervisor.StreamSupervisor`)::

    snapshot-00000001.json   generation 1 (a SnapshotStore file)
    wal-00000000.log         records appended before the first snapshot
    wal-00000001.log         records appended after snapshot 1, and so on

Segment ``g`` holds the records appended while generation ``g`` was the
newest.  This module is the whole on-disk protocol both consumers share:

- which records are durable — :func:`durable_prefix`, the one scan
  behind every recovery and offline reader;
- where the next append goes — :meth:`JournalSegments.resume`;
- how a snapshot writes, rotates and prunes —
  :meth:`JournalSegments.commit_snapshot`.

The consumers differ only in what a record holds and how they apply the
prefix's records to the snapshot's state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from repro.serve.durability.journal import Journal, JournalScan, TornRecord
from repro.serve.durability.snapshot import LoadedSnapshot, SnapshotStore

__all__ = ["DurablePrefix", "JournalSegments", "durable_prefix"]

_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


@dataclass(frozen=True)
class DurablePrefix:
    """The durable state of one directory, as :func:`durable_prefix`
    found it: a base snapshot and the records that extend it."""

    snapshot: LoadedSnapshot | None   # newest snapshot that verifies
    rejected: tuple[int, ...]         # corrupt snapshot generations skipped
    records: list[dict]               # records past the base, oldest first
    seq: int                          # seq of the last durable record
    torn: TornRecord | None           # the tear that ended the scan
    generation: int                   # newest snapshot or segment on disk
    stale: bool                       # records past ``seq`` it cannot reach


def durable_prefix(directory: str | Path) -> DurablePrefix:
    """The newest snapshot that verifies, then the records after it.

    Records extend their base one ``seq`` at a time, so the scan stops
    at the first tear and at the first gap in the ``seq`` chain.  A tear
    in the newest segment is a crash cutting the last append, and
    :meth:`JournalSegments.resume` truncates it.  Anything else leaves
    records on disk the scan cannot reach (``stale``: bytes rotted, a
    segment went missing): the prefix ends before them, and they must
    never be extended, because a state built on them never existed.
    Reads only."""
    snapshots = SnapshotStore(directory)
    segments = JournalSegments(directory)
    loaded = snapshots.load_latest()
    seq = loaded.last_seq if loaded is not None else 0
    start = loaded.generation if loaded is not None else 0
    on_disk = segments.generations()
    generation = max(snapshots.generations() + on_disk, default=0)
    records: list[dict] = []
    torn = None
    stale = False
    for segment in [g for g in on_disk if g >= start]:
        scan = Journal.scan_file(segments.path_for(segment))
        for record in scan.records:
            n = int(record.get("seq", 0))
            if n <= seq:
                continue            # already in the base snapshot
            if n != seq + 1:
                stale = True
                break
            records.append(record)
            seq = n
        if stale or scan.torn is not None:
            torn = None if stale else scan.torn
            stale = stale or segment != generation
            break
    return DurablePrefix(
        snapshot=loaded,
        rejected=(loaded.rejected if loaded is not None
                  else tuple(reversed(snapshots.generations()))),
        records=records,
        seq=seq,
        torn=torn,
        generation=generation,
        stale=stale,
    )


class JournalSegments:
    """The ``wal-<generation>.log`` segments of one directory, and the
    one :class:`Journal` open for appending (``journal``)."""

    def __init__(self, directory: str | Path, fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.fsync = bool(fsync)
        self.journal: Journal | None = None

    def path_for(self, generation: int) -> Path:
        return self.directory / f"wal-{generation:08d}.log"

    def generations(self) -> list[int]:
        """All on-disk segment generations, ascending."""
        if not self.directory.exists():
            return []
        out = []
        for entry in self.directory.iterdir():
            m = _WAL_RE.match(entry.name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def open(self, generation: int) -> JournalScan:
        """Close the open segment and open ``generation`` for appending,
        truncating a torn tail first (see :meth:`Journal.open_for_append`,
        whose scan is returned)."""
        self.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(self.path_for(generation), fsync=self.fsync)
        return self.journal.open_for_append()

    def resume(self, prefix: DurablePrefix) -> tuple[int, JournalScan]:
        """Open the segment the next append after ``prefix`` goes to;
        return its generation and scan (``truncated_bytes``: what was
        cut).  That is the newest on disk, its torn tail truncated — or,
        when ``prefix.stale``, a fresh one past everything on disk.
        Records there are reachable only once a snapshot is their base,
        so the caller snapshots before it relies on one."""
        generation = prefix.generation + int(prefix.stale)
        return generation, self.open(generation)

    def commit_snapshot(self, snapshots: SnapshotStore, generation: int,
                        sections: dict, last_seq: int, keep: int) -> Path:
        """Write snapshot ``generation`` (every record up to ``last_seq``)
        and open its fresh segment.  Then keep the newest ``keep``
        snapshots and delete the segments older than the oldest kept one
        — but not before ``keep`` generations exist, so even corruption
        of the sole early snapshot stays recoverable.  Returns the
        snapshot's path."""
        path = snapshots.write(generation, sections, last_seq=last_seq)
        self.open(generation)
        snapshots.prune(keep)
        kept = snapshots.generations()
        if len(kept) >= keep:
            for segment in self.generations():
                if segment < kept[0]:
                    self.path_for(segment).unlink(missing_ok=True)
        return path

    def close(self) -> None:
        """Release the open segment's file handle.  ``journal`` stays the
        append target: its next append reopens the segment."""
        if self.journal is not None:
            self.journal.close()
