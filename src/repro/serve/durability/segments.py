"""Numbered journal segments beside a snapshot store.

Both durable consumers keep one layout in one directory — the serving
state (:class:`~repro.serve.durability.recovery.DurableServingState`)
and the stream supervisor's checkpoints
(:class:`~repro.serve.stream.supervisor.StreamSupervisor`)::

    snapshot-00000001.json   generation 1 (a SnapshotStore file)
    wal-00000000.log         records appended before the first snapshot
    wal-00000001.log         records appended after snapshot 1, and so on

Segment ``g`` holds the records appended while generation ``g`` was the
newest, so recovery loads the newest snapshot that verifies and replays
the segments from its generation onward, skipping records whose ``seq``
the snapshot already holds.  :class:`JournalSegments` owns the naming,
the listing, rotation to a fresh segment after each snapshot, and the
pruning that keeps every retained snapshot replayable.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.serve.durability.journal import Journal, JournalScan
from repro.serve.durability.snapshot import SnapshotStore

__all__ = ["JournalSegments"]

_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


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

    def rotate(self, generation: int, snapshots: SnapshotStore,
               keep: int) -> JournalScan:
        """After snapshot ``generation`` lands: open its segment, keep the
        newest ``keep`` snapshots, and delete the segments older than the
        oldest kept one.  Those are only replayable by falling back past
        *every* retained snapshot, so they go — but not before ``keep``
        generations exist, which keeps even corruption of the sole early
        snapshot fully recoverable."""
        scan = self.open(generation)
        snapshots.prune(keep)
        kept = snapshots.generations()
        if len(kept) >= keep:
            for segment in self.generations():
                if segment < kept[0]:
                    self.path_for(segment).unlink(missing_ok=True)
        return scan

    def close(self) -> None:
        """Release the open segment's file handle.  ``journal`` stays the
        append target: its next append reopens the segment."""
        if self.journal is not None:
            self.journal.close()
