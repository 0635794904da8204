"""Append-only write-ahead journal with CRC + length framing.

The serving process journals every :class:`~repro.serve.ActiveSet`
mutation and drift observation *before* applying it in memory (classic
WAL ordering): after a crash, the newest snapshot plus the journal suffix
reconstructs the exact pre-crash state, and anything the journal never
acknowledged is simply re-fed by the upstream event source.

Framing — per record::

    [u32 payload length][u32 CRC-32 of payload][payload bytes (JSON)]

both integers little-endian.  A process killed at an arbitrary byte
offset leaves a *torn tail*: a partial header, a partial payload, or a
payload whose CRC no longer matches.  :meth:`Journal.scan` detects all
three, reports every intact prefix record, and returns the byte offset of
the tear so the tail can be truncated away instead of poisoning recovery.
Payloads carry a strictly increasing ``seq`` so replay after a snapshot
can skip records the snapshot already incorporates.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Journal", "JournalScan", "TornRecord"]

_HEADER = struct.Struct("<II")
_MAX_RECORD_BYTES = 64 * 1024 * 1024  # sanity cap: a longer length is garbage


@dataclass(frozen=True)
class TornRecord:
    """Where and why a journal's tail stopped being parseable."""

    offset: int          # byte offset of the first unusable record
    reason: str          # "partial_header" | "partial_payload" | ...


@dataclass
class JournalScan:
    """Everything one pass over a journal file recovered."""

    records: list[dict] = field(default_factory=list)
    valid_bytes: int = 0
    torn: TornRecord | None = None

    @property
    def truncated_bytes(self) -> int:
        return getattr(self, "_file_size", self.valid_bytes) - self.valid_bytes


class Journal:
    """One append-only journal segment.

    ``fsync=True`` makes every append durable before it returns (the
    strongest guarantee, one ``fsync`` per record); ``fsync=False`` still
    flushes to the OS, so records survive a process crash but not a power
    cut — the right trade for a replayable upstream.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._fh = None
        self._last_seq: int | None = None
        self.frame_bytes = 0  # size of the last appended frame

    # -- reading -----------------------------------------------------------

    @classmethod
    def scan_file(cls, path: str | Path) -> JournalScan:
        """Parse every intact record; stop (and report) at the first tear.

        A missing file scans as empty — journal-only cold starts and
        freshly rotated segments look the same to recovery.
        """
        path = Path(path)
        scan = JournalScan()
        if not path.exists():
            scan._file_size = 0
            return scan
        data = path.read_bytes()
        scan._file_size = len(data)
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                scan.torn = TornRecord(offset, "partial_header")
                break
            length, crc = _HEADER.unpack_from(data, offset)
            if length > _MAX_RECORD_BYTES:
                scan.torn = TornRecord(offset, "bad_length")
                break
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                scan.torn = TornRecord(offset, "partial_payload")
                break
            payload = data[start:end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                scan.torn = TornRecord(offset, "crc_mismatch")
                break
            try:
                record = json.loads(payload)
            except ValueError:
                scan.torn = TornRecord(offset, "bad_json")
                break
            if not isinstance(record, dict):
                scan.torn = TornRecord(offset, "not_object")
                break
            scan.records.append(record)
            scan.valid_bytes = end
            offset = end
        return scan

    # -- writing -----------------------------------------------------------

    def open_for_append(self) -> JournalScan:
        """Open the segment for appending, first truncating any torn tail
        so new records start at a valid frame boundary.  Returns the scan
        (including how many bytes were cut), and primes the last-seen
        ``seq`` so appends continue the sequence monotonically."""
        scan = self.scan_file(self.path)
        if scan.torn is not None:
            with self.path.open("r+b") as fh:
                fh.truncate(scan.valid_bytes)
                if self.fsync:
                    os.fsync(fh.fileno())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("ab")
        if scan.records:
            last = scan.records[-1].get("seq")
            self._last_seq = int(last) if last is not None else None
        return scan

    def append(self, record: dict) -> int:
        """Frame and append one record; returns its end offset (the
        frame's size is left in :attr:`frame_bytes`).

        Enforces the WAL's ordering invariant: a record carrying ``seq``
        must be strictly newer than the previous one.
        """
        if self._fh is None:
            self.open_for_append()
        seq = record.get("seq")
        if seq is not None:
            seq = int(seq)
            if self._last_seq is not None and seq <= self._last_seq:
                raise ValueError(
                    f"journal seq must increase: {seq} after {self._last_seq}"
                )
            self._last_seq = seq
        payload = json.dumps(record, allow_nan=False).encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        self._fh.write(frame + payload)
        self.frame_bytes = len(frame) + len(payload)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        return self._fh.tell()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        self.open_for_append()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
