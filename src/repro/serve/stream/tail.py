"""Crash-safe tailing of a growing transfer log: :class:`TailIngester`.

A live serving process does not get the luxury of a finished log file —
telemetry arrives by append, the file occasionally gets truncated or
rotated out from under the reader, the last line is frequently
half-written, and reads can fail transiently (NFS, log shippers holding
locks).  The ingester owns exactly that mess:

- **byte-accurate resume**: the read position is tracked as a byte
  offset over *complete* lines only; a partial trailing line (no final
  newline yet) is left in the file untouched and re-read once its
  newline lands.  :meth:`state_dict` / :meth:`load_state` round-trip the
  position, so a checkpointed offset restarts exactly where the previous
  incarnation stopped — no record skipped, none re-read.
- **truncation / rotation detection**: a file that shrank below the
  offset was truncated; a file whose first bytes no longer hash to the
  remembered prefix signature was rotated (same-or-larger size, new
  content).  Both reset the tail to offset 0 and count
  ``stream_tail_resets_total{reason=...}`` — re-ingesting a replaced
  file is correct, silently reading garbage from the middle of it is
  not.
- **bounded lenient parsing**: a poll reads up to the size it stat'ed
  through the batch readers' read loop (:mod:`repro.logs.io`, a block at
  a time), so it quarantines per line what ``read_csv``/``read_jsonl``
  quarantine instead of stalling; the session report keeps counts only.
- **retry with backoff + jitter**: transient ``OSError`` reads are
  retried; :meth:`next_delay` grows exponentially with *consecutive*
  failures (deterministically jittered so a fleet of tails cannot
  thundering-herd a recovering filesystem), and a run of
  ``MAX_CONSECUTIVE_ERRORS`` failures raises :class:`TailError` for the
  supervisor to surface.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exec.retry import BackoffPolicy
from repro.logs.io import QuarantineReport, read_log_blocks
from repro.obs import MetricsRegistry
from repro.obs.events import EventLog, QuarantineBurstDetector

__all__ = ["TailIngester", "TailBatch", "TailError"]

# Bytes of file head hashed into the rotation signature.
_SIGNATURE_BYTES = 4096

# Read-retry backoff (seconds, exponential with jitter) and the run of
# failed reads that raises TailError.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 5.0
BACKOFF_JITTER = 0.25
MAX_CONSECUTIVE_ERRORS = 8


class TailError(RuntimeError):
    """The tail failed ``MAX_CONSECUTIVE_ERRORS`` reads in a row."""


@dataclass(frozen=True)
class TailBatch:
    """One poll's worth of newly completed lines.

    ``records`` holds the kept rows (``LOG_DTYPE``); the offsets bound
    the consumed byte range, so ``end_offset`` is the exact resume point
    a checkpoint must persist.
    """

    records: np.ndarray
    start_offset: int
    end_offset: int
    quarantined: int


class TailIngester:
    """Follow one growing CSV/JSONL log file with durable position."""

    def __init__(
        self,
        path: str | Path,
        fmt: str | None = None,
        registry: MetricsRegistry | None = None,
        seed: int = 0,
    ) -> None:
        self.path = Path(path)
        if fmt is None:
            fmt = "jsonl" if self.path.suffix in (".jsonl", ".ndjson") else "csv"
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown log format: {fmt!r}")
        self.fmt = fmt
        self.registry = registry
        self._backoff = BackoffPolicy(base_s=BACKOFF_BASE_S,
                                      max_s=BACKOFF_MAX_S,
                                      jitter=BACKOFF_JITTER, seed=seed)
        # The session's counts; each poll's rows are dropped once merged.
        self.report = QuarantineReport(source=str(self.path))
        # Attached by the supervisor that owns the event sink.
        self.events: EventLog | None = None
        self.burst: QuarantineBurstDetector | None = None

        self.offset = 0          # byte offset of the first unconsumed byte
        self.line_no = 0         # complete lines consumed so far
        self.signature = ""      # sha256 of the file's first signature_len bytes
        self.signature_len = 0
        self.header_consumed = False  # CSV only
        self.consecutive_errors = 0
        self.resets = 0

    # -- durable position ---------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-ready resume state (persisted inside the supervisor's
        checkpoint, never written here — the checkpoint must be atomic
        with the consumer state or resume stops being exactly-once)."""
        return {
            "path": str(self.path),
            "fmt": self.fmt,
            "offset": int(self.offset),
            "line_no": int(self.line_no),
            "signature": self.signature,
            "signature_len": int(self.signature_len),
            "header_consumed": bool(self.header_consumed),
            "total_rows": int(self.report.total_rows),
            "kept_rows": int(self.report.kept_rows),
            "quarantined_rows": int(self.report.quarantined_rows),
            **({"burst": self.burst.state_dict()}
               if self.burst is not None else {}),
        }

    def load_state(self, state: dict) -> None:
        if state.get("fmt", self.fmt) != self.fmt:
            raise ValueError(
                f"checkpointed format {state.get('fmt')!r} does not match "
                f"this tail's {self.fmt!r}"
            )
        self.offset = int(state.get("offset", 0))
        self.line_no = int(state.get("line_no", 0))
        self.signature = str(state.get("signature", ""))
        self.signature_len = int(state.get("signature_len", 0))
        self.header_consumed = bool(state.get("header_consumed", False))
        self.report.total_rows = int(state.get("total_rows", 0))
        self.report.kept_rows = int(state.get("kept_rows", 0))
        # Checkpoints written before the count was persisted: one
        # quarantined line per refused row.
        self.report.quarantined_rows = int(state.get(
            "quarantined_rows",
            self.report.total_rows - self.report.kept_rows))
        if self.burst is not None:
            self.burst.load_state(state.get("burst", {}))
        self.consecutive_errors = 0

    # -- polling ------------------------------------------------------------

    def poll(self) -> TailBatch | None:
        """Consume every complete line appended since the last poll.

        Returns ``None`` when there is nothing new (or only a partial
        trailing line).  Transient read errors also return ``None`` —
        until ``MAX_CONSECUTIVE_ERRORS`` of them in a row, which raises
        :class:`TailError`.
        """
        delta = QuarantineReport(source=str(self.path))
        chunks: list[np.ndarray] = []
        try:
            size = self.path.stat().st_size
            with self.path.open("rb") as fh:
                self._detect_replacement(fh, size)
                if size <= self.offset:
                    self._mark_ok(lag=0)
                    return None
                fh.seek(self.offset)
                # Only whole lines are consumed: a half-written trailing
                # line stays in the file for the next poll.
                for records, used, line_no, header in read_log_blocks(
                        fh, size - self.offset, self.fmt, delta,
                        self.line_no, self.header_consumed, final=False):
                    chunks.append(records)
                if chunks:
                    fh.seek(0)
                    head = fh.read(min(self.offset + used, _SIGNATURE_BYTES))
        except OSError as exc:
            self._mark_error(exc)
            return None
        self._mark_ok(lag=size - self.offset)
        if not chunks:
            return None

        # Commit the position only after the whole batch parsed.
        start_offset = self.offset
        self.offset += used
        self.line_no, self.header_consumed = line_no, header
        self.signature = hashlib.sha256(head).hexdigest()
        self.signature_len = len(head)
        self.report.merge_counts(delta)
        if self.burst is not None:
            self.burst.observe(
                delta.total_rows, delta.quarantined_rows,
                delta.reason_counts(),
            )
        if self.registry is not None:
            delta.count_into(self.registry, self.fmt)
            self.registry.gauge(
                "stream_tail_offset_bytes",
                "Committed tail read offset.",
                labels={"path": self.path.name},
            ).set(float(self.offset))
        return TailBatch(
            # One block (the usual poll) needs no np.concatenate copy.
            records=chunks[0] if len(chunks) == 1 else np.concatenate(chunks),
            start_offset=start_offset,
            end_offset=self.offset,
            quarantined=delta.quarantined_rows,
        )

    def next_delay(self, idle_s: float) -> float:
        """How long the caller should sleep before the next poll:
        ``idle_s`` when healthy, exponential backoff (with deterministic
        jitter) while reads are failing."""
        return self._backoff.delay(self.consecutive_errors, floor_s=idle_s)

    # -- internals ----------------------------------------------------------

    def _detect_replacement(self, fh, size: int) -> None:
        if size < self.offset:
            self._reset("truncated")
            return
        if self.offset > 0 and self.signature:
            fh.seek(0)
            head = fh.read(self.signature_len)
            if (
                len(head) < self.signature_len
                or hashlib.sha256(head).hexdigest() != self.signature
            ):
                self._reset("rotated")

    def _reset(self, reason: str) -> None:
        self.offset = 0
        self.line_no = 0
        self.signature = ""
        self.signature_len = 0
        self.header_consumed = False
        self.resets += 1
        if self.events is not None:
            self.events.emit(
                "ingest", "tail_reset", severity="warning",
                path=self.path.name, reason=reason,
            )
        if self.registry is not None:
            self.registry.counter(
                "stream_tail_resets_total",
                "Tail position resets (file truncated or rotated).",
                labels={"reason": reason},
            ).inc()

    def _mark_ok(self, lag: int) -> None:
        self.consecutive_errors = 0
        if self.registry is not None:
            self.registry.gauge(
                "stream_tail_lag_bytes",
                "Unconsumed bytes behind the file end at the last poll.",
                labels={"path": self.path.name},
            ).set(float(lag))

    def _mark_error(self, exc: OSError) -> None:
        self.consecutive_errors += 1
        if self.registry is not None:
            self.registry.counter(
                "stream_read_errors_total",
                "Transient tail read failures.",
                labels={"path": self.path.name},
            ).inc()
        if self.consecutive_errors >= MAX_CONSECUTIVE_ERRORS:
            raise TailError(
                f"{self.path}: {self.consecutive_errors} consecutive read "
                f"failures (last: {exc!r})"
            ) from exc
